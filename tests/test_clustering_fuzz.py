"""Fuzz every builder in the regime where vertices cluster (dense graphs,
n <= 30, c_k = 1) and verify each build exhaustively.

With the default c_k the fan threshold exceeds the degree of graphs this
small, every builder returns G, and verification passes vacuously; so the
test also asserts that most builds dropped edges. The randomized builders
and the warm-up do; det does not at this size, because its cluster
threshold (at least 32 here) exceeds every degree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from ftspanner.congest import simulate_distributed_spanner
from ftspanner.detkit import build_ft_spanner_det
from ftspanner.graphs import generate
from ftspanner.meta import build_ft_spanner
from ftspanner.verify import verify_spanner
from ftspanner.warmup import build_3spanner


@st.composite
def dense_cases(draw):
    n = draw(st.sampled_from(range(16, 31)))
    seed = draw(st.integers(0, 10**6))
    weights = draw(st.sampled_from([None, (1, 1000)]))
    if draw(st.booleans()):
        g = generate("complete", n=n, seed=seed, weights=weights)
    else:
        g = generate("gnp", n=n, p=draw(st.sampled_from([0.6, 0.8, 0.9])),
                     seed=seed, weights=weights)
    return g, draw(st.integers(1, 2)), draw(st.integers(2, 3)), seed


def test_clustering_regime_fuzz():
    dropped = []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dense_cases())
    def check(case):
        g, f, k, seed = case
        seq = build_ft_spanner(g, f, k, seed=seed, c_k=1)
        builds = {
            "seq": (seq, k),
            "mod": (build_ft_spanner(g, f, k, seed=seed, c_k=1, variant="mod"), k),
            "mod-parallel": (build_ft_spanner(g, f, k, seed=seed, c_k=1, variant="mod",
                                              mis="parallel"), k),
            "det": (build_ft_spanner_det(g, f, k, c_k=1), k),
            "warmup": (build_3spanner(g, f, seed=seed, p_override=0.5), 2),
        }
        sim, _ = simulate_distributed_spanner(g, f, k, seed=seed, c_k=1)
        assert sim.edges == seq.edges
        for label, (res, stretch_k) in builds.items():
            rep = verify_spanner(g, res.edges, f, stretch_k)
            assert rep.passed, (label, rep.violations[:3])
            dropped.append(res.edge_count < g.m)

    check()
    assert sum(dropped) > len(dropped) / 2, f"{sum(dropped)}/{len(dropped)} builds dropped edges"
