import math

import pytest

from ftspanner.detkit import (HittingInstance, InadmissibleInstance,
                              beta_hitting_set, build_ft_spanner_det,
                              det_cluster_threshold)
from ftspanner.graphs import generate
from ftspanner.meta import check_invariants
from ftspanner.rng import substream
from ftspanner.verify import verify_spanner


def test_identical_sets_need_one_element():
    inst = HittingInstance(ground=tuple(range(10)),
                           sets=(tuple(range(10)),) * 3, delta=5.0)
    assert beta_hitting_set(inst) == {0}  # max coverage, smallest id on ties


def test_disjoint_sets_counting():
    ell, delta = 3, 2.0
    size = math.ceil(delta * max(1, math.ceil(math.log(ell))))
    sets = tuple(tuple(range(i * size, (i + 1) * size)) for i in range(ell))
    inst = HittingInstance(ground=tuple(range(ell * size)), sets=sets, delta=delta)
    got = beta_hitting_set(inst)
    assert len(got) == ell
    assert ell <= len(inst.ground) / delta


def test_inadmissible_names_the_set():
    inst = HittingInstance(ground=tuple(range(10)), sets=((0,), (0, 1, 2)),
                           delta=5.0)
    with pytest.raises(InadmissibleInstance, match="set 0"):
        beta_hitting_set(inst)


@pytest.mark.parametrize("beta", [0, 1.5, True])
def test_beta_must_be_a_positive_integer(beta):
    inst = HittingInstance(ground=(0, 1, 2, 3), sets=((0, 1),), delta=1.0, beta=beta)
    with pytest.raises(InadmissibleInstance, match="beta"):
        beta_hitting_set(inst)


def _random_admissible(rng, beta):
    ell = rng.randint(2, 20)
    delta = rng.uniform(1.5, 6.0)
    need = math.ceil(beta * delta * max(1, math.ceil(math.log(ell))))
    ground_n = max(2 * need, math.ceil(delta * (need + ell)), 4 * need)
    sets = tuple(tuple(sorted(rng.sample(range(ground_n),
                                         rng.randint(need, min(2 * need, ground_n)))))
                 for _ in range(ell))
    return HittingInstance(ground=tuple(range(ground_n)), sets=sets,
                           delta=delta, beta=beta)


@pytest.mark.parametrize("beta", [1, 2, 4, 8])
def test_random_admissible_contracts(beta):
    rng = substream(42, "hitting", beta)
    for _ in range(100):
        inst = _random_admissible(rng, beta)
        got = beta_hitting_set(inst)
        assert len(got) <= len(inst.ground) / inst.delta
        for s in inst.sets:
            assert len(got & set(s)) >= beta


def test_beta_on_identical_full_sets():
    inst = HittingInstance(ground=tuple(range(60)), sets=(tuple(range(60)),) * 4,
                           delta=4.0, beta=3)
    got = beta_hitting_set(inst)
    assert len(got & set(range(60))) >= 3
    assert len(got) <= 15


def test_det_build_fully_deterministic(gnp30):
    a = build_ft_spanner_det(gnp30, 1, 2)
    b = build_ft_spanner_det(gnp30, 1, 2)
    assert a.to_json() == b.to_json()


def test_det_build_tree_and_verification(gnp30):
    t = generate("tree", n=30, seed=4)
    res = build_ft_spanner_det(t, 1, 2)
    assert set(res.edges) == set(range(t.m))
    res = build_ft_spanner_det(gnp30, 1, 2, record_states=True)
    assert not [d for st in res.states for d in check_invariants(st)]
    assert verify_spanner(gnp30, res.edges, 1, 2).passed


def test_det_build_with_clustering():
    # dense enough that fans reach the hitting-set threshold, so the
    # deterministic center-selection path genuinely runs
    g = generate("complete", n=300, seed=0, weights=(1, 1000))
    res = build_ft_spanner_det(g, 1, 2, c_k=1, record_states=True)
    assert res.extras["cluster_threshold"] == det_cluster_threshold(300, 1, 2, 2)
    assert res.trace[0].clustered > 0
    assert res.trace[0].centers <= 300 * (1 / 300) ** 0.5  # |Z_1| <= n*p
    assert res.edge_count < g.m
    assert not [d for st in res.states for d in check_invariants(st)]
    # spot-check protection of dropped edges (full verification of the
    # clustered regime runs on the small fixtures)
    from ftspanner.graphs import Graph
    from ftspanner.verify import is_protected

    h = Graph(g.n, [g.edges[e] for e in res.edges])
    missing = sorted(set(range(g.m)) - set(res.edges))
    rng = substream(1, "detspot")
    for eid in rng.sample(missing, 8):
        u, v, w = g.edges[eid]
        assert is_protected(h, u, v, w, 1, 2), (u, v, w)


def test_det_threshold_is_admissible():
    # the fan-size threshold must keep every hitting instance admissible
    for n, f, k, c_k in [(100, 1, 2, 1), (1000, 2, 3, 2), (5000, 8, 3, 20)]:
        k_f = c_k * k * f
        delta = (n / f) ** (1 / k)
        t = det_cluster_threshold(n, f, k, k_f)
        for ell in (1, 2, n // 2, n):
            need = k_f * delta * max(1, math.ceil(math.log(max(ell, 1))))
            assert t >= need
