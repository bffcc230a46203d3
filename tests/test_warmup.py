import math

from conftest import edge_id
from ftspanner.graphs import generate
from ftspanner.rng import substream, vertex_stream
from ftspanner.verify import verify_spanner
from ftspanner.warmup import build_3spanner, warmup_size_report

import pytest


def test_tree_comes_back_whole():
    t = generate("tree", n=30, seed=4)
    res = build_3spanner(t, 1, seed=0)
    assert set(res.edges) == set(range(t.m))


def test_rejects_f_at_least_n():
    g = generate("complete", n=5)
    with pytest.raises(ValueError):
        build_3spanner(g, 5)


def test_complete_graph_cluster_lists():
    k15 = generate("complete", n=15, seed=0)
    res = build_3spanner(k15, 1, seed=0, record_detail=True)
    detail = res.extras["detail"]
    centers = set(detail["centers"])
    for v, s_v in detail["s_of"].items():
        v = int(v)
        assert len(s_v) == 4
        assert set(s_v) <= centers
        # the 4f lightest center edges by the global order
        hits = [(w, eid, x) for (w, eid, x) in k15.adj[v] if x in centers]
        assert s_v == [x for _, _, x in hits[:4]]
    # unclustered vertices are exactly those short of 4f sampled neighbors
    for v in range(15):
        hits = sum(1 for (_, _, x) in k15.adj[v] if x in centers)
        assert (str(v) in detail["s_of"]) == (hits >= 4)


def test_accepts_match_observed_centers():
    g = generate("gnp", n=40, p=0.5, seed=7, weights=(1, 100))
    res = build_3spanner(g, 1, seed=3, p_override=0.6, record_detail=True)
    detail = res.extras["detail"]
    assert detail["accepts"], "expected clustered vertices in this regime"
    assert detail["accepts"] == detail["observed"]


def test_light_edges_below_center_cap():
    g = generate("gnp", n=40, p=0.5, seed=7, weights=(1, 100))
    res = build_3spanner(g, 1, seed=3, p_override=0.6, record_detail=True)
    detail = res.extras["detail"]
    h = set(res.edges)
    for v_str, s_v in detail["s_of"].items():
        v = int(v_str)
        cap = max((g.edges[eid][2], eid)
                  for (_, eid, x) in g.adj[v] if x in s_v
                  for eid in [edge_id(g, v, x)])
        for w, eid, x in g.adj[v]:
            if (w, eid) < cap:
                assert eid in h, f"light edge {eid} at vertex {v} missing"


def test_exhaustive_protection_small_graphs():
    fixtures = [
        (generate("gnp", n=40, p=0.5, seed=7), 1, 7),
        (generate("gnp", n=40, p=0.5, seed=7, weights=(1, 100)), 1, 3),
        (generate("complete", n=15, seed=0), 2, 1),
        (generate("grid", rows=5, cols=5), 1, 2),
    ]
    for g, f, seed in fixtures:
        res = build_3spanner(g, f, seed=seed)
        assert set(res.edges) <= set(range(g.m))
        rep = verify_spanner(g, res.edges, f, 2)
        assert rep.passed, rep.violations[:3]


def test_protection_with_forced_clustering():
    g = generate("gnp", n=40, p=0.5, seed=7, weights=(1, 100))
    for seed in range(3):
        res = build_3spanner(g, 1, seed=seed, p_override=0.6)
        assert res.extras["unclustered"] < g.n
        rep = verify_spanner(g, res.edges, 1, 2)
        assert rep.passed, rep.violations[:3]


def test_size_report():
    t = generate("tree", n=30, seed=4)
    res = build_3spanner(t, 1, seed=0)
    rpt = warmup_size_report(res)
    assert rpt["edges"] == 29
    assert rpt["edges"] <= rpt["bound"]

    empty = generate("gnp", n=4, p=0.0, seed=0)
    res = build_3spanner(empty, 1, seed=0)
    assert res.edge_count == 0

    k200 = generate("complete", n=200, seed=0)
    res = build_3spanner(k200, 2, seed=1)
    rpt = warmup_size_report(res)
    assert rpt["edges"] <= rpt["bound"]
    assert rpt["edges"] < k200.m  # genuinely sparser at this scale


def test_seed_reproducible():
    g = generate("gnp", n=30, p=0.4, seed=7)
    a = build_3spanner(g, 1, seed=5)
    b = build_3spanner(g, 1, seed=5)
    assert a.to_json() == b.to_json()


def _list_step_two(g, seed, c_s, detail):
    """Step two from per-edge lists of every sampled center, duplicates
    included, on the clustering in detail. Returns (edges, accepts,
    observed) in record_detail's form; the build is compared against it."""
    s_of = {int(v): cs for v, cs in detail["s_of"].items()}
    h_prime = set()
    for v in range(g.n):
        if v not in s_of:
            h_prime.update(eid for _, eid, _ in g.adj[v])
        else:
            cap = max(g.key(edge_id(g, v, x)) for x in s_of[v])
            h_prime.update(eid for w, eid, _ in g.adj[v] if (w, eid) <= cap)
    n_samples = max(1, c_s * math.ceil(math.log2(max(g.n, 2))))
    sampled = {}
    for v in sorted(s_of):
        rng = vertex_stream(seed, "wsample", 0, v)
        sampled[v] = [s_of[v][rng.randrange(len(s_of[v]))] for _ in range(n_samples)]
    e_tilde, accepts, observed = set(), {}, {}
    for v in sorted(s_of):
        seen = set()
        accepts[str(v)] = 0
        for w, eid, u in g.adj[v]:
            if eid in h_prime:
                continue
            fresh = [s for s in sampled[u] if s not in seen]
            if fresh:
                seen.add(min(fresh))
                e_tilde.add(eid)
                accepts[str(v)] += 1
        observed[str(v)] = len(seen)
    return sorted(h_prime | e_tilde), accepts, observed


def test_step_two_matches_list_oracle():
    rng = substream(5, "warmup-oracle")
    dropped = accepted = 0
    for case in range(50):
        n = rng.randint(8, 40)
        weights = (1, 1000) if rng.random() < 0.5 else None
        if rng.random() < 0.5:
            g = generate("complete", n=n, seed=case, weights=weights)
        else:
            g = generate("gnp", n=n, p=rng.uniform(0.3, 0.9), seed=case, weights=weights)
        f = rng.randint(1, 2)
        p = rng.choice([None, 0.4, 0.7])
        res = build_3spanner(g, f, seed=case, p_override=p, record_detail=True)
        detail = res.extras["detail"]
        want = _list_step_two(g, case, 4, detail)
        assert (list(res.edges), detail["accepts"], detail["observed"]) == want, case
        dropped += g.m - res.edge_count
        accepted += sum(detail["accepts"].values())
    # step two both keeps and drops leftover edges across the cases
    assert accepted > 0 and dropped > 0
