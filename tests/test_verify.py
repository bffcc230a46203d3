import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (certificate_direct, pg_blowup, protected_direct, small_random_graph,
                      worst_dist_direct)
from ftspanner import meta, verify
from ftspanner.graphs import Graph, dist, generate
from ftspanner.meta import build_ft_spanner
from ftspanner.rng import substream
from ftspanner.verify import (DEFAULT_CAP, BudgetExceeded, _branch, _Budget, _dist_avoid,
                              _relevant, _sssp_upto, _subgraph_adj, is_protected,
                              verify_certificate, verify_spanner)

INF = math.inf


def test_single_edge_always_protected():
    h = Graph(2, [(0, 1, 5)])
    for f in (1, 2, 3):
        assert is_protected(h, 0, 1, 5, f, 1)


def test_two_hop_detour_not_protected_at_i1():
    h = Graph(3, [(0, 2, 1), (2, 1, 1)])  # u-x-v only
    assert not is_protected(h, 0, 1, 1, 1, 1)


def test_triangle_heavy_edge_protected(triangle):
    assert is_protected(triangle, 0, 2, 4, 1, 2)


def test_protection_monotone_under_edge_addition():
    rng = substream(31, "mono")
    for _ in range(60):
        g = small_random_graph(rng.randrange(10**6))
        if g.m < 2:
            continue
        eid = rng.randrange(g.m)
        u, v, w = g.edges[eid]
        kept = [i for i in range(g.m) if rng.random() < 0.5 and i != eid]
        h_small = Graph(g.n, [g.edges[i] for i in kept])
        h_big = Graph(g.n, [g.edges[i] for i in sorted(set(kept) | {eid})])
        if is_protected(h_small, u, v, w, 1, 2):
            assert is_protected(h_big, u, v, w, 1, 2)


def test_oracle_soundness_dual_coding():
    # The branching check must agree with the definition-unrolled scan
    # on a large batch of micro instances.
    rng = substream(99, "dual")
    checked = 0
    for trial in range(1000):
        g = small_random_graph(trial)
        if g.m == 0:
            continue
        eid = rng.randrange(g.m)
        u, v, w = g.edges[eid]
        kept = [i for i in range(g.m) if rng.random() < 0.6]
        h = Graph(g.n, [g.edges[i] for i in kept])
        f = rng.randint(0, 2)
        i = rng.randint(1, 3)
        assert is_protected(h, u, v, w, f, i) == protected_direct(h, u, v, w, f, i)
        checked += 1
    assert checked >= 900


@st.composite
def host_cases(draw):
    """(g, kept edge ids, f, i): small weighted or unit graphs with random
    subsets, planted violations and real builds with kept edges removed."""
    kind = draw(st.sampled_from(["subset", "cycle", "star", "build"]))
    weights = draw(st.sampled_from([None, (1, 8)]))
    seed = draw(st.integers(0, 10**6))
    f = draw(st.integers(0, 2))
    i = draw(st.integers(1, 3))
    if kind == "subset":
        n = draw(st.integers(2, 8))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
        g = Graph(n, [(a, b, draw(st.integers(1, 8)) if weights else 1)
                      for a, b in sorted(chosen)])
        kept = [e for e in range(g.m) if draw(st.booleans())]
    elif kind == "cycle":
        g = generate("cycle", n=draw(st.integers(3, 8)), seed=seed, weights=weights)
        heaviest = max(range(g.m), key=g.key)
        kept = [e for e in range(g.m) if e != heaviest]
    elif kind == "star":
        g = generate("complete", n=draw(st.integers(4, 6)), seed=seed, weights=weights)
        centre = draw(st.integers(0, g.n - 1))
        kept = [e for e, (a, b, _) in enumerate(g.edges) if centre in (a, b)]
    else:
        g = generate("complete", n=draw(st.integers(6, 9)), seed=seed, weights=weights)
        res = build_ft_spanner(g, max(f, 1), max(i, 2), seed=seed, c_k=1)
        kept = list(res.edges)
        for _ in range(draw(st.integers(1, 3))):
            kept.remove(draw(st.sampled_from(kept)))
    return g, kept, f, i


def test_branching_matches_definition():
    # The branching check must agree on every edge with the scan of every
    # fault set up to f: the same verdict, the same worst ratio on a
    # protected edge, and on a violated one a witness that breaks the
    # bound. is_protected must give the same verdict.
    verdicts = []

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(host_cases())
    def check(case):
        g, kept, f, i = case
        h = Graph(g.n, [g.edges[e] for e in kept])
        adj = _subgraph_adj(h, range(h.m))
        for u, v, w in g.edges:
            bound = (2 * i - 1) * w
            mv = _sssp_upto(adj, v, bound)
            base, relevant, interior = _relevant(_sssp_upto(adj, u, bound), mv, u, v, bound)
            worst, dead = _branch(adj, u, v, w, bound, min(f, relevant), base, interior,
                                  mv, _Budget(DEFAULT_CAP))
            worst_dist = worst_dist_direct(h, u, v, f)
            ok = dead is None
            assert ok == (worst_dist <= bound) == is_protected(h, u, v, w, f, i)
            if ok:
                assert worst == worst_dist / w
            else:
                assert u not in dead and v not in dead and len(dead) <= f
                assert dist(h, u, v, dead) > bound
            verdicts.append((ok, base <= bound))

    check()
    # Non-vacuous: many edges pass, and some survive F = {} but not all F.
    assert verdicts.count((True, True)) >= 100
    assert verdicts.count((False, True)) >= 20


def test_goal_directed_search_matches_plain_search():
    # A* toward v, with v's fault-free map as the heuristic, must find the
    # plain search's distance under any dead set, along a path that avoids
    # the dead set and has exactly that length.
    found = []

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(host_cases(), st.data())
    def check(case, data):
        g, kept, _, i = case
        h = Graph(g.n, [g.edges[e] for e in kept])
        adj = _subgraph_adj(h, range(h.m))
        weight = {}
        for a, b, w in h.edges:
            weight[a, b] = weight[b, a] = w
        for u, v, w in g.edges:
            bound = (2 * i - 1) * w
            goal, _ = _sssp_upto(adj, v, bound + data.draw(st.integers(0, 8)))
            others = [x for x in range(g.n) if x != u and x != v]
            dead = frozenset(data.draw(st.lists(st.sampled_from(others), max_size=2))
                             if others else ())
            d, interior = _dist_avoid(adj, u, v, dead, bound, goal)
            assert d == _dist_avoid(adj, u, v, dead, bound)[0]
            if d < INF:
                walk = [v, *interior, u]
                assert not dead & set(walk)
                assert sum(weight[a, b] for a, b in zip(walk, walk[1:])) == d
            found.append((bool(dead), d < INF))

    check()
    # Non-vacuous: faulted searches both succeed and fail within the bound.
    assert found.count((True, True)) >= 100
    assert found.count((True, False)) >= 20


def _popped_vertices(monkeypatch):
    """Record the vertex of every heap pop that verify makes from now on."""
    popped = []
    real = verify.heappop

    def pop(heap):
        item = real(heap)
        popped.append(item[1])
        return item

    monkeypatch.setattr(verify, "heappop", pop)
    return popped


def _pushed_vertices(monkeypatch):
    """Record the vertex of every heap push that verify makes from now on."""
    pushed = []
    real = verify.heappush

    def push(heap, item):
        pushed.append(item[1])
        real(heap, item)

    monkeypatch.setattr(verify, "heappush", push)
    return pushed


def test_leaf_search_matches_full_search(monkeypatch):
    # Given v's parents from the same map, a leaf search may return once no
    # key in the heap is below the length of a known u-v walk avoiding the
    # dead set. Its distance must be the full search's, and within the
    # bound the distance in H - F. An interior search, which also asks for
    # the path, only skips pushes above that length, so it must return the
    # full search's distance and interior path. Unit weights make ties.
    popped = _popped_vertices(monkeypatch)
    pushed = _pushed_vertices(monkeypatch)
    found, pruned = [], []

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(host_cases(), st.data())
    def check(case, data):
        g, kept, _, i = case
        h = Graph(g.n, [g.edges[e] for e in kept])
        adj = _subgraph_adj(h, range(h.m))
        for u, v, w in g.edges:
            bound = (2 * i - 1) * w
            goal, route = _sssp_upto(adj, v, bound + data.draw(st.integers(0, 8)))
            others = [x for x in range(g.n) if x != u and x != v]
            dead = frozenset(data.draw(st.lists(st.sampled_from(others), max_size=2))
                             if others else ())
            pushed.clear()
            full = _dist_avoid(adj, u, v, dead, bound, goal)
            full_pushes = len(pushed)
            pushed.clear()
            assert _dist_avoid(adj, u, v, dead, bound, goal, route, True) == full
            pruned.append(len(pushed) < full_pushes and bool(full[1]))
            popped.clear()
            d, _ = _dist_avoid(adj, u, v, dead, bound, goal, route)
            assert d == full[0]
            if d <= bound:
                assert d == dist(h, u, v, dead)
            found.append((bool(dead), d < INF and v not in popped, d == INF))

    check()
    # Non-vacuous: the exit fires under faults before v is popped, both
    # searches fail within the bound, and interior searches skip pushes.
    assert found.count((True, True, False)) >= 100
    assert found.count((True, False, True)) >= 20
    assert pruned.count(True) >= 100


def _branch_searches(monkeypatch, g, f):
    """The arguments of every path search that verifying a meta-seq build
    of g (k=2, c_k=1, seed 1) makes; the verification must pass."""
    res = build_ft_spanner(g, f, 2, seed=1, c_k=1)
    calls = []
    real = verify._dist_avoid

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify, "_dist_avoid", recorded)
    assert verify_spanner(g, res.edges, f, 2).passed
    monkeypatch.undo()
    return calls


def test_leaf_searches_pop_at_most_half_of_full_searches(monkeypatch):
    # K40 unit-weight meta-seq at f=1, k=2: every branch search is a leaf.
    # Replayed without v's parents, the same searches pop at least twice
    # as many heap entries, and return the same distances.
    calls = _branch_searches(monkeypatch, generate("complete", n=40, seed=1), 1)
    real = verify._dist_avoid
    assert len(calls) == 435
    popped = _popped_vertices(monkeypatch)
    leaf = [real(*args)[0] for args in calls]
    leaf_pops = len(popped)
    popped.clear()
    assert [real(*args[:6])[0] for args in calls] == leaf
    assert leaf_pops * 2 <= len(popped), f"{leaf_pops} pops against {len(popped)}"


@pytest.mark.parametrize("n, weights, f, pins", [
    # K40 unit weights, f=1, k=2: every search is a leaf, and its first
    # expansion finds a fault-free route below every other key.
    (40, None, 1, (435, 0, 4_350)),
    # K40 weights 1..1000, f=2, k=2: 1,381 leaf and 421 interior searches.
    (40, (1, 1000), 2, (1_802, 24_254, 142_806)),
])
def test_route_searches_push_a_fraction_of_full_searches(monkeypatch, n, weights, f, pins):
    # Replayed without v's parents, the branch searches of a meta-seq
    # verification (k=2) return the same distances and push at least five
    # times as many heap entries.
    calls = _branch_searches(monkeypatch, generate("complete", n=n, seed=1, weights=weights), f)
    real = verify._dist_avoid
    pushed = _pushed_vertices(monkeypatch)
    routed = [real(*args)[0] for args in calls]
    route_pushes = len(pushed)
    pushed.clear()
    assert [real(*args[:6])[0] for args in calls] == routed
    assert (len(calls), route_pushes, len(pushed)) == pins
    assert route_pushes * 5 <= len(pushed)


def test_map_at_larger_cutoff_agrees_within_bound():
    # Within the bound, a capped map taken at a larger cutoff has the same
    # distances and parents as one taken at the bound.
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(host_cases(), st.integers(1, 20))
    def check(case, extra):
        g, kept, _, i = case
        h = Graph(g.n, [g.edges[e] for e in kept])
        adj = _subgraph_adj(h, range(h.m))
        for u, _, w in g.edges:
            bound = (2 * i - 1) * w
            dist, parent = _sssp_upto(adj, u, bound)
            wide_dist, wide_parent = _sssp_upto(adj, u, bound + extra)
            assert {x: d for x, d in wide_dist.items() if d <= bound} == dist
            assert {x: p for x, p in wide_parent.items() if wide_dist[x] <= bound} == parent

    check()


def test_one_capped_map_per_vertex(monkeypatch):
    # verify_spanner takes each vertex's capped map once, however many of
    # its edges were dropped, at the largest bound over those edges.
    g = generate("complete", n=40, seed=2, weights=(1, 1000))
    res = build_ft_spanner(g, 1, 3, seed=2, c_k=1)
    kept = set(res.edges)
    assert len(kept) < g.m
    expected = {}
    for e in range(g.m):
        if e not in kept:
            u, v, w = g.edges[e]
            for x in (u, v):
                expected[x] = max(expected.get(x, 0), 5 * w)
    calls = []
    real = verify._sssp_upto

    def counted(adj, src, cutoff):
        calls.append((src, cutoff))
        return real(adj, src, cutoff)

    monkeypatch.setattr(verify, "_sssp_upto", counted)
    assert verify_spanner(g, res.edges, 1, 3).passed
    assert sorted(calls) == sorted(expected.items())


def test_stretch_exactly_at_the_bound_passes():
    # C4 minus an edge: the detour is 3 = (2k-1)w at k=2, so the edge is
    # protected at f=0, and the capped maps must reach the bound itself.
    c4 = generate("cycle", n=4)
    rep = verify_spanner(c4, range(c4.m - 1), 0, 2)
    assert rep.passed and rep.worst_stretch == 3.0
    assert not verify_spanner(c4, range(c4.m - 1), 1, 2).passed


def test_exhaustive_check_at_clustering_scale():
    # K100 meta-seq at c_k=1 clusters and drops about half its edges; it
    # passes exhaustive verification, and fails without its lightest edge.
    g = generate("complete", n=100, seed=1, weights=(1, 1000))
    res = build_ft_spanner(g, 1, 3, seed=1, c_k=1)
    assert res.trace[0].clustered and res.edge_count < g.m
    assert verify_spanner(g, res.edges, 1, 3).passed
    lightest = min(res.edges, key=g.key)
    rep = verify_spanner(g, [e for e in res.edges if e != lightest], 1, 3)
    assert not rep.passed
    assert g.edges[lightest][:2] in {edge for edge, _, _, _ in rep.violations}


PG_ONE_HIT_REPORT_SHA = "cb45e7244c0f39ffefcdd54abec4847ed5fbcd6d2265377e697afce02980d8f5"


def test_one_hit_mutant_fails_on_pg_blowup(monkeypatch):
    # The 3-fold blow-up of PG(2, 5) at f=2, k=2, c_k=1 kills the mutant
    # whose choose_cluster stops at 1 hit instead of K_f. Each violation's
    # fault set must break the bound, and the report is pinned.
    g = pg_blowup(5, 3)
    assert (g.n, g.m) == (186, 1674)
    real = meta.choose_cluster
    monkeypatch.setattr(meta, "choose_cluster", lambda entries, head, k_f: real(entries, head, 1))
    res = build_ft_spanner(g, 2, 2, seed=1, c_k=1)
    assert res.edge_count == 1536
    rep = verify_spanner(g, res.edges, 2, 2)
    assert not rep.passed and len(rep.violations) == 72
    h = Graph(g.n, [g.edges[e] for e in res.edges])
    for (u, v), faults, d, bound in rep.violations:
        assert u not in faults and v not in faults and len(faults) <= 2
        assert dist(h, u, v, faults) == d > bound
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == PG_ONE_HIT_REPORT_SHA


@pytest.mark.parametrize("f, k, value", [
    (-1, 2, "f=-1"), (1, 0, "k=0"), (1, -2, "k=-2"),
])
def test_bad_parameters_are_rejected(f, k, value):
    c8 = generate("cycle", n=8)
    with pytest.raises(ValueError, match=value):
        verify_spanner(c8, range(c8.m - 1), f, k)
    u, v, w = c8.edges[-1]
    with pytest.raises(ValueError, match=value):
        is_protected(c8, u, v, w, f, k)


def test_verify_identity_subgraph_passes(gnp30):
    for f, k in ((1, 2), (2, 3)):
        rep = verify_spanner(gnp30, range(gnp30.m), f, k)
        assert rep.passed
        assert rep.worst_stretch == 1.0


def test_verify_cycle_minus_edge_fails():
    c6 = generate("cycle", n=6)
    heaviest = max(range(c6.m), key=c6.key)
    h = [e for e in range(c6.m) if e != heaviest]
    rep = verify_spanner(c6, h, 0, 2)
    assert not rep.passed
    # the dropped unit edge is replaced by the 5-edge detour
    (edge, faults, d, bound) = rep.violations[0]
    assert d == 5 and bound == 3 and faults == ()


def test_verify_report_json_roundtrip(gnp30):
    rep = verify_spanner(gnp30, range(gnp30.m), 1, 2)
    text = rep.to_json()
    assert text.endswith("\n")
    import json

    data = json.loads(text)
    assert data["passed"] is True and data["mode"] == "exhaustive"


def test_budget_cap_refuses(monkeypatch):
    g = generate("gnp", n=40, p=0.4, seed=1)
    h = []  # empty spanner: every edge needs a path search
    monkeypatch.setattr(verify, "DEFAULT_CAP", 10)
    with pytest.raises(BudgetExceeded):
        verify_spanner(g, h, 2, 2)


def test_budget_cap_counts_path_searches(monkeypatch):
    # K40 meta-seq at f=2 counts 115,292 fault sets but makes only 1,802
    # path searches. The cap charges each search before making it, so a
    # refused verification stops after exactly cap searches.
    g = generate("complete", n=40, seed=1, weights=(1, 1000))
    res = build_ft_spanner(g, 2, 2, seed=1, c_k=1)
    searches = [0]
    real = verify._dist_avoid

    def counted(*args):
        searches[0] += 1
        return real(*args)

    monkeypatch.setattr(verify, "_dist_avoid", counted)
    monkeypatch.setattr(verify, "DEFAULT_CAP", 10_000)
    rep = verify_spanner(g, res.edges, 2, 2)
    assert rep.passed and g.m - res.edge_count == 164
    assert rep.fault_sets == 115_292 and searches[0] == 1_802
    monkeypatch.setattr(verify, "DEFAULT_CAP", 1_802)
    assert verify_spanner(g, res.edges, 2, 2).to_json() == rep.to_json()
    for cap in (1_801, 1_000):
        searches[0] = 0
        monkeypatch.setattr(verify, "DEFAULT_CAP", cap)
        with pytest.raises(BudgetExceeded, match=f"more than {cap} path searches"):
            verify_spanner(g, res.edges, 2, 2)
        assert searches[0] == cap


def test_subgraph_must_be_subgraph(gnp30):
    with pytest.raises(ValueError):
        verify_spanner(gnp30, [gnp30.m + 3], 1, 2)


def test_edge_ids_m_and_minus_one_are_outside_g(gnp30):
    # Edge ids run 0..m-1, for both checks.
    for eid in (gnp30.m, -1):
        with pytest.raises(ValueError, match=f"edge id {eid} out of range"):
            verify_spanner(gnp30, [eid], 1, 2)
        with pytest.raises(ValueError, match=f"edge id {eid} out of range"):
            verify_certificate(gnp30, [eid], 2)


def test_certificate_cycle_passes():
    c6 = generate("cycle", n=6)
    rep = verify_certificate(c6, range(c6.m), 2)
    assert rep.passed and rep.mode == "exhaustive"


def test_certificate_star_of_k4_fails():
    k4 = generate("complete", n=4)
    star = [eid for eid, (u, v, _) in enumerate(k4.edges) if 0 in (u, v)]
    rep = verify_certificate(k4, star, 2)
    assert not rep.passed


def test_certificate_needs_all_sizes_not_just_max():
    # g: two triangles sharing no vertex plus a bridge; h drops the bridge.
    g = Graph(6, [(0, 1, 1), (1, 2, 1), (0, 2, 1),
                  (3, 4, 1), (4, 5, 1), (3, 5, 1), (2, 3, 1)])
    h = list(range(6))  # no bridge: already disconnected at F = {}
    rep = verify_certificate(g, h, 2)
    assert not rep.passed
    assert any(len(fs) == 0 for fs, _ in rep.mismatches)


def _assert_separators_disconnect(g, h_ids, rep):
    """Each reported separator has fewer than lam vertices, avoids the ends
    of its edge, and leaves them disconnected in h."""
    h = Graph(g.n, [g.edges[e] for e in sorted(set(h_ids))])
    for sep, (u, v) in rep.mismatches:
        assert len(sep) < rep.lam and u not in sep and v not in sep
        assert dist(h, u, v, sep) == INF, (sep, u, v)


def test_certificate_matches_enumeration():
    """The Menger check against the component-labelling enumeration on
    random gnp subgraphs and on c_k=1 builds minus edges: same verdict and
    fault-set count, the passing report byte for byte, every edge the
    enumeration flags listed (and nothing else), each with a separator
    that disconnects it."""
    rng = substream(41, "cert-agree")
    failing = passing_dropped = 0
    for _ in range(300):
        n = rng.randint(2, 14)
        weights = rng.choice([None, (1, 9)])
        if rng.random() < 0.5:
            g = generate("gnp", n=n, p=rng.choice([0.3, 0.5, 0.8, 1.0]),
                         seed=rng.randrange(10**6), weights=weights)
            keep = rng.choice([0.5, 0.8, 0.95])
            h = [e for e in range(g.m) if rng.random() < keep]
        else:
            g = generate("complete", n=max(n, 3), seed=rng.randrange(10**6), weights=weights)
            res = build_ft_spanner(g, rng.randint(1, min(3, g.n - 1)), 2,
                                   seed=rng.randrange(100), c_k=1)
            h = [e for e in res.edges if rng.random() < 0.9]
        lam = rng.randint(1, g.n)
        rep = verify_certificate(g, h, lam)
        scanned, flagged = certificate_direct(g, h, lam)
        assert rep.passed == (not flagged)
        assert rep.fault_sets == scanned
        assert {e for _, e in rep.mismatches} == flagged
        _assert_separators_disconnect(g, h, rep)
        if rep.passed:
            assert rep.to_json() == (f'{{"fault_sets":{scanned},"lambda":{lam},'
                                     '"mismatches":[],"mode":"exhaustive","passed":true}\n')
            passing_dropped += len(h) < g.m
        else:
            failing += 1
    assert failing >= 100 and passing_dropped >= 50, (failing, passing_dropped)


def test_certificate_counts_vertex_not_edge_disjoint_paths():
    # bowtie: u=0 and v=6 are joined through two triangles that share the
    # cut vertex 3, so two edge-disjoint but only one vertex-disjoint path
    g = Graph(7, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1),
                  (3, 4, 1), (3, 5, 1), (4, 6, 1), (5, 6, 1), (0, 6, 1)])
    h = range(g.m - 1)
    rep = verify_certificate(g, h, 2)
    assert not rep.passed and rep.mismatches == [((3,), (0, 6))]
    assert certificate_direct(g, h, 2)[1] == {(0, 6)}
    assert verify_certificate(g, h, 1).passed


def test_certificate_beyond_enumeration():
    """K80 at lam=5 (c_k=1): 1,666,981 fault sets, far past what the
    enumeration can scan in a test, checked exactly; one vertex stripped to
    lam-1 edges fails at separators that disconnect."""
    g = generate("complete", n=80, seed=1, weights=(1, 1000))
    res = build_ft_spanner(g, 4, 7, seed=0, c_k=1)
    assert res.edge_count < g.m
    rep = verify_certificate(g, res.edges, 5)
    assert rep.passed and rep.fault_sets == 1_666_981
    stripped = [e for e in res.edges if 0 not in g.edges[e][:2]]
    stripped += [e for e in res.edges if 0 in g.edges[e][:2]][:4]
    rep = verify_certificate(g, stripped, 5)
    assert len(rep.mismatches) == 79 - 4
    _assert_separators_disconnect(g, stripped, rep)
