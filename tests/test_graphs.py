import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftspanner import graphs
from ftspanner.graphs import (Graph, GraphError, ParseError, Path, dist,
                              generate, load_graph)

INF = math.inf


def test_load_triangle():
    g = load_graph("0 1 1\n1 2 2\n0 2 4")
    assert g.n == 3 and g.m == 3
    assert g.edges == ((0, 1, 1), (1, 2, 2), (0, 2, 4))


def test_load_empty():
    g = load_graph("")
    assert g.n == 0 and g.m == 0


def test_load_comments_and_n_hint():
    g = load_graph("# a comment\n# n 5\n0 1 3\n")
    assert g.n == 5 and g.m == 1


def test_load_errors_name_the_line():
    with pytest.raises(ParseError, match="self-loop"):
        load_graph("0 0 1")
    with pytest.raises(ParseError, match="line 2"):
        load_graph("0 1 1\n0 1\n")
    with pytest.raises(ParseError, match="parallel"):
        load_graph("0 1 1\n1 0 2")
    with pytest.raises(ParseError, match="weight"):
        load_graph("0 1 0")


def test_load_rejects_vertex_count_above_limit(monkeypatch):
    # The guard is exercised at a lowered limit; the real limit stays untouched.
    monkeypatch.setattr(graphs, "MAX_VERTICES", 100)
    assert load_graph("0 99 1").n == 100
    with pytest.raises(ParseError, match="101 vertices exceed the limit of 100"):
        load_graph("0 100 1")
    with pytest.raises(ParseError, match="limit of 100"):
        load_graph("# n 101\n0 1 1\n")


def test_edge_list_roundtrip():
    g = generate("gnp", n=12, p=0.4, seed=2, weights=(1, 9))
    g2 = load_graph(g.to_edge_list())
    assert g2.n == g.n and g2.edges == g.edges
    assert g2.sha() == g.sha()


def test_edge_list_roundtrip_with_isolated_vertices():
    g = generate("gnp", n=40, p=0.02, seed=6)
    assert any(len(g.adj[v]) == 0 for v in range(g.n)), "fixture needs isolates"
    g2 = load_graph(g.to_edge_list())
    assert g2.n == g.n and g2.sha() == g.sha()


def test_sha_is_hashed_on_first_call_and_cached(monkeypatch):
    g = generate("gnp", n=12, p=0.4, seed=2, weights=(1, 9))
    hashed = []
    real = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda: hashed.append(1) or real())
    g2 = Graph(g.n, g.edges)
    assert hashed == []  # construction does not hash
    first = g2.sha()
    assert g2.sha() == first == g.sha()
    assert len(hashed) == 2  # once for g2, once for g


def test_dist_triangle(triangle):
    assert dist(triangle, 0, 2) == 3
    assert dist(triangle, 0, 2, {1}) == 4


def test_dist_cut_vertex():
    g = load_graph("0 1 1\n1 2 1")
    assert dist(g, 0, 2, {1}) == INF


def test_dist_rejects_excluded_endpoint(triangle):
    with pytest.raises(ValueError):
        dist(triangle, 0, 2, {0})


def test_generate_complete_and_cycle():
    k5 = generate("complete", n=5)
    assert k5.m == 10
    c6 = generate("cycle", n=6)
    assert c6.m == 6 and all(len(c6.adj[v]) == 2 for v in range(6))


def test_generate_gnp_deterministic():
    a = generate("gnp", n=30, p=0.3, seed=1)
    b = generate("gnp", n=30, p=0.3, seed=1)
    assert a.edges == b.edges
    c = generate("gnp", n=30, p=0.3, seed=2)
    assert a.edges != c.edges


def test_generate_regular_infeasible():
    with pytest.raises(GraphError):
        generate("random-regular", n=5, d=3)  # odd n*d


def test_generate_regular_degrees():
    g = generate("random-regular", n=30, d=6, seed=3)
    assert all(len(g.adj[v]) == 6 for v in range(30))


def test_negative_vertex_count_rejected():
    # generate's negative sizes are rows of test_cli's bad-parameter table
    with pytest.raises(GraphError, match="need n >= 0"):
        Graph(-1, [])


def test_generate_refuses_requests_over_the_limits(monkeypatch):
    # The limits are lowered, so no large graph is ever requested.
    monkeypatch.setattr(graphs, "MAX_VERTICES", 50)
    monkeypatch.setattr(graphs, "MAX_EDGES", 100)
    assert generate("complete", n=14).m == 91
    assert generate("grid", rows=7, cols=7).m == 84
    assert generate("tree", n=50, seed=1).n == 50
    assert generate("cycle", n=50).m == 50
    assert generate("gnp", n=50, p=0.08, seed=1).n == 50

    def built(*args):
        raise AssertionError("a pair list was built before the size check")

    for name in ("_gnp_pairs", "_regular_pairs", "_apply_weights"):
        monkeypatch.setattr(graphs, name, built)
    for kind, params, limit in (
            ("complete", {"n": 15}, "105 edges exceed the limit of 100"),
            ("complete", {"n": 51}, "51 vertices exceed the limit of 50"),
            ("gnp", {"n": 40, "p": 0.5}, "390 edges exceed"),
            ("gnp", {"n": 51, "p": 0.01}, "vertices exceed"),
            ("random-regular", {"n": 30, "d": 8}, "120 edges exceed"),
            ("grid", {"rows": 10, "cols": 10}, "vertices exceed"),
            ("tree", {"n": 51}, "vertices exceed"),
            ("cycle", {"n": 51}, "vertices exceed")):
        with pytest.raises(GraphError, match=limit):
            generate(kind, **params)


def test_generate_grid_tree():
    g = generate("grid", rows=6, cols=6)
    assert g.n == 36 and g.m == 60
    t = generate("tree", n=30, seed=4)
    assert t.m == 29


def test_path_accessors():
    p = Path.trivial(3).extend(5, 0, (2, 0)).extend(7, 4, (9, 4))
    assert p.head == 3 and p.tail == 7
    assert p.hops == 2 and p.length == 11
    assert p.last_key == (9, 4)
    assert p.prefix_to(1).vertices == (3, 5)
    assert Path.trivial(1).last_key == (0, -1)


def test_edge_order_is_strict_total_order():
    g = generate("gnp", n=15, p=0.6, seed=9, weights=(1, 3))  # many weight ties
    keys = [g.key(e) for e in range(g.m)]
    assert len(set(keys)) == g.m
    for a in keys[:20]:
        for b in keys[:20]:
            assert (a < b) + (b < a) + (a == b) == 1


small_graphs = st.builds(
    lambda seed, p: generate("gnp", n=8, p=p, seed=seed, weights=(1, 6)),
    st.integers(0, 10_000), st.floats(0.2, 0.9))


@settings(max_examples=40, deadline=None)
@given(small_graphs, st.integers(0, 7), st.integers(0, 7),
       st.sets(st.integers(0, 7), max_size=3))
def test_dist_symmetric_and_fault_monotone(g, u, v, fault):
    fault = {x for x in fault if x not in (u, v)}
    d1 = dist(g, u, v, fault)
    assert d1 == dist(g, v, u, fault)
    spare = {x for x in range(8)} - {u, v} - fault
    if spare:
        assert d1 <= dist(g, u, v, fault | {max(spare)})


@settings(max_examples=40, deadline=None)
@given(small_graphs, st.integers(0, 7), st.integers(0, 7),
       st.integers(0, 1_000_000))
def test_dist_subgraph_monotone(g, u, v, sub_seed):
    from ftspanner.rng import substream

    rng = substream(sub_seed, "sub")
    kept = [i for i in range(g.m) if rng.random() < 0.6]
    h = Graph(g.n, [g.edges[i] for i in kept])
    assert dist(h, u, v) >= dist(g, u, v)
