import gc
import math
from itertools import combinations, product

import pytest

from ftspanner.graphs import Graph, dist, generate


def edge_id(g: Graph, u: int, v: int) -> int | None:
    """Id of the edge between u and v, or None, by a scan of u's list."""
    return next((eid for _, eid, x in g.adj[u] if x == v), None)


def small_random_graph(seed: int, n_max: int = 10, weighted: bool = True) -> Graph:
    """Small connected-ish random graph for oracle micro-instances."""
    from ftspanner.rng import substream

    rng = substream(seed, "micro")
    n = rng.randint(2, n_max)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    if not pairs and n >= 2:
        pairs = [(0, 1)]
    edges = [(u, v, rng.randint(1, 8) if weighted else 1) for u, v in pairs]
    return Graph(n, edges)


def worst_dist_direct(h: Graph, u: int, v: int, f: int) -> float:
    """Definition-unrolled worst u-v distance: the largest dist(h - F, u, v)
    over literally every fault set F of every size up to f avoiding u and
    v, distances via the graph-core dist. Kept naive on purpose; the
    verifier's branching check is compared against it."""
    others = [x for x in range(h.n) if x != u and x != v]
    return max(dist(h, u, v, fault)
               for size in range(min(f, len(others)) + 1)
               for fault in combinations(others, size))


def protected_direct(h: Graph, u: int, v: int, w: int, f: int, i: int) -> bool:
    """Definition-unrolled protection check of (u,v) at stretch 2i-1."""
    return worst_dist_direct(h, u, v, f) <= (2 * i - 1) * w


def pg_blowup(q: int, r: int) -> Graph:
    """The point-line incidence graph of the projective plane PG(2, q), q
    prime (girth 6), with every vertex replaced by r copies and every edge
    by the complete bipartite graph between the copies; unit weights.
    Points are the triples over Z_q whose first nonzero entry is 1, in
    lexicographic order, and the lines are named by the same triples; a
    point lies on a line when their dot product is 0 mod q. Vertex x (the
    points, then the lines) has copies x*r .. x*r + r-1."""
    triples = [t for t in product(range(q), repeat=3)
               if any(t) and next(a for a in t if a) == 1]
    n = len(triples)
    edges = [(p * r + a, (n + l) * r + b, 1)
             for p, pt in enumerate(triples) for l, ln in enumerate(triples)
             if sum(x * y for x, y in zip(pt, ln)) % q == 0
             for a in range(r) for b in range(r)]
    return Graph(2 * n * r, edges)


def certificate_direct(g: Graph, h_ids, lam: int):
    """Definition-unrolled certificate check: label the components of h
    minus F for every fault set F of size 0..lam-1, and flag each surviving
    g edge whose ends they part. Returns (fault sets scanned, flagged edges).
    The verifier's Menger check is compared against it."""
    adj = [[] for _ in range(g.n)]
    for eid in h_ids:
        u, v, _ = g.edges[eid]
        adj[u].append(v)
        adj[v].append(u)
    scanned, flagged = 0, set()
    for size in range(lam):
        for dead in combinations(range(g.n), size):
            scanned += 1
            label = [-1 if x not in dead else -2 for x in range(g.n)]
            for s in range(g.n):
                if label[s] == -1:
                    label[s], stack = s, [s]
                    while stack:
                        for y in adj[stack.pop()]:
                            if label[y] == -1:
                                label[y] = s
                                stack.append(y)
            flagged |= {(u, v) for u, v, _ in g.edges
                        if label[u] >= 0 and label[v] >= 0 and label[u] != label[v]}
    return scanned, flagged


@pytest.fixture(scope="session")
def triangle() -> Graph:
    return Graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 4)])


@pytest.fixture(scope="session")
def gnp30() -> Graph:
    return generate("gnp", n=30, p=0.4, seed=7)


@pytest.fixture(scope="session")
def dense34() -> Graph:
    return generate("gnp", n=34, p=0.5, seed=11)


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail any test that ends with the cyclic garbage collector disabled,
    so no code path can leak a paused collector into later tests."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")
