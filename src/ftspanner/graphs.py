"""Weighted undirected graphs with a strict total edge order.

Edges are compared by the key (weight, edge id); the id component breaks
weight ties, so "lighter"/"heavier" is a strict total order everywhere.
Shortest-path queries take a set of deleted vertices and filter during
traversal rather than copying the graph.
"""

from __future__ import annotations

import hashlib
import math
from heapq import heappop, heappush
from typing import Iterable, Sequence

from ftspanner.rng import substream

INF = math.inf

# Sorts before every real edge key (w >= 1, id >= 0). Used as the last-edge
# key of a single-vertex path.
SENTINEL_KEY = (0, -1)

# Largest vertex count a Graph accepts; it allocates one adjacency list
# per vertex id, so one huge id would otherwise exhaust memory.
MAX_VERTICES = 1_000_000

# Largest edge count generate builds: over 50x the largest generated graph
# a test or benchmark uses (gnp n=5000, about 1e5 edges).
MAX_EDGES = 5_000_000


class GraphError(ValueError):
    pass


class ParseError(GraphError):
    pass


def _check_vertex_count(n: int):
    if n < 0:
        raise GraphError(f"need n >= 0, got n={n}")
    if n > MAX_VERTICES:
        raise GraphError(f"{n} vertices exceed the limit of {MAX_VERTICES}")


class Graph:
    """Immutable simple undirected graph with positive integer weights.

    edges[i] is (u, v, w) and i is the edge id. adj[v] holds
    (w, id, other) triples sorted ascending by (w, id).
    """

    __slots__ = ("n", "edges", "adj", "_pair", "_sha")

    def __init__(self, n: int, edges: Sequence[tuple[int, int, int]]):
        _check_vertex_count(n)
        seen: dict[tuple[int, int], int] = {}
        adj: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        clean = []
        for eid, (u, v, w) in enumerate(edges):
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge {eid}: endpoint out of range for n={n}")
            if u == v:
                raise GraphError(f"edge {eid}: self-loop at vertex {u}")
            if not isinstance(w, int) or w < 1:
                raise GraphError(f"edge {eid}: weight must be a positive integer, got {w!r}")
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                raise GraphError(f"edge {eid}: parallel edge {pair}, first at id {seen[pair]}")
            seen[pair] = eid
            clean.append((u, v, w))
            adj[u].append((w, eid, v))
            adj[v].append((w, eid, u))
        for lst in adj:
            lst.sort()
        self.n = n
        self.edges = tuple(clean)
        self.adj = tuple(tuple(lst) for lst in adj)
        self._pair = seen
        self._sha = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def key(self, eid: int) -> tuple[int, int]:
        return (self.edges[eid][2], eid)

    def weight(self, eid: int) -> int:
        return self.edges[eid][2]

    def endpoints(self, eid: int) -> tuple[int, int]:
        u, v, _ = self.edges[eid]
        return u, v

    def edge_id(self, u: int, v: int) -> int | None:
        return self._pair.get((u, v) if u < v else (v, u))

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_weight(self) -> int:
        return max((w for _, _, w in self.edges), default=1)

    def sha(self) -> str:
        """sha256 of the edge list; hashed on the first call and cached,
        since the graph never changes."""
        if self._sha is None:
            h = hashlib.sha256()
            h.update(f"n {self.n}\n".encode())
            for u, v, w in self.edges:
                h.update(f"{u} {v} {w}\n".encode())
            self._sha = h.hexdigest()
        return self._sha

    def to_edge_list(self) -> str:
        lines = [f"# n {self.n}"]
        lines.extend(f"{u} {v} {w}" for u, v, w in self.edges)
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class Path:
    """A root-to-tail walk with no repeated vertices.

    Stores the vertex sequence, the edge ids along it, and the edge keys
    (w, id). Equality and hashing go by the vertex sequence; in a simple
    graph that determines the edges.
    """

    __slots__ = ("vertices", "edges", "keys", "vset")

    def __init__(self, vertices: tuple[int, ...], edges: tuple[int, ...],
                 keys: tuple[tuple[int, int], ...]):
        self.vertices = vertices
        self.edges = edges
        self.keys = keys
        self.vset = frozenset(vertices)

    @classmethod
    def trivial(cls, v: int) -> "Path":
        return cls((v,), (), ())

    def extend(self, v: int, eid: int, key: tuple[int, int]) -> "Path":
        """New path self ∘ (tail, v)."""
        return Path(self.vertices + (v,), self.edges + (eid,), self.keys + (key,))

    def prefix_to(self, idx: int) -> "Path":
        """Subpath from the head to vertices[idx]."""
        return Path(self.vertices[: idx + 1], self.edges[:idx], self.keys[:idx])

    @property
    def head(self) -> int:
        return self.vertices[0]

    @property
    def tail(self) -> int:
        return self.vertices[-1]

    @property
    def hops(self) -> int:
        return len(self.edges)

    @property
    def length(self) -> int:
        return sum(k[0] for k in self.keys)

    @property
    def last_key(self) -> tuple[int, int]:
        return self.keys[-1] if self.keys else SENTINEL_KEY

    def __eq__(self, other):
        return isinstance(other, Path) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Path{list(self.vertices)}"


def load_graph(text: str) -> Graph:
    """Parse an edge-list: one "u v w" per line, '#' comments allowed.

    A "# n N" comment pins the vertex count (needed when trailing
    vertices are isolated); otherwise n is inferred as max id + 1. Either
    must not exceed MAX_VERTICES, which Graph checks before it allocates.
    """
    edges = []
    n_hint = None
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] == "n" and parts[1].isdigit():
                n_hint = int(parts[1])
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 'u v w', got {raw!r}")
        try:
            u, v, w = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer field in {raw!r}") from None
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex id in {raw!r}")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop {u}")
        if w < 1:
            raise ParseError(f"line {lineno}: weight must be >= 1, got {w}")
        edges.append((u, v, w))
        max_id = max(max_id, u, v)
    n = n_hint if n_hint is not None else max_id + 1
    try:
        return Graph(n, edges)
    except GraphError as exc:
        raise ParseError(str(exc)) from None


def dist(g: Graph, u: int, v: int, excluded: Iterable[int] = ()) -> float:
    """Weighted shortest-path distance in g with `excluded` vertices removed.

    Returns math.inf when u and v are disconnected after the deletion.
    """
    dead = frozenset(excluded)
    if u in dead or v in dead:
        raise ValueError("query endpoint is in the excluded set")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError("query endpoint out of range")
    if u == v:
        return 0
    best = {u: 0}
    heap = [(0, u)]
    done = set()
    adj = g.adj
    while heap:
        d, x = heappop(heap)
        if x in done:
            continue
        if x == v:
            return d
        done.add(x)
        for w, _, y in adj[x]:
            if y in dead or y in done:
                continue
            nd = d + w
            if nd < best.get(y, INF):
                best[y] = nd
                heappush(heap, (nd, y))
    return INF


# ---------------------------------------------------------------------------
# Generators. All are deterministic for a fixed seed.

def _apply_weights(n, pairs, weights, seed):
    if weights is None or weights == "unit":
        return Graph(n, [(u, v, 1) for u, v in pairs])
    lo, hi = weights
    if not (1 <= lo <= hi):
        raise GraphError(f"weight range must satisfy 1 <= lo <= hi, got ({lo}, {hi})")
    rng = substream(seed, "weights")
    return Graph(n, [(u, v, rng.randint(lo, hi)) for u, v in pairs])


def _pair_from_rank(n: int, t: int) -> tuple[int, int]:
    # Unrank t in the lexicographic enumeration of pairs u < v.
    # Row u starts at offset(u) = u*(2n-u-1)/2.
    disc = (2 * n - 1) ** 2 - 8 * t
    u = ((2 * n - 1) - math.isqrt(disc)) // 2
    while u > 0 and u * (2 * n - u - 1) // 2 > t:
        u -= 1
    while (u + 1) * (2 * n - u - 2) // 2 <= t:
        u += 1
    offset = u * (2 * n - u - 1) // 2
    return u, u + 1 + (t - offset)


def _gnp_pairs(n, p, rng):
    if not (0.0 <= p <= 1.0):
        raise GraphError(f"gnp requires 0 <= p <= 1, got {p}")
    total = n * (n - 1) // 2
    pairs = []
    if p <= 0:
        return pairs
    if p >= 1.0:
        return [(u, v) for u in range(n) for v in range(u + 1, n)]
    # Geometric skipping: O(m) draws instead of O(n^2).
    log_q = math.log1p(-p)
    t = -1
    while True:
        r = rng.random()
        t += 1 + int(math.log(1.0 - r) / log_q)
        if t >= total:
            break
        pairs.append(_pair_from_rank(n, t))
    return pairs


def _regular_pairs(n, d, rng):
    if n * d % 2 != 0 or d >= n or d < 0:
        raise GraphError(f"random-regular infeasible: n={n}, d={d}")
    if d == 0:
        return []
    # Draw stub pairs one at a time, rejecting loops and repeats; restart
    # when the leftover stubs admit no valid pair.
    for _ in range(500):
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        pairs: set[tuple[int, int]] = set()
        stuck = False
        while stubs and not stuck:
            for _ in range(50):
                i = rng.randrange(len(stubs))
                j = rng.randrange(len(stubs))
                a, b = stubs[i], stubs[j]
                if a != b and (min(a, b), max(a, b)) not in pairs:
                    pairs.add((min(a, b), max(a, b)))
                    for k in sorted((i, j), reverse=True):
                        stubs[k] = stubs[-1]
                        stubs.pop()
                    break
            else:
                stuck = True
        if not stuck:
            return sorted(pairs)
    raise GraphError(f"random-regular pairing failed after 500 attempts (n={n}, d={d})")


def _check_size(n: int, m: float):
    """Refuse a request before any pair list exists: m is the exact edge
    count, or the expected one for gnp."""
    _check_vertex_count(n)
    if m > MAX_EDGES:
        raise GraphError(f"{m:.0f} edges exceed the limit of {MAX_EDGES}")


def generate(kind: str, seed=0, weights=None, **params) -> Graph:
    """Build one of the stock test graphs.

    kind: gnp(n, p), random-regular(n, d), grid(rows, cols), complete(n),
    tree(n), cycle(n). weights: None/"unit" for all-1, or (lo, hi) for
    uniform integers drawn from the seed. Requests over MAX_VERTICES or
    MAX_EDGES raise GraphError.
    """
    rng = substream(seed, "gen", kind)
    if kind == "gnp":
        n, p = int(params["n"]), float(params["p"])
        _check_size(n, p * n * (n - 1) / 2)
        pairs = _gnp_pairs(n, p, rng)
    elif kind == "random-regular":
        n, d = int(params["n"]), int(params["d"])
        _check_size(n, n * d / 2)
        pairs = _regular_pairs(n, d, rng)
    elif kind == "grid":
        rows, cols = int(params["rows"]), int(params["cols"])
        if rows < 0 or cols < 0:
            raise GraphError(f"grid needs rows, cols >= 0, got {rows}x{cols}")
        n = rows * cols
        _check_size(n, 2 * n - rows - cols)
        pairs = []
        for r in range(rows):
            for c in range(cols):
                v = r * cols + c
                if c + 1 < cols:
                    pairs.append((v, v + 1))
                if r + 1 < rows:
                    pairs.append((v, v + cols))
    elif kind == "complete":
        n = int(params["n"])
        _check_size(n, n * (n - 1) / 2)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif kind == "tree":
        n = int(params["n"])
        _check_size(n, n - 1)
        pairs = [(rng.randrange(i), i) for i in range(1, n)]
    elif kind == "cycle":
        n = int(params["n"])
        if n < 3:
            raise GraphError("cycle needs n >= 3")
        _check_size(n, n)
        pairs = [(i, (i + 1) % n) for i in range(n)]
        pairs = [(min(a, b), max(a, b)) for a, b in pairs]
    else:
        raise GraphError(f"unknown generator kind {kind!r}")
    return _apply_weights(n, pairs, weights, seed)
