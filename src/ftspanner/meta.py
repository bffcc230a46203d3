"""k-phase fault-tolerant clustering spanner.

Each phase turns the previous clustering into a sparser one. For every
still-clustered vertex v the phase computes a maximal set of vertex-disjoint
paths from v to distinct previous-level centers (the "fan"), going through
a small random sample of each neighbor's cluster paths. A cleanup step
replaces each new path's suffix with the lightest direct edge from the
path into v, which keeps edge weights strictly increasing toward v. A
p-sample of the centers survives; vertices that still see K_f surviving
heads keep their K_f lightest such paths as the next cluster paths, and
everyone else buys all edges into its fan. Edges heavier than both
endpoints' surviving cluster paths are deferred to the next phase.

run_phases is the one phase loop of every construction path. Whatever a
vertex learns from its neighbors comes through a transport with one
method per message step (paths, heads, edge_state, register):
LocalExchange answers from the driver's own dicts for the sequential
builds, congest.Network transmits real messages for the simulation. The
per-vertex steps are pure functions of local data, and all randomness
flows through per-(vertex, phase) streams. edge_state answers with the
set of each vertex's held edge ids (bought by either endpoint, at or
below the other endpoint's threshold, or to a neighbor that did not
cluster), so deferring costs one set lookup per edge above the vertex's
threshold, and the next phase's lists reuse G's adjacency tuples.

A fan hands out its entries in last_key order but builds them only as
far as they are read (choose_cluster reads up to i_v, le_edge_ids below
it, det's centers_fn up to its threshold). Its scan ends by two exact
rules. Both rest on two facts: a later acceptance must be disjoint from
`used`, the vertices of the fan so far, and `used` only grows.
- Prefix rule. A path's last_key is the key of the edge into v from one
  of its vertices, and a later accepted path has all its vertices
  outside `used`. So no later entry sorts below LB, the least key of a
  neighbor outside `used`, and every entry below LB is final. The same
  order bounds the cleanup: a candidate offered by neighbor u ends at u,
  and every neighbor later in inc_v has a heavier edge than u's, so the
  lightest edge into v from the path is among the neighbors read so
  far. The scan's edge map holds only those.
- Saturation rule. A phase-i candidate is a sampled cluster path of
  phase i-1, and contains its head, a center of Z_{i-1}. So once no head
  that can still be offered lies outside `used`, no later candidate is
  disjoint, in any scan order, and the scan stops; any superset of the
  offered heads keeps this sound. run_phases computes one such bound
  per phase, the heads of all its sample lists (a fan built without
  one takes its own offered heads), and a scan stops once the bound is
  inside `used`. Until then a witness probe decides: only neighbors
  later in inc_v can still offer candidates, so the scan stops once
  none of them offers a head outside `used`. As `used` only grows, a
  neighbor without such a head never regains one, and the probe's
  pointer to the next possible witness only moves forward. Cost per
  scan: the heads of the bound outside `used` are counted, not copied,
  once at the first blocked neighbor (O(min(|bound|, |used|))) and
  then by each acceptance's own vertices, O(|fan|) in all; the probe
  tests each neighbor it passes once, plus the witness once per probe,
  O(sum of the passed head sets + probes).

In phase 1 every cluster path is its vertex's trivial path, so every
candidate is a distinct neighbor's one-vertex path, whose last key is
its own edge into v. The phase-1 fan is therefore the owner's trivial
path followed by one entry per neighbor in inc_v order, and run_phases
asks build_fan for it without a scan: no `used` set, heap or
disjointness test.

mod-parallel's ranked fan draws its order as it scans: each step
swap-pops a uniform position of the offered samples not yet drawn. The
drawn prefix is the prefix of a uniform permutation of the offered
samples; restricted to the candidates disjoint from the inherited
paths, that is a uniform permutation of them. A candidate met after
saturation is never accepted, so the prefix takes the same lex-first
MIS as the whole permutation would, and the draw stops there (or when
nothing is left to draw). It stops when the bound is inside `used`;
the draws it makes past the fan's own saturation come from the
vertex's private stream and are never accepted. Fans whose candidates
are pairwise disjoint are not ranked and draw nothing. Each uniform
position is drawn as randrange draws it (CPython's
_randbelow_with_getrandbits: getrandbits of n's bit length, redrawn
while not below n), inline, so every stream stays put.
"""

from __future__ import annotations

import functools
import gc
import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain, count
from operator import attrgetter, itemgetter

from ftspanner.graphs import Graph, Path
from ftspanner.result import PhaseTrace, SpannerResult, meta_size_bound
from ftspanner.rng import vertex_stream
# Unused here; the traced benchmark (perfbench/layers.py) patches this
# name on this module, so it stays importable from it.
from ftspanner.parmis import parallel_greedy_mis  # noqa: F401

# The sample factor: a vertex draws up to C_S * log2(n) samples (cluster
# paths here, centers in the warm-up build).
C_S = 4


class FanEntry:
    """One path of an owner's fan.

    The fan step accepts far more candidates than the owner keeps (at most
    K_f), and everything after it reads only head and last_key (the entry
    sort, the head tests, the deterministic center choice) or base.vset
    (the edge purchases). So an entry stores those, plus what rebuilds the
    paths, and builds path and orig on first access: in practice only for
    the entries choose_cluster keeps. A Fan builds entries themselves
    only up to where its readers stop, by the prefix and saturation
    rules of the module docstring.

    base: the neighbor's sampled path, or the inherited cluster path.
    src: neighbor whose sample supplied it; None if inherited, and then
      base is both path and orig.
    sample_idx: position in the neighbor's stored sample list.
    owner, key: the fan's vertex and the key (w, eid) of the edge from
      base's tail to it; orig is base extended by that edge (lazy).
    cut, last_key: index into base.vertices of the vertex whose edge into
      the owner is lightest, and that edge's key; path is orig cut there
      by shortcut (lazy; orig itself when cut is base's tail).
    """

    __slots__ = ("base", "src", "sample_idx", "head", "last_key",
                 "owner", "key", "cut", "_path", "_orig")

    def __init__(self, base: Path, src: int | None = None, sample_idx: int = -1,
                 owner: int = -1, key: tuple[int, int] | None = None,
                 cut: int = -1, last_key: tuple[int, int] | None = None):
        self.base = base
        self.src = src
        self.sample_idx = sample_idx
        self.head = base.vertices[0]
        self.owner = owner
        self.key = key
        self.cut = cut
        if src is None:
            self.last_key = base.last_key
            self._path = self._orig = base
        else:
            self.last_key = last_key
            self._path = self._orig = None

    @property
    def orig(self) -> Path:
        """Pre-shortcut path; == path for inherited cluster paths."""
        if self._orig is None:
            self._orig = self.base.extend(self.owner, self.key[1], self.key)
        return self._orig

    @property
    def path(self) -> Path:
        """Final (possibly shortcut) path; ends at the owner."""
        if self._path is None:
            # the cut vertex's edge is the lightest hit on orig, so a map
            # holding only that edge cuts orig where the owner's full map does
            self._path = shortcut(self.orig, {self.base.vertices[self.cut]: self.last_key})
        return self._path


class Fan:
    """An owner's fan entries in last_key order, built only as far as they
    are read. fan[j] and fan[:n] build that prefix, so iteration builds
    one entry per step; len and any other slice build them all."""

    __slots__ = ("_done", "_scan")

    def __init__(self, done: list, scan):
        self._done = done  # the final prefix; the scan appends to it
        self._scan = scan

    def _fill(self, n=math.inf):
        if self._scan is not None and len(self._done) < n:
            try:
                self._scan.send(n)
            except StopIteration:
                self._scan = None

    def __len__(self):
        self._fill()
        return len(self._done)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            n = idx.stop if idx.start is idx.step is None else None
        else:
            n = idx + 1 if idx >= 0 else None
        self._fill(math.inf if n is None or n < 0 else n)
        return self._done[idx]


class Offer(tuple):
    """A vertex's sample list as its neighbors receive it; heads is
    computed once per sender, when run_phases takes the phase's
    saturation bound or a scan first needs it."""

    @functools.cached_property
    def heads(self) -> frozenset:
        return frozenset(p.head for p in self)


@dataclass
class PhaseRecord:
    """One phase's inputs and outputs, retained for invariant checking."""
    i: int
    k: int
    f: int
    k_f: int
    centers: frozenset
    clustered: frozenset
    q: dict
    spanner: frozenset
    remaining: frozenset
    prev_centers: frozenset = frozenset()
    prev_clustered: frozenset = frozenset()
    prev_q: dict = field(default_factory=dict)


def sample_fan_paths(qpaths, rng, count: int) -> list[Path]:
    """`count` uniform with-replacement draws, deduplicated in draw order."""
    if len(qpaths) <= 1:
        return list(qpaths)
    seen = set()
    out = []
    n = len(qpaths)
    bits = n.bit_length()
    getrandbits = rng.getrandbits
    for _ in range(count):
        j = getrandbits(bits)  # rng.randrange(n); see the module docstring
        while j >= n:
            j = getrandbits(bits)
        p = qpaths[j]
        if p.vertices not in seen:
            seen.add(p.vertices)
            out.append(p)
    return out


def _lightest(verts, edge_of) -> tuple[int, tuple[int, int] | None]:
    """(index, key) of the vertex of verts whose edge_of entry is lightest;
    (-1, None) when none has one."""
    best = None
    best_idx = -1
    for idx, x in enumerate(verts):
        hit = edge_of.get(x)
        if hit is not None and (best is None or hit < best):
            best = hit
            best_idx = idx
    return best_idx, best


def shortcut(path: Path, edge_of: dict[int, tuple[int, int]]) -> Path:
    """Replace the suffix by the lightest remaining edge from the path into
    its tail. edge_of maps neighbor -> (w, eid) over the tail's remaining
    incident edges; the path's own last edge is always a candidate."""
    verts = path.vertices
    best_idx, best = _lightest(verts[:-1], edge_of)
    if best_idx == len(verts) - 2:
        return path
    return path.prefix_to(best_idx).extend(verts[-1], best[1], best)


def build_fan(v: int, q_v, inc_v, samples, pi_rng=None, *, bound=None,
              first_phase: bool = False) -> Fan:
    """Step 1 for a single vertex: maximal disjoint paths to adjacent
    clusters, shortcut, ordered by last-edge key. The Fan scans only as
    far as it is read. Entries below the least key of a neighbor outside
    the fan are final (prefix rule), and once no head that can still be
    offered lies outside the fan the scan stops (saturation rule); the
    module docstring proves both.

    inc_v: remaining incident edges as (w, eid, u), ascending by (w, eid).
    samples: neighbor -> stored sample list (only entries for inc_v
    neighbors are read).
    bound: a superset of the heads offered to v; None takes exactly
    those heads. The scan stops once it is inside the fan, else once no
    later neighbor offers a head outside it.
    first_phase: the phase-1 fan, which is built without a scan: q_v is
    v's trivial path and each neighbor offers its own trivial path.

    The scan in inc_v order accepts every disjoint candidate; as every
    sample of u ends at u, at most one per neighbor.

    Given a pi_rng, the fan is ranked: it takes the lex-first MIS of the
    candidates under a uniform random order, drawn from pi_rng only as
    far as the scan reads it: a forward Fisher-Yates draw over the
    offered samples that stops at saturation (of the bound, when given)
    or when the pool is empty (the module docstring says why that prefix
    suffices). The fan is complete when returned. parmis's round MIS on
    the completed order takes the same set (acceptance 06), and the PRAM
    depth refers to it. When the candidates are pairwise disjoint any
    order takes them all, so the fan scans in order and draws nothing:
    pi_rng is a private per-(phase, vertex) stream, so the output is the
    same. In phase 1 they always are, and run_phases passes no pi_rng.
    """
    done: list[FanEntry] = []
    if first_phase:
        scan = _neighbor_fan(v, q_v, inc_v, samples, done)
    else:
        if bound is None:
            bound = _offered_heads(samples, inc_v)
        if pi_rng is not None:
            pool = list(chain.from_iterable(map(samples.__getitem__, map(itemgetter(2), inc_v))))
            # two paths with one head overlap, so fewer heads than paths
            # (the bound's count suffices) settles it cheaply; only
            # otherwise are the vsets compared
            if len(bound) < len(pool) or _overlap(pool):
                return Fan(_drawn_fan(v, q_v, inc_v, samples, pool, bound, pi_rng), None)
        scan = _scan(v, q_v, inc_v, samples, done, bound)
    next(scan)
    return Fan(done, scan)


def _offered_heads(samples, inc_v) -> set:
    """Heads of all paths offered to the owner."""
    return set().union(*map(attrgetter("heads"), map(samples.__getitem__, map(itemgetter(2), inc_v))))


def _overlap(paths) -> bool:
    """Do any two of the paths share a vertex."""
    vsets = list(map(attrgetter("vset"), paths))
    return sum(map(len, vsets)) != len(frozenset().union(*vsets))


def _drawn_fan(v, q_v, inc_v, samples, pool, bound, pi_rng) -> list:
    """The ranked fan of build_fan: the pool's candidates in a uniform
    random order, drawn one at a time by swap-popping a uniform position
    of what is left, each accepted when disjoint from the fan so far,
    until every head of bound is in the fan or the pool ends."""
    used = set().union(*(p.vset for p in q_v))
    left = len(bound) - len(bound & used)  # heads of bound outside the fan
    edge_of = {u: (w, eid) for w, eid, u in inc_v}
    entries = [FanEntry(p) for p in q_v]
    getrandbits = pi_rng.getrandbits
    while left and pool:
        n = len(pool)
        bits = n.bit_length()
        j = getrandbits(bits)  # pi_rng.randrange(n)
        while j >= n:
            j = getrandbits(bits)
        p = pool[j]
        pool[j] = pool[-1]
        pool.pop()
        if p.vset.isdisjoint(used):
            used |= p.vset
            u = p.vertices[-1]
            cut, best = _lightest(p.vertices, edge_of)
            entries.append(FanEntry(p, u, samples[u].index(p), v, edge_of[u], cut, best))
            # p is disjoint from the earlier fan, so no head is counted twice
            left -= len(bound.intersection(p.vset))
    entries.sort(key=attrgetter("last_key"))
    return entries


def _neighbor_fan(v, q_v, inc_v, samples, done):
    """The phase-1 fan behind build_fan's Fan, with _scan's protocol: the
    owner's trivial entry, then each neighbor's own one-vertex path, in
    inc_v order, whose last key is the neighbor's edge."""
    want = yield
    done.extend(map(FanEntry, q_v))
    for w, eid, u in inc_v:
        if len(done) >= want:
            want = yield
        key = (w, eid)
        done.append(FanEntry(samples[u][0], u, 0, v, key, 0, key))


def _scan(v, q_v, inc_v, samples, done, bound):
    """The scan in inc_v order behind build_fan's Fan, a generator primed
    by one next(): each send(n) runs it until done holds n final entries,
    or to its end. It holds done, never the Fan, so no cycle forms."""
    want = yield
    used = set().union(*(p.vset for p in q_v))
    # (last_key, insertion tick, entry), ties leaving in insertion order;
    # a sorted list is a heap
    heap = sorted((e.last_key, t, e) for t, e in enumerate(map(FanEntry, q_v)))
    tick = count(len(heap))
    lo = 0  # inc_v[lo] is the lightest neighbor outside used
    # neighbor -> key over inc_v[:j+1], from the first multi-vertex candidate
    edge_of = None
    # heads of bound outside used, counted from the first blocked neighbor
    left = None
    wit = 0  # no neighbor in inc_v[j+1:wit] offers a head outside used
    for j, (w, eid, u) in enumerate(inc_v):
        if edge_of is not None:
            edge_of[u] = (w, eid)
        for si, p in enumerate(samples[u]):
            if p.vset.isdisjoint(used):
                break
        else:  # u's samples all meet the fan
            if left is None:
                left = len(bound) - len(bound & used)
            if not left:
                break
            # the witness probe: is there a later neighbor that offers a
            # head outside used
            wit = max(wit, j + 1)
            while wit < len(inc_v) and samples[inc_v[wit][2]].heads <= used:
                wit += 1
            if wit == len(inc_v):
                break
            continue
        used |= p.vset
        if len(p.vertices) == 1:  # base is u alone; its edge is the only hit
            cut, best = 0, (w, eid)
        else:
            if edge_of is None:
                edge_of = {x: (xw, xe) for xw, xe, x in inc_v[: j + 1]}
            cut, best = _lightest(p.vertices, edge_of)
        heappush(heap, (best, next(tick), FanEntry(p, u, si, v, (w, eid), cut, best)))
        if left is not None:
            left -= len(bound.intersection(p.vset))  # p is disjoint from used
            if not left:
                break
        while lo < len(inc_v) and inc_v[lo][2] in used:
            lo += 1
        if lo == len(inc_v):  # every candidate holds a neighbor, now in the fan
            break
        # (w, eid) < (w, eid, u): an entry tied with the bound leaves too,
        # ahead of every later one, as a stable sort places it
        while heap and heap[0][0] < inc_v[lo]:
            done.append(heappop(heap)[2])
        if len(done) >= want:
            want = yield
    done.extend(e for _, _, e in sorted(heap))


def choose_cluster(entries, is_sampled_head, k_f: int):
    """Step 2 for a single vertex. Returns (clustered, q_paths, i_v) with
    i_v the 1-based index of the last fan entry taken (|fan|+1 when the
    vertex drops out)."""
    hits = []
    for j, e in enumerate(entries):
        if is_sampled_head(e):
            hits.append(j)
            if len(hits) == k_f:
                return True, tuple(entries[h].path for h in hits), j + 1
    return False, (), len(entries) + 1


def le_edge_ids(entries, i_v: int, inc_v) -> list[int]:
    """Step 3 edge purchases: remaining edges from the owner into the
    pre-shortcut vertices of every fan entry before position i_v.

    When each of those entries is a one-vertex path, as in every phase-1
    fan, the answer is read off the entries: a neighbor's path holds only
    that neighbor, whose edge is the entry's key and its last_key, so the
    keys come in inc_v's order; the owner's own trivial path adds no
    edge. Otherwise inc_v is scanned."""
    before = entries[: i_v - 1]
    if all(len(e.base.vertices) == 1 for e in before):
        return [e.key[1] for e in before if e.src is not None]
    pre: set[int] = set()
    # base.vset is orig.vset without the owner, who is not its own neighbor
    for e in before:
        pre |= e.base.vset
    return [eid for (w, eid, u) in inc_v if u in pre]


class LocalExchange:
    """Transport of the sequential builds: every message step answers
    from the driver's own dicts, so nothing is copied or sent."""

    def paths(self, samples, inc):
        return lambda v: samples

    def heads(self, centers, samples, inc):
        is_head = lambda e: e.head in centers
        return lambda v: is_head

    def edge_state(self, inc, thr, le, bought):
        # one set serves every vertex: an edge id is held by an endpoint
        # that bought it, clustered below its threshold, or did not cluster
        held = set()
        if thr:
            held.update(bought)
            for v, inc_v in inc.items():
                if v in thr:
                    inc_v = inc_v[:_above(inc_v, thr[v])]
                held.update(map(itemgetter(1), inc_v))
        return lambda v: held

    def register(self, q):
        pass


def _above(inc_v, key) -> int:
    """Index of the first edge of inc_v heavier than key."""
    return bisect_right(inc_v, key, key=itemgetter(0, 1))


def _collector_paused(fn):
    """Run fn with the cyclic garbage collector off, and turn it back on
    afterwards only if it was on when fn was entered."""
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


def check_params(n: int, f: int, k: int, c_k: int):
    """Raise ValueError unless 1 <= f < n, k >= 2 and c_k >= 1. The builders
    call it before they compute anything from f / n or 1 / k."""
    if not (1 <= f < n):
        raise ValueError(f"need 1 <= f < n, got f={f}, n={n}")
    if k < 2:
        raise ValueError(f"need k >= 2, got k={k}")
    if c_k < 1:
        raise ValueError(f"need c_k >= 1, got c_k={c_k}")


@_collector_paused
def run_phases(g: Graph, f: int, k: int, *, sample_fn, centers_fn,
               c_k: int = 20, pi_rng_fn=None,
               record_states: bool = False, transport=None):
    """Shared phase driver. sample_fn(i, u, q_paths) supplies the per-vertex
    sample list; centers_fn(i, centers, fans) picks the surviving centers
    (fans provided for deterministic selection); pi_rng_fn(i, v), if
    given, supplies the stream from which mod ranks v's fan candidates,
    from phase 2 on: a phase-1 candidate is one neighbor's one-vertex
    path, so they are pairwise disjoint and never ranked, and phase-1
    fans are built without a scan. From phase 2 on, every fan gets the
    phase's offered heads as its saturation bound.

    transport carries each message step; LocalExchange when None.
      paths(samples, inc) -> v -> {neighbor: its sample list}
      heads(centers, samples, inc) -> v -> test of v's fan entries
      edge_state(inc, thr, le, bought) -> v -> the held ids among v's
        edges above thr[v]: those bought by either endpoint, at or below
        the neighbor's threshold key, or to a neighbor that did not
        cluster. v defers exactly its other edges above thr[v].
      register(q) stores the new cluster trees, called before phases < k

    The cyclic collector is paused for the whole call. A build allocates
    hundreds of thousands of tracked containers (paths, fan entries, key
    tuples), which trigger hundreds of collections that free nothing:
    the phase loop makes no reference cycles, so reference counting
    frees everything. tests/test_meta.py guards both halves: a build
    leaves nothing for gc.collect(), and the collector's state is
    restored after a normal return, after an error and when it was off.
    """
    n = g.n
    check_params(n, f, k, c_k)
    if transport is None:
        transport = LocalExchange()
    k_f = c_k * k * f

    centers = frozenset(range(n))
    clustered = frozenset(range(n))
    q = {v: (Path.trivial(v),) for v in range(n)}
    inc = dict(enumerate(g.adj))
    spanner: set[int] = set()
    trace: list[PhaseTrace] = []
    states: list[PhaseRecord] = []
    # cutoff indices of clustered vertices, logged per phase; the tail of
    # this distribution is the knob the size argument leans on
    iv_summary: list[dict] = []
    if record_states:
        states.append(PhaseRecord(0, k, f, k_f, centers, clustered, q,
                                  frozenset(), frozenset(range(g.m))))

    for i in range(1, k + 1):
        t0 = time.perf_counter()
        active = sorted(clustered)
        samples = {u: Offer(sample_fn(i, u, q[u])) for u in active}
        seen = transport.paths(samples, inc)
        # every head offered in the phase, a superset of each fan's
        # offered heads; phase 1 needs none, as its fans do not scan
        bound = frozenset().union(*map(attrgetter("heads"), samples.values())) if i > 1 else None
        fans = {}
        for v in active:
            pi_rng = pi_rng_fn(i, v) if pi_rng_fn is not None and i > 1 else None
            fans[v] = build_fan(v, q[v], inc[v], seen(v), pi_rng, bound=bound,
                                first_phase=i == 1)
        centers_next = centers_fn(i, centers, fans) if i < k else frozenset()
        head_test = transport.heads(centers_next, samples, inc)

        new_edges: set[int] = set()
        q_next: dict[int, tuple[Path, ...]] = {}
        le: dict[int, list[int]] = {}
        iv_taken: list[int] = []
        for v in active:
            entries = fans.pop(v)
            ok, q_v, i_v = choose_cluster(entries, head_test(v), k_f)
            if ok:
                q_next[v] = q_v
                iv_taken.append(i_v)
            le[v] = le_edge_ids(entries, i_v, inc[v])
            new_edges.update(le[v])
        thr = {v: max(p.last_key for p in q_v) for v, q_v in q_next.items()}
        # new_edges holds exactly the bought edges until the loop below ends
        held = transport.edge_state(inc, thr, le, new_edges)

        # An edge (v, u) is deferred when ok_u and key > thr_v and
        # key > thr_u and eid not in le_v and not le_u. The lists keep
        # G's adjacency tuples, and each edge is in both endpoints' lists.
        inc_next: dict[int, list] = {}
        for v, tv in thr.items():
            held_v = held(v)
            inc_v = inc[v]
            inc_next[v] = [t for t in inc_v[_above(inc_v, tv):] if t[1] not in held_v]
        for q_v in q_next.values():
            for p in q_v:
                new_edges.update(p.edges)
        new_edges -= spanner
        spanner |= new_edges
        if i < k:
            transport.register(q_next)
        clustered_next = frozenset(q_next)

        trace.append(PhaseTrace(i, len(centers_next), len(clustered_next),
                                len(new_edges), sum(map(len, inc_next.values())) // 2,
                                time.perf_counter() - t0))
        iv_summary.append({
            "phase": i,
            "count": len(iv_taken),
            "max": max(iv_taken, default=0),
            "mean": round(sum(iv_taken) / len(iv_taken), 2) if iv_taken else 0,
        })
        if record_states:
            states.append(PhaseRecord(
                i, k, f, k_f, centers_next, clustered_next, q_next,
                frozenset(spanner),
                frozenset(map(itemgetter(1), chain.from_iterable(inc_next.values()))),
                prev_centers=centers, prev_clustered=clustered, prev_q=q))
        centers, clustered, q, inc = centers_next, clustered_next, q_next, inc_next

    return spanner, trace, states, iv_summary


def random_steps(n: int, f: int, k: int, seed):
    """The randomized sample_fn and centers_fn: up to ell = C_S * log2(n)
    draws from each cluster-path list, and each center survives a phase
    with probability p = (f / n)^(1/k)."""
    ell = max(1, C_S * math.ceil(math.log2(max(n, 2))))
    p = (f / n) ** (1 / k)

    def sample_fn(i, u, qpaths):
        if len(qpaths) <= 1:  # nothing to draw, so no stream to make
            return list(qpaths)
        return sample_fan_paths(qpaths, vertex_stream(seed, "sample", i, u), ell)

    def centers_fn(i, centers, fans):
        return frozenset(
            s for s in centers
            if vertex_stream(seed, "center", i, s).random() < p)

    return sample_fn, centers_fn


def build_ft_spanner(g: Graph, f: int, k: int, seed=0, variant: str = "seq",
                     c_k: int = 20, mis: str = "greedy",
                     record_states: bool = False) -> SpannerResult:
    """Randomized build. variant "seq" scans each remaining edge in weight
    order and takes the first disjoint sampled path of that neighbor;
    variant "mod" scans all sampled paths in that order, which takes the
    same paths, or under a random permutation when mis="parallel"."""
    n = g.n
    check_params(n, f, k, c_k)
    if variant not in ("seq", "mod"):
        raise ValueError(f"unknown variant {variant!r}")
    if mis not in ("greedy", "parallel"):
        raise ValueError(f"unknown mis {mis!r}")
    if mis == "parallel" and variant != "mod":
        raise ValueError(f"need variant 'mod' for mis='parallel', got {variant!r}")
    sample_fn, centers_fn = random_steps(n, f, k, seed)

    pi_rng_fn = None
    if mis == "parallel":
        pi_rng_fn = lambda i, v: vertex_stream(seed, "pi", i, v)

    spanner, trace, states, iv_summary = run_phases(
        g, f, k, sample_fn=sample_fn, centers_fn=centers_fn, c_k=c_k,
        pi_rng_fn=pi_rng_fn, record_states=record_states)

    algo = "meta-seq" if variant == "seq" else "meta-mod"
    result = SpannerResult(
        algo=algo, n=n, m=g.m, graph_sha=g.sha(),
        params={"f": f, "k": k, "seed": seed, "variant": variant,
                "c_k": c_k, "c_s": C_S, "mis": mis},
        edges=tuple(sorted(spanner)),
        trace=trace,
        extras={"size_bound": meta_size_bound(n, f, k), "k_f": c_k * k * f,
                "iv": iv_summary},
        states=states,
    )
    return result


# ---------------------------------------------------------------------------
# Invariant diagnostics.

def check_invariants(state: PhaseRecord) -> list[str]:
    """Empty unless a structural invariant is broken."""
    out: list[str] = []
    i = state.i
    if i == 0:
        return out

    # (V) exact membership count, paths end at the owner.
    for v, paths in state.q.items():
        if len(paths) != state.k_f:
            out.append(f"phase {i}: vertex {v} holds {len(paths)} cluster paths, expected {state.k_f}")
        for p in paths:
            if p.tail != v:
                out.append(f"phase {i}: path {p} of vertex {v} does not end at it")
            if len(p.vset) != len(p.vertices):
                out.append(f"phase {i}: path {p} repeats a vertex")

    # (III) per-vertex disjointness except the shared tail.
    for v, paths in state.q.items():
        seen: dict[int, int] = {}
        for idx, p in enumerate(paths):
            for x in p.vertices[:-1]:
                if x in seen:
                    out.append(f"phase {i}: vertex {v} paths {seen[x]} and {idx} share vertex {x}")
                    break
                seen[x] = idx

    # Distinct heads, heads are surviving centers.
    for v, paths in state.q.items():
        heads = [p.head for p in paths]
        if len(set(heads)) != len(heads):
            out.append(f"phase {i}: vertex {v} has duplicate cluster heads")
        for h in heads:
            if h not in state.centers:
                out.append(f"phase {i}: vertex {v} path head {h} is not a surviving center")

    # (IV) strictly increasing edge keys toward the owner.
    for v, paths in state.q.items():
        for p in paths:
            for a, b in zip(p.keys, p.keys[1:]):
                if not a < b:
                    out.append(f"phase {i}: path {p} of vertex {v} is not weight-monotone")
                    break

    # Continuity: a kept path with a surviving head stays chosen.
    for v in state.clustered:
        prev = state.prev_q.get(v, ())
        cur = set(p.vertices for p in state.q[v])
        for p in prev:
            if p.head in state.centers and p.vertices not in cur:
                out.append(f"phase {i}: vertex {v} dropped surviving path {p}")

    # Prefix closure: prefixes of chosen paths are chosen at their vertex,
    # both in this phase and (for vertices still clustered then) the prior one.
    qsets = {v: {p.vertices for p in paths} for v, paths in state.q.items()}
    prev_qsets = {v: {p.vertices for p in paths} for v, paths in state.prev_q.items()}
    for v in state.clustered:
        for p in state.q[v]:
            for idx, x in enumerate(p.vertices[:-1]):
                pref = p.vertices[: idx + 1]
                if x in state.clustered and pref not in qsets[x]:
                    out.append(f"phase {i}: prefix {pref} of {p} missing at vertex {x}")
                if x in state.prev_clustered and pref not in prev_qsets.get(x, set()):
                    out.append(f"phase {i}: prefix {pref} of {p} missing at prior-phase vertex {x}")

    # (II) every center's paths merge into a rooted tree of depth <= i.
    trees: dict[int, dict[int, int]] = {}
    for v in state.clustered:
        for p in state.q[v]:
            parent = trees.setdefault(p.head, {})
            verts = p.vertices
            if len(verts) - 1 > i:
                out.append(f"phase {i}: path {p} deeper than {i}")
            for a, b in zip(verts, verts[1:]):
                if b in parent and parent[b] != a:
                    out.append(f"phase {i}: tree {p.head}: vertex {b} has two parents")
                parent[b] = a

    # Every edge lies on at most two trees.
    edge_trees: dict[tuple[int, int], set[int]] = {}
    for v in state.clustered:
        for p in state.q[v]:
            for a, b in zip(p.vertices, p.vertices[1:]):
                e = (a, b) if a < b else (b, a)
                edge_trees.setdefault(e, set()).add(p.head)
    for e, roots in edge_trees.items():
        if len(roots) > 2:
            out.append(f"phase {i}: edge {e} appears in {len(roots)} trees")

    return out

