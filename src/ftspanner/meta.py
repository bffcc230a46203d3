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
flows through per-(vertex, phase) streams.
"""

from __future__ import annotations

import functools
import gc
import math
import time
from dataclasses import dataclass, field
from operator import attrgetter

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
    the entries choose_cluster keeps.

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
    for _ in range(count):
        p = qpaths[rng.randrange(len(qpaths))]
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


def build_fan(v: int, q_v, inc_v, samples, variant: str = "seq",
              pi_rng=None) -> list[FanEntry]:
    """Step 1 for a single vertex: maximal disjoint paths to adjacent
    clusters, shortcut, ordered by last-edge key.

    inc_v: remaining incident edges as (w, eid, u), ascending by (w, eid).
    samples: neighbor -> stored sample list (only entries for inc_v
    neighbors are read).

    The shortcut of an accepted path is read off its vertex tuple: base's
    vertices are the grown path's vertices but the owner, and base's tail
    is an inc_v neighbor, so the scan always hits.

    mod given a pi_rng ranks the candidates by a permutation drawn from
    it and takes the lex-first MIS under it, by one scan in rank order;
    parmis's round MIS computes the same set (acceptance 06), and the
    PRAM depth refers to it. seq ignores pi_rng. When the candidates are
    pairwise disjoint (always so in phase 1, where every sample is a
    single neighbor) it accepts them all and draws nothing: the MIS
    under any order is every candidate, the entries are sorted by
    last_key anyway, and pi_rng is a private per-(phase, vertex) stream
    that nothing else reads, so the output is the same.
    """
    used = set()
    for p in q_v:
        used |= p.vset
    entries = [FanEntry(p) for p in q_v]
    # ordered as inc_v, so iterating it scans the edges in weight order
    edge_of = {u: (w, eid) for (w, eid, u) in inc_v}

    if variant not in ("seq", "mod"):
        raise ValueError(f"unknown variant {variant!r}")
    accepted: list[tuple[Path, tuple[int, int], int, int]] = []
    if variant == "mod" and pi_rng is not None:
        alive = [(p, key, u, si)
                 for u, key in edge_of.items()
                 for si, p in enumerate(samples[u])
                 if p.vset.isdisjoint(used)]
        vsets = [c[0].vset for c in alive]
        if sum(map(len, vsets)) == len(frozenset().union(*vsets)):
            # pairwise disjoint: the MIS under any order takes them all
            accepted = alive
        else:
            order = list(range(len(alive)))
            pi_rng.shuffle(order)
            for t in sorted(range(len(alive)), key=order.__getitem__):
                if vsets[t].isdisjoint(used):
                    used |= vsets[t]
                    accepted.append(alive[t])
    else:
        # seq takes at most one path per neighbor, mod every disjoint one
        first_only = variant == "seq"
        for u, key in edge_of.items():
            for si, p in enumerate(samples[u]):
                if p.vset.isdisjoint(used):
                    used |= p.vset
                    accepted.append((p, key, u, si))
                    if first_only:
                        break

    for p, key, u, si in accepted:
        if len(p.vertices) == 1:  # base is u alone; its edge is the only hit
            entries.append(FanEntry(p, u, si, v, key, 0, key))
        else:
            cut, best = _lightest(p.vertices, edge_of)
            entries.append(FanEntry(p, u, si, v, key, cut, best))
    entries.sort(key=attrgetter("last_key"))
    return entries


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
    pre-shortcut vertices of every fan entry before position i_v."""
    pre: set[int] = set()
    # base.vset is orig.vset without the owner, who is not its own neighbor
    for e in entries[: i_v - 1]:
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
        return lambda v: (thr, bought)

    def register(self, q):
        pass


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
               variant: str = "seq", c_k: int = 20, pi_rng_fn=None,
               record_states: bool = False, transport=None):
    """Shared phase driver. sample_fn(i, u, q_paths) supplies the per-vertex
    sample list; centers_fn(i, centers, fans) picks the surviving centers
    (fans provided for deterministic selection); pi_rng_fn(i, v), if
    given, supplies the stream from which mod ranks v's fan candidates.

    transport carries each message step; LocalExchange when None.
      paths(samples, inc) -> v -> {neighbor: its sample list}
      heads(centers, samples, inc) -> v -> test of v's fan entries
      edge_state(inc, thr, le, bought) -> v -> (neighbor -> threshold key
        of each clustered neighbor, edge ids v knows were bought)
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
        samples = {u: sample_fn(i, u, q[u]) for u in active}
        seen = transport.paths(samples, inc)
        fans = {}
        for v in active:
            pi_rng = pi_rng_fn(i, v) if pi_rng_fn is not None else None
            fans[v] = build_fan(v, q[v], inc[v], seen(v), variant, pi_rng)
        centers_next = centers_fn(i, centers, fans) if i < k else frozenset()
        head_test = transport.heads(centers_next, samples, inc)

        new_edges: set[int] = set()
        q_next: dict[int, tuple[Path, ...]] = {}
        le: dict[int, list[int]] = {}
        iv_taken: list[int] = []
        for v in active:
            entries = fans[v]
            ok, q_v, i_v = choose_cluster(entries, head_test(v), k_f)
            if ok:
                q_next[v] = q_v
                iv_taken.append(i_v)
            le[v] = le_edge_ids(entries, i_v, inc[v])
            new_edges.update(le[v])
        thr = {v: max(p.last_key for p in q_v) for v, q_v in q_next.items()}
        # new_edges holds exactly the bought edges until the loop below ends
        peer = transport.edge_state(inc, thr, le, new_edges)

        # An edge (v, u) is deferred when ok_u and key > thr_v and
        # key > thr_u and eid not in le_v and not le_u.
        inc_next: dict[int, list] = {}
        rem_next: set[int] = set()
        for v, tv in thr.items():
            thr_of, bought = peer(v)
            keep = []
            for w, eid, u in inc[v]:
                if (u in thr_of and eid not in bought
                        and (w, eid) > tv and (w, eid) > thr_of[u]):
                    keep.append((w, eid, u))
                    rem_next.add(eid)
            inc_next[v] = keep
        for q_v in q_next.values():
            for p in q_v:
                new_edges.update(p.edges)
        new_edges -= spanner
        spanner |= new_edges
        if i < k:
            transport.register(q_next)
        clustered_next = frozenset(q_next)

        trace.append(PhaseTrace(i, len(centers_next), len(clustered_next),
                                len(new_edges), len(rem_next),
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
                frozenset(spanner), frozenset(rem_next),
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
    variant "mod" scans all sampled paths in one fixed order (or under a
    random permutation when mis="parallel")."""
    n = g.n
    check_params(n, f, k, c_k)
    if mis == "parallel" and variant != "mod":
        raise ValueError(f"need variant 'mod' for mis='parallel', got {variant!r}")
    sample_fn, centers_fn = random_steps(n, f, k, seed)

    pi_rng_fn = None
    if variant == "mod" and mis == "parallel":
        pi_rng_fn = lambda i, v: vertex_stream(seed, "pi", i, v)

    spanner, trace, states, iv_summary = run_phases(
        g, f, k, sample_fn=sample_fn, centers_fn=centers_fn, variant=variant,
        c_k=c_k, pi_rng_fn=pi_rng_fn, record_states=record_states)

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
    """Empty unless a structural invariant is broken. The center-count
    balance (an expectation-level property) is reported separately via
    center_ratio(), never as a failure here."""
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


def center_ratio(state: PhaseRecord, n: int) -> float:
    """|Z_i| against f^(i/k) * n^(1-i/k); monitored, not asserted."""
    if state.i >= state.k:
        return 0.0
    expected = state.f ** (state.i / state.k) * n ** (1 - state.i / state.k)
    return len(state.centers) / expected if expected else 0.0
