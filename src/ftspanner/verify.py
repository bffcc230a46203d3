"""Exact oracles for fault-tolerant stretch and connectivity certificates.

These are written against the definitions only, independent of any
construction code, so they can gate every builder. Exhaustive protection
of an edge (u,v) under fault budget f and stretch step i means: for every
fault set F avoiding u,v with |F| <= f, the u-v distance in h minus F is
at most (2i-1) * w(u,v).

Branching check: a vertex on no u-v path of length <= bound can never
matter, so the fault sets in question are the maximum-size ones inside the
"relevant" vertices (those with d(u,x) + d(x,v) <= bound); there are
C(|relevant|, f) of them, and that count is what the report covers.
Rather than search each one, the check branches on short paths: at a
node F (starting from the empty set) it finds one shortest u-v path of
length <= bound avoiding F. With none, the edge is violated;
otherwise, if |F| < f, it branches on F plus each interior vertex of that
path. The tree is exact. Every node F is a subset of some maximum-size
fault set, and faulting never shortens a distance, so no node exceeds the
enumeration's worst distance. Conversely, for any fault set F*, walk down
from the root: a node whose path F* misses has d(F*) = d(node), since the
path survives and F* contains the node; a node whose path F* hits has a
child that is still a subset of F*. So the tree's worst distance is the
enumeration's. An edge found violated is then enumerated literally, so the
report lists every violating fault set. Both checks are cross-checked in
the tests against a definition-unrolled scan.

Cap: the cap limits path searches, one per _dist_avoid call made for an
edge: the branch searches, the literal enumeration of a violated edge,
and the unbounded distance a violation reports. The shared maps below
are not charged. Each search is charged before it is made, so a
verification that would need more than cap searches raises
BudgetExceeded at the first search beyond it, even inside one edge.

Shared maps: the relevant set and the root path come from capped
single-source maps (distances and parents) of u and of v. verify_spanner
takes one map per vertex with a dropped edge, capped at the largest bound
over that vertex's dropped edges, reuses it for each of them, and frees it
after the last. This is exact because the heap pops at distance <= bound,
and the parent pointers they set, do not depend on how far above bound the
cap lies; so base, the relevant set, the fault-set count and the root
path are those of maps capped at the edge's own bound.

Goal-directed searches: each branching search is A* toward v, ordered by
distance plus the fault-free distance to v from v's map. Faults only
remove vertices, so that heuristic never exceeds a remaining distance and
is consistent, and the first pop of v gives the exact distance. A vertex
whose sum exceeds the bound, or which v's map does not reach, lies on no
u-v path within the bound and is skipped. On ties the path found may
differ from plain Dijkstra's, but the argument above holds for any
shortest path, so verdicts, worst ratios and reports do not change.

Certificates: h is a lam-certificate of g when, for every fault set F of
fewer than lam vertices, h minus F has the components of g minus F. Those
of h refine those of g, so h fails exactly when some such F, avoiding u
and v, separates the ends of an edge (u,v) that h dropped. By Menger's
theorem that happens iff h has fewer than lam internally vertex-disjoint
u-v paths. If h has lam of them, F misses one, since it has fewer than lam
vertices. If h has fewer, a minimum u-v separator has as many vertices as
there are paths, so it is such an F. The check is therefore exact, and each
failing edge is reported with its separator as the counterexample.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import combinations
from math import comb

from ftspanner.graphs import Graph

INF = math.inf

DEFAULT_CAP = 10_000_000


class BudgetExceeded(RuntimeError):
    """Raised when a check would make more path searches than its cap."""


class _Budget:
    """Path searches left under a cap, charged one at a time before each
    search is made."""

    def __init__(self, cap):
        self.cap = cap
        self.left = cap

    def charge(self):
        if self.left <= 0:
            raise BudgetExceeded(f"the check needs more than {self.cap} path searches")
        self.left -= 1


def _subgraph_adj(g: Graph, edge_ids) -> list[list[tuple[int, int]]]:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for eid in edge_ids:
        u, v, w = g.edges[eid]
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def _normalize_subgraph(g: Graph, h) -> set[int]:
    """Return the edge ids h as a set; reject ids outside g."""
    ids = set(int(e) for e in h)
    for eid in ids:
        if not (0 <= eid < g.m):
            raise ValueError(f"edge id {eid} out of range")
    return ids


def _sssp_upto(adj, src: int, cutoff):
    """Distances from src not exceeding cutoff, and the parent of each
    reached vertex other than src."""
    best = {src: 0}
    parent = {}
    heap = [(0, src)]
    out: dict[int, float] = {}
    while heap:
        d, x = heappop(heap)
        if x in out:
            continue
        out[x] = d
        for y, w in adj[x]:
            if y in out:
                continue
            nd = d + w
            if nd <= cutoff and nd < best.get(y, INF):
                best[y] = nd
                parent[y] = x
                heappush(heap, (nd, y))
    return out, parent


def _interior(parent, u, v):
    """Interior vertices of the u-v path that parent pointers trace back."""
    interior = []
    x = parent[v]
    while x != u:
        interior.append(x)
        x = parent[x]
    return tuple(interior)


def _dist_avoid(adj, u: int, v: int, dead: frozenset, cutoff=INF, goal=None):
    """u-v distance avoiding dead vertices, with the interior vertices of one
    shortest path; (INF, ()) if above cutoff or disconnected.

    With goal, the fault-free distances to v from a map of v capped at or
    above cutoff, the search is A*: a vertex y is ordered by its distance
    plus goal[y], and skipped when that sum exceeds cutoff or goal has no
    entry for it."""
    best = {u: 0}
    parent = {}
    heap = [(0, u)]
    done = set()
    while heap:
        _, x = heappop(heap)
        if x in done:
            continue
        if x == v:
            return best[v], _interior(parent, u, v)
        done.add(x)
        d = best[x]
        for y, w in adj[x]:
            if y in dead or y in done:
                continue
            nd = d + w
            if goal is None:
                est = nd
            elif y in goal:
                est = nd + goal[y]
            else:
                continue
            if est <= cutoff and nd < best.get(y, INF):
                best[y] = nd
                parent[y] = x
                heappush(heap, (est, y))
    return INF, ()


def _relevant(mu, mv, u, v, bound):
    """From the capped maps (distances, parents) of u and v, each taken at a
    cutoff >= bound: the u-v distance, the sorted vertices other than u, v
    that lie on some u-v path of length <= bound, and the interior of one
    shortest u-v path (INF and () if the distance exceeds bound)."""
    du, parent = mu
    dv, _ = mv
    relevant = sorted(x for x, d in du.items()
                      if x != u and x != v and d + dv.get(x, INF) <= bound)
    if du.get(v, INF) > bound:
        return INF, relevant, ()
    return du[v], relevant, _interior(parent, u, v)


def _branch(adj, u, v, w, bound, k_eff, base, interior, goal, budget):
    """The branching check, from a shortest u-v path of length base <= bound
    and the given interior: each fault set of up to k_eff vertices is
    extended by each interior vertex of its own short path, found by A*
    toward v with goal = v's fault-free distances. Each search is charged
    to budget. Returns (ok, worst_ratio); worst_ratio is INF if not ok."""
    worst = base
    seen = set()
    stack = [(frozenset(), interior)] if k_eff else []
    while stack:
        dead, path = stack.pop()
        for x in path:
            child = dead | {x}
            if child in seen:
                continue
            seen.add(child)
            budget.charge()
            d, sub = _dist_avoid(adj, u, v, child, bound, goal)
            if d > bound:
                return False, INF
            worst = max(worst, d)
            if len(child) < k_eff:
                stack.append((child, sub))
    return True, worst / w


def _enumerate(adj, u, v, w, bound, base, relevant, k_eff, budget):
    """The literal scan: one search per k_eff-subset of relevant, and one
    more per violation for its unbounded distance, each charged to budget.
    Returns (ok, worst_ratio, violations)."""
    worst = base / w
    ok = True
    violations = []
    for fault in combinations(relevant, k_eff):
        dead = frozenset(fault)
        budget.charge()
        d, _ = _dist_avoid(adj, u, v, dead, bound)
        if d > bound:
            budget.charge()
            actual, _ = _dist_avoid(adj, u, v, dead)
            ok = False
            violations.append((fault, actual, bound))
            worst = max(worst, actual / w if actual < INF else INF)
        else:
            worst = max(worst, d / w)
    return ok, worst, violations


def _protection_scan(adj, mu, mv, u, v, w, f, i, budget, collect):
    """Decide protection of (u,v) from the capped maps mu, mv of u and v,
    each taken at a cutoff >= (2i-1)w, charging each path search to
    budget. Returns (ok, worst_ratio, violations, fault_sets covered);
    violations are collected only if collect."""
    bound = (2 * i - 1) * w
    base, relevant, interior = _relevant(mu, mv, u, v, bound)
    if base > bound:
        budget.charge()
        actual, _ = _dist_avoid(adj, u, v, frozenset())
        return False, (actual / w if actual < INF else INF), [((), actual, bound)], 1
    k_eff = min(f, len(relevant))
    if k_eff == 0:
        return True, base / w, [], 1
    todo = comb(len(relevant), k_eff)
    ok, worst = _branch(adj, u, v, w, bound, k_eff, base, interior, mv[0], budget)
    if ok or not collect:
        return ok, worst, [], todo
    ok, worst, violations = _enumerate(adj, u, v, w, bound, base, relevant, k_eff,
                                       budget)
    return ok, worst, violations, todo


def _check_params(f, k):
    if f < 0:
        raise ValueError(f"need f >= 0, got f={f}")
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")


def is_protected(h: Graph, u: int, v: int, w: int, f: int, i: int,
                 cap: int = DEFAULT_CAP) -> bool:
    """Exhaustively decide protection of the edge (u,v) of weight w in h."""
    if u == v:
        raise ValueError("edge endpoints must differ")
    _check_params(f, i)
    adj = _subgraph_adj(h, range(h.m))
    bound = (2 * i - 1) * w
    ok, _, _, _ = _protection_scan(adj, _sssp_upto(adj, u, bound), _sssp_upto(adj, v, bound),
                                   u, v, w, f, i, _Budget(cap), collect=False)
    return ok


@dataclass
class VerificationReport:
    mode = "exhaustive"  # the check is always exhaustive; the report JSON names it
    f: int
    k: int
    passed: bool = True
    worst_stretch: float = 0.0
    per_edge: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    edges_checked: int = 0
    fault_sets: int = 0

    def to_dict(self):
        def num(x):
            return None if x == INF else x

        return {
            "mode": self.mode,
            "f": self.f,
            "k": self.k,
            "passed": self.passed,
            "worst_stretch": num(self.worst_stretch),
            "edges_checked": self.edges_checked,
            "fault_sets": self.fault_sets,
            "violations": [
                {"edge": list(e), "faults": list(fs), "dist": num(d), "bound": b}
                for (e, fs, d, b) in sorted(self.violations)
            ],
            "per_edge": {str(k): num(v) for k, v in sorted(self.per_edge.items())},
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"


def verify_spanner(g: Graph, h, f: int, k: int,
                   cap: int = DEFAULT_CAP) -> VerificationReport:
    """Check the fault-tolerant stretch guarantee of h, an iterable of g's
    edge ids, against g.

    Checks per-edge protection for every edge of g, which is sufficient
    for the spanner property: a shortest path in g minus F is a
    concatenation of protected edges. Raises BudgetExceeded at the path
    search that would exceed cap.
    """
    _check_params(f, k)
    h_ids = _normalize_subgraph(g, h)
    h_adj = _subgraph_adj(g, h_ids)
    report = VerificationReport(f=f, k=k)
    budget = _Budget(cap)
    # One capped map per vertex with a dropped edge, at the largest bound
    # over those edges, freed after the last of them.
    cutoff, last, maps = {}, {}, {}
    for eid, (u, v, w) in enumerate(g.edges):
        if eid not in h_ids:
            for x in (u, v):
                cutoff[x] = max(cutoff.get(x, 0), (2 * k - 1) * w)
                last[x] = eid
    for eid, (u, v, w) in enumerate(g.edges):
        report.edges_checked += 1
        if eid in h_ids:
            report.per_edge[eid] = 1.0
            report.worst_stretch = max(report.worst_stretch, 1.0)
            continue
        for x in (u, v):
            if x not in maps:
                maps[x] = _sssp_upto(h_adj, x, cutoff[x])
        ok, worst, viols, fault_sets = _protection_scan(
            h_adj, maps[u], maps[v], u, v, w, f, k, budget, collect=True)
        for x in (u, v):
            if last[x] == eid:
                del maps[x]
        report.fault_sets += fault_sets
        report.per_edge[eid] = worst
        report.worst_stretch = max(report.worst_stretch, worst)
        if not ok:
            report.passed = False
            for fault, d, bnd in viols:
                report.violations.append(((u, v), tuple(fault), d, bnd))
    return report


# ---------------------------------------------------------------------------
# Connectivity certificates.

def _small_separator(adj, u: int, v: int, lam: int):
    """A minimum u-v vertex separator of adj if it has fewer than lam
    vertices, else None; u and v must not be adjacent. Augments up to lam
    vertex-disjoint paths by BFS on the vertex-split graph without building
    it: state (x, 0) is x's in-copy and (x, 1) its out-copy, the flow is a
    set of directed edges, and a vertex is used when a flow edge enters it.
    Edge arcs are uncapacitated, so a failed search's reachable set is cut
    off only at vertices whose in-copy it reaches but not their out-copy."""
    common = sorted({y for y, _ in adj[u]} & {y for y, _ in adj[v]})[:lam]
    flow = {e for c in common for e in ((u, c), (c, v))}
    for _ in range(len(common), lam):
        pred = {b: a for a, b in flow}
        back = {(u, 1): None}
        queue = [(u, 1)]
        for x, out in queue:
            if out:
                steps = [(y, 0) for y, _ in adj[x] if y != u]
                if x in pred:
                    steps.append((x, 0))
            else:
                steps = [(pred[x], 1) if x in pred else (x, 1)]
            for s in steps:
                if s not in back:
                    back[s] = (x, out)
                    queue.append(s)
            if (v, 0) in back:
                break
        else:
            return tuple(sorted(x for x, out in back if not out and (x, 1) not in back))
        b = (v, 0)
        while back[b] is not None:
            (x, x_out), y = back[b], b[0]
            if x != y and x_out:  # along the edge x-y
                if (y, x) in flow:
                    flow.remove((y, x))
                else:
                    flow.add((x, y))
            elif x != y:  # back along the flow edge y-x
                flow.remove((y, x))
            b = back[b]
    return None


@dataclass
class CertificateReport:
    mode = "exhaustive"  # the check is exact; the report JSON names it
    lam: int
    passed: bool = True
    fault_sets: int = 0
    mismatches: list = field(default_factory=list)

    def to_dict(self):
        return {
            "mode": self.mode,
            "lambda": self.lam,
            "passed": self.passed,
            "fault_sets": self.fault_sets,
            "mismatches": [{"faults": list(fs), "edge": list(e)} for fs, e in self.mismatches],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"


def verify_certificate(g: Graph, h, lam: int) -> CertificateReport:
    """Check that h, an iterable of g's edge ids, preserves pairwise
    connectivity of g under every fault set of size < lam, by Menger's
    theorem: each edge that h dropped needs lam internally vertex-disjoint
    paths in h. Each edge that has fewer is reported with a minimum
    separator, a fault set that disconnects it.
    fault_sets counts the sets covered, sum over j < lam of C(n, j).
    """
    if lam < 1:
        raise ValueError("lambda must be >= 1")
    h_ids = _normalize_subgraph(g, h)
    h_adj = _subgraph_adj(g, h_ids)
    report = CertificateReport(lam=lam, fault_sets=sum(comb(g.n, j) for j in range(lam)))
    for eid, (u, v, _) in enumerate(g.edges):
        if eid not in h_ids:
            cut = _small_separator(h_adj, u, v, lam)
            if cut is not None:
                report.passed = False
                report.mismatches.append((cut, (u, v)))
    return report
