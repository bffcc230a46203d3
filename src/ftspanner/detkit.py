"""Deterministic construction path: greedy hitting sets and the
derandomized spanner build.

The randomized build uses randomness twice: per-vertex path samples and
the center coin flips. The deterministic variant drops the sampling
(every neighbor's full cluster-path list is scanned, costing an extra
factor of the list size) and picks centers with a multiplicity-beta
hitting set over the head sets of qualifying vertices' fans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from ftspanner.graphs import Graph
from ftspanner.meta import check_params, run_phases
from ftspanner.result import SpannerResult, meta_size_bound


class InadmissibleInstance(ValueError):
    pass


@dataclass(frozen=True)
class HittingInstance:
    """Ground set R, subsets to hit, reduction factor delta, required
    intersection multiplicity beta.

    Admissible when every subset has at least c * beta * delta * ln(#sets)
    elements (the log term floored at 1), which is what the greedy
    solver's size bound needs.
    """

    ground: tuple
    sets: tuple
    delta: float
    beta: int = 1
    c: float = 1.0

    def min_set_size(self) -> float:
        ell = len(self.sets)
        return self.c * self.beta * self.delta * max(1, math.ceil(math.log(max(ell, 1))))

    def validate(self):
        for name, value in (("delta", self.delta), ("c", self.c)):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise InadmissibleInstance(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise InadmissibleInstance(f"{name} must be finite, got {value}")
        if self.delta < 1:
            raise InadmissibleInstance(f"delta must be >= 1, got {self.delta}")
        if isinstance(self.beta, bool) or not isinstance(self.beta, int) or self.beta < 1:
            raise InadmissibleInstance(f"beta must be an integer >= 1, got {self.beta!r}")
        ground = set(self.ground)
        need = self.min_set_size()
        for idx, s in enumerate(self.sets):
            if len(s) < need:
                raise InadmissibleInstance(
                    f"set {idx} has {len(s)} elements, below the admissible "
                    f"minimum {need:.1f}")
            if not set(s) <= ground:
                raise InadmissibleInstance(f"set {idx} is not a subset of the ground set")


def _greedy_max_coverage(sets) -> set:
    """Pick elements hitting the most unhit sets; ties break to the
    smallest element. Runs until every set is hit."""
    membership: dict = {}
    for idx, s in enumerate(sets):
        for e in s:
            membership.setdefault(e, []).append(idx)
    count = {e: len(ixs) for e, ixs in membership.items()}
    heap = [(-c, e) for e, c in count.items()]
    heapify(heap)
    alive = [True] * len(sets)
    left = len(sets)
    chosen: set = set()
    while left:
        while True:
            negc, e = heappop(heap)
            if e in chosen:
                continue
            if -negc == count[e]:
                break
            heappush(heap, (-count[e], e))
        chosen.add(e)
        for idx in membership[e]:
            if alive[idx]:
                alive[idx] = False
                left -= 1
                for e2 in sets[idx]:
                    count[e2] -= 1
    return chosen


def beta_hitting_set(inst: HittingInstance) -> set:
    """Hit every subset at least beta times: split each subset into beta
    near-equal parts (one part when beta = 1) and hit all parts of the
    induced plain instance. The result has at most |ground| / delta
    elements on admissible instances."""
    inst.validate()
    if not inst.sets:
        return set()
    parts = []
    for s in inst.sets:
        elems = sorted(set(s))
        base, extra = divmod(len(elems), inst.beta)
        pos = 0
        for j in range(inst.beta):
            size = base + (1 if j < extra else 0)
            parts.append(elems[pos:pos + size])
            pos += size
    return _greedy_max_coverage(parts)


def det_cluster_threshold(n: int, f: int, k: int, k_f: int) -> int:
    """Fan size at which a vertex's head set becomes an admissible hitting
    target. Ceilings are taken so the induced instance (with its
    beta * #sets blowup) stays admissible."""
    delta = (n / f) ** (1 / k)
    return k_f * math.ceil(delta) * max(1, math.ceil(math.log(n * max(2, k_f))))


def build_ft_spanner_det(g: Graph, f: int, k: int, c_k: int = 20,
                         record_states: bool = False) -> SpannerResult:
    """Fully deterministic build: full neighbor path lists instead of
    samples, centers from a beta-hitting set over qualifying fans."""
    n = g.n
    check_params(n, f, k, c_k)
    k_f = c_k * k * f
    delta = (n / f) ** (1 / k)
    threshold = det_cluster_threshold(n, f, k, k_f)

    def sample_fn(i, u, qpaths):
        return list(qpaths)

    def centers_fn(i, centers, fans):
        qualifying = [v for v in sorted(fans) if len(fans[v]) >= threshold]
        if not qualifying:
            return frozenset()
        head_sets = tuple(
            tuple(e.head for e in fans[v][:threshold]) for v in qualifying)
        inst = HittingInstance(ground=tuple(sorted(centers)), sets=head_sets,
                               delta=delta, beta=k_f)
        chosen = frozenset(beta_hitting_set(inst))
        if len(chosen) > len(centers) / delta:
            raise AssertionError(
                f"hitting set of {len(chosen)} centers exceeds |Z|/delta = "
                f"{len(centers) / delta:.1f}")
        for v, heads in zip(qualifying, head_sets):
            if len(chosen.intersection(heads)) < k_f:
                raise AssertionError(
                    f"qualifying vertex {v} hit only "
                    f"{len(chosen.intersection(heads))} < {k_f} centers")
        return chosen

    spanner, trace, states, iv_summary = run_phases(
        g, f, k, sample_fn=sample_fn, centers_fn=centers_fn, variant="seq",
        c_k=c_k, record_states=record_states)

    return SpannerResult(
        algo="meta-det", n=n, m=g.m, graph_sha=g.sha(),
        params={"f": f, "k": k, "variant": "det", "c_k": c_k},
        edges=tuple(sorted(spanner)),
        trace=trace,
        extras={"size_bound": meta_size_bound(n, f, k), "k_f": k_f,
                "cluster_threshold": threshold, "iv": iv_summary},
        states=states,
    )
