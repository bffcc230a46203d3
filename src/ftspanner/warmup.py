"""Single-level fault-tolerant 3-spanner via star clustering.

Kept as an independently testable reference construction for the two-phase
(k = 2) regime. Step one samples centers and clusters every vertex that
sees at least 4f sampled neighbors, keeping its 4f lightest center edges;
all edges of unclustered vertices enter the spanner, as do all edges
lighter than a clustered vertex's heaviest center edge. Step two scans
the leftover edges of each clustered vertex in weight order and keeps an
edge only while its neighbor's sampled center list still contains a
center this vertex has not observed.
"""

from __future__ import annotations

import math

from ftspanner.graphs import Graph
from ftspanner.meta import check_params
from ftspanner.result import SIZE_BOUND_C, PhaseTrace, SpannerResult, warmup_size_bound
from ftspanner.rng import vertex_stream


def build_3spanner(g: Graph, f: int, seed=0, c_s: int = 4,
                   p_override: float | None = None,
                   record_detail: bool = False) -> SpannerResult:
    n = g.n
    check_params(n, f, 2, 1)
    p = p_override if p_override is not None else math.sqrt(f / n)

    centers = {v for v in range(n)
               if vertex_stream(seed, "wcenter", 0, v).random() < p}

    # Star clustering: S(v) = the 4f lightest center edges of v.
    need = 4 * f
    s_of: dict[int, list[int]] = {}
    center_edge: dict[int, dict[int, int]] = {}
    max_center_key: dict[int, tuple[int, int]] = {}
    unclustered = set()
    for v in range(n):
        hits = [(w, eid, x) for (w, eid, x) in g.adj[v] if x in centers]
        if len(hits) < need:
            unclustered.add(v)
            continue
        chosen = hits[:need]  # adjacency is already (w, id)-sorted
        s_of[v] = [x for _, _, x in chosen]
        center_edge[v] = {x: eid for _, eid, x in chosen}
        max_center_key[v] = (chosen[-1][0], chosen[-1][1])

    h_prime: set[int] = set()
    for v, byc in center_edge.items():
        h_prime.update(byc.values())
    for v in range(n):
        if v in unclustered:
            h_prime.update(eid for _, eid, _ in g.adj[v])
        else:
            cap = max_center_key[v]
            for w, eid, _ in g.adj[v]:
                if (w, eid) >= cap:
                    break
                h_prime.add(eid)

    # Step two: per clustered vertex, O(log n) center samples per neighbor.
    n_samples = max(1, c_s * math.ceil(math.log2(max(n, 2))))
    # only the distinct samples matter: step two takes the least unobserved
    sampled_set: dict[int, set[int]] = {}
    for v in sorted(s_of):
        rng = vertex_stream(seed, "wsample", 0, v)
        pool = s_of[v]
        sampled_set[v] = {pool[rng.randrange(len(pool))] for _ in range(n_samples)}

    e_tilde: set[int] = set()
    detail_accepts: dict[int, int] = {}
    detail_observed: dict[int, int] = {}
    for v in sorted(s_of):
        observed: set[int] = set()
        accepts = 0
        for w, eid, u in g.adj[v]:
            if eid in h_prime:
                continue
            # u is clustered: an edge to an unclustered endpoint is in h_prime.
            fresh = sampled_set[u] - observed
            if fresh:
                observed.add(min(fresh))
                e_tilde.add(eid)
                accepts += 1
        if record_detail:
            detail_accepts[v] = accepts
            detail_observed[v] = len(observed)

    edges = tuple(sorted(h_prime | e_tilde))
    result = SpannerResult(
        algo="warmup",
        n=n,
        m=g.m,
        graph_sha=g.sha(),
        params={"f": f, "k": 2, "seed": seed, "c_s": c_s,
                "p": p if p_override is not None else None},
        edges=edges,
        trace=[PhaseTrace(1, len(centers), n - len(unclustered),
                          len(h_prime), g.m - len(h_prime)),
               PhaseTrace(2, 0, 0, len(e_tilde - h_prime), 0)],
        extras={
            "centers": len(centers),
            "unclustered": len(unclustered),
            "h_prime": len(h_prime),
            "e_tilde": len(e_tilde),
        },
    )
    if record_detail:
        result.extras["detail"] = {
            "centers": sorted(centers),
            "s_of": {str(v): list(cs) for v, cs in s_of.items()},
            "accepts": {str(v): c for v, c in detail_accepts.items()},
            "observed": {str(v): c for v, c in detail_observed.items()},
        }
    return result


def warmup_size_report(result: SpannerResult) -> dict:
    """Measured size against c*(f*n + sqrt(f)*n^1.5*log2(n)), c = SIZE_BOUND_C."""
    f = result.params["f"]
    bound = warmup_size_bound(result.n, f)
    edges = result.edge_count
    return {
        "edges": edges,
        "bound": bound,
        "ratio": (edges / bound) if bound > 0 else 0.0,
        "c": SIZE_BOUND_C,
    }
