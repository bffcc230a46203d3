"""The benchmark's workloads.

A workload makes its inputs from the seed (`setup`), names the API calls
that one timed pass makes (`calls`), and checks each output (`check`).
Every build uses weights 1..1000 (or unit weights where stated), f = 1 and
c_k = 1: with the default c_k = 20, K_f = 20*k*f exceeds every degree at
these sizes, no vertex clusters, and a build returns H = G, which times
copying the graph rather than the algorithm.

Sizes: "full" is what the benchmark runs; "tiny" keeps the same shape at
a size the benchmark's own tests can run in seconds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from ftspanner import graphs
from ftspanner.congest import BandwidthExceeded, simulate_distributed_spanner
from ftspanner.detkit import build_ft_spanner_det
from ftspanner.meta import build_ft_spanner
from ftspanner.result import SpannerResult
from ftspanner.verify import verify_spanner
from ftspanner.warmup import build_3spanner

WEIGHTS = (1, 1000)
C_K = 1
# build seeds tried after the workload seed, far apart so that neighbouring
# workload seeds do not try the same ones
SEED_STRIDE = 1_000_003
SEED_TRIES = 20


class Vacuous(RuntimeError):
    """A build kept every edge or clustered no vertex in phase 1, so timing
    it would not time the algorithm."""


class Checks:
    """Counts the output checks made and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)


@dataclass
class Call:
    """One timed API call of a pass. run(traced) makes the call; traced is
    true only in the traced passes of a --trace 1 run."""
    label: str
    run: Callable[[bool], object]


def check_build(res: SpannerResult, g: graphs.Graph, label: str, checks: Checks):
    """A build is a subgraph of G, and it sparsified G."""
    ids = res.edges
    checks.expect(
        res.graph_sha == g.sha() and res.m == g.m
        and len(set(ids)) == len(ids) and all(0 <= e < g.m for e in ids),
        f"{label}: result is not a subgraph of G")
    clustered = res.trace[0].clustered if res.trace else 0
    if len(ids) >= g.m or clustered == 0:
        raise Vacuous(f"{label}: kept {len(ids)}/{g.m} edges with {clustered} vertices "
                      f"clustered in phase 1; the input does not exercise clustering")


def phase2_build(g: graphs.Graph, seed: int, k: int, checks: Checks):
    """The first build seed of seed, seed + SEED_STRIDE, ... whose meta-seq
    build clusters a vertex in phase 2, and that build.

    At n = 300..400 a build samples about 7 phase-2 centres. On a few
    percent of seeds it samples fewer than K_f = 3, nobody clusters in
    phase 2, and the build skips the multi-hop fans the workloads are for;
    such a seed also runs markedly faster than the rest."""
    for j in range(SEED_TRIES):
        s = seed + j * SEED_STRIDE
        res = build_ft_spanner(g, 1, k, seed=s, variant="seq", c_k=C_K)
        check_build(res, g, f"meta-seq seed {s}", checks)
        if res.trace[1].clustered > 0:
            return s, res
    raise Vacuous(f"no build seed clustered a vertex in phase 2 in {SEED_TRIES} tries")


def canonical(out) -> str:
    """The canonical text of a call's output; equal seeds must give equal text."""
    if isinstance(out, tuple):  # (SpannerResult, RoundReport) from the simulation
        res, report = out
        return res.to_json() + repr(sorted(report.to_dict().items()))
    return out.to_json()


class Workload:
    name = ""
    sizes: dict = {}
    # exceptions a call may raise that count as a failed output, not a crash
    call_errors: tuple = ()

    def setup(self, seed: int, size: str) -> dict:
        raise NotImplementedError

    def fingerprint(self, inputs: dict) -> str:
        """Text that equal seeds must reproduce across set-ups."""
        return inputs["g"].sha()

    def prepare(self, inputs: dict, seed: int, checks: Checks) -> dict:
        """Untimed work after the first set-up. Returns what calls() and
        check() need: the build seed, and any reference output."""
        return {"seed": seed}

    def calls(self, inputs: dict, ref: dict) -> list[Call]:
        raise NotImplementedError

    def check(self, label: str, out, inputs: dict, ref, checks: Checks) -> None:
        raise NotImplementedError

    def kept_frac(self, inputs: dict, outputs: dict) -> float:
        """|H| / m summed over the workload's builds."""
        raise NotImplementedError


class SparseBuild(Workload):
    """Every builder on a complete graph where clustering happens: phase 1
    clusters all vertices, meta k=3 still clusters in phase 2 (so build_fan
    runs on multi-hop paths), and in the last phase every vertex drops out
    and buys its edges."""
    name = "sparse-build"
    sizes = {"full": 400, "tiny": 100}
    K = 3

    def setup(self, seed, size):
        return {"g": graphs.generate("complete", seed=seed, weights=WEIGHTS,
                                     n=self.sizes[size])}

    def prepare(self, inputs, seed, checks):
        build_seed, _ = phase2_build(inputs["g"], seed, self.K, checks)
        return {"seed": build_seed}

    def calls(self, inputs, ref):
        g, k, seed = inputs["g"], self.K, ref["seed"]
        return [
            Call("seq", lambda traced: build_ft_spanner(
                g, 1, k, seed=seed, variant="seq", c_k=C_K)),
            Call("mod", lambda traced: build_ft_spanner(
                g, 1, k, seed=seed, variant="mod", c_k=C_K, mis="parallel")),
            Call("det", lambda traced: build_ft_spanner_det(g, 1, k, c_k=C_K)),
            Call("warmup", lambda traced: build_3spanner(g, 1, seed=seed)),
        ]

    def check(self, label, out, inputs, ref, checks):
        check_build(out, inputs["g"], label, checks)

    def kept_frac(self, inputs, outputs):
        return sum(r.edge_count for r in outputs.values()) / (len(outputs) * inputs["g"].m)


class CongestSim(Workload):
    """One bandwidth-accounted simulation, checked edge for edge against an
    untimed meta-seq build with the same build seed."""
    name = "congest-sim"
    sizes = {"full": 300, "tiny": 40}
    K = 3
    call_errors = (BandwidthExceeded,)

    def setup(self, seed, size):
        return {"g": graphs.generate("complete", seed=seed, weights=WEIGHTS,
                                     n=self.sizes[size])}

    def prepare(self, inputs, seed, checks):
        build_seed, build = phase2_build(inputs["g"], seed, self.K, checks)
        return {"seed": build_seed, "meta-seq": build}

    def calls(self, inputs, ref):
        g, k, seed = inputs["g"], self.K, ref["seed"]
        return [Call("simulate", lambda traced: simulate_distributed_spanner(
            g, 1, k, seed=seed, c_k=C_K, record_messages=traced))]

    def check(self, label, out, inputs, ref, checks):
        res, report = out
        check_build(res, inputs["g"], label, checks)
        checks.expect(res.edges == ref["meta-seq"].edges,
                      f"{label}: edges differ from the meta-seq build")
        checks.expect(0 < report.max_bits <= report.bandwidth,
                      f"{label}: max message {report.max_bits} bits, B={report.bandwidth}")

    def kept_frac(self, inputs, outputs):
        return outputs["simulate"][0].edge_count / inputs["g"].m


@dataclass(frozen=True)
class VerifyCase:
    label: str
    n: int
    weights: object
    f: int
    k: int
    builder: str  # "seq", "mod", "mod-parallel", "warmup" or "star" (planted)
    edges: int = 0  # dropped edges verified in the timed call; 0 means all


class VerifyExhaustive(Workload):
    """Exhaustive verification of builds that dropped edges. Unit weights
    let the stretch reach 2, so the bound is really tested; weights 1..1000
    keep it near 1. The spanning star is a planted violation: faulting its
    centre disconnects H, so verification must fail on it. Set-up makes
    the graphs and the builds; the timed calls are the verifications.

    With weights 1..1000 every vertex is relevant to every dropped edge, so
    verifying a build costs C(n-2, f) fault sets per dropped edge, and the
    dropped-edge count varies with the seed (133 to 318 of 780 on K40 over
    seeds 1-40). So a weighted case's timed call verifies a fixed number
    of its dropped edges, drawn from the seed: the host graph is H plus
    those edges. Untimed, prepare() verifies every dropped edge of those
    builds once. On unit weights a build drops the edges of one clique of
    d vertices and verification costs C(d,2)(n-d) fault sets, which varies
    by under 10 % over the d = 22..32 the builds mostly reach, so those
    cases verify all of G."""
    name = "verify-exhaustive"
    # (n for f = 1, n for f = 2, edges verified for f = 1, for f = 2)
    sizes = {"full": (40, 26, 120, 18), "tiny": (24, 14, 10, 2)}

    def cases(self, size):
        n1, n2, e1, e2 = self.sizes[size]
        return [
            VerifyCase(f"K{n1}-unit-f1-k2-seq", n1, "unit", 1, 2, "seq"),
            VerifyCase(f"K{n1}-unit-f1-k2-warmup", n1, "unit", 1, 2, "warmup"),
            VerifyCase(f"K{n1}-w-f1-k3-seq", n1, WEIGHTS, 1, 3, "seq", e1),
            VerifyCase(f"K{n1}-w-f1-k3-mod-parallel", n1, WEIGHTS, 1, 3, "mod-parallel", e1),
            VerifyCase(f"K{n1}-w-f1-k2-mod", n1, WEIGHTS, 1, 2, "mod", e1),
            VerifyCase(f"K{n2}-w-f2-k2-mod", n2, WEIGHTS, 2, 2, "mod", e2),
            VerifyCase(f"K{n1}-unit-f1-k2-star", n1, "unit", 1, 2, "star"),
        ]

    def setup(self, seed, size):
        graph_of = {}
        builds, full = [], []
        for case in self.cases(size):
            key = (case.n, case.weights)
            if key not in graph_of:
                graph_of[key] = graphs.generate("complete", seed=seed,
                                                weights=case.weights, n=case.n)
            g = graph_of[key]
            if case.builder == "star":
                builds.append((case, g, tuple(sorted(eid for _, eid, _ in g.adj[0]))))
                continue
            res = self._build(case, g, seed)
            full.append((case, g, res))
            builds.append((case, *self._host(case, g, res, seed)))
        return {"builds": builds, "full": full}

    @staticmethod
    def _build(case, g, seed):
        """The build of the first seed of seed, seed + SEED_STRIDE, ... that
        clusters a vertex in phase 1 and drops at least max(1, case.edges)
        edges. At n = 26 f = 2 a few percent of seeds keep every edge."""
        for j in range(SEED_TRIES):
            s = seed + j * SEED_STRIDE
            if case.builder == "warmup":
                # the default p = sqrt(f/n) leaves too few centres at n = 40 and
                # keeps every edge; a larger p makes the warm-up drop edges
                res = build_3spanner(g, case.f, seed=s, p_override=0.5)
            else:
                variant, _, mis = case.builder.partition("-")
                res = build_ft_spanner(g, case.f, case.k, seed=s, variant=variant,
                                       c_k=C_K, mis=mis or "greedy")
            clustered = res.trace[0].clustered if res.trace else 0
            if clustered and g.m - res.edge_count >= max(1, case.edges):
                return res
        raise Vacuous(f"{case.label}: no build seed dropped {max(1, case.edges)} edges "
                      f"in {SEED_TRIES} tries")

    @staticmethod
    def _host(case, g, res, seed):
        """(host graph, H's edge ids in it): G itself when case.edges is 0,
        else H plus case.edges of its dropped edges, drawn from the seed."""
        if not case.edges:
            return g, res.edges
        kept = set(res.edges)
        dropped = [e for e in range(g.m) if e not in kept]
        ids = sorted(kept.union(random.Random(f"{seed}:{case.label}").sample(dropped, case.edges)))
        new_id = {e: i for i, e in enumerate(ids)}
        return graphs.Graph(g.n, [g.edges[e] for e in ids]), tuple(new_id[e] for e in res.edges)

    def fingerprint(self, inputs):
        return "".join(host.sha() + repr(h) for _, host, h in inputs["builds"])

    def prepare(self, inputs, seed, checks):
        for case, g, res in inputs["full"]:
            check_build(res, g, case.label, checks)
            if case.edges:
                rep = verify_spanner(g, res.edges, case.f, case.k)
                checks.expect(rep.passed, f"{case.label}: build fails exhaustive verification "
                                          f"of all its edges ({len(rep.violations)} violations)")
        return {"seed": seed}

    def calls(self, inputs, ref):
        return [Call(f"verify:{case.label}",
                     lambda traced, host=host, h=h, case=case:
                     verify_spanner(host, h, case.f, case.k))
                for case, host, h in inputs["builds"]]

    def check(self, label, out, inputs, ref, checks):
        planted = label.endswith("-star")
        if planted:
            checks.expect(not out.passed, f"{label}: planted violation passed verification")
        else:
            checks.expect(out.passed, f"{label}: build fails exhaustive verification "
                                      f"({len(out.violations)} violations)")

    def kept_frac(self, inputs, outputs):
        full = inputs["full"]
        return sum(res.edge_count for _, _, res in full) / sum(g.m for _, g, _ in full)


WORKLOADS = {w.name: w for w in (SparseBuild(), CongestSim(), VerifyExhaustive())}
