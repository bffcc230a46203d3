"""Command-line front end.

Subcommands: gen, build, verify, certificate, simulate, report. JSON is
the machine interface (canonically ordered, timings excluded); TSV is
emitted only for plotting tables.
Exit codes: 0 success/pass, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path as FsPath

from ftspanner.congest import BandwidthExceeded, simulate_distributed_spanner
from ftspanner.detkit import build_ft_spanner_det
from ftspanner.graphs import Graph, GraphError, ParseError, generate, load_graph
from ftspanner.meta import build_ft_spanner
from ftspanner.result import SpannerResult
from ftspanner.verify import BudgetExceeded, verify_certificate, verify_spanner
from ftspanner.warmup import build_3spanner, warmup_size_report


def _write(text: str, out: str | None):
    if out:
        FsPath(out).write_text(text)
    else:
        sys.stdout.write(text)


def _read_graph(path: str) -> Graph:
    return load_graph(FsPath(path).read_text())


def _parse_weights(spec: str | None):
    if spec in (None, "unit"):
        return None
    lo, _, hi = spec.partition(":")
    try:
        return (int(lo), int(hi))
    except ValueError:
        raise ValueError(f"--weights must be 'unit' or 'LO:HI', got {spec!r}") from None


def _gen_from_args(args) -> Graph:
    params = {}
    for name in ("n", "p", "d", "rows", "cols"):
        val = getattr(args, name.replace("-", "_"), None)
        if val is not None:
            params[name] = val
    return generate(args.kind, seed=args.seed,
                    weights=_parse_weights(args.weights), **params)


def cmd_gen(args) -> int:
    g = _gen_from_args(args)
    _write(g.to_edge_list(), args.out)
    return 0


# --algo name -> build_ft_spanner's (variant, mis)
_META = {"meta-seq": ("seq", "greedy"), "meta-mod": ("mod", "greedy"),
         "meta-mod-parallel": ("mod", "parallel")}


def _build(g: Graph, algo: str, f: int, k: int, seed, c_k: int) -> SpannerResult:
    if algo == "warmup":
        if k != 2:
            raise ValueError("the warmup build is defined for k = 2 only")
        res = build_3spanner(g, f, seed=seed)
        res.extras["size_report"] = warmup_size_report(res)
        return res
    if algo == "meta-det":
        return build_ft_spanner_det(g, f, k, c_k=c_k)
    variant, mis = _META[algo]
    return build_ft_spanner(g, f, k, seed=seed, variant=variant, c_k=c_k, mis=mis)


def cmd_build(args) -> int:
    g = _read_graph(args.graph)
    res = _build(g, args.algo, args.f, args.k, args.seed, args.ck)
    _write(res.to_json(), args.out)
    return 0


def cmd_verify(args) -> int:
    g = _read_graph(args.graph)
    res = SpannerResult.from_json(FsPath(args.result).read_text())
    if res.graph_sha != g.sha():
        print("error: result file was built from a different graph", file=sys.stderr)
        return 2
    f = args.f if args.f is not None else res.params.get("f")
    k = args.k if args.k is not None else res.params.get("k")
    for name, value in (("f", f), ("k", k)):
        if value is None:
            print(f"error: the result file has no params.{name}; pass --{name}",
                  file=sys.stderr)
            return 2
    report = verify_spanner(g, res.edges, f, k)
    _write(report.to_json(), args.out)
    print(("PASS" if report.passed else "FAIL")
          + f" mode={report.mode} edges={len(res.edges)}/{g.m}"
          + f" worst_stretch={report.worst_stretch}", file=sys.stderr)
    print(json.dumps({"worst_over_bound": _margin(g, set(res.edges), report)}),
          file=sys.stderr)
    return 0 if report.passed else 1


def _margin(g: Graph, kept, report) -> dict:
    """The dropped edges by worst distance over bound: bin "x" counts the
    ratios in (x - 0.1, x], then "over" and "disconnected". Weights are
    integers, so each worst distance is recovered exactly from its
    stretch and binned in integer arithmetic."""
    hist = {f"{t / 10:.1f}": 0 for t in range(1, 11)}
    hist["over"] = hist["disconnected"] = 0
    for eid, stretch in report.per_edge.items():
        if eid in kept:
            continue
        if stretch == math.inf:
            hist["disconnected"] += 1
            continue
        w = g.edges[eid][2]
        tenths = -(-10 * round(stretch * w) // ((2 * report.k - 1) * w))
        hist[f"{tenths / 10:.1f}" if tenths <= 10 else "over"] += 1
    return hist


def cmd_certificate(args) -> int:
    g = _read_graph(args.graph)
    if args.lam < 1:
        raise ValueError("lambda must be >= 1")
    if args.lam > g.n:
        raise ValueError(f"lambda={args.lam} larger than the vertex count {g.n}")
    f = max(1, args.lam - 1)
    k = max(2, math.ceil(math.log2(max(g.n, 2))))
    res = build_ft_spanner(g, f, k, seed=args.seed, c_k=args.ck)
    res.params["lambda"] = args.lam
    res.params["role"] = "certificate"
    _write(res.to_json(), args.out)
    if args.check:
        report = verify_certificate(g, res.edges, args.lam)
        print(("PASS" if report.passed else "FAIL")
              + f" mode={report.mode} fault_sets={report.fault_sets}",
              file=sys.stderr)
        return 0 if report.passed else 1
    return 0


_LOG_TAGS = {"paths": 1, "center": 2, "heads": 3, "edge-state": 4,
             "register": 5}


def _dump_message_log(log, path: str):
    # one record per message: round u32, src u32, dst u32, bits u16, tag u8
    import struct

    with open(path, "wb") as fh:
        fh.write(b"FTSLOG1\n")
        for rnd, (src, dst), bits, tag in log:
            fh.write(struct.pack("<IIIHB", rnd, src, dst, bits,
                                 _LOG_TAGS.get(tag, 0)))


def cmd_simulate(args) -> int:
    g = _read_graph(args.graph)
    res, rounds = simulate_distributed_spanner(
        g, args.f, args.k, seed=args.seed, c_b=args.cb, c_k=args.ck,
        record_messages=bool(args.dump_log))
    _write(res.to_json(), args.out)
    if args.dump_log:
        _dump_message_log(rounds.log, args.dump_log)
    print(json.dumps(rounds.to_dict(), sort_keys=True), file=sys.stderr)
    print(json.dumps({"tags": rounds.tags}, sort_keys=True), file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    res = SpannerResult.from_json(FsPath(args.result).read_text())
    if args.tsv:
        lines = ["phase\tcenters\tclustered\tnew_edges\tremaining"]
        for t in res.trace:
            lines.append(f"{t.phase}\t{t.centers}\t{t.clustered}"
                         f"\t{t.new_edges}\t{t.remaining}")
        _write("\n".join(lines) + "\n", args.out)
        return 0
    lines = [
        f"algo: {res.algo}",
        f"graph: n={res.n} m={res.m} sha={res.graph_sha[:12]}",
        f"params: {json.dumps(res.params, sort_keys=True)}",
        f"edges: {res.edge_count}",
    ]
    bound = res.extras.get("size_bound")
    if bound:
        lines.append(f"size_bound: {bound:.1f} ratio={res.edge_count / bound:.4f}")
    for t in res.trace:
        lines.append(f"phase {t.phase}: centers={t.centers} clustered={t.clustered}"
                     f" new_edges={t.new_edges} remaining={t.remaining}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def make_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ftspanner")
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="generate a graph edge list")
    p.add_argument("--kind", required=True,
                   choices=["gnp", "random-regular", "grid", "complete", "tree", "cycle"])
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--d", type=int)
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--weights", default=None, help="'unit' or 'LO:HI'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("build", help="build a fault-tolerant spanner")
    p.add_argument("--graph", required=True)
    p.add_argument("--algo", default="meta-seq", choices=["warmup", *_META, "meta-det"])
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ck", type=int, default=20)
    p.add_argument("-o", "--out")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("verify", help="verify a stored build result")
    p.add_argument("--graph", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--f", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("-o", "--out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("certificate", help="build a vertex-connectivity certificate")
    p.add_argument("--graph", required=True)
    p.add_argument("--lam", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ck", type=int, default=20)
    p.add_argument("--check", action="store_true")
    p.add_argument("-o", "--out")
    p.set_defaults(fn=cmd_certificate)

    p = sub.add_parser("simulate", help="run the message-passing simulation")
    p.add_argument("--graph", required=True)
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cb", type=int, default=4)
    p.add_argument("--ck", type=int, default=20)
    p.add_argument("--dump-log", help="write the binary message log here")
    p.add_argument("-o", "--out")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("report", help="summarize a stored result")
    p.add_argument("--result", required=True)
    p.add_argument("--tsv", action="store_true")
    p.add_argument("-o", "--out")
    p.set_defaults(fn=cmd_report)

    return top


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (GraphError, ParseError, ValueError, OSError, KeyError,
            BudgetExceeded, BandwidthExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
