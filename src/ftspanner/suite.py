"""Hermetic suite runner: executes manifest cases through the CLI.

A manifest is a JSON list of cases. Kinds:
  build-verify     generate, build, then exhaustively verify
  verify-subgraph  generate, materialize a named subgraph, verify it
  certificate      generate, build a certificate with --check

Each case carries an expected outcome ("pass" or "fail"); the runner
exits nonzero on any mismatch. Everything runs in subprocesses with
fixed seeds and no network.

The subprocesses import the same `ftspanner` package as the runner: their
PYTHONPATH starts with the absolute directory that holds the runner's own
package, followed by the caller's PYTHONPATH entries. A source checkout
therefore runs without `pip install` from any working directory, and a
stale installed copy cannot shadow it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from ftspanner.graphs import load_graph
from ftspanner.result import SpannerResult


# directory holding the ftspanner package this module was imported from
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (str(_PACKAGE_ROOT) + os.pathsep + inherited
                         if inherited else str(_PACKAGE_ROOT))
    return env


def _cli(*args, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "ftspanner", *map(str, args)],
        cwd=cwd, env=_child_env(), capture_output=True, text=True)


def _gen_args(gen: dict, seed) -> list[str]:
    args = ["gen", "--kind", gen["kind"], "--seed", str(seed)]
    for key in ("n", "p", "d", "rows", "cols"):
        if key in gen:
            args += [f"--{key}", str(gen[key])]
    w = gen.get("weights")
    if isinstance(w, (list, tuple)):
        args += ["--weights", f"{w[0]}:{w[1]}"]
    return args


def _materialize_subgraph(graph_path: Path, spec: str, res_path: Path):
    g = load_graph(graph_path.read_text())
    if spec == "all":
        ids = list(range(g.m))
    elif spec == "all-minus-heaviest":
        ids = sorted(range(g.m), key=g.key)[:-1]
    elif spec == "spanning-star":
        ids = [eid for eid, (u, v, _) in enumerate(g.edges) if u == 0 or v == 0]
    else:
        raise ValueError(f"unknown subgraph spec {spec!r}")
    res = SpannerResult(algo=f"subgraph:{spec}", n=g.n, m=g.m,
                        graph_sha=g.sha(), params={}, edges=tuple(sorted(ids)))
    res_path.write_text(res.to_json())


def run_case(case: dict, workdir: Path) -> tuple[bool, str]:
    """Returns (outcome_matches_expectation, detail)."""
    expect = case.get("expect", "pass")
    seeds = case.get("seeds", [0])
    kind = case.get("kind", "build-verify")
    for seed in seeds:
        gpath = workdir / f"{case['name']}-{seed}.txt"
        rpath = workdir / f"{case['name']}-{seed}.json"
        proc = _cli(*_gen_args(case["generator"], 1000 + seed), "-o", gpath,
                    cwd=workdir)
        if proc.returncode != 0:
            return False, f"gen failed: {proc.stderr.strip()}"
        if kind == "build-verify":
            algo = case.get("algo", "meta")
            variant = "mod" if algo == "meta-mod" else "seq"
            base = {"meta-seq": "meta", "meta-mod": "meta"}.get(algo, algo)
            proc = _cli("build", "--graph", gpath, "--algo", base,
                        "--variant", variant, "--f", case["f"],
                        "--k", case.get("k", 2), "--seed", seed,
                        "--ck", case.get("ck", 20), "-o", rpath, cwd=workdir)
            if proc.returncode != 0:
                return False, f"build failed: {proc.stderr.strip()}"
            proc = _cli("verify", "--graph", gpath, "--result", rpath, cwd=workdir)
        elif kind == "verify-subgraph":
            _materialize_subgraph(gpath, case["subgraph"], rpath)
            proc = _cli("verify", "--graph", gpath, "--result", rpath,
                        "--f", case["f"], "--k", case.get("k", 2), cwd=workdir)
        elif kind == "certificate":
            proc = _cli("certificate", "--graph", gpath,
                        "--lam", case["lam"], "--seed", seed, "--check",
                        "--ck", case.get("ck", 20), "-o", rpath, cwd=workdir)
        else:
            return False, f"unknown case kind {kind!r}"
        outcome = "pass" if proc.returncode == 0 else "fail"
        if proc.returncode not in (0, 1):
            return False, f"command error: {proc.stderr.strip()}"
        if outcome != expect:
            return False, f"seed {seed}: expected {expect}, got {outcome}"
    return True, f"{len(seeds)} seed(s), expected {expect}"


def run_suite(manifest_path: str | Path, workdir: str | Path | None = None) -> int:
    """Run every case; print one line per case; return mismatch count."""
    cases = json.loads(Path(manifest_path).read_text())
    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        wd = Path(workdir) if workdir else Path(tmp)
        for case in cases:
            ok, detail = run_case(case, wd)
            print(f"{'ok  ' if ok else 'FAIL'} {case['name']}: {detail}")
            if not ok:
                mismatches += 1
    print(f"{len(cases) - mismatches}/{len(cases)} cases matched expectations")
    return mismatches


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print("usage: python -m ftspanner.suite MANIFEST.json", file=sys.stderr)
        sys.exit(2)
    sys.exit(1 if run_suite(sys.argv[1]) else 0)
