"""ftspanner benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process through ftspanner's Python API, taken
from the `src/` directory beside this one. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, and the spans are written
to .perfbench-out/. Lines before it record the run (source version,
Python, nproc, seed), the sha256 of each output's canonical JSON, and
every metric with its unit.

Exit codes: 0 ran (see "correct"), 2 usage error or no ftspanner sources,
3 a build did not exercise clustering (no result is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def source_version() -> dict:
    """The git commit when there is one, and always a hash of the sources."""
    h = hashlib.sha256()
    for path in sorted((SRC / "ftspanner").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ftspanner" / "__init__.py").is_file():
        print(f"error: no ftspanner sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ftspanner

    if Path(ftspanner.__file__).resolve().parent != (SRC / "ftspanner").resolve():
        print(f"error: imported ftspanner from {ftspanner.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import harness
    from workloads import WORKLOADS, Vacuous

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 0:
        print("error: --seconds must be >= 0", file=sys.stderr)
        return 2

    run_info = {**source_version(), "python": platform.python_version(),
                "nproc": len(os.sched_getaffinity(0)), "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "FTSPANNER_THREADS": os.environ.get("FTSPANNER_THREADS")}
    print("run " + json.dumps(run_info, sort_keys=True), flush=True)
    try:
        out = harness.run(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    except Vacuous as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    tracer = out.pop("tracer")
    if tracer is not None:
        path = ROOT / ".perfbench-out" / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(path)
        print(f"spans {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
