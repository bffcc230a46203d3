"""The run loop: set-ups, a warm-up pass, timed passes, output checks and
the end-to-end metrics.

One process, no pool, no threads. The inputs are set up once, the warm-up
pass runs untimed, and timed passes follow until `seconds` have passed
(at least one). The warm-up pass's outputs are the reference that every
later pass must reproduce byte for byte. gc.collect() runs before every
timed call, so one call's garbage is not collected on the next call's
clock. Before each timed pass the inputs are set up again, so set-up is
sampled across the whole run, as the passes are.

pass_s is the sum over the pass's calls of each call's median time, which
is steadier than the median of whole passes when a pass holds several
calls. With trace on, passes alternate untraced and traced; the traced
passes give the per-layer metrics and the difference of the two medians
is the tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
from collections import defaultdict
from contextlib import nullcontext
from time import perf_counter

import layers
from tracer import Tracer
from workloads import Checks, canonical

# name -> (unit, better, bound); the order is the print order
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "pass_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}


def run(workload, seed: int, seconds: float, trace: bool, size: str = "full",
        log=print) -> dict:
    """Run one workload; returns the result object the benchmark prints.
    Raises workloads.Vacuous if a build does not exercise clustering."""
    checks = Checks()
    tracer = Tracer() if trace else None
    plan = layers.patch_plan() if trace else None

    def recording(region):
        return tracer.recording(region, plan) if tracer else nullcontext()

    setup_times = []
    fingerprints = set()

    def set_up():
        gc.collect()
        with recording("setup"):
            t0 = perf_counter()
            inputs = workload.setup(seed, size)
            setup_times.append(perf_counter() - t0)
        fingerprints.add(workload.fingerprint(inputs))
        return inputs

    inputs = set_up()
    (fingerprint,) = fingerprints
    log(f"inputs sha256={hashlib.sha256(fingerprint.encode()).hexdigest()}")
    ref = workload.prepare(inputs, seed, checks)
    log(f"build_seed {ref['seed']}")
    reference = {}
    for call in workload.calls(inputs, ref):
        out = _attempt(workload, call, False, checks)
        if out is None:
            continue
        workload.check(call.label, out, inputs, ref, checks)
        text = canonical(out)
        reference[call.label] = (text, out)
        log(f"output {call.label} sha256={hashlib.sha256(text.encode()).hexdigest()}")

    pass_times, traced_times = [], []
    call_times = defaultdict(list)
    traced_outputs = {}
    start = perf_counter()
    while True:
        traced = trace and len(pass_times) > len(traced_times)
        inputs = None
        inputs = set_up()
        total = 0.0
        with recording("pass") if traced else nullcontext():
            for call in workload.calls(inputs, ref):
                gc.collect()
                t0 = perf_counter()
                with tracer.span(f"call:{call.label}") if traced else nullcontext():
                    out = _attempt(workload, call, traced, checks)
                dt = perf_counter() - t0
                total += dt
                if out is None:
                    continue
                if not traced:
                    call_times[call.label].append(dt)
                workload.check(call.label, out, inputs, ref, checks)
                expected = reference.get(call.label)
                checks.expect(expected is not None and canonical(out) == expected[0],
                              f"{call.label}: output differs from the warm-up pass")
                if traced:
                    traced_outputs[call.label] = out
        (traced_times if traced else pass_times).append(total)
        if perf_counter() - start >= seconds and (not trace or traced_times):
            break
    checks.expect(len(fingerprints) == 1, "set-ups with the same seed made different inputs")

    for msg in checks.messages:
        log(f"FAIL {msg}")
    outputs = {label: out for label, (_, out) in reference.items()}
    if trace:
        metrics = layers.per_layer(tracer, inputs, workload.kept_frac(inputs, outputs),
                                   traced_outputs, len(setup_times), traced_times,
                                   pass_times, call_times)
        units = {name: unit for name, (unit, _) in layers.METRICS.items()}
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "pass_s": sum(statistics.median(t) for t in call_times.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {name: unit for name, (unit, _, _) in END_TO_END.items()}
        _log_calls(workload, inputs, call_times, outputs, checks, log)
    for name, value in metrics.items():
        log(f"metric {name} {value!r} {units[name]}")
    log(f"seconds passes={pass_times!r} traced={traced_times!r} setups={setup_times!r}")
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "tracer": tracer,
    }


def _attempt(workload, call, traced, checks):
    """Make one call; an error the workload lists counts as a failed output."""
    try:
        out = call.run(traced)
    except workload.call_errors as exc:
        checks.expect(False, f"{call.label}: {type(exc).__name__}: {exc}")
        return None
    checks.attempted += 1  # the call itself is an operation attempted
    return out


def _log_calls(workload, inputs, call_times, outputs, checks, log):
    """Print the numbers that are not bounded end-to-end metrics: one
    call's time per builder, the verification and simulation times, the
    kept fraction, the simulation's rounds and bits, and fail_frac."""
    for metric, times in layers.call_samples(call_times).items():
        log(f"metric {metric} {statistics.median(times)!r} s (median of {len(times)})")
    log(f"metric kept_frac {workload.kept_frac(inputs, outputs)!r} ratio")
    if "simulate" in outputs:
        _, report = outputs["simulate"]
        log(f"metric sim_rounds {report.total_rounds} count")
        log(f"metric sim_bits {report.bits_total} bits")
    log(f"metric fail_frac {checks.failed / max(1, checks.attempted)!r} ratio "
        f"({checks.failed}/{checks.attempted})")
