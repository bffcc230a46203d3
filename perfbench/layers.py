"""Per-layer metrics of the traced run: what is wrapped, and how the spans,
counters and outputs turn into named numbers.

Timings and counts are per traced pass, so runs that fit a different
number of passes compare. A layer that a workload does not run reports 0.
The comment above each group names the end-to-end metric it should move.
"""

from __future__ import annotations

import statistics

from ftspanner import congest, detkit, graphs, meta, result, warmup

PHASES = (1, 2, 3)
TAGS = ("paths", "heads", "edge-state", "center", "register")


def _fan_counts(tracer, args, out):
    _, q_v, inc_v, samples = args[:4]
    tracer.count("fan_candidates", sum(len(samples[u]) for _, _, u in inc_v))
    tracer.count("fan_accepted", len(out) - len(q_v))


def _mis_counts(tracer, args, out):
    _, trace = out
    tracer.count("mis_rounds", trace.rounds)
    tracer.count("mis_work", trace.work)


def _hitting_counts(tracer, args, out):
    tracer.count("qualifying", len(args[0].sets))
    tracer.count("centers_chosen", len(out))


def _json_bytes(tracer, args, out):
    tracer.count("json_bytes", len(out))


def patch_plan():
    """(owner, attribute, span name, after hook, keep spans). Every module
    that imported a function by name is patched at its own binding."""
    plan = [
        (meta, "run_phases", "meta.run_phases", None, True),
        (detkit, "run_phases", "meta.run_phases", None, True),
        (meta, "build_fan", "meta.build_fan", _fan_counts, True),
        (congest, "build_fan", "congest.build_fan", _fan_counts, True),
        (meta, "shortcut", "meta.shortcut", None, False),
        (meta, "parallel_greedy_mis", "parmis.parallel_greedy_mis", _mis_counts, True),
        (detkit, "beta_hitting_set", "detkit.beta_hitting_set", _hitting_counts, True),
        (congest.Network, "transmit", "congest.transmit", None, True),
        (graphs, "generate", "graphs.generate", None, True),
        (result.SpannerResult, "to_json", "result.to_json", _json_bytes, True),
    ]
    for fn in ("sample_fan_paths", "choose_cluster", "le_edge_ids"):
        plan.append((meta, fn, f"meta.{fn}", None, True))
        plan.append((congest, fn, f"congest.{fn}", None, True))
    for owner in (meta, congest, warmup):
        plan.append((owner, "vertex_stream", "rng.vertex_stream", None, False))
    return plan


# name -> (unit, better); the order is the print order
METRICS = {
    # |H|/m over the workload's builds; an input property, so unbounded
    "kept_frac": ("ratio", "lower"),
    # meta: *_build_s on sparse-build, sim_s on congest-sim
    "meta.build_fan_s": ("s", "lower"),
    "meta.build_fan_calls": ("count", "lower"),
    "meta.shortcut_s": ("s", "lower"),
    "meta.shortcut_calls": ("count", "lower"),
    "meta.fan_candidates": ("count", "lower"),
    "meta.fan_accepted": ("count", "lower"),
    "meta.fan_accept_ratio": ("ratio", "higher"),
    "meta.sample_fan_paths_s": ("s", "lower"),
    "meta.choose_cluster_s": ("s", "lower"),
    "meta.le_edge_ids_s": ("s", "lower"),
    "meta.run_phases_self_s": ("s", "lower"),
    # phase 3 is the last of k = 3: nobody clusters in it, so its
    # clustered, centers and iv_mean read 0, and every vertex buys edges
    **{f"meta.clustered.p{i}": ("count", "higher") for i in PHASES},
    **{f"meta.centers.p{i}": ("count", "lower") for i in PHASES},
    **{f"meta.new_edges.p{i}": ("count", "lower") for i in PHASES},
    **{f"meta.iv_mean.p{i}": ("index", "lower") for i in PHASES},
    "meta.kept_frac.seq": ("ratio", "lower"),
    "meta.kept_frac.mod": ("ratio", "lower"),
    "meta.kept_frac.det": ("ratio", "lower"),
    # parmis: the meta-mod build on sparse-build
    "parmis.mis_s": ("s", "lower"),
    "parmis.mis_calls": ("count", "lower"),
    "parmis.rounds": ("count", "lower"),
    "parmis.work": ("count", "lower"),
    # detkit: the meta-det build on sparse-build
    "detkit.hitting_set_s": ("s", "lower"),
    "detkit.qualifying": ("count", "higher"),
    "detkit.centers_chosen": ("count", "lower"),
    # warmup: the warm-up build and kept_frac on sparse-build
    "warmup.centers": ("count", "lower"),
    "warmup.unclustered": ("count", "lower"),
    "warmup.kept_frac": ("ratio", "lower"),
    # congest: pass_s on congest-sim
    "congest.transmit_s": ("s", "lower"),
    "congest.transmit_calls": ("count", "lower"),
    "congest.build_fan_s": ("s", "lower"),
    "congest.self_s": ("s", "lower"),
    "congest.rounds": ("count", "lower"),
    **{f"congest.rounds.p{i}": ("count", "lower") for i in PHASES},
    "congest.messages": ("count", "lower"),
    "congest.max_bits": ("bits", "lower"),
    "congest.bits_total": ("bits", "lower"),
    **{f"congest.bits.{t}": ("bits", "lower") for t in TAGS},
    # verify: pass_s on verify-exhaustive
    "verify.edges_checked": ("count", "lower"),
    "verify.dropped_edges": ("count", "lower"),
    "verify.fault_sets": ("count", "lower"),
    "verify.fault_sets_per_edge": ("count", "lower"),
    "verify.worst_stretch": ("ratio", "lower"),
    "verify.planted_detected": ("count", "higher"),
    # graphs, rng, result: setup_s (graphs.*), pass_s (rng.*); result.* is
    # the benchmark's own canonical-JSON check and moves no timed metric
    "graphs.generate_s": ("s", "lower"),
    "rng.streams": ("count", "lower"),
    "result.to_json_s": ("s", "lower"),
    "result.json_bytes": ("bytes", "lower"),
    # one call's untraced median, from the untraced passes of this run
    "seq_build_s": ("s", "lower"),
    "mod_build_s": ("s", "lower"),
    "det_build_s": ("s", "lower"),
    "warmup_build_s": ("s", "lower"),
    "sim_s": ("s", "lower"),
    "verify_s": ("s", "lower"),
    # the tracer itself: traced minus untraced pass time
    "trace.pass_s": ("s", "lower"),
    "trace.untraced_pass_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
}

# label of a call -> the metric that reports its untraced median
CALL_METRICS = {"seq": "seq_build_s", "mod": "mod_build_s", "det": "det_build_s",
                "warmup": "warmup_build_s", "simulate": "sim_s"}


def call_samples(call_times):
    """Per-call metric -> untraced seconds per pass, from label -> seconds.
    verify_s sums the pass's verifications."""
    out = {CALL_METRICS[label]: times for label, times in call_times.items()
           if label in CALL_METRICS}
    verify = [sum(ts) for ts in zip(*(times for label, times in call_times.items()
                                      if label.startswith("verify:")))]
    if verify:
        out["verify_s"] = verify
    return out


def per_layer(tracer, inputs, kept_frac, outputs, n_setups, traced_times,
              untraced_times, call_times):
    """All METRICS from a traced run. outputs: label -> output of the last
    traced pass; call_times: label -> untraced seconds of each pass."""
    passes = len(traced_times)
    out = dict.fromkeys(METRICS, 0.0)
    out["kept_frac"] = kept_frac
    P = "pass"

    def per_pass(x):
        return x / passes

    both = lambda fn: (f"meta.{fn}", f"congest.{fn}")
    out["meta.build_fan_s"] = per_pass(tracer.total(P, *both("build_fan")))
    out["meta.build_fan_calls"] = per_pass(tracer.calls(P, *both("build_fan")))
    out["meta.shortcut_s"] = per_pass(tracer.total(P, "meta.shortcut"))
    out["meta.shortcut_calls"] = per_pass(tracer.calls(P, "meta.shortcut"))
    cand = tracer.counter(P, "fan_candidates")
    acc = tracer.counter(P, "fan_accepted")
    out["meta.fan_candidates"] = per_pass(cand)
    out["meta.fan_accepted"] = per_pass(acc)
    out["meta.fan_accept_ratio"] = acc / cand if cand else 0.0
    for fn in ("sample_fan_paths", "choose_cluster", "le_edge_ids"):
        out[f"meta.{fn}_s"] = per_pass(tracer.total(P, *both(fn)))
    out["meta.run_phases_self_s"] = per_pass(tracer.self_time(P, "meta.run_phases"))

    seq = outputs.get("seq")
    if seq is not None:
        iv = {d["phase"]: d["mean"] for d in seq.extras["iv"]}
        for t in seq.trace:
            out[f"meta.clustered.p{t.phase}"] = t.clustered
            out[f"meta.centers.p{t.phase}"] = t.centers
            out[f"meta.new_edges.p{t.phase}"] = t.new_edges
            out[f"meta.iv_mean.p{t.phase}"] = iv[t.phase]
    for label in ("seq", "mod", "det"):
        if label in outputs:
            out[f"meta.kept_frac.{label}"] = outputs[label].edge_count / outputs[label].m

    out["parmis.mis_s"] = per_pass(tracer.total(P, "parmis.parallel_greedy_mis"))
    out["parmis.mis_calls"] = per_pass(tracer.calls(P, "parmis.parallel_greedy_mis"))
    out["parmis.rounds"] = per_pass(tracer.counter(P, "mis_rounds"))
    out["parmis.work"] = per_pass(tracer.counter(P, "mis_work"))

    out["detkit.hitting_set_s"] = per_pass(tracer.total(P, "detkit.beta_hitting_set"))
    out["detkit.qualifying"] = per_pass(tracer.counter(P, "qualifying"))
    out["detkit.centers_chosen"] = per_pass(tracer.counter(P, "centers_chosen"))

    wu = outputs.get("warmup")
    if wu is not None:
        out["warmup.centers"] = wu.extras["centers"]
        out["warmup.unclustered"] = wu.extras["unclustered"]
        out["warmup.kept_frac"] = wu.edge_count / wu.m

    out["congest.transmit_s"] = per_pass(tracer.total(P, "congest.transmit"))
    out["congest.transmit_calls"] = per_pass(tracer.calls(P, "congest.transmit"))
    out["congest.build_fan_s"] = per_pass(tracer.total(P, "congest.build_fan"))
    out["congest.self_s"] = per_pass(tracer.self_time(P, "call:simulate"))
    sim = outputs.get("simulate")
    if sim is not None:
        _, report = sim
        out["congest.rounds"] = report.total_rounds
        for i, r in enumerate(report.rounds_per_phase, start=1):
            out[f"congest.rounds.p{i}"] = r
        out["congest.messages"] = report.messages
        out["congest.max_bits"] = report.max_bits
        out["congest.bits_total"] = report.bits_total
        by_tag = dict.fromkeys(TAGS, 0)
        for _, _, bits, tag in report.log:
            by_tag[tag] = by_tag.get(tag, 0) + bits
        for tag in TAGS:
            out[f"congest.bits.{tag}"] = by_tag[tag]

    reports = [(label, rep) for label, rep in outputs.items() if label.startswith("verify:")]
    real = [rep for label, rep in reports if not label.endswith("-star")]
    if real:
        # verify's per-edge stretch is 1.0 for kept and for some dropped
        # edges alike, so the count of dropped edges verified comes from
        # the host graphs
        dropped = sum(host.m - len(h) for case, host, h in inputs["builds"]
                      if case.builder != "star")
        out["verify.edges_checked"] = sum(rep.edges_checked for rep in real)
        out["verify.fault_sets"] = sum(rep.fault_sets for rep in real)
        out["verify.dropped_edges"] = dropped
        out["verify.fault_sets_per_edge"] = out["verify.fault_sets"] / dropped if dropped else 0.0
        out["verify.worst_stretch"] = max(rep.worst_stretch for rep in real)
        out["verify.planted_detected"] = sum(
            1 for label, rep in reports if label.endswith("-star") and not rep.passed)

    out["graphs.generate_s"] = tracer.total("setup", "graphs.generate") / n_setups
    out["rng.streams"] = per_pass(tracer.calls(P, "rng.vertex_stream"))
    out["result.to_json_s"] = per_pass(tracer.total(P, "result.to_json"))
    out["result.json_bytes"] = per_pass(tracer.counter(P, "json_bytes"))

    for name, times in call_samples(call_times).items():
        out[name] = statistics.median(times)

    traced = statistics.median(traced_times)
    untraced = statistics.median(untraced_times)
    out["trace.pass_s"] = traced
    out["trace.untraced_pass_s"] = untraced
    out["trace.overhead_s"] = traced - untraced
    out["trace.overhead_frac"] = (traced - untraced) / untraced
    out["trace.spans"] = per_pass(sum(1 for s in tracer.spans if s[3] == P))
    return out
