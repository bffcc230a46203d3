"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavy fixtures are
module-scoped so criteria that share them pay once.
"""

import gc
import math
import statistics
import time

import pytest

from ftspanner import meta
from ftspanner.congest import simulate_distributed_spanner
from ftspanner.detkit import (HittingInstance, beta_hitting_set,
                             build_ft_spanner_det, det_cluster_threshold)
from ftspanner.graphs import Graph, dist, generate
from ftspanner.meta import build_ft_spanner, check_invariants
from ftspanner.parmis import (PathConflictInstance, lex_first_mis,
                              parallel_greedy_mis, random_permutation)
from ftspanner.rng import substream
from ftspanner.verify import verify_certificate, verify_spanner
from ftspanner.warmup import build_3spanner

SEEDS = list(range(5))

GRAPH_SPECS = {
    "gnp24": dict(kind="gnp", n=24, p=0.3),
    "gnp30": dict(kind="gnp", n=30, p=0.4),
    "gnp40": dict(kind="gnp", n=40, p=0.25),
    "regular30": dict(kind="random-regular", n=30, d=6),
    "grid6x6": dict(kind="grid", rows=6, cols=6),
    "tree30": dict(kind="tree", n=30),
    "c20": dict(kind="cycle", n=20),
    "k15": dict(kind="complete", n=15),
}


def _fixture_graph(spec, weighted, seed):
    return generate(**spec, seed=1000 + seed,
                    weights=(1, 100) if weighted else None)


@pytest.fixture(scope="module")
def criterion1_runs():
    """Every build of criterion 1, with verification reports and phase
    states for the invariant criterion."""
    runs = []
    for name, spec in GRAPH_SPECS.items():
        for weighted in (False, True):
            for seed in SEEDS:
                g = _fixture_graph(spec, weighted, seed)
                label = f"{name}{'-w' if weighted else ''}-s{seed}"
                for f in (1, 2):
                    builds = [("warmup", 2, build_3spanner(g, f, seed=seed))]
                    for k in (2, 3):
                        builds.append((
                            "meta-seq", k,
                            build_ft_spanner(g, f, k, seed=seed,
                                             record_states=True)))
                        builds.append((
                            "meta-mod", k,
                            build_ft_spanner(g, f, k, seed=seed, variant="mod",
                                             record_states=True)))
                        builds.append((
                            "meta-det", k,
                            build_ft_spanner_det(g, f, k, record_states=True)))
                    for algo, k, res in builds:
                        rep = verify_spanner(g, res.edges, f, k)
                        runs.append((label, algo, f, k, res, rep))
    return runs


def test_acceptance_01_exhaustive_stretch(criterion1_runs):
    failures = [(label, algo, f, k, rep.violations[:2])
                for label, algo, f, k, res, rep in criterion1_runs
                if not rep.passed]
    assert not failures, failures[:5]
    print(f"\nACCEPTANCE 1 exhaustive stretch: PASS "
          f"({len(criterion1_runs)} builds verified exhaustively)")


def test_acceptance_02_clustering_invariants(criterion1_runs):
    checked = 0
    for label, algo, f, k, res, rep in criterion1_runs:
        for st in res.states:
            diags = check_invariants(st)
            assert diags == [], (label, algo, f, k, st.i, diags[:3])
            checked += 1
    # larger runs, including configurations where clustering is real
    extra = [
        (generate("gnp", n=200, p=0.3, seed=2), 1, 2, 20),
        (generate("gnp", n=200, p=0.3, seed=2), 1, 2, 1),
        (generate("gnp", n=200, p=0.3, seed=2), 1, 3, 1),
        (generate("gnp", n=1000, p=0.08, seed=3), 1, 2, 20),
        (generate("gnp", n=1000, p=0.08, seed=3), 1, 3, 2),
    ]
    clustered_any = False
    for g, f, k, c_k in extra:
        res = build_ft_spanner(g, f, k, seed=0, c_k=c_k, record_states=True)
        clustered_any |= any(t.clustered for t in res.trace)
        for st in res.states:
            diags = check_invariants(st)
            assert diags == [], (g.n, f, k, c_k, st.i, diags[:3])
            checked += 1
    assert clustered_any, "large fixtures must exercise real clustering"
    print(f"ACCEPTANCE 2 clustering invariants: PASS ({checked} phase states)")


def test_acceptance_03_size_bound():
    n, target_m = 2000, 60000
    p = 2 * target_m / (n * (n - 1))
    ratios = []
    for seed in SEEDS:
        g = generate("gnp", n=n, p=p, seed=1000 + seed)
        for f in (2, 4):
            for k in (2, 3):
                res = build_ft_spanner(g, f, k, seed=seed)
                bound = 8 * (k**3 * math.log2(n) * f ** (1 - 1 / k)
                             * n ** (1 + 1 / k) + k**2 * f * n)
                assert res.edge_count <= bound
                assert res.edge_count <= g.m
                ratios.append(res.edge_count / bound)
    print(f"ACCEPTANCE 3 size bound: PASS "
          f"(measured/bound ratios {min(ratios):.4f}..{max(ratios):.4f})")


@pytest.fixture(scope="module")
def runtime_fixture():
    n, target_m = 5000, 100000
    p = 2 * target_m / (n * (n - 1))
    return [generate("gnp", n=n, p=p, seed=1000 + s) for s in SEEDS]


def _median_build_time(graphs, build):
    times = []
    for seed, g in enumerate(graphs):
        gc.collect()
        t0 = time.perf_counter()
        build(g, seed)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def test_acceptance_04a_randomized_runtime_f_independent(runtime_fixture):
    medians = {}
    for f in (1, 2, 4, 8):
        medians[f] = _median_build_time(
            runtime_fixture,
            lambda g, s, f=f: build_ft_spanner(g, f, 3, seed=s))
    band = max(medians.values()) / min(medians.values())
    print(f"ACCEPTANCE 4a randomized f-independence: "
          f"medians {['%.2fs' % medians[f] for f in (1, 2, 4, 8)]} "
          f"band {band:.2f}x")
    assert band <= 2.0, medians


def test_acceptance_04b_det_runtime_grows_with_f(monkeypatch):
    """The deterministic build offers the fan step every one of a clustered
    neighbour's K_f = c_k*k*f cluster paths, so its phase->=2 work grows in
    proportion to f. The offered paths are counted, not timed: phase 1's
    f-independent work dominates the wall clock. K400 with c_k=1 clusters
    every vertex in phase 1 at f=1 and f=2 (at f=4 the threshold exceeds
    the degree)."""
    k, c_k = 3, 1
    g = generate("complete", n=400, seed=1000, weights=(1, 1000))
    real_build_fan = meta.build_fan
    offered = {}
    for f in (1, 2):
        k_f = c_k * k * f
        # per build_fan call: length of each remaining neighbour's offered list
        calls = []

        def counting_build_fan(v, q_v, inc_v, samples, *args, **kwargs):
            calls.append([len(samples[u]) for _, _, u in inc_v])
            return real_build_fan(v, q_v, inc_v, samples, *args, **kwargs)

        monkeypatch.setattr(meta, "build_fan", counting_build_fan)
        res = build_ft_spanner_det(g, f, k, c_k=c_k)
        threshold = det_cluster_threshold(g.n, f, k, k_f)
        assert res.trace[0].clustered > 0, (
            f"f={f}: phase 1 clustered no vertex (degree {g.n - 1}, "
            f"det_cluster_threshold {threshold}); the fixture is vacuous")
        assert res.edge_count < g.m, f"f={f}: the build kept every edge"
        # all n vertices are clustered in phase 1, so its calls come first
        later = [size for sizes in calls[g.n:] for size in sizes]
        assert later, f"f={f}: no fan step ran after phase 1"
        short = sorted({size for size in later if size != k_f})
        assert not short, (
            f"f={f}: det offered lists of {short} cluster paths, not K_f={k_f}")
        offered[f] = sum(later)
    assert offered[2] > offered[1], offered
    print(f"ACCEPTANCE 4b deterministic f-scaling: PASS (K400 c_k=1: "
          f"cluster paths offered in phases >=2: "
          + ", ".join(f"f={f} {n} (K_f={c_k * k * f})"
                      for f, n in offered.items()) + ")")


def test_acceptance_05_runtime_near_linear_in_m():
    n, m0, f, k = 3000, 20000, 2, 3
    medians = []
    for m in (m0, 2 * m0, 4 * m0):
        p = 2 * m / (n * (n - 1))
        graphs = [generate("gnp", n=n, p=p, seed=1000 + s) for s in SEEDS]
        medians.append(_median_build_time(
            graphs, lambda g, s: build_ft_spanner(g, f, k, seed=s)))
    r1 = medians[1] / medians[0]
    r2 = medians[2] / medians[1]
    print(f"ACCEPTANCE 5 m-doubling: medians {['%.2fs' % t for t in medians]} "
          f"ratios {r1:.2f}, {r2:.2f}")
    assert r1 <= 3.0 and r2 <= 3.0


def test_acceptance_06_parallel_mis_equivalence():
    rng = substream(2024, "acceptance-mis")
    ratios = []
    for idx in range(10_000):
        n_paths = rng.randint(2, 60) if idx % 10 else rng.randint(61, 200)
        n_verts = rng.randint(6, 60)
        paths = tuple(
            frozenset(rng.sample(range(n_verts), rng.randint(1, 5)))
            for _ in range(n_paths))
        inst = PathConflictInstance(paths, random_permutation(n_paths, (11, idx)))
        taken, trace = parallel_greedy_mis(inst)
        assert taken == lex_first_mis(inst), f"instance {idx} diverged"
        ratios.append(trace.rounds / max(1.0, math.log2(n_paths) ** 2))
    med = statistics.median(ratios)
    assert med <= 4.0, med
    print(f"ACCEPTANCE 6 parallel MIS: PASS (10000 instances equal; "
          f"median rounds/log2^2 = {med:.3f})")


def test_acceptance_07_hitting_set_contracts():
    total = 0
    for beta in (1, 2, 4, 8):
        rng = substream(7, "acceptance-hitting", beta)
        for _ in range(100):
            ell = rng.randint(2, 20)
            delta = rng.uniform(1.5, 6.0)
            need = math.ceil(beta * delta * max(1, math.ceil(math.log(ell))))
            ground_n = max(4 * need, math.ceil(delta * (need + ell)))
            sets = tuple(
                tuple(sorted(rng.sample(range(ground_n),
                                        rng.randint(need, 2 * need))))
                for _ in range(ell))
            inst = HittingInstance(ground=tuple(range(ground_n)), sets=sets,
                                   delta=delta, beta=beta)
            got = beta_hitting_set(inst)
            assert len(got) <= ground_n / delta
            for s in sets:
                assert len(got & set(s)) >= beta
            total += 1
    print(f"ACCEPTANCE 7 hitting-set contracts: PASS ({total} instances)")


def test_acceptance_08_congest_simulation():
    rounds = {1: [], 4: []}
    for seed in SEEDS:
        g = generate("gnp", n=500, p=0.05, seed=1000 + seed)
        sim1, rr1 = simulate_distributed_spanner(g, 1, 3, seed=seed)
        sim4, rr4 = simulate_distributed_spanner(g, 4, 3, seed=seed)
        assert rr1.max_bits <= rr1.bandwidth
        assert rr4.max_bits <= rr4.bandwidth
        seq = build_ft_spanner(g, 1, 3, seed=seed)
        assert sim1.edges == seq.edges
        rounds[1].append(rr1.total_rounds)
        rounds[4].append(rr4.total_rounds)
    ratio = statistics.median(rounds[4]) / statistics.median(rounds[1])
    assert ratio <= 1.2, rounds
    print(f"ACCEPTANCE 8 congest simulation: PASS "
          f"(rounds f=1 {rounds[1]}, f=4 {rounds[4]}, ratio {ratio:.2f})")


def test_acceptance_09_certificates():
    checked = []
    for g, label in [(generate("gnp", n=25, p=0.5, seed=1001), "gnp25"),
                     (generate("complete", n=10, seed=0), "k10")]:
        for lam in (2, 3):
            f = max(1, lam - 1)
            k = max(2, math.ceil(math.log2(g.n)))
            res = build_ft_spanner(g, f, k, seed=5)
            rep = verify_certificate(g, res.edges, lam)
            assert rep.passed, (label, lam, rep.mismatches[:2])
            bound = 8 * lam * g.n * math.log2(g.n) ** 2
            assert res.edge_count <= bound
            checked.append((label, lam, res.edge_count))
    k4 = generate("complete", n=4, seed=0)
    star = [eid for eid, (u, v, _) in enumerate(k4.edges) if 0 in (u, v)]
    assert not verify_certificate(k4, star, 2).passed
    # A build that drops edges (c_k=1), so the check can fail: K60 at lam=3.
    g, lam = generate("complete", n=60, seed=0), 3
    res = build_ft_spanner(g, lam - 1, math.ceil(math.log2(g.n)), seed=0, c_k=1)
    assert res.edge_count < g.m
    assert verify_certificate(g, res.edges, lam).passed
    # Control: vertex 0 keeps only lam-1 of its H edges.
    at0 = [e for e in res.edges if 0 in g.edges[e][:2]]
    broken = [e for e in res.edges if e not in at0[lam - 1:]]
    rep = verify_certificate(g, broken, lam)
    assert not rep.passed
    h = Graph(g.n, [g.edges[e] for e in broken])
    for sep, (u, v) in rep.mismatches:
        assert len(sep) < lam and dist(h, u, v, sep) == math.inf
    print(f"ACCEPTANCE 9 certificates: PASS ({checked}; K60 c_k=1 keeps "
          f"{res.edge_count}/{g.m}; star and stripped-vertex controls fail"
          f" at {len(rep.mismatches)} edges)")


def test_acceptance_10_determinism(tmp_path):
    g = generate("gnp", n=40, p=0.4, seed=1002, weights=(1, 60))
    pairs = [
        ("meta-det", lambda: build_ft_spanner_det(g, 2, 3)),
        ("meta-seq", lambda: build_ft_spanner(g, 2, 3, seed=9)),
        ("meta-mod", lambda: build_ft_spanner(g, 2, 3, seed=9, variant="mod")),
        ("meta-mod-parallel", lambda: build_ft_spanner(
            g, 2, 3, seed=9, variant="mod", mis="parallel", c_k=1)),
        ("warmup", lambda: build_3spanner(g, 2, seed=9)),
        ("congest", lambda: simulate_distributed_spanner(g, 2, 3, seed=9)[0]),
    ]
    for name, build in pairs:
        f1 = tmp_path / f"{name}-1.json"
        f2 = tmp_path / f"{name}-2.json"
        f1.write_text(build().to_json())
        f2.write_text(build().to_json())
        assert f1.read_bytes() == f2.read_bytes(), name
    print("ACCEPTANCE 10 determinism: PASS (byte-identical result files)")
