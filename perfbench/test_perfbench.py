"""Tests of the benchmark's own code, at tiny sizes:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from ftspanner import congest, meta  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def quiet(*_):
    pass


def run_tiny(name, trace=False, seed=1):
    return harness.run(workloads.WORKLOADS[name], seed, 0, trace, size="tiny", log=quiet)


@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_smoke(name, trace):
    out = run_tiny(name, trace)
    assert out["correct"], out
    assert out["failed"] == 0 and out["attempted"] >= 1
    section = BENCH["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in section] == list(out["metrics"])
    for m in section:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_benchmark_json_matches_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in BENCH["end_to_end"]} \
        == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]} == layers.METRICS
    assert BENCH["command"][1] == f"{HERE.name}/run.py" and BENCH["paths"] == [HERE.name]


def test_traced_run_restores_every_patch():
    before = [getattr(owner, attr) for owner, attr, *_ in layers.patch_plan()]
    out = run_tiny("congest-sim", trace=True)
    after = [getattr(owner, attr) for owner, attr, *_ in layers.patch_plan()]
    assert all(a is b for a, b in zip(before, after))
    m = out["metrics"]
    assert m["congest.transmit_calls"]["value"] > 0
    assert m["congest.bits.paths"]["value"] > 0
    assert m["parmis.mis_calls"]["value"] == 0  # congest-sim does not run parmis
    assert m["verify.fault_sets"]["value"] == 0
    assert meta.build_fan.__name__ == "build_fan" and congest.Network.transmit.__name__ == "transmit"


def _drop_one_kept_edge(res):
    res.edges = res.edges[:-1]
    return res


def test_inconsistent_builder_trips_determinism_check(monkeypatch):
    real = workloads.build_ft_spanner
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        res = real(*args, **kwargs)
        return _drop_one_kept_edge(res) if len(calls) > 2 else res

    monkeypatch.setattr(workloads, "build_ft_spanner", flaky)
    out = run_tiny("sparse-build")
    assert out["failed"] > 0 and not out["correct"]


def test_simulation_missing_an_edge_trips(monkeypatch):
    real = workloads.simulate_distributed_spanner

    def lossy(*args, **kwargs):
        res, report = real(*args, **kwargs)
        return _drop_one_kept_edge(res), report

    monkeypatch.setattr(workloads, "simulate_distributed_spanner", lossy)
    out = run_tiny("congest-sim")
    assert out["failed"] > 0 and not out["correct"]


def test_build_missing_its_lightest_edge_fails_verification(monkeypatch):
    real = workloads.build_ft_spanner

    def lossy(g, *args, **kwargs):
        res = real(g, *args, **kwargs)
        lightest = min(res.edges, key=g.key)
        res.edges = tuple(e for e in res.edges if e != lightest)
        return res

    monkeypatch.setattr(workloads, "build_ft_spanner", lossy)
    out = run_tiny("verify-exhaustive")
    assert out["failed"] > 0 and not out["correct"]


def test_build_that_keeps_every_edge_aborts(monkeypatch):
    monkeypatch.setattr(workloads, "C_K", 20)  # K_f beyond every degree: H = G
    with pytest.raises(workloads.Vacuous):
        run_tiny("sparse-build")


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sparse-build",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
