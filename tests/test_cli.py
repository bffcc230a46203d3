import argparse
import json
import math
import shlex
from pathlib import Path

import pytest

from ftspanner import graphs
from ftspanner.cli import main, make_parser
from ftspanner.graphs import load_graph
from ftspanner.result import SpannerResult


def run(*args):
    return main([str(a) for a in args])


def test_gen_build_verify_roundtrip(tmp_path):
    g = tmp_path / "g.txt"
    r = tmp_path / "r.json"
    rep = tmp_path / "rep.json"
    assert run("gen", "--kind", "gnp", "--n", 30, "--p", 0.4, "--seed", 7,
               "-o", g) == 0
    assert run("build", "--graph", g, "--algo", "meta", "--f", 1, "--k", 2,
               "--seed", 3, "-o", r) == 0
    assert run("verify", "--graph", g, "--result", r, "-o", rep) == 0
    data = json.loads(rep.read_text())
    assert data["passed"] is True


def test_verify_rejects_wrong_graph(tmp_path):
    g1, g2 = tmp_path / "a.txt", tmp_path / "b.txt"
    r = tmp_path / "r.json"
    run("gen", "--kind", "cycle", "--n", 6, "-o", g1)
    run("gen", "--kind", "cycle", "--n", 8, "-o", g2)
    run("build", "--graph", g1, "--f", 1, "--k", 2, "-o", r)
    assert run("verify", "--graph", g2, "--result", r) == 2


def test_verify_failure_exit_code(tmp_path):
    g = tmp_path / "g.txt"
    r = tmp_path / "r.json"
    run("gen", "--kind", "cycle", "--n", 6, "-o", g)
    graph = load_graph(g.read_text())
    heaviest = max(range(graph.m), key=graph.key)
    res = SpannerResult(algo="manual", n=graph.n, m=graph.m,
                        graph_sha=graph.sha(), params={},
                        edges=tuple(e for e in range(graph.m) if e != heaviest))
    r.write_text(res.to_json())
    assert run("verify", "--graph", g, "--result", r, "--f", 0, "--k", 2) == 1


def _manual_result(graph, edges):
    return SpannerResult(algo="manual", n=graph.n, m=graph.m,
                         graph_sha=graph.sha(), params={}, edges=tuple(edges))


def test_verify_without_f_k_exits_2(tmp_path, capsys):
    g = tmp_path / "g.txt"
    dropped, full = tmp_path / "dropped.json", tmp_path / "full.json"
    run("gen", "--kind", "cycle", "--n", 6, "-o", g)
    graph = load_graph(g.read_text())
    heaviest = max(range(graph.m), key=graph.key)
    dropped.write_text(_manual_result(
        graph, (e for e in range(graph.m) if e != heaviest)).to_json())
    full.write_text(_manual_result(graph, range(graph.m)).to_json())
    for r in (dropped, full):
        capsys.readouterr()
        assert run("verify", "--graph", g, "--result", r) == 2
        assert "no params.f; pass --f" in capsys.readouterr().err
        assert run("verify", "--graph", g, "--result", r, "--f", 1) == 2
        assert "no params.k; pass --k" in capsys.readouterr().err
    # A PASS on H = G must come from given parameters, never from null ones.
    assert run("verify", "--graph", g, "--result", full, "--f", 1, "--k", 2) == 0


@pytest.mark.parametrize("flags, value", [
    (("--f", -1, "--k", 2), "f=-1"), (("--f", 1, "--k", 0), "k=0"),
    (("--f", 1, "--k", 2, "--mode", "sampled:8"), "unrecognized arguments: --mode"),
])
def test_verify_bad_parameters_exit_2(tmp_path, capsys, flags, value):
    g, r = tmp_path / "g.txt", tmp_path / "r.json"
    run("gen", "--kind", "cycle", "--n", 8, "-o", g)
    graph = load_graph(g.read_text())
    r.write_text(_manual_result(graph, range(graph.m - 1)).to_json())
    capsys.readouterr()
    try:
        code = run("verify", "--graph", g, "--result", r, *flags)
    except SystemExit as exc:  # argparse's exit on an unknown flag
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert value in err and "PASS" not in err and "FAIL" not in err


def test_graph_above_vertex_limit_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(graphs, "MAX_VERTICES", 100)
    g = tmp_path / "g.txt"
    g.write_text("0 100 1\n")
    assert run("build", "--graph", g, "--f", 1, "--k", 2) == 2
    assert "exceed the limit of 100" in capsys.readouterr().err


def test_build_deterministic_files(tmp_path):
    g = tmp_path / "g.txt"
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run("gen", "--kind", "gnp", "--n", 25, "--p", 0.4, "--seed", 2,
        "--weights", "1:50", "-o", g)
    for algo in ("meta", "meta-det", "warmup"):
        run("build", "--graph", g, "--algo", algo, "--f", 1, "--k", 2,
            "--seed", 4, "-o", r1)
        run("build", "--graph", g, "--algo", algo, "--f", 1, "--k", 2,
            "--seed", 4, "-o", r2)
        assert r1.read_bytes() == r2.read_bytes(), algo


@pytest.mark.parametrize("argv, need", [
    (("build", "--graph", "EMPTY", "--f", 1), "need 1 <= f < n"),
    (("build", "--graph", "EMPTY", "--f", 1, "--algo", "meta-det"), "need 1 <= f < n"),
    (("simulate", "--graph", "EMPTY", "--f", 1), "need 1 <= f < n"),
    (("build", "--graph", "G", "--f", 1, "--k", 0), "need k >= 2"),
    (("build", "--graph", "G", "--f", 1, "--k", 0, "--algo", "meta-det"), "need k >= 2"),
    (("simulate", "--graph", "G", "--f", 1, "--k", 0), "need k >= 2"),
    (("build", "--graph", "G", "--f", 1, "--mis", "parallel"), "need variant 'mod'"),
    (("gen", "--kind", "complete", "--n", -4), "need n >= 0"),
    (("gen", "--kind", "gnp", "--n", -4, "--p", 0.5), "need n >= 0"),
    (("gen", "--kind", "grid", "--rows", -2, "--cols", 3), "rows, cols >= 0"),
    (("gen", "--kind", "grid", "--rows", -2, "--cols", -3), "rows, cols >= 0"),
    (("gen", "--kind", "cycle", "--n", 6, "--weights", 5), "'unit' or 'LO:HI'"),
    (("gen", "--kind", "cycle", "--n", 6, "--weights", "1:x"), "'unit' or 'LO:HI'"),
], ids=["empty-meta", "empty-meta-det", "empty-simulate", "k0-meta", "k0-meta-det",
        "k0-simulate", "parallel-mis-seq", "gen-complete-negative-n",
        "gen-gnp-negative-n", "gen-grid-negative-rows", "gen-grid-negative-both",
        "gen-weights-one-number", "gen-weights-not-integer"])
def test_bad_build_parameters_exit_2(tmp_path, capsys, argv, need):
    files = {"EMPTY": tmp_path / "empty.txt", "G": tmp_path / "g.txt"}
    files["EMPTY"].write_text("")
    run("gen", "--kind", "cycle", "--n", 6, "-o", files["G"])
    capsys.readouterr()
    assert run(*(files.get(a, a) for a in argv)) == 2
    assert need in capsys.readouterr().err


def test_warmup_requires_k2(tmp_path):
    g = tmp_path / "g.txt"
    run("gen", "--kind", "cycle", "--n", 8, "-o", g)
    assert run("build", "--graph", g, "--algo", "warmup", "--f", 1, "--k", 3) == 2


def test_certificate_cycle_keeps_everything(tmp_path):
    g = tmp_path / "g.txt"
    r = tmp_path / "r.json"
    run("gen", "--kind", "cycle", "--n", 6, "-o", g)
    assert run("certificate", "--graph", g, "--lam", 2, "--check", "-o", r) == 0
    res = SpannerResult.from_json(r.read_text())
    assert set(res.edges) == set(range(6))


def test_certificate_tree_lambda1(tmp_path):
    g = tmp_path / "g.txt"
    r = tmp_path / "r.json"
    run("gen", "--kind", "tree", "--n", 20, "--seed", 3, "-o", g)
    assert run("certificate", "--graph", g, "--lam", 1, "--check", "-o", r) == 0
    res = SpannerResult.from_json(r.read_text())
    assert set(res.edges) == set(range(19))  # spans the tree


def test_certificate_lambda_too_large(tmp_path):
    g = tmp_path / "g.txt"
    run("gen", "--kind", "cycle", "--n", 6, "-o", g)
    assert run("certificate", "--graph", g, "--lam", 7) == 2


def test_simulate_equals_build(tmp_path):
    g = tmp_path / "g.txt"
    r1, r2 = tmp_path / "sim.json", tmp_path / "seq.json"
    run("gen", "--kind", "gnp", "--n", 25, "--p", 0.4, "--seed", 1, "-o", g)
    assert run("simulate", "--graph", g, "--f", 1, "--k", 2, "--seed", 5,
               "-o", r1) == 0
    assert run("build", "--graph", g, "--algo", "meta", "--f", 1, "--k", 2,
               "--seed", 5, "-o", r2) == 0
    sim = SpannerResult.from_json(r1.read_text())
    seq = SpannerResult.from_json(r2.read_text())
    assert sim.edges == seq.edges


def test_simulate_ck_equals_build_ck(tmp_path):
    # At c_k = 1 the build clusters and drops edges on K30; simulate must
    # take the same constants and return the same edges.
    g = tmp_path / "g.txt"
    r1, r2 = tmp_path / "sim.json", tmp_path / "seq.json"
    run("gen", "--kind", "complete", "--n", 30, "--weights", "1:1000", "--seed", 4,
        "-o", g)
    assert run("simulate", "--graph", g, "--f", 1, "--k", 3, "--seed", 2,
               "--ck", 1, "--cs", 4, "-o", r1) == 0
    assert run("build", "--graph", g, "--f", 1, "--k", 3, "--seed", 2,
               "--ck", 1, "--cs", 4, "-o", r2) == 0
    sim = SpannerResult.from_json(r1.read_text())
    seq = SpannerResult.from_json(r2.read_text())
    assert seq.edge_count < seq.m
    assert sim.edges == seq.edges


def test_simulate_message_log_dump(tmp_path):
    import struct

    g = tmp_path / "g.txt"
    r = tmp_path / "sim.json"
    log = tmp_path / "m.bin"
    run("gen", "--kind", "gnp", "--n", 20, "--p", 0.4, "--seed", 1, "-o", g)
    assert run("simulate", "--graph", g, "--f", 1, "--k", 2,
               "--dump-log", log, "-o", r) == 0
    data = log.read_bytes()
    assert data.startswith(b"FTSLOG1\n")
    body = data[8:]
    rec = struct.calcsize("<IIIHB")
    assert body and len(body) % rec == 0
    rnd, src, dst, bits, tag = struct.unpack_from("<IIIHB", body, 0)
    assert rnd >= 1 and bits >= 1 and tag >= 1


def test_simulate_prints_per_tag_summary(tmp_path, capsys):
    g = tmp_path / "g.txt"
    run("gen", "--kind", "complete", "--n", 30, "--seed", 2, "--weights", "1:1000",
        "-o", g)
    capsys.readouterr()
    assert run("simulate", "--graph", g, "--f", 1, "--k", 2, "-o",
               tmp_path / "sim.json") == 0
    rounds_line, tags_line = capsys.readouterr().err.splitlines()[-2:]
    rounds, tags = json.loads(rounds_line), json.loads(tags_line)["tags"]
    assert {"paths", "heads", "edge-state"} <= set(tags)
    assert sum(t["rounds"] for t in tags.values()) == rounds["total_rounds"]
    assert sum(t["messages"] for t in tags.values()) == rounds["messages"]
    assert sum(t["bits"] for t in tags.values()) == rounds["bits_total"]


def test_simulate_bandwidth_below_one_exits_2(tmp_path, capsys):
    g = tmp_path / "g.txt"
    run("gen", "--kind", "cycle", "--n", 6, "-o", g)
    for cb in (0, -3):
        capsys.readouterr()
        assert run("simulate", "--graph", g, "--f", 1, "--k", 2, "--cb", cb) == 2
        assert "need c_b >= 1" in capsys.readouterr().err


def test_report_human_and_tsv(tmp_path, capsys):
    g = tmp_path / "g.txt"
    r = tmp_path / "r.json"
    run("gen", "--kind", "tree", "--n", 12, "--seed", 0, "-o", g)
    run("build", "--graph", g, "--f", 1, "--k", 2, "-o", r)
    assert run("report", "--result", r) == 0
    out1 = capsys.readouterr().out
    assert "edges: 11" in out1
    assert run("report", "--result", r) == 0
    assert capsys.readouterr().out == out1  # pure function of the file
    assert run("report", "--result", r, "--tsv") == 0
    assert capsys.readouterr().out.startswith("phase\t")


def test_report_zero_edge_graph(tmp_path, capsys):
    g = tmp_path / "g.txt"
    r = tmp_path / "r.json"
    run("gen", "--kind", "gnp", "--n", 2, "--p", 0.0, "-o", g)
    run("build", "--graph", g, "--f", 1, "--k", 2, "-o", r)
    run("report", "--result", r)
    assert "edges: 0" in capsys.readouterr().out


def test_report_missing_file():
    assert run("report", "--result", "/nonexistent/x.json") == 2


_INSTANCE = {"ground": list(range(4)), "sets": [[0, 1]], "delta": 1.0}


@pytest.mark.parametrize("argv, result_text, spec", [
    (("build", "--graph", "DIR", "--f", 1), None, _INSTANCE),
    (("verify", "--graph", "G", "--result", "DIR"), None, _INSTANCE),
    (("hitting-set", "--instance", "DIR"), None, _INSTANCE),
    (("report", "--result", "R"), "[1, 2]", _INSTANCE),
    (("verify", "--graph", "G", "--result", "R"), "[1, 2]", _INSTANCE),
    (("verify", "--graph", "G", "--result", "R"), {"edges": 5}, _INSTANCE),
    (("report", "--result", "R"), {"trace": [1]}, _INSTANCE),
    (("hitting-set", "--instance", "INST"), None, {**_INSTANCE, "ground": 5}),
    (("hitting-set", "--instance", "INST"), None, {**_INSTANCE, "sets": [0, 1]}),
    (("hitting-set", "--instance", "INST"), None, [_INSTANCE]),
    (("hitting-set", "--instance", "INST"), None, {**_INSTANCE, "delta": [1]}),
    (("hitting-set", "--instance", "INST"), None, {**_INSTANCE, "delta": math.nan}),
    (("hitting-set", "--instance", "INST"), None, {**_INSTANCE, "delta": 1, "c": math.nan}),
    (("hitting-set", "--instance", "INST"), None, {**_INSTANCE, "beta": math.inf}),
    (("hitting-set", "--instance", "INST"), None, {**_INSTANCE, "beta": 1.7}),
    (("hitting-set", "--instance", "INST"), None, {**_INSTANCE, "beta": 2.0}),
    (("hitting-set", "--instance", "INST"), None, {**_INSTANCE, "ground": [[0], 1]}),
    (("hitting-set", "--instance", "INST"), None,
     {**_INSTANCE, "ground": [0, "a"], "sets": [[0, "a"]]}),
], ids=["graph-is-directory", "result-is-directory", "instance-is-directory",
        "report-result-not-object", "verify-result-not-object",
        "verify-edges-not-list", "report-trace-not-objects",
        "instance-ground-not-list", "instance-sets-not-lists",
        "instance-not-object", "instance-delta-not-number",
        "instance-delta-nan", "instance-c-nan", "instance-beta-inf",
        "instance-beta-fraction", "instance-beta-float",
        "instance-ground-not-scalars", "instance-ground-mixed-kinds"])
def test_bad_input_files_exit_2(tmp_path, capsys, argv, result_text, spec):
    """result_text replaces the built result file; a dict replaces fields of it."""
    files = {"DIR": tmp_path, "G": tmp_path / "g.txt", "R": tmp_path / "r.json",
             "INST": tmp_path / "inst.json"}
    run("gen", "--kind", "cycle", "--n", 6, "-o", files["G"])
    run("build", "--graph", files["G"], "--f", 1, "--k", 2, "-o", files["R"])
    if isinstance(result_text, dict):
        result_text = json.dumps({**json.loads(files["R"].read_text()), **result_text})
    if result_text is not None:
        files["R"].write_text(result_text)
    files["INST"].write_text(json.dumps(spec))
    assert run(*(files.get(a, a) for a in argv)) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_hitting_set_command(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "ground": list(range(12)),
        "sets": [list(range(12))] * 3,
        "delta": 4.0,
    }))
    assert run("hitting-set", "--instance", inst) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["size"] <= 3


def test_readme_cli_block_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("ftspanner ")]
    parser = make_parser()
    shown = {parser.parse_args(shlex.split(line)[1:]).cmd for line in lines}
    subcommands = next(a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    assert shown == set(subcommands)


def test_usage_error_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("build", "--graph", "x")  # missing --f
    assert exc.value.code == 2
