import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import ftspanner
from ftspanner import graphs
from ftspanner.cli import main, make_parser
from ftspanner.graphs import load_graph
from ftspanner.result import PhaseTrace, SpannerResult


def run(*args):
    return main([str(a) for a in args])


def test_gen_build_verify_roundtrip(tmp_path):
    g = tmp_path / "g.txt"
    r = tmp_path / "r.json"
    rep = tmp_path / "rep.json"
    assert run("gen", "--kind", "gnp", "--n", 30, "--p", 0.4, "--seed", 7,
               "-o", g) == 0
    assert run("build", "--graph", g, "--algo", "meta-seq", "--f", 1, "--k", 2,
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


def _manual_result(graph, edges):
    return SpannerResult(algo="manual", n=graph.n, m=graph.m,
                         graph_sha=graph.sha(), params={}, edges=tuple(edges))


def _all_but_heaviest(graph):
    heaviest = max(range(graph.m), key=graph.key)
    return [e for e in range(graph.m) if e != heaviest]


def _star_at_0(graph):
    return [e for e, (u, v, _) in enumerate(graph.edges) if 0 in (u, v)]


def test_verify_without_f_k_exits_2(tmp_path, capsys):
    g = tmp_path / "g.txt"
    dropped, full = tmp_path / "dropped.json", tmp_path / "full.json"
    run("gen", "--kind", "cycle", "--n", 6, "-o", g)
    graph = load_graph(g.read_text())
    dropped.write_text(_manual_result(graph, _all_but_heaviest(graph)).to_json())
    full.write_text(_manual_result(graph, range(graph.m)).to_json())
    for r in (dropped, full):
        capsys.readouterr()
        assert run("verify", "--graph", g, "--result", r) == 2
        assert "no params.f; pass --f" in capsys.readouterr().err
        assert run("verify", "--graph", g, "--result", r, "--f", 1) == 2
        assert "no params.k; pass --k" in capsys.readouterr().err
    # A PASS on H = G must come from given parameters, never from null ones.
    assert run("verify", "--graph", g, "--result", full, "--f", 1, "--k", 2) == 0


def _rows(name, gen, cmd, seeds=(0,), code=0, drops=False, subgraph=None):
    """One row per seed. The graph is `gen` at seed 1000 + seed; a build or
    certificate takes the seed itself. `subgraph` picks H's edges in place of
    a build. drops: H keeps fewer than m edges."""
    return [pytest.param(gen, seed, cmd, subgraph, code, drops, id=f"{name}-{seed}")
            for seed in seeds]


_GNP34 = ("--kind", "gnp", "--n", 34, "--p", 0.5)
_TREE30 = ("--kind", "tree", "--n", 30)

_CLI_CASES = [
    *_rows("gnp24-meta-seq", ("--kind", "gnp", "--n", 24, "--p", 0.3),
           ("build", "--algo", "meta-seq", "--f", 2, "--k", 2, "--ck", 20), seeds=(0, 1)),
    *_rows("gnp30-meta-mod",
           ("--kind", "gnp", "--n", 30, "--p", 0.4, "--weights", "1:100"),
           ("build", "--algo", "meta-mod", "--f", 1, "--k", 3,
            "--ck", 20), seeds=(0, 1)),
    *_rows("gnp40-warmup", ("--kind", "gnp", "--n", 40, "--p", 0.25),
           ("build", "--algo", "warmup", "--f", 1, "--k", 2, "--ck", 20),
           seeds=(0, 1)),
    *_rows("regular30-meta-det", ("--kind", "random-regular", "--n", 30, "--d", 6),
           ("build", "--algo", "meta-det", "--f", 2, "--k", 3, "--ck", 20)),
    *_rows("grid6x6-meta-seq",
           ("--kind", "grid", "--rows", 6, "--cols", 6, "--weights", "1:9"),
           ("build", "--algo", "meta-seq", "--f", 2, "--k", 2, "--ck", 20)),
    *_rows("k15-warmup", ("--kind", "complete", "--n", 15, "--weights", "1:50"),
           ("build", "--algo", "warmup", "--f", 2, "--k", 2, "--ck", 20),
           seeds=(0, 1)),
    *_rows("c20-meta-seq", ("--kind", "cycle", "--n", 20),
           ("build", "--algo", "meta-seq", "--f", 1, "--k", 2, "--ck", 20)),
    *_rows("tree-warmup", _TREE30,
           ("build", "--algo", "warmup", "--f", 1, "--k", 2, "--ck", 20)),
    *_rows("tree-meta", _TREE30,
           ("build", "--algo", "meta-seq", "--f", 1, "--k", 2, "--ck", 20)),
    *_rows("tree-det", _TREE30,
           ("build", "--algo", "meta-det", "--f", 1, "--k", 2, "--ck", 20)),
    *_rows("clustered-meta-seq", _GNP34,
           ("build", "--algo", "meta-seq", "--f", 1, "--k", 2, "--ck", 1),
           seeds=(0, 1), drops=True),
    *_rows("clustered-meta-mod", _GNP34,
           ("build", "--algo", "meta-mod", "--f", 1, "--k", 3,
            "--ck", 1), seeds=(0, 1), drops=True),
    *_rows("clustered-meta-mod-parallel", _GNP34,
           ("build", "--algo", "meta-mod-parallel", "--f", 1, "--k", 3, "--ck", 1),
           drops=True),
    # det clusters only where a degree reaches det_cluster_threshold (72 at
    # f=1, k=4, c_k=1), hence K80; the n=30 det rows keep every edge
    *_rows("k80-meta-det-ck1", ("--kind", "complete", "--n", 80),
           ("build", "--algo", "meta-det", "--f", 1, "--k", 4, "--ck", 1),
           drops=True),
    *_rows("gnp25-certificate", ("--kind", "gnp", "--n", 25, "--p", 0.5),
           ("certificate", "--lam", 3, "--ck", 20, "--check")),
    *_rows("k30-certificate-ck1", ("--kind", "complete", "--n", 30),
           ("certificate", "--lam", 3, "--ck", 1, "--check"), seeds=(0, 1),
           drops=True),
    *_rows("cycle-minus-heaviest", ("--kind", "cycle", "--n", 6),
           ("verify", "--f", 0, "--k", 2), code=1, drops=True,
           subgraph=_all_but_heaviest),
    *_rows("star-of-k4-not-a-certificate", ("--kind", "complete", "--n", 4),
           ("verify", "--f", 1, "--k", 2), code=1, drops=True,
           subgraph=_star_at_0),
]


@pytest.mark.parametrize("gen, seed, cmd, subgraph, code, drops", _CLI_CASES)
def test_cli_case(tmp_path, gen, seed, cmd, subgraph, code, drops):
    """A build is verified exhaustively, a certificate checks itself, and a
    named subgraph is verified at the row's f and k; the exit code is 0 for
    pass and 1 for fail."""
    g, r = tmp_path / "g.txt", tmp_path / "r.json"
    assert run("gen", *gen, "--seed", 1000 + seed, "-o", g) == 0
    if subgraph:
        graph = load_graph(g.read_text())
        r.write_text(_manual_result(graph, subgraph(graph)).to_json())
        got = run(*cmd, "--graph", g, "--result", r)
    else:
        got = run(*cmd, "--graph", g, "--seed", seed, "-o", r)
        if cmd[0] == "build":
            assert got == 0
            got = run("verify", "--graph", g, "--result", r)
    assert got == code
    res = SpannerResult.from_json(r.read_text())
    assert (res.edge_count < res.m) == drops


_MARGIN_BINS = [f"0.{t}" for t in range(1, 10)] + ["1.0", "over", "disconnected"]


@pytest.mark.parametrize("gen, cmd, subgraph, code, tail", [
    (_GNP34, ("--f", 1, "--k", 2), None, 0, {"over": 0, "disconnected": 0}),
    # C4's detour is exactly the bound, the top of bin "1.0"
    (("--kind", "cycle", "--n", 4), ("--f", 0, "--k", 2), _all_but_heaviest, 0, {"1.0": 1}),
    (("--kind", "cycle", "--n", 6), ("--f", 0, "--k", 2), _all_but_heaviest, 1, {"over": 1}),
    (("--kind", "complete", "--n", 4), ("--f", 1, "--k", 2), _star_at_0, 1,
     {"disconnected": 3}),
])
def test_verify_prints_the_stretch_margin(tmp_path, capsys, gen, cmd, subgraph, code, tail):
    """verify's last stderr line bins the dropped edges by worst distance
    over bound; the bins count every dropped edge once."""
    g, r = tmp_path / "g.txt", tmp_path / "r.json"
    assert run("gen", *gen, "--seed", 1000, "-o", g) == 0
    if subgraph:
        graph = load_graph(g.read_text())
        r.write_text(_manual_result(graph, subgraph(graph)).to_json())
    else:
        assert run("build", "--graph", g, "--algo", "meta-seq", *cmd, "--ck", 1,
                   "-o", r) == 0
    capsys.readouterr()
    assert run("verify", "--graph", g, "--result", r, *cmd) == code
    verdict, line = capsys.readouterr().err.splitlines()[-2:]
    assert verdict.startswith("PASS" if code == 0 else "FAIL")
    hist = json.loads(line)["worst_over_bound"]
    res = SpannerResult.from_json(r.read_text())
    assert list(hist) == _MARGIN_BINS
    assert sum(hist.values()) == res.m - res.edge_count > 0
    assert {key: hist[key] for key in tail} == tail


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
    for algo in ("meta-seq", "meta-det", "warmup"):
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
    (("gen", "--kind", "complete", "--n", -4), "need n >= 0"),
    (("gen", "--kind", "gnp", "--n", -4, "--p", 0.5), "need n >= 0"),
    (("gen", "--kind", "grid", "--rows", -2, "--cols", 3), "rows, cols >= 0"),
    (("gen", "--kind", "grid", "--rows", -2, "--cols", -3), "rows, cols >= 0"),
    (("gen", "--kind", "cycle", "--n", 6, "--weights", 5), "'unit' or 'LO:HI'"),
    (("gen", "--kind", "cycle", "--n", 6, "--weights", "1:x"), "'unit' or 'LO:HI'"),
    (("gen", "--kind", "gnp", "--n", 5), "gnp needs parameter 'p'"),
    (("gen", "--kind", "random-regular", "--n", 6), "random-regular needs parameter 'd'"),
], ids=["empty-meta", "empty-meta-det", "empty-simulate", "k0-meta", "k0-meta-det",
        "k0-simulate", "gen-complete-negative-n",
        "gen-gnp-negative-n", "gen-grid-negative-rows", "gen-grid-negative-both",
        "gen-weights-one-number", "gen-weights-not-integer", "gen-gnp-no-p",
        "gen-regular-no-d"])
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
    assert run("build", "--graph", g, "--algo", "meta-seq", "--f", 1, "--k", 2,
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
               "--ck", 1, "-o", r1) == 0
    assert run("build", "--graph", g, "--f", 1, "--k", 3, "--seed", 2,
               "--ck", 1, "-o", r2) == 0
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


_DROP = object()  # a result_text value that removes the field


@pytest.mark.parametrize("argv, result_text, need", [
    (("build", "--graph", "DIR", "--f", 1), None, ""),
    (("verify", "--graph", "G", "--result", "DIR"), None, ""),
    (("report", "--result", "R"), "[1, 2]", ""),
    (("verify", "--graph", "G", "--result", "R"), "[1, 2]", ""),
    (("verify", "--graph", "G", "--result", "R"), {"edges": 5}, ""),
    (("report", "--result", "R"), {"trace": [1]}, ""),
    (("report", "--result", "R"), {"algo": _DROP}, "'algo'"),
    (("report", "--result", "R"), {"trace": [{"phase": 1}]}, "no 'centers' field"),
    (("report", "--result", "R"),
     {"trace": [{**dict.fromkeys(PhaseTrace.FIELDS, 0), "centers": "x"}]},
     "'centers' must be an integer"),
], ids=["graph-is-directory", "result-is-directory",
        "report-result-not-object", "verify-result-not-object",
        "verify-edges-not-list", "report-trace-not-objects", "result-no-algo",
        "trace-entry-no-field", "trace-field-not-integer"])
def test_bad_input_files_exit_2(tmp_path, capsys, argv, result_text, need):
    """result_text replaces the built result file; a dict replaces fields of
    it (and _DROP removes one). need: text the error must contain."""
    files = {"DIR": tmp_path, "G": tmp_path / "g.txt", "R": tmp_path / "r.json"}
    run("gen", "--kind", "cycle", "--n", 6, "-o", files["G"])
    run("build", "--graph", files["G"], "--f", 1, "--k", 2, "-o", files["R"])
    if isinstance(result_text, dict):
        fields = {**json.loads(files["R"].read_text()), **result_text}
        result_text = json.dumps({k: v for k, v in fields.items() if v is not _DROP})
    if result_text is not None:
        files["R"].write_text(result_text)
    assert run(*(files.get(a, a) for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and need in err


def test_readme_cli_block_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("ftspanner ")]
    parser = make_parser()
    shown = {parser.parse_args(shlex.split(line)[1:]).cmd for line in lines}
    subcommands = next(a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    assert shown == set(subcommands)


# subcommand -> its flags, one entry per option; a new flag is a reviewed
# edit of this table
_CLI_FLAGS = {
    "gen": ["--kind", "--n", "--p", "--d", "--rows", "--cols", "--weights",
            "--seed", "-o/--out"],
    "build": ["--graph", "--algo", "--f", "--k", "--seed", "--ck", "-o/--out"],
    "verify": ["--graph", "--result", "--f", "--k", "-o/--out"],
    "certificate": ["--graph", "--lam", "--seed", "--ck", "--check", "-o/--out"],
    "simulate": ["--graph", "--f", "--k", "--seed", "--cb", "--ck", "--dump-log",
                 "-o/--out"],
    "report": ["--result", "--tsv", "-o/--out"],
}


def test_cli_flag_inventory():
    subcommands = next(a for a in make_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    flags = {name: ["/".join(a.option_strings) for a in p._actions
                    if not isinstance(a, argparse._HelpAction)]
             for name, p in subcommands.items()}
    assert flags == _CLI_FLAGS
    assert sum(map(len, flags.values())) == 38


def test_module_entry_point(tmp_path):
    root = Path(ftspanner.__file__).resolve().parent.parent
    path = [str(root), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, "-m", "ftspanner", "gen", "--kind", "cycle", "--n", "4"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert load_graph(proc.stdout).m == 4


def test_usage_error_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("build", "--graph", "x")  # missing --f
    assert exc.value.code == 2
