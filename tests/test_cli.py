"""End-to-end CLI runs, in process, checking exit codes and output shapes."""

import json

import pytest

from graphcert import cli
from graphcert import io as gio
from graphcert.cli import main
from graphcert.core import EdgeColoring


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    return code, json.loads(out), err


# --- pipelines ------------------------------------------------------------------------


def test_gen_color_verify_pipeline(tmp_path, capsys):
    graph = str(tmp_path / "q33.col")
    cert = str(tmp_path / "q33.coloring")
    assert run(capsys, ["gen", "--family", "queen", "--m", "3", "--n", "3",
                        "--out", graph])[0] == 0
    assert run(capsys, ["color", "--m", "3", "--n", "3", "--out", cert])[0] == 0
    code, out, _ = run(capsys, ["verify", "coloring", "--graph", graph,
                                "--certificate", cert])
    assert code == 0
    assert "ok = True" in out and "class = 1" in out


def test_verify_rejects_broken_coloring(tmp_path, capsys):
    graph = str(tmp_path / "q22.col")
    cert = str(tmp_path / "bad.coloring")
    run(capsys, ["gen", "--family", "queen", "--m", "2", "--n", "2", "--out", graph])
    # 2x2 queens form K_4; one color on every edge clashes everywhere
    edges = gio.read_dimacs(graph).edges
    gio.write_coloring(EdgeColoring({e: 1 for e in edges}, 1), cert)
    code, _, err = run(capsys, ["verify", "coloring", "--graph", graph,
                                "--certificate", cert])
    assert code == 1
    assert "fail:" in err


def test_keller_hamcycle_roundtrip(tmp_path, capsys):
    graph = str(tmp_path / "g2.col")
    cycle = str(tmp_path / "g2.cycle")
    assert run(capsys, ["keller", "build", "--d", "2", "--out", graph])[0] == 0
    assert run(capsys, ["keller", "hamcycle", "--d", "2", "--out", cycle])[0] == 0
    code, out, _ = run(capsys, ["verify", "hamcycle", "--graph", graph,
                                "--certificate", cycle])
    assert code == 0 and "size = 16" in out


def test_queen_color_json():
    # spelled-out alias `queen color` shares the handler with `color`
    code = main(["queen", "color", "--m", "3", "--n", "13", "--json"])
    assert code == 0


def test_queen_color_json_payload(capsys):
    code, payload, _ = run_json(capsys, ["queen", "color", "--m", "3", "--n", "13"])
    assert code == 0
    assert payload["ok"] is True
    assert payload["class"] == 2
    assert payload["colors"] == 19
    assert payload["construction"] == "OverfullDeltaPlusOne"
    assert set(payload) >= {"ok", "family", "params", "seed"}


def test_verify_fixture_table1(capsys):
    code, out, _ = run(capsys, ["keller", "verify-fixture", "--table", "1"])
    assert code == 0
    assert "size = 17" in out


@pytest.mark.parametrize("table,size", [(5, 13), (6, 22), (7, 40)])
def test_verify_fixture_covers(capsys, table, size):
    code, out, _ = run(capsys, ["keller", "verify-fixture", "--table", str(table)])
    assert code == 0
    assert f"size = {size}" in out


# --- exit codes -----------------------------------------------------------------------


def test_budget_exhaustion_exits_3(capsys):
    code, _, err = run(capsys, ["color", "--m", "3", "--n", "9",
                                "--construction", "kempe",
                                "--budget-switches", "1", "--restarts", "1"])
    assert code == 3
    assert "budget exhausted" in err
    assert run(capsys, ["keller", "decompose", "--d", "2",
                        "--budget-switches", "1"])[0] == 3


def test_inapplicable_construction_exits_1(capsys):
    # an overfull board admits no Delta coloring for kempe to find
    code, _, err = run(capsys, ["color", "--m", "3", "--n", "13",
                                "--construction", "kempe"])
    assert code == 1
    assert "no construction" in err


def test_usage_errors_exit_2(capsys):
    assert run(capsys, ["color", "--m", "3"])[0] == 2  # missing --n
    assert run(capsys, ["gen", "--family", "knight", "--m", "3", "--n", "3"])[0] == 2
    assert run(capsys, ["mycielski", "witness", "--n", "5"])[0] == 2  # odd n
    assert run(capsys, ["gen", "--family", "queen", "--m", "3", "--n", "3",
                        "--json"])[0] == 2  # graph would be discarded
    assert run(capsys, ["color", "--m", "5", "--n", "5",
                        "--warm-start", "x.coloring"])[0] == 2  # not kempe
    # the decomposition search takes a switch budget only
    assert run(capsys, ["keller", "decompose", "--d", "2", "--restarts", "0"])[0] == 2
    assert run(capsys, ["keller", "decompose", "--d", "2",
                        "--warm-start", "nonexistent.coloring"])[0] == 2


@pytest.mark.parametrize("argv", [
    ["color", "--m", "5", "--n", "29", "--budget-switches", "0"],
    ["color", "--m", "5", "--n", "29", "--restarts", "0"],
    ["conjecture", "2", "--m-max", "3", "--n-max", "4", "--budget-switches", "0"],
    ["keller", "decompose", "--d", "2", "--budget-switches", "0"],
], ids=["color-switches", "color-restarts", "conjecture2-switches", "keller-decompose"])
def test_zero_budget_is_a_usage_error(capsys, argv):
    # 0 used to be read as "not given" and replaced by the default budget
    code, out, err = run(capsys, argv + ["--json"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "positive" in err


# R(2,2) is the 4-cycle 1-2-4-3-1, properly colored by "1 2 1", "1 3 2",
# "2 4 2", "3 4 1" with k=2.
R22_BODY = ["1 2 1", "1 3 2", "2 4 2", "3 4 1"]


# A file id outside 1..n on the rows "1 X 1" and "4 X 1": both are colored
# non-edges, and colour 1 repeats at vertex 0, at vertex 3 and at X itself.
HUGE = 10**20 - 1
OUTSIDE_ID_DETAIL = {
    0: ["colored edge (-1, 0) not in graph", "colored edge (-1, 3) not in graph",
        "color 1 repeated at vertex 0 on (0, 1) and (-1, 0)",
        "color 1 repeated at vertex -1 on (-1, 0) and (-1, 3)",
        "color 1 repeated at vertex 3 on (2, 3) and (-1, 3)"],
    5: ["colored edge (0, 4) not in graph", "colored edge (3, 4) not in graph",
        "color 1 repeated at vertex 0 on (0, 1) and (0, 4)",
        "color 1 repeated at vertex 3 on (2, 3) and (3, 4)",
        "color 1 repeated at vertex 4 on (0, 4) and (3, 4)"],
    HUGE: [f"colored edge (0, {HUGE - 1}) not in graph",
           f"colored edge (3, {HUGE - 1}) not in graph",
           f"color 1 repeated at vertex 0 on (0, 1) and (0, {HUGE - 1})",
           f"color 1 repeated at vertex 3 on (2, 3) and (3, {HUGE - 1})",
           f"color 1 repeated at vertex {HUGE - 1} on (0, {HUGE - 1}) and (3, {HUGE - 1})"],
}


@pytest.mark.parametrize("graph_name,body,code,detail", [
    ("absent.col", R22_BODY, 2, None),
    ("r22.col", None, 2, None),
    ("r22.col", ["1 2 1", "1 3 1"] + R22_BODY[1:], 1, None),
    ("r22.col", ["1 2 3"] + R22_BODY[1:], 1, None),
    ("r22.col", ["1 2 x"] + R22_BODY[1:], 1, None),
    ("r22.col", ["c k=two"] + R22_BODY, 1, None),
    ("r22.col", R22_BODY + ["1 0 1", "4 0 1"], 1, OUTSIDE_ID_DETAIL[0]),
    ("r22.col", R22_BODY + ["1 5 1", "4 5 1"], 1, OUTSIDE_ID_DETAIL[5]),
    ("r22.col", R22_BODY + [f"1 {HUGE} 1", f"4 {HUGE} 1"], 1, OUTSIDE_ID_DETAIL[HUGE]),
], ids=["missing-graph", "missing-certificate", "repeated-edge", "color-outside-k",
        "non-integer-color", "non-integer-k", "file-id-0", "file-id-n+1",
        "file-id-past-int64"])
def test_verify_coloring_rejects_bad_input(tmp_path, capsys, graph_name, body, code, detail):
    assert run(capsys, ["gen", "--family", "rook", "--m", "2", "--n", "2",
                        "--out", str(tmp_path / "r22.col")])[0] == 0
    cert = tmp_path / "r22.coloring"
    if body is not None:
        cert.write_text("\n".join(["c k=2"] + body) + "\n")
    got, out, err = run(capsys, ["verify", "coloring", "--graph", str(tmp_path / graph_name),
                                 "--certificate", str(cert), "--json"])
    assert got == code
    if code == 1:
        assert json.loads(out)["ok"] is False
    else:
        assert err.startswith("error:")
    if detail is not None:
        assert err.splitlines() == [f"fail: {line}" for line in detail]


def _write(target, content):
    if isinstance(content, bytes):
        target.write_bytes(content)
    else:
        target.write_text(content)


@pytest.mark.parametrize("kind,certificate,matching,code", [
    ("hamcycle", "1 2 4 3\n", None, 0),
    ("hamcycle", "1 2 4 three\n", None, 1),
    ("hampath", "1 2\n4 3.0\n", None, 1),
    ("cover", "1 2\n3 x4\n", None, 1),
    ("decomposition", "1 2 4 3\n", "1 2 3\n", 1),
    ("decomposition", "1 2 4 3\n", "1 -\n", 1),
    ("coloring", "c k=2\n1 2 1\n1 2\n", None, 1),
    ("coloring", "1 2 1\n1 3 2\n", None, 1),
    ("hamcycle", b"1 2 4 3\xe9\n", None, 1),
    ("coloring", b"c k=2 \xe9\n1 2 1\n", None, 1),
    ("cover", b"1 2\n3\xe9 4\n", None, 1),
    ("decomposition", "1 2 4 3\n", b"1 2\n3 4\xe9\n", 1),
], ids=["hamcycle-ok", "hamcycle-token", "hampath-token", "cover-token",
        "matching-not-a-pair", "matching-token", "coloring-short-line",
        "coloring-without-k", "hamcycle-non-ascii", "coloring-comment-non-ascii",
        "cover-non-ascii", "matching-non-ascii"])
def test_verify_malformed_certificate_exits_1(tmp_path, capsys, kind, certificate,
                                              matching, code):
    # R(2,2) is the 4-cycle 1-2-4-3-1
    graph = str(tmp_path / "r22.col")
    assert run(capsys, ["gen", "--family", "rook", "--m", "2", "--n", "2",
                        "--out", graph])[0] == 0
    _write(tmp_path / "r22.cert", certificate)
    argv = ["verify", kind, "--graph", graph, "--certificate", str(tmp_path / "r22.cert"),
            "--json"]
    if matching is not None:
        _write(tmp_path / "r22.matching", matching)
        argv += ["--matching", str(tmp_path / "r22.matching")]
    got, out, err = run(capsys, argv)
    assert got == code
    assert json.loads(out)["ok"] is (code == 0)
    if code:
        assert err.startswith("verification failed:") and "line" in err


def test_malformed_graph_file_still_exits_2(tmp_path, capsys):
    graph = tmp_path / "bad.col"
    graph.write_text("p edge 4 1\ne 1 x\n")
    cert = tmp_path / "r22.cert"
    cert.write_text("1 2 4 3\n")
    code, out, err = run(capsys, ["verify", "hamcycle", "--graph", str(graph),
                                  "--certificate", str(cert), "--json"])
    assert code == 2 and out == "" and err.startswith("error:")


def test_non_ascii_graph_file_still_exits_2(tmp_path, capsys):
    graph = tmp_path / "bad.col"
    graph.write_bytes(b"c r\xe9\np edge 4 4\ne 1 2\ne 1 3\ne 2 4\ne 3 4\n")
    cert = tmp_path / "r22.cert"
    cert.write_text("1 2 4 3\n")
    code, out, err = run(capsys, ["verify", "hamcycle", "--graph", str(graph),
                                  "--certificate", str(cert), "--json"])
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["multicycle", "chi", "--mult", "3,5,3,4,4", "--oracle-cap", "24"],
    ["multicycle", "survey", "--m", "5", "--n-max", "11", "--oracle-cap", "24"],
    ["conjecture", "4", "--oracle-cap", "24"],
    ["conjecture", "5", "--oracle-cap", "24"],
], ids=["chi", "survey", "conjecture4", "conjecture5"])
def test_oracle_cap_option_is_gone(capsys, argv):
    code, _, err = run(capsys, argv)
    assert code == 2 and "--oracle-cap" in err


@pytest.mark.parametrize("cpus,expected", [(2, 2), (None, 1)])
def test_parallel_map_starts_at_most_one_process_per_cpu(monkeypatch, cpus, expected):
    started = []

    class RecordingPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(cli.multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    assert cli._parallel_map(abs, list(range(-20, 0)), jobs=10_000) == list(range(20, 0, -1))
    assert started == [expected]


def test_long_run_gates(capsys):
    assert run(capsys, ["gen", "--family", "queen", "--m", "51", "--n", "51"])[0] == 2
    assert run(capsys, ["keller", "decompose", "--d", "3"])[0] == 2
    assert run(capsys, ["conjecture", "3"])[0] == 2
    code, _, err = run(capsys, ["keller", "build", "--d", "6"])
    assert code == 2 and "--long-run" in err


# --- subcommand output ------------------------------------------------------------------


def test_mycielski_hampath_labels(capsys):
    code, out, _ = run(capsys, ["mycielski", "hampath", "--n", "9",
                                "--from", "y1", "--to", "y6"])
    assert code == 0
    names = out.split()
    assert len(names) == 19
    assert names[0] == "y1" and names[-1] == "y6"
    assert "z" in names


def test_multicycle_derive(capsys):
    code, out, _ = run(capsys, ["multicycle", "derive", "--m", "5", "--n", "11"])
    assert code == 0
    assert "mult = 3,5,3,4,4" in out
    assert "order = 1,3,5,2,4" in out
    assert "sigma = 19" in out


def test_multicycle_chi(capsys):
    code, out, _ = run(capsys, ["multicycle", "chi", "--mult", "3,5,3,4,4"])
    assert code == 0 and out == "chi = 10\nconstruction = arc\n"
    assert "chi = 3" in run(capsys, ["multicycle", "chi", "--mult", "0,0,0,1,2"])[1]
    code, payload, _ = run_json(capsys, ["multicycle", "chi", "--mult", "9,9,9,9,9,9,9,9,9"])
    assert code == 0 and payload["ok"] is True
    assert (payload["colors"], payload["construction"]) == (21, "arc")


def test_multicycle_survey_csv(tmp_path, capsys):
    target = str(tmp_path / "rows.csv")
    code, _, _ = run(capsys, ["multicycle", "survey", "--m", "5", "--n-max", "11",
                              "--csv", target])
    assert code == 0
    lines = open(target, encoding="ascii").read().splitlines()
    assert lines[0] == "m,n,sigma,mu_minus,delta,tau,chi,conjecture4_ok,conjecture5_ok"
    assert "5,11,19,3,8,10,10,true,true" in lines


def test_conjecture_harnesses(capsys):
    code, payload, _ = run_json(capsys, ["conjecture", "2", "--m-max", "3",
                                         "--n-max", "8"])
    assert code == 0 and payload["ok"] and payload["size"] == 21
    assert run(capsys, ["conjecture", "4", "--m", "5", "--n-max", "15"])[0] == 0
    assert run(capsys, ["conjecture", "5", "--m", "5,7", "--n-max", "15"])[0] == 0
    code, out, _ = run(capsys, ["conjecture", "9", "--d-max", "3"])
    assert code == 0
    assert "8 <= theta(G_2) <= 8" in out
    assert "13 <= theta(G_3) <= 13" in out


def test_jobs_do_not_change_output(capsys):
    argv = ["multicycle", "survey", "--m", "5,7", "--n-max", "13"]
    _, serial, _ = run(capsys, argv + ["--jobs", "1"])
    _, parallel, _ = run(capsys, argv + ["--jobs", "4"])
    assert serial == parallel and serial.strip()


def test_reused_parser_matches_a_fresh_one(monkeypatch, capsys):
    builds = []
    build = cli.build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    sequence = [
        ["multicycle", "chi", "--mult", "1,2,3", "--seed", "7", "--json"],
        ["multicycle", "chi", "--mult", "1,2,3", "--json"],
        ["color", "--m", "3"],  # argparse usage failure
        ["color", "--m", "3", "--n", "3", "--json"],
        ["gen", "--family", "queen", "--m", "2", "--n", "3"],
    ]
    cli._parser.cache_clear()
    reused = [run(capsys, argv) for argv in sequence]
    assert len(builds) == 1
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(run(capsys, argv))
    assert len(builds) == 1 + len(sequence)
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 2, 0, 0]
    assert json.loads(reused[0][1])["seed"] == 7
    assert json.loads(reused[1][1])["seed"] == 0
    assert reused[4][1].startswith("c family=queen")
