"""End-to-end CLI runs, in process, checking exit codes and output shapes."""

import dataclasses
import hashlib
import json
import sys

import numpy as np
import pytest

from conftest import coloring_of, edge_set
from graphcert import cli, core, keller, multicycle, mycielski
from graphcert import io as gio
from graphcert.cli import main
from graphcert.core import EdgeColoring, VerificationReport, vizing_delta_plus_one
from graphcert.queen import QueenColoringCertificate


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
    edges = edge_set(gio.read_dimacs(graph))
    gio.write_coloring(coloring_of({e: 1 for e in edges}, 1), cert)
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


@pytest.mark.parametrize("argv,code", [
    ("color --m 5 --n 69 --seed 4 --budget-switches 300 --restarts 2", 3),
    ("color --m 3 --n 13 --seed 4 --construction kempe", 1),
], ids=["budget", "no-construction"])
def test_a_raised_failure_carries_the_seed(capsys, argv, code):
    # a failure raised before the check completes reports the seed, like _finish
    got, payload, _ = run_json(capsys, argv.split())
    assert (got, payload["ok"], payload["seed"]) == (code, False, 4)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_conjecture2_lists_the_open_boards_and_exits_3(capsys, jobs):
    # one switch per start closes none of the three gap boards; every other
    # board keeps its row, and the open ones are marked and listed
    argv = f"conjecture 2 --m-max 3 --n-max 11 --budget-switches 1 --restarts 1 --jobs {jobs}"
    code, out, err = run(capsys, argv.split())
    rows = out.splitlines()
    assert code == 3 and len(rows) == 31 and rows[-1] == "checked = 30, disagreements = 0"
    assert [row for row in rows if row.endswith("open")] == [
        f"Q_3,{n}: predicted class 1, open" for n in (7, 9, 11)]
    assert err == "".join(f"fail: Q_3,{n}: search budget exhausted\n" for n in (7, 9, 11))
    code, payload, _ = run_json(capsys, argv.split())
    assert (code, payload["ok"], payload["size"]) == (3, False, 30)
    assert payload["open"] == [[3, 7], [3, 9], [3, 11]]


def test_inapplicable_construction_exits_1(capsys):
    # an overfull board admits no Delta coloring for kempe to find
    code, _, err = run(capsys, ["color", "--m", "3", "--n", "13",
                                "--construction", "kempe"])
    assert code == 1
    assert "no construction" in err


def test_usage_errors_exit_2(capsys, tmp_path):
    assert run(capsys, ["color", "--m", "3"])[0] == 2  # missing --n
    assert run(capsys, ["gen", "--family", "knight", "--m", "3", "--n", "3"])[0] == 2
    assert run(capsys, ["mycielski", "witness", "--n", "5"])[0] == 2  # odd n
    assert run(capsys, ["gen", "--family", "queen", "--m", "3", "--n", "3",
                        "--json"])[0] == 2  # graph would be discarded
    assert run(capsys, ["keller", "build", "--d", "2", "--json"])[0] == 2  # likewise
    assert run(capsys, ["color", "--m", "5", "--n", "5",
                        "--warm-start", "x.coloring"])[0] == 2  # not kempe
    # the decomposition search takes a switch budget only
    assert run(capsys, ["keller", "decompose", "--d", "2", "--restarts", "0"])[0] == 2
    assert run(capsys, ["keller", "decompose", "--d", "2",
                        "--warm-start", "nonexistent.coloring"])[0] == 2
    # --out only where a result is written, --warm-start only on color
    target = tmp_path / "f"
    for argv in ([f"verify {kind} --graph g.col --certificate c"
                  for kind in ("coloring", "hamcycle", "hampath", "decomposition", "cover")] +
                 ["multicycle derive --m 3 --n 5", "multicycle chi --mult 1,2,3",
                  "multicycle survey --m 3 --n-max 5", "mycielski witness --n 6",
                  "keller alpha --d 2", "keller verify-fixture --table 5"] +
                 [f"conjecture {which}" for which in (2, 3, 4, 5, 9)]):
        code, out, err = run(capsys, argv.split() + ["--out", str(target)])
        assert (code, out, target.exists()) == (2, "", False), argv
        assert "unrecognized arguments: --out" in err, argv
    for which in (2, 3):
        code, _, err = run(capsys, ["conjecture", str(which),
                                    "--warm-start", "/nonexistent.coloring"])
        assert code == 2 and "unrecognized arguments: --warm-start" in err
    # a 1-based path end outside 1..19 names no vertex of mu(C_9)
    graph, cert = str(tmp_path / "m.col"), str(tmp_path / "p.seq")
    assert run(capsys, f"gen --family mycielski --n 9 --out {graph}".split())[0] == 0
    assert run(capsys, f"mycielski hampath --n 9 --from x1 --to z --out {cert}".split())[0] == 0
    for option, value in [("--start", "0"), ("--end", "-3"), ("--start", "20")]:
        code, out, err = run(capsys, ["verify", "hampath", "--graph", graph,
                                      "--certificate", cert, option, value])
        assert (code, out) == (2, "")
        assert err == f"error: {option} {value} is not a vertex id in 1..19\n"


def test_hampath_endpoint_mismatch_names_one_based_ids(tmp_path, capsys):
    # the file and the options both give 1-based ids, and so does the fail line
    graph, cert = str(tmp_path / "m.col"), str(tmp_path / "p.seq")
    assert run(capsys, f"gen --family mycielski --n 9 --out {graph}".split())[0] == 0
    assert run(capsys, f"mycielski hampath --n 9 --from x1 --to z --out {cert}".split())[0] == 0
    first, *_, last = (tmp_path / "p.seq").read_text().split()
    assert (first, last) == ("1", "19")
    code, payload, err = run_json(capsys, ["verify", "hampath", "--graph", graph,
                                           "--certificate", cert, "--start", "4", "--end", "2"])
    detail = ["path starts at 1, expected 4", "path ends at 19, expected 2"]
    assert (code, payload["ok"], payload["detail"]) == (1, False, detail)
    assert err == "".join(f"fail: {line}\n" for line in detail)


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


@pytest.mark.parametrize("name", ["x10", "x99", "x"])
def test_bad_mycielski_vertex_is_a_usage_error(capsys, name):
    # an index past n names no vertex: x10 at n = 9 must not be read as y1
    code, out, err = run(capsys, ["mycielski", "hampath", "--n", "9", "--from", name,
                                  "--to", "y6"])
    assert (code, out) == (2, "")
    assert err == f"error: vertex '{name}' is not one of z, x1..x9, y1..y9\n"


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
    ("hamcycle", "+1 2 4 3\n", None, 1),
    ("hampath", "1 2\n4 -3\n", None, 1),
    ("cover", "1 2\n3 4_0\n", None, 1),
    ("decomposition", "1 2 4 +3\n", None, 1),
    ("coloring", "c k=2\n1 2 1\n1 1 2\n", None, 1),
    ("decomposition", "1 2 4 3\n", "1 1\n", 1),
], ids=["hamcycle-ok", "hamcycle-token", "hampath-token", "cover-token",
        "matching-not-a-pair", "matching-token", "coloring-short-line",
        "coloring-without-k", "hamcycle-non-ascii", "coloring-comment-non-ascii",
        "cover-non-ascii", "matching-non-ascii", "hamcycle-sign", "hampath-minus",
        "cover-underscore", "decomposition-sign", "coloring-self-loop",
        "matching-self-loop"])
def test_verify_malformed_certificate_exits_1(tmp_path, capsys, request, kind, certificate,
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
    detail = VERIFIER_DETAIL.get(request.node.callspec.id)
    if detail is not None:
        assert json.loads(out)["detail"] == detail
        assert err == "".join(f"fail: {line}\n" for line in detail)
    elif code:
        assert err.startswith("verification failed:") and "line" in err


# rows the reader takes and the verifier fails, with their detail lines
VERIFIER_DETAIL = {
    "matching-self-loop": ["matching edge (0, 0) is a self loop", "matching is not perfect"],
}


@pytest.mark.parametrize("body,error", [
    ("c k=2\n1 2\n", "line 2: "),
    ("c k=2\n1 2 1\n", "warm start is not a proper total coloring: "),
], ids=["malformed", "improper"])
def test_failed_warm_start_exits_1(tmp_path, capsys, body, error):
    # a warm start is a certificate file: one the reader or the verifier
    # rejects is a failed check, reported in the JSON
    warm = tmp_path / "ws.coloring"
    warm.write_text(body)
    code, payload, err = run_json(capsys, ["color", "--m", "3", "--n", "7", "--construction",
                                           "kempe", "--warm-start", str(warm)])
    assert code == 1 and payload["ok"] is False
    assert payload["error"].startswith(error)
    assert err == f"verification failed: {payload['error']}\n"


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


def test_jobs_do_not_change_output(tmp_path, capsys):
    rows = [
        (["multicycle", "survey", "--m", "5,7", "--n-max", "13"], "4", None),
        (["conjecture", "2", "--m-max", "3", "--n-max", "6"], "2", None),
        (["conjecture", "5", "--m", "5,7", "--n-max", "15"], "2", "rows.csv"),
    ]
    for argv, jobs, csv in rows:
        outputs = []
        for j in ("1", jobs):
            extra = ["--csv", str(tmp_path / f"{j}-{csv}")] if csv else []
            code, out, _ = run(capsys, argv + extra + ["--jobs", j])
            assert code == 0 and out.strip()
            outputs.append(out + ((tmp_path / f"{j}-{csv}").read_text() if csv else ""))
        assert outputs[0] == outputs[1], argv


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


# --- pinned output ----------------------------------------------------------------------

# R(2,2) with one colour repeated at vertex 1: a certificate that reads but fails.
R22_CLASH = "c k=2\n1 2 1\n1 3 1\n2 4 2\n3 4 1\n"
# R(2,2) whose second 'c k=' line would raise the count: a malformed certificate.
R22_SECOND_K = "c k=1\n1 2 1\nc k=5\n2 4 5\n"

# (id, argv, commands run first, files written first, modes). A row whose JSON
# carries failure detail is pinned in text mode only.
PINNED = [
    ("gen-queen", "gen --family queen --m 3 --n 3", [], {}, "text json"),
    ("gen-queen-out", "gen --family queen --m 3 --n 4 --out q.col", [], {}, "text json"),
    ("gen-rook-out", "gen --family rook --m 3 --n 4 --out r.col", [], {}, "text json"),
    ("gen-bishop-out", "gen --family bishop --m 3 --n 4 --out b.col", [], {}, "text json"),
    ("gen-mycielski-out", "gen --family mycielski --n 5 --out m.col", [], {}, "text json"),
    ("gen-keller-out", "gen --family keller --d 2 --out k.col", [], {}, "text json"),
    ("gen-knight", "gen --family knight --m 3 --n 3", [], {}, "text json"),
    ("color-auto", "color --m 3 --n 3 --out q.coloring", [], {}, "text json"),
    ("color-even-union", "color --m 4 --n 4 --construction even-union --out q.coloring",
     [], {}, "text json"),
    ("color-square-odd", "color --m 5 --n 5 --construction square-odd --out q.coloring",
     [], {}, "text json"),
    ("color-ladder", "color --m 5 --n 9 --construction ladder-multicycle --out q.coloring",
     [], {}, "text json"),
    ("color-overfull", "color --m 3 --n 13 --construction overfull --out q.coloring",
     [], {}, "text json"),
    ("color-kempe", "color --m 3 --n 9 --construction kempe --out q.coloring",
     [], {}, "text json"),
    ("color-kempe-warm", "color --m 3 --n 9 --construction kempe --warm-start w.coloring "
     "--out q.coloring", ["color --m 3 --n 9 --out w.coloring"], {}, "text json"),
    ("queen-color", "queen color --m 3 --n 13", [], {}, "text json"),
    ("color-ladder-inapplicable", "color --m 3 --n 7 --construction ladder-multicycle "
     "--out q.coloring", [], {}, "text json"),
    ("color-kempe-overfull", "color --m 3 --n 13 --construction kempe --out q.coloring",
     [], {}, "text json"),
    ("color-kempe-budget", "color --m 3 --n 9 --construction kempe --budget-switches 1 "
     "--restarts 1 --out q.coloring", [], {}, "text json"),
    ("color-missing-n", "color --m 3", [], {}, "text json"),
    ("verify-coloring", "verify coloring --graph q.col --certificate q.coloring",
     ["gen --family queen --m 3 --n 5 --out q.col",
      "color --m 3 --n 5 --out q.coloring"], {}, "text json"),
    ("verify-coloring-clash", "verify coloring --graph r.col --certificate r.coloring",
     ["gen --family rook --m 2 --n 2 --out r.col"], {"r.coloring": R22_CLASH}, "text"),
    ("verify-coloring-malformed", "verify coloring --graph r.col --certificate r.coloring",
     ["gen --family rook --m 2 --n 2 --out r.col"], {"r.coloring": "1 2 1\n"}, "text json"),
    ("verify-coloring-second-k", "verify coloring --graph r.col --certificate r.coloring",
     ["gen --family rook --m 2 --n 2 --out r.col"], {"r.coloring": R22_SECOND_K}, "text json"),
    ("verify-hamcycle", "verify hamcycle --graph g.col --certificate c.seq",
     ["keller build --d 2 --out g.col", "keller hamcycle --d 2 --out c.seq"], {},
     "text json"),
    ("verify-hampath", "verify hampath --graph m.col --certificate p.seq --start 10 --end 15",
     ["gen --family mycielski --n 9 --out m.col",
      "mycielski hampath --n 9 --from y1 --to y6 --out p.seq"], {}, "text json"),
    ("verify-decomposition", "verify decomposition --graph g.col --certificate d.sets "
     "--matching p.sets", ["keller build --d 2 --out g.col",
                           "keller decompose --d 2 --out d.sets --matching-out p.sets"],
     {}, "text json"),
    ("verify-cover", "verify cover --graph g.col --certificate c.sets",
     ["keller build --d 3 --out g.col", "keller double-cover --d 2 --out c.sets"], {},
     "text json"),
    ("verify-missing-graph", "verify cover --graph absent.col --certificate c.sets", [],
     {"c.sets": "1 2\n"}, "text json"),
    ("multicycle-derive", "multicycle derive --m 5 --n 11", [], {}, "text json"),
    ("multicycle-chi", "multicycle chi --mult 3,5,3,4,4", [], {}, "text json"),
    ("multicycle-survey", "multicycle survey --m 5,7 --n-max 11", [], {}, "text json"),
    ("multicycle-survey-csv", "multicycle survey --m 5 --n-max 11 --csv s.csv", [], {},
     "text json"),
    ("mycielski-hampath", "mycielski hampath --n 9 --from y1 --to y6 --out p.seq", [], {},
     "text json"),
    ("mycielski-witness", "mycielski witness --n 6", [], {}, "text json"),
    ("mycielski-witness-odd", "mycielski witness --n 5", [], {}, "text json"),
    ("keller-build", "keller build --d 2", [], {}, "text"),
    ("keller-build-out", "keller build --d 2 --out g.col", [], {}, "text json"),
    ("keller-build-long", "keller build --d 6", [], {}, "text json"),
    ("keller-hamcycle", "keller hamcycle --d 2 --out c.seq", [], {}, "text json"),
    ("keller-edgecolor", "keller edgecolor --d 2 --out e.coloring", [], {}, "text json"),
    ("keller-square", "keller square --d 2 --flip 01 --out s.txt", [], {}, "text json"),
    ("keller-alpha", "keller alpha --d 3", [], {}, "text json"),
    ("keller-double-cover", "keller double-cover --d 2 --out c.sets", [], {}, "text json"),
    ("keller-decompose", "keller decompose --d 2 --out d.sets --matching-out p.sets", [],
     {}, "text json"),
    ("keller-decompose-budget", "keller decompose --d 2 --budget-switches 1 --out d.sets",
     [], {}, "text json"),
    ("keller-verify-fixture-1", "keller verify-fixture --table 1", [], {}, "text json"),
    ("keller-verify-fixture-5", "keller verify-fixture --table 5", [], {}, "text json"),
    ("conjecture-2", "conjecture 2 --m-max 2 --n-max 4", [], {}, "text json"),
    ("conjecture-3", "conjecture 3 --long-run --m 3 --n 5", [], {}, "text json"),
    ("conjecture-3-budget", "conjecture 3 --long-run --m 3 --n 5 --budget-switches 1 "
     "--restarts 1", [], {}, "text"),
    ("conjecture-4", "conjecture 4 --m 5 --n-max 11", [], {}, "text json"),
    ("conjecture-5-csv", "conjecture 5 --m 5 --n-max 11 --csv c.csv", [], {}, "text json"),
    ("conjecture-9", "conjecture 9 --d-max 3", [], {}, "text json"),
]

# sha256 prefixes of "<exit code>\n<stdout>" and of each file the command wrote
PINNED_DIGESTS = {
    "gen-queen-text": "a8ac0d7233a035cd",  # exit 0
    "gen-queen-json": "53c234e5e8472b6a",  # exit 2
    "gen-queen-out-text": "f4272efc8effa04f q.col=f42f0fcc0830d52c",  # exit 0
    "gen-queen-out-json": "073ee44a9959ceb5 q.col=f42f0fcc0830d52c",  # exit 0
    "gen-rook-out-text": "8167f82fef8de8f2 r.col=3c9f2fdeef576bbe",  # exit 0
    "gen-rook-out-json": "bae5725d4becd918 r.col=3c9f2fdeef576bbe",  # exit 0
    "gen-bishop-out-text": "b954bdc5fad1acd1 b.col=ac7671c042174561",  # exit 0
    "gen-bishop-out-json": "b9656c0e65605def b.col=ac7671c042174561",  # exit 0
    "gen-mycielski-out-text": "cf7243dd20622db5 m.col=7bf73fc6cea3db6e",  # exit 0
    "gen-mycielski-out-json": "d099b49f50930582 m.col=7bf73fc6cea3db6e",  # exit 0
    "gen-keller-out-text": "1c14d51ba51a7883 k.col=3ea03e65d31b6ed8",  # exit 0
    "gen-keller-out-json": "20435cbb9c5eabe5 k.col=3ea03e65d31b6ed8",  # exit 0
    "gen-knight-text": "53c234e5e8472b6a",  # exit 2
    "gen-knight-json": "53c234e5e8472b6a",  # exit 2
    "color-auto-text": "467207e681340171 q.coloring=7820ac3be5ec488b",  # exit 0
    "color-auto-json": "d1c1c793803d9f2a q.coloring=7820ac3be5ec488b",  # exit 0
    "color-even-union-text": "4c2c0fd596de72d0 q.coloring=bf60cd1048eb0395",  # exit 0
    "color-even-union-json": "0377c273cd4246ee q.coloring=bf60cd1048eb0395",  # exit 0
    "color-square-odd-text": "589b43801e27294b q.coloring=97868d87cc5423f9",  # exit 0
    "color-square-odd-json": "ddc3fc9ce4917ac3 q.coloring=97868d87cc5423f9",  # exit 0
    "color-ladder-text": "62eb7b71af6b5e08 q.coloring=0bf311343df4e082",  # exit 0
    "color-ladder-json": "347ccd5859851f60 q.coloring=0bf311343df4e082",  # exit 0
    "color-overfull-text": "7416d9090b05834e q.coloring=7bc957efd92f5863",  # exit 0
    "color-overfull-json": "59bc5b0ff1a6a958 q.coloring=7bc957efd92f5863",  # exit 0
    "color-kempe-text": "9ceee81b41256feb q.coloring=3f64231d3e622140",  # exit 0
    "color-kempe-json": "9bc938ab8fe47a8f q.coloring=3f64231d3e622140",  # exit 0
    "color-kempe-warm-text": "9ceee81b41256feb q.coloring=3f64231d3e622140",  # exit 0
    "color-kempe-warm-json": "9bc938ab8fe47a8f q.coloring=3f64231d3e622140",  # exit 0
    "queen-color-text": "7416d9090b05834e",  # exit 0
    "queen-color-json": "59bc5b0ff1a6a958",  # exit 0
    "color-ladder-inapplicable-text": "4355a46b19d348dc",  # exit 1
    "color-ladder-inapplicable-json": "60ff28c2535c5821",  # exit 1
    "color-kempe-overfull-text": "4355a46b19d348dc",  # exit 1
    "color-kempe-overfull-json": "1882fbf9a13882da",  # exit 1
    "color-kempe-budget-text": "1121cfccd5913f0a",  # exit 3
    "color-kempe-budget-json": "ba23b3573136ce9d",  # exit 3
    "color-missing-n-text": "53c234e5e8472b6a",  # exit 2
    "color-missing-n-json": "53c234e5e8472b6a",  # exit 2
    "verify-coloring-text": "df5f4b294af04289",  # exit 0
    "verify-coloring-json": "f135830f6a1280a5",  # exit 0
    "verify-coloring-clash-text": "e04246f9cba4bad8",  # exit 1
    "verify-coloring-malformed-text": "4355a46b19d348dc",  # exit 1
    "verify-coloring-malformed-json": "32c0335747b17488",  # exit 1
    "verify-coloring-second-k-text": "4355a46b19d348dc",  # exit 1
    "verify-coloring-second-k-json": "49f3fdd9d2e215be",  # exit 1
    "verify-hamcycle-text": "84d1628259a587ea",  # exit 0
    "verify-hamcycle-json": "734fc8e79c4da7db",  # exit 0
    "verify-hampath-text": "a6178fc55cd8b237",  # exit 0
    "verify-hampath-json": "f45e2c633a451ab2",  # exit 0
    "verify-decomposition-text": "5a1d097108878256",  # exit 0
    "verify-decomposition-json": "05cde12518d77b03",  # exit 0
    "verify-cover-text": "84d1628259a587ea",  # exit 0
    "verify-cover-json": "091749219a9885a5",  # exit 0
    "verify-missing-graph-text": "53c234e5e8472b6a",  # exit 2
    "verify-missing-graph-json": "53c234e5e8472b6a",  # exit 2
    "multicycle-derive-text": "cc998a11e8ba20be",  # exit 0
    "multicycle-derive-json": "a8ee7ebc79b7e438",  # exit 0
    "multicycle-chi-text": "f8a0f6a7582d3009",  # exit 0
    "multicycle-chi-json": "7de2eca286e940c8",  # exit 0
    "multicycle-survey-text": "4c019c3b0de43228",  # exit 0
    "multicycle-survey-json": "6165c0f89bad9d47",  # exit 0
    "multicycle-survey-csv-text": "9a271f2a916b0b6e s.csv=c4e56ce44ac8f5e1",  # exit 0
    "multicycle-survey-csv-json": "ea14e4928587b50f s.csv=c4e56ce44ac8f5e1",  # exit 0
    "mycielski-hampath-text": "58d0fe867920c20e p.seq=046f789d75157aee",  # exit 0
    "mycielski-hampath-json": "8ac0d67e2e6eecd0 p.seq=046f789d75157aee",  # exit 0
    "mycielski-witness-text": "39a6582e017ff54c",  # exit 0
    "mycielski-witness-json": "25915b756b392377",  # exit 0
    "mycielski-witness-odd-text": "53c234e5e8472b6a",  # exit 2
    "mycielski-witness-odd-json": "53c234e5e8472b6a",  # exit 2
    "keller-build-text": "5323cfdfb10ab524",  # exit 0
    "keller-build-out-text": "1c14d51ba51a7883 g.col=61559173ea31c942",  # exit 0
    "keller-build-out-json": "20435cbb9c5eabe5 g.col=61559173ea31c942",  # exit 0
    "keller-build-long-text": "53c234e5e8472b6a",  # exit 2
    "keller-build-long-json": "53c234e5e8472b6a",  # exit 2
    "keller-hamcycle-text": "a1b1d494d605d6a1 c.seq=050839c05a18cdb3",  # exit 0
    "keller-hamcycle-json": "dfbb776e3a65912d c.seq=050839c05a18cdb3",  # exit 0
    "keller-edgecolor-text": "f18362fd2ec3bef7 e.coloring=7dc77a0812a6bc98",  # exit 0
    "keller-edgecolor-json": "1e408d087d019ec0 e.coloring=7dc77a0812a6bc98",  # exit 0
    "keller-square-text": "8b2b2612fc5f8194 s.txt=b2c6fade54fbc7d5",  # exit 0
    "keller-square-json": "8e45b0927d61b736 s.txt=b2c6fade54fbc7d5",  # exit 0
    "keller-alpha-text": "e3a06c3ed263c89f",  # exit 0
    "keller-alpha-json": "78af6222874a50a9",  # exit 0
    "keller-double-cover-text": "58d2435e3d54cf44 c.sets=e8682da15a764535",  # exit 0
    "keller-double-cover-json": "9553c601ef94c6ee c.sets=e8682da15a764535",  # exit 0
    "keller-decompose-text": "0a68e83af4233bca d.sets=4a6ad253ea045726 p.sets=f1076366ff98ac71",  # exit 0
    "keller-decompose-json": "4d7da4f985cd040d d.sets=4a6ad253ea045726 p.sets=f1076366ff98ac71",  # exit 0
    "keller-decompose-budget-text": "1121cfccd5913f0a",  # exit 3
    "keller-decompose-budget-json": "e677184915197d39",  # exit 3
    "keller-verify-fixture-1-text": "219ab10118c513ef",  # exit 0
    "keller-verify-fixture-1-json": "099982ecd5814ec6",  # exit 0
    "keller-verify-fixture-5-text": "a7998f32010a48d3",  # exit 0
    "keller-verify-fixture-5-json": "90adf89378544adf",  # exit 0
    "conjecture-2-text": "dc1dc5733fa3e4f6",  # exit 0
    "conjecture-2-json": "e8a3a5116ea23697",  # exit 0
    "conjecture-3-text": "08d136964546d95f",  # exit 0
    "conjecture-3-json": "d799cb6627cde00b",  # exit 0
    "conjecture-3-budget-text": "0d5f39b154f8aca1",  # exit 3
    "conjecture-4-text": "c4928abef7d3138d",  # exit 0
    "conjecture-4-json": "ea14e4928587b50f",  # exit 0
    "conjecture-5-csv-text": "c4928abef7d3138d c.csv=c4e56ce44ac8f5e1",  # exit 0
    "conjecture-5-csv-json": "ea14e4928587b50f c.csv=c4e56ce44ac8f5e1",  # exit 0
    "conjecture-9-text": "cd031d208de2dd45",  # exit 0
    "conjecture-9-json": "876237a2b754a6d5",  # exit 0
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("argv,setup,files", [
    pytest.param(f"{argv} --json" if mode == "json" else argv, setup, files,
                 id=f"{name}-{mode}")
    for name, argv, setup, files, modes in PINNED for mode in modes.split()])
def test_cli_output_is_pinned(tmp_path, monkeypatch, capsys, request, argv, setup, files):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for command in setup:
        assert run(capsys, command.split())[0] == 0
    before = set(tmp_path.iterdir())
    code, out, _ = run(capsys, argv.split())
    written = sorted(set(tmp_path.iterdir()) - before)
    got = " ".join([_digest(f"{code}\n{out}".encode())] +
                   [f"{p.name}={_digest(p.read_bytes())}" for p in written])
    assert got == PINNED_DIGESTS[request.node.callspec.id]


# --- failure contract -------------------------------------------------------------------

FAILED = VerificationReport(False, 0, None, ("first reason", "second reason"))


@pytest.mark.parametrize("module,name,argv", [
    (cli, "verify_edge_coloring", "color --m 3 --n 5 --out q.coloring"),
    (cli, "verify_multicycle_coloring", "multicycle chi --mult 3,5,3,4,4"),
    (cli, "verify_hamiltonian_path", "mycielski hampath --n 9 --from y1 --to y6 --out p.seq"),
    (cli, "verify_hamiltonian_cycle", "keller hamcycle --d 2 --out c.seq"),
    (cli, "verify_edge_coloring", "keller edgecolor --d 2 --out e.coloring"),
    (keller, "verify_cover_by_rule", "keller double-cover --d 2 --out c.sets"),
    (keller, "verify_square_by_rule", "keller square --d 2 --flip 01 --out s.txt"),
    (cli, "verify_hamiltonian_decomposition",
     "keller decompose --d 2 --out d.sets --matching-out p.sets"),
    (cli, "verify_edge_coloring", "color --m 5 --n 5 --out q.coloring"),
    (cli, "verify_edge_coloring", "color --m 3 --n 7 --out q.coloring"),
], ids=["color", "multicycle-chi", "mycielski-hampath", "keller-hamcycle", "keller-edgecolor",
        "keller-double-cover", "keller-square", "keller-decompose", "color-square-odd",
        "color-kempe"])
def test_failed_verification_is_reported_and_writes_nothing(tmp_path, monkeypatch, capsys,
                                                            module, name, argv):
    (tmp_path / "ok").mkdir()
    (tmp_path / "failed").mkdir()
    monkeypatch.chdir(tmp_path / "ok")
    code, verified_text, _ = run(capsys, argv.split())
    assert code == 0
    # the real verifier's report, failed: it keeps the Delta that the colour
    # count is checked against
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: dataclasses.replace(
        real(*args, **kwargs), ok=False, detail=FAILED.detail))
    monkeypatch.chdir(tmp_path / "failed")
    expected_err = "".join(f"fail: {line}\n" for line in FAILED.detail)
    code, text, err = run(capsys, argv.split())
    assert (code, text, err) == (1, verified_text, expected_err)
    code, payload, err = run_json(capsys, argv.split())
    assert (code, err) == (1, expected_err)
    assert payload["ok"] is False and payload["detail"] == list(FAILED.detail)
    assert list((tmp_path / "failed").iterdir()) == []


def test_square_with_two_cells_swapped_names_the_lines(tmp_path, monkeypatch, capsys):
    # swapped inside row 0, vertices 1 and 2 leave the rows independent but
    # each lands in a column that holds a neighbour of it
    real = keller.independence_square

    def swapped(d):
        grid = real(d)
        grid[0, [1, 2]] = grid[0, [2, 1]]
        return grid
    monkeypatch.setattr(keller, "independence_square", swapped)
    monkeypatch.chdir(tmp_path)
    code, payload, err = run_json(capsys, "keller square --d 3 --out s.txt".split())
    assert code == 1 and payload["ok"] is False
    assert payload["detail"][0] == "column 1 holds edge (2,4)"
    assert {line.split(" holds")[0] for line in payload["detail"]} == {"column 1", "column 2"}
    assert err == "".join(f"fail: {line}\n" for line in payload["detail"])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,colors", [
    ("color --m 3 --n 5 --out q.coloring", 10),
    ("color --m 3 --n 13 --out q.coloring", 19),
    ("keller edgecolor --d 2 --out e.coloring", 5),
    ("color --m 5 --n 5 --out q.coloring", 16),
], ids=["color-class1", "color-class2", "keller-edgecolor", "color-square-odd"])
def test_wrong_color_count_is_named(tmp_path, monkeypatch, capsys, argv, colors):
    # the construction declares one colour more than it uses: the colouring
    # verifies, and the count is checked against Delta read off the graph
    def one_more(coloring):
        return EdgeColoring.from_arrays(coloring.ends, coloring.colors,
                                        coloring.declared_color_count + 1)

    if argv.startswith("keller"):
        real = keller.class1_coloring
        monkeypatch.setattr(keller, "class1_coloring", lambda d: one_more(real(d)))
    else:
        real_cert = cli.classify_and_color
        monkeypatch.setattr(cli, "classify_and_color", lambda *args, **kwargs: dataclasses.replace(
            cert := real_cert(*args, **kwargs), coloring=one_more(cert.coloring)))
    monkeypatch.chdir(tmp_path)
    code, payload, err = run_json(capsys, argv.split())
    detail = [f"declares {colors + 1} colors, expected {colors}"]
    assert code == 1 and payload["ok"] is False and payload["detail"] == detail
    assert err == f"fail: {detail[0]}\n"
    assert list(tmp_path.iterdir()) == []


def test_conjecture2_checks_the_declared_color_count(monkeypatch, capsys):
    # a Vizing colouring labelled class 1 verifies, but declares Δ+1 colours
    monkeypatch.setattr(cli, "classify_and_color", lambda m, n, budget, graph: (
        QueenColoringCertificate(m, n, vizing_delta_plus_one(graph).coloring(graph.pairs), 1,
                                 "vizing")))
    code, payload, err = run_json(capsys, "conjecture 2 --m-max 2 --n-max 3".split())
    assert code == 1 and payload["ok"] is False
    assert payload["detail"] == ["Q_1,3: predicted class 2, colored as class 1",
                                 "Q_1,3: declares 3 colors, expected 2",
                                 "Q_2,2: declares 4 colors, expected 3",
                                 "Q_2,3: declares 6 colors, expected 5"]
    assert err == "".join(f"fail: {line}\n" for line in payload["detail"])


def test_invalid_input_cover_is_a_failed_check(tmp_path, monkeypatch, capsys):
    # pairs (2i, 2i + 1) of G_2 are not edges: doubling keeps them in the
    # cliques of G_3, so the check of the doubled cover fails
    monkeypatch.setattr(cli, "_source_cover", lambda args, d: [[2 * i, 2 * i + 1]
                                                               for i in range(8)])
    monkeypatch.chdir(tmp_path)
    code, payload, err = run_json(capsys, "keller double-cover --d 2 --out c.sets".split())
    assert code == 1 and payload["ok"] is False
    assert payload["detail"][0] == "clique 0 misses edge (0,1)"
    assert err == "".join(f"fail: {line}\n" for line in payload["detail"])
    assert list(tmp_path.iterdir()) == []


def test_no_mycielski_template_is_a_failed_check(monkeypatch, capsys):
    monkeypatch.setattr(mycielski, "_candidate", lambda n, p, q: None)
    code, payload, err = run_json(capsys, "mycielski hampath --n 9 --from y1 --to y6".split())
    assert code == 1 and payload["ok"] is False
    assert err == "verification failed: no template applies to y1 -> y6 in mu(C_9)\n"


@pytest.mark.parametrize("edge,premise", [((6, 8), "(b)"), ((0, 12), "(a)"), ((0, 8), "(c)")],
                         ids=["y-y", "z-x1", "x-y-equal-parity"])
def test_failed_parity_premise_is_a_failed_check(monkeypatch, capsys, edge, premise):
    # y1 y3, z x1 and x1 y3 of mu(C_6): each breaks one premise of the parity count
    build = mycielski.mycielskian
    monkeypatch.setattr(mycielski, "mycielskian", lambda g: core.Graph.from_array(
        2 * g.vertex_count + 1, np.concatenate((build(g).pairs, [edge]))))
    code, payload, err = run_json(capsys, "mycielski witness --n 6".split())
    assert code == 1 and payload["ok"] is False
    assert payload["error"].startswith(f"premise {premise} fails")
    assert err == f"verification failed: {payload['error']}\n"


# the verifiers of the certificates the CLI emits
CERTIFICATE_VERIFIERS = [(core, "verify_edge_coloring"), (core, "verify_hamiltonian_cycle"),
                         (core, "verify_hamiltonian_path"),
                         (core, "verify_hamiltonian_decomposition"),
                         (core, "verify_clique_cover"), (keller, "verify_cover_by_rule"),
                         (keller, "verify_square_by_rule"),
                         (multicycle, "verify_multicycle_coloring")]


@pytest.mark.parametrize("argv,verifier,times", [
    ("color --m 3 --n 7", "verify_edge_coloring", 1),
    ("color --m 5 --n 5", "verify_edge_coloring", 1),
    ("color --m 5 --n 7", "verify_edge_coloring", 1),
    ("keller decompose --d 2", "verify_hamiltonian_decomposition", 1),
    ("mycielski hampath --n 9 --from y1 --to y6", "verify_hamiltonian_path", 1),
    ("keller verify-fixture --table 5", "verify_cover_by_rule", 1),
    ("keller verify-fixture --table 6", "verify_cover_by_rule", 1),
    ("keller double-cover --d 2", "verify_cover_by_rule", 1),
    ("keller square --d 3 --flip 001", "verify_square_by_rule", 1),
    ("multicycle chi --mult 3,5,3,4,4", "verify_multicycle_coloring", 1),
    # one row per odd 3 <= m <= n <= 11: five for m = 3, four for m = 5
    ("multicycle survey --m 3,5 --n-max 11", "verify_multicycle_coloring", 9),
], ids=["color-kempe", "color-square-odd", "color-ladder", "keller-decompose",
        "mycielski-hampath", "keller-fixture-table5", "keller-fixture-table6",
        "keller-double-cover", "keller-square", "multicycle-chi", "multicycle-survey"])
def test_each_result_is_verified_once(monkeypatch, capsys, argv, verifier, times):
    # Each verifier is counted under every name a graphcert module binds it to.
    # A verifier that calls another (a decomposition checks each cycle) counts once.
    calls = []
    depth = [0]

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if not depth[0]:
                calls.append(name)
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    wrappers = {}
    for module, name in CERTIFICATE_VERIFIERS:
        fn = getattr(module, name)
        wrappers[id(fn)] = (fn, counted(name, fn))
    for modname, module in list(sys.modules.items()):
        if modname == "graphcert" or modname.startswith("graphcert."):
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    monkeypatch.setattr(module, attr, hit[1])
    assert run(capsys, argv.split())[0] == 0
    assert calls == [verifier] * times
