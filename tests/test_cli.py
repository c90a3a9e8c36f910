import json

import pytest

import zirkit
from zirkit import cli, profiles
from zirkit.cli import main
from zirkit.profiles import PARAM_NAMES, CheckReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_public_names_resolve():
    assert [name for name in zirkit.__all__ if not hasattr(zirkit, name)] == []
    assert len(set(zirkit.__all__)) == len(zirkit.__all__)


def test_compute_family_profile(capsys):
    code, out, _ = run_cli(capsys, "compute", "--family", "h_rs:3,5",
                           "--params", "zir,Z,Zbar,ZIR", "--witness")
    assert code == 0
    row = json.loads(out.strip())
    assert (row["zir"], row["Z"], row["Zbar"], row["ZIR"]) == (2, 3, 4, 5)
    assert set(row["witnesses"]) == {"zir", "Z", "Zbar", "ZIR"}


def test_compute_graph6_csv(capsys):
    code, out, _ = run_cli(capsys, "compute", "--graph6", "D?{",
                           "--params", "Z,gamma", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "graph,n,Z,gamma"
    assert lines[1].startswith("D?{,5,")


def test_compute_drops_repeated_params(capsys):
    code, out, _ = run_cli(capsys, "compute", "--graph6", "D?{",
                           "--params", "zir,Z,zir", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "graph,n,zir,Z"


def test_compute_file_input(capsys, tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_text("# two graphs\nA_\nD?{\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "compute", "--file", str(path), "--params", "Z")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["graph"] for r in rows] == ["A_", "D?{"]


def test_compute_check_bounds_flag(capsys):
    code, out, _ = run_cli(capsys, "compute", "--family", "necklace:2",
                           "--check-bounds")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    profile_rows = [r for r in rows if "check" not in r]
    check_rows = [r for r in rows if "check" in r]
    assert len(profile_rows) == 1 and check_rows
    assert {r["status"] for r in check_rows} <= {"pass", "skip"}
    assert any(r["check"] == "chain" for r in check_rows)


def test_compute_cut_vertex_row(capsys):
    # the centre of F_3 cuts off three edges, each of ZIR 1
    code, out, _ = run_cli(capsys, "compute", "--family", "friendship:3", "--check-bounds")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r for r in rows if r.get("check") == "cut-vertex"] == [
        {"check": "cut-vertex", "detail": "ZIR=4 >= 2 (cut vertex 0)",
         "scope": "friendship:3", "status": "pass"}]


def test_compute_csv_names_failed_checks(capsys, monkeypatch):
    # CSV has no row for a check, so a failed one is named on stderr
    failing = CheckReport("chain", "D?{", "fail", "zir=1 Z=2 Zbar=1 ZIR=2")
    monkeypatch.setattr(cli, "check_bounds", lambda *args: [failing])
    code, out, err = run_cli(capsys, "compute", "--check-bounds", "--format", "csv",
                             "--graph6", "D?{")
    assert code == 1
    assert out.splitlines()[0].startswith("graph,n,zir,Z,Zbar,ZIR")
    assert err == "zirkit compute: check chain failed on D?{: zir=1 Z=2 Zbar=1 ZIR=2\n"


def test_module_entry_point():
    import os
    import subprocess
    import sys
    from pathlib import Path
    # run the package under test, not whichever zirkit the interpreter finds
    src = str(Path(zirkit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "zirkit", "compute", "--family", "cycle:5",
         "--params", "Z"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert json.loads(proc.stdout.strip())["Z"] == 2


def test_compute_rejects_two_sources(capsys):
    code, _, err = run_cli(capsys, "compute", "--graph6", "A_", "--family", "path:3")
    assert code == 2 and "exactly one" in err


def test_compute_unknown_family_exit_two(capsys):
    code, _, err = run_cli(capsys, "compute", "--family", "zigzag:3")
    assert code == 2 and "unknown family" in err


def test_compute_malformed_graph6_exit_two(capsys):
    code, _, err = run_cli(capsys, "compute", "--graph6", "F?????")
    assert code == 2 and "graph6" in err.lower()


def test_forts_minimal_cycle(capsys):
    code, out, _ = run_cli(capsys, "forts", "--family", "cycle:5", "--minimal")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 5
    assert all(r["size"] == 3 for r in rows)


def test_table_default_passes(capsys):
    code, out, err = run_cli(capsys, "table", "--format", "csv")
    assert code == 0
    assert "MISMATCH" not in out
    assert "0 mismatch(es)" in err


def test_table_custom_specs(capsys):
    # wheel:4 has no closed form, so it adds no row
    code, out, _ = run_cli(capsys, "table", "--specs", "cycle:6;path:7;wheel:4",
                           "--format", "jsonl")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert {r["spec"] for r in rows} == {"cycle:6", "path:7"}
    assert all(r["ok"] for r in rows)


def test_table_csv_parses_with_quoted_specs(capsys):
    import csv as csv_module
    import io
    code, out, _ = run_cli(capsys, "table", "--specs",
                           "complete_bipartite:2,3", "--format", "csv")
    assert code == 0
    rows = list(csv_module.reader(io.StringIO(out)))
    assert rows[0] == ["spec", "graph6", "n", "param", "expected",
                       "computed", "status"]
    assert all(r[0] == "complete_bipartite:2,3" for r in rows[1:])
    assert {r[3] for r in rows[1:]} == {"zir", "Z", "Zbar", "ZIR"}


def test_survey_run_and_exit_zero(capsys):
    code, out, err = run_cli(capsys, "survey", "--order", "4",
                             "--checks", "chain,zir1-characterization")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert all(l["status"] in ("pass", "info") for l in lines)
    assert "chain" in err


def test_survey_threads_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "survey", "--order", "4")
    code2, out2, _ = run_cli(capsys, "survey", "--order", "4", "--threads", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_survey_budget_exit_two(capsys):
    code, _, err = run_cli(capsys, "survey", "--order", "7")
    assert code == 2 and "budget" in err


def test_survey_order7_with_override_accepted():
    # only checks argument validation, not a full run: with the override,
    # order 7 passes the budget and then meets the zero time limit
    from zirkit.survey import survey
    from zirkit.errors import BudgetError
    with pytest.raises(BudgetError, match="override"):
        survey(7, checks=("chain",), override_budget=False)
    with pytest.raises(BudgetError, match="survey exceeded the time limit"):
        survey(7, checks=("chain",), override_budget=True, time_limit=0)


def test_convert_round_trip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "convert", "--family", "cycle:4", "--to", "edges")
    assert code == 0
    path = tmp_path / "c4.edges"
    path.write_text(out, encoding="utf-8")
    code, out2, _ = run_cli(capsys, "convert", "--edges", str(path), "--to", "graph6")
    assert code == 0
    code, out3, _ = run_cli(capsys, "convert", "--graph6", out2.strip(), "--to", "edges")
    assert code == 0
    assert [l for l in out.splitlines() if not l.startswith("#")] == \
        [l for l in out3.splitlines() if not l.startswith("#")]


def test_convert_missing_file_exit_two(capsys):
    code, _, err = run_cli(capsys, "convert", "--edges", "/nonexistent/x.edges",
                           "--to", "graph6")
    assert code == 2 and err


def test_printed_witnesses_reverify(capsys):
    # feed the CLI output back into the predicates it claims to satisfy
    from zirkit.families import generate
    from zirkit.forcing import closure, is_minimal_zfs, is_zero_forcing_set
    from zirkit.graphs import bits, mask_of
    from zirkit.irredundance import is_maximal_zir_set

    for expr in ("cycle:6", "h_rs:2,3", "fig7"):
        code, out, _ = run_cli(capsys, "compute", "--family", expr,
                               "--params", "zir,Z,Zbar,ZIR,gamma,gamma2,alpha,gammaP",
                               "--witness")
        assert code == 0
        row = json.loads(out.strip())
        g = generate(expr)
        wit = {k: mask_of(v) for k, v in row["witnesses"].items()}
        assert is_zero_forcing_set(g, wit["Z"])
        assert is_minimal_zfs(g, wit["Zbar"])
        assert is_maximal_zir_set(g, wit["zir"])
        assert is_maximal_zir_set(g, wit["ZIR"])
        for k, need in (("gamma", 1), ("gamma2", 2)):
            outside = g.full & ~wit[k]
            assert all((g.adj[v] & wit[k]).bit_count() >= need for v in bits(outside))
        assert all(not g.adj[v] & wit["alpha"] for v in bits(wit["alpha"]))
        seed = wit["gammaP"]
        for v in bits(wit["gammaP"]):
            seed |= g.adj[v]
        assert closure(g, seed) == g.full


def test_table_mismatch_exit_one(capsys, monkeypatch):
    import zirkit.cli as cli
    from zirkit.tables import TableRow

    def fake_table(specs=None, max_order=15, time_limit=None):
        return [TableRow(spec="cycle:6", graph6="E", n=6, param="ZIR",
                         expected=3, computed=4)]

    monkeypatch.setattr(cli, "family_table", fake_table)
    code, out, err = run_cli(capsys, "table")
    assert code == 1
    assert "MISMATCH" in out and "1 mismatch(es)" in err


def test_survey_failure_exit_one(capsys, monkeypatch):
    import zirkit.cli as cli
    from zirkit.profiles import CheckReport
    from zirkit.survey import SurveyReport

    def fake_survey(order, **kwargs):
        report = SurveyReport(max_order=order, connected_only=False,
                              dedup=False, checks=("chain",))
        report.reports.append(CheckReport("chain", "order 2", "fail", "boom"))
        return report

    monkeypatch.setattr(cli, "survey", fake_survey)
    code, _, _ = run_cli(capsys, "survey", "--order", "2")
    assert code == 1


def test_time_limit_exceeded_exit_two(capsys):
    code, _, err = run_cli(capsys, "survey", "--order", "5",
                           "--time-limit", "0.0001")
    assert code == 2 and "time limit" in err


def test_time_limit_exceeded_with_pool_exit_two(capsys):
    # the pool starts at order 7, after about 50 ms in process, and runs
    # orders 7 and 8 for about 3 s
    code, _, err = run_cli(capsys, "survey", "--order", "8", "--override-budget",
                           "--threads", "2", "--time-limit", "0.15")
    assert code == 2 and "time limit" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_compute_time_limit_is_read_between_parameters(capsys):
    # zir alone takes about 0.1 s on the slowest graph of
    # tests/data/dense_gnp.g6, so the limit has passed before Z starts
    code, out, err = run_cli(capsys, "compute", "--graph6", r"NYUjFPHC{Z_\fzLFbww",
                             "--time-limit", "0.01")
    assert code == 2 and not out
    assert len(err.splitlines()) == 1 and "time limit" in err


@pytest.mark.parametrize("limit", ["nan", "-1"])
@pytest.mark.parametrize("argv", [
    ["compute", "--graph6", "D?{"],
    ["forts", "--graph6", "D?{"],
    ["table", "--specs", "cycle:5"],
    ["survey", "--order", "3", "--threads", "1"],
    ["survey", "--order", "3", "--threads", "2"],
], ids=["compute", "forts", "table", "survey-1", "survey-2"])
def test_bad_time_limit_exit_two(capsys, argv, limit):
    code, out, err = run_cli(capsys, *argv, "--time-limit", limit)
    assert code == 2 and not out
    assert len(err.splitlines()) == 1 and "time limit must be" in err


@pytest.mark.parametrize("order", ["0", "-1"])
@pytest.mark.parametrize("argv", [["compute", "--graph6", "A_"],
                                  ["table", "--specs", "cycle:5"]], ids=["compute", "table"])
def test_max_order_below_one_exit_two(capsys, argv, order):
    # below 1 every graph would be over the budget: compute would print
    # rows with every parameter omitted, and table would refuse every spec
    code, out, err = run_cli(capsys, *argv, "--max-order", order)
    assert code == 2 and not out
    assert err == f"zirkit {argv[0]}: max order must be at least 1, got {order}\n"


def test_omitted_profile_runs_no_solver(capsys, monkeypatch):
    # past --max-order no check runs, since each one reads a solver fact
    monkeypatch.delattr(profiles, "maximal_zir_sets")  # a call raises NameError
    code, out, err = run_cli(capsys, "compute", "--family", "cycle:6", "--max-order", "5",
                             "--check-bounds")
    [row] = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and not err and row["omitted"] == list(PARAM_NAMES) and "zir" not in row


def test_infinite_time_limit_is_no_limit(capsys):
    code, _, _ = run_cli(capsys, "compute", "--graph6", "D?{", "--time-limit", "inf")
    assert code == 0


@pytest.mark.parametrize("command", ["compute", "forts"])
def test_file_time_limit_exit_two(capsys, tmp_path, command):
    path = tmp_path / "graphs.g6"
    path.write_text("A_\nD?{\nD~{\n", encoding="utf-8")
    code, out, err = run_cli(capsys, command, "--file", str(path), "--time-limit", "0")
    assert code == 2 and not out
    assert len(err.splitlines()) == 1 and "time limit" in err


def test_compute_prints_finished_graphs_before_the_time_limit(capsys, tmp_path):
    # D?{ takes a few ms; zir alone takes about 0.5 s on the G(18, 0.6)
    # graph after it, so the limit trips inside the second graph
    code, first, _ = run_cli(capsys, "compute", "--graph6", "D?{")
    assert code == 0
    path = tmp_path / "graphs.g6"
    path.write_text("D?{\nQMtyyN\\PgvwJz|shYGZTlR||OUw\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "compute", "--file", str(path), "--max-order", "18",
                             "--time-limit", "0.1")
    assert code == 2 and out == first
    assert len(err.splitlines()) == 1 and "time limit" in err


def test_usage_error_exits_two_without_traceback(capsys):
    code, out, err = run_cli(capsys, "compute", "--format", "xml")
    assert code == 2 and not out and "Traceback" not in err
    assert err.splitlines()[-1].startswith("zirkit compute: error: argument --format")


def test_convert_edge_list_past_graph6_order(capsys, tmp_path):
    # an edge list up to the 64-vertex cap needs no graph6 unless asked for
    path = tmp_path / "p63.edges"
    path.write_text("n 63\n" + "".join(f"{v} {v + 1}\n" for v in range(62)),
                    encoding="utf-8")
    code, out, _ = run_cli(capsys, "convert", "--edges", str(path), "--to", "edges")
    assert code == 0
    assert out.splitlines()[1:] == path.read_text(encoding="utf-8").splitlines()
    code, out, err = run_cli(capsys, "convert", "--edges", str(path), "--to", "graph6")
    assert code == 2 and not out and "62" in err


@pytest.mark.parametrize("argv, text", [
    (["survey", "--order", "3", "--checks", "bogus"], None),
    (["survey", "--order", "3", "--threads", "0"], None),
    (["survey", "--order", "3", "--threads", "-1"], None),
    (["convert", "--to", "graph6", "--edges", "{file}"], "n 3\n0 x\n"),
    (["convert", "--to", "graph6", "--edges", "{file}"], "n 3\n0 5\n"),
    (["convert", "--to", "graph6", "--edges", "{file}"], "n 3\n0 0\n"),
    (["convert", "--to", "graph6", "--edges", "{file}"], "n 0\n"),
    (["forts", "--file", "{dir}"], None),
    (["survey", "--order", "3", "--checks", ","], None),
    (["survey", "--order", "3", "--checks", ""], None),
    (["table", "--specs", "path:20"], None),  # above the solver budget
    (["table", "--specs", "cycle:7", "--max-order", "5"], None),
    (["compute", "--family", "path:" + "9" * 5000], None),  # past int()'s digit limit
    (["compute", "--graph6", "A_", "--params", ""], None),
    (["compute", "--graph6", "A_", "--params", ","], None),
    (["survey", "--order", "0"], None),
    (["convert", "--to", "graph6", "--edges", "{file}"], ""),
    (["compute", "--family", "join"], None),
    (["forts", "--family", "path:21"], None),  # past fort enumeration's budget
    (["compute", "--file", "{file}"], "A_\nA_\n# three\nxyz\n"),  # names line 4
    (["convert", "--to", "graph6", "--edges", "{file}"], b"n 3\n0 1 \xff\n"),  # not UTF-8
])
def test_bad_input_exit_two_without_traceback(capsys, tmp_path, argv, text):
    # a bad file's error names the file, and the line where there is one
    path = tmp_path / "graph.edges"
    if text is not None:
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
    argv = [a.format(file=path, dir=tmp_path) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    if text is not None:
        assert err.startswith(f"zirkit {argv[0]}: {path}:"), err
    if argv[:2] == ["compute", "--file"]:
        assert err.startswith(f"zirkit compute: {path}:4: truncated graph6 data"), err
