"""Tests of the benchmark itself: corpus, checker, spans and counters.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import corpus  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, self_times_ns, span_tree  # noqa: E402
from zirkit import exact_params, generate, parse_graph6, to_graph6  # noqa: E402


def test_corpus_is_identical_for_a_seed():
    assert corpus.solve_corpus(7) == corpus.solve_corpus(7)
    assert corpus.audit_corpus(7) == corpus.audit_corpus(7)
    assert corpus.survey_probe_corpus(7) == corpus.survey_probe_corpus(7)
    assert corpus.solve_corpus(7) != corpus.solve_corpus(8)
    assert corpus.audit_corpus(7) != corpus.audit_corpus(8)


def test_corpus_shape():
    solve = corpus.solve_corpus(1)
    assert len(solve) == 8 + 16 * corpus.SOLVE_PER_STRATUM == 168
    assert set(corpus.FAMILIES) <= {label for label, _ in solve}
    assert all(12 <= parse_graph6(g6).n <= 15 for _, g6 in solve)
    audit = corpus.audit_corpus(1)
    assert len(audit) == 1008
    assert all(8 <= parse_graph6(g6).n <= 10 for _, g6 in audit)
    assert corpus.SURVEY_GRAPHS == 33867


def _program_output(g):
    call = workloads.call_cli(workloads.COMPUTE_ARGV + [to_graph6(g)])
    return call.rc, call.stdout.splitlines()


def _with_profile(lines, edit) -> str:
    profile = json.loads(lines[0])
    edit(profile)
    return "\n".join([json.dumps(profile)] + lines[1:])


# Z = 2 < Zbar = 4, so a forcing set of Zbar's size need not be minimal.
GRAPH = generate("corona(cycle:4,empty:1)")


def test_checker_accepts_program_output():
    rc, lines = _program_output(GRAPH)
    assert reference.check_compute(GRAPH.adj, exact_params(GRAPH), rc,
                                   "\n".join(lines)) == []


def test_checker_rejects_a_wrong_value():
    rc, lines = _program_output(GRAPH)

    def bump(profile):
        profile["gamma"] += 1
    problems = reference.check_compute(GRAPH.adj, exact_params(GRAPH), rc,
                                       _with_profile(lines, bump))
    assert any(p.startswith("gamma=") for p in problems)


def test_checker_rejects_a_non_minimal_zbar_witness():
    expected = exact_params(GRAPH)
    assert expected["Z"] < expected["Zbar"]
    adj = GRAPH.adj
    forcing_not_minimal = next(
        m for m in range(GRAPH.full + 1)
        if m.bit_count() == expected["Zbar"] and reference.forces(adj, m)
        and not reference.is_minimal_zfs(adj, m))
    rc, lines = _program_output(GRAPH)

    def swap(profile):
        profile["witnesses"]["Zbar"] = [v for v in range(GRAPH.n)
                                        if forcing_not_minimal >> v & 1]
    problems = reference.check_compute(adj, expected, rc, _with_profile(lines, swap))
    assert any("Zbar witness" in p for p in problems)


def test_checker_rejects_failed_checks_and_exit_codes():
    rc, lines = _program_output(GRAPH)
    failed = [json.dumps({"check": "chain", "scope": "x", "status": "fail"})]
    problems = reference.check_compute(GRAPH.adj, exact_params(GRAPH), 1,
                                       "\n".join(lines + failed))
    assert "exit code 1" in problems
    assert any("chain is fail" in p for p in problems)


def test_span_self_times_are_never_negative():
    tracer = Tracer()
    with tracer.span("a"):
        with tracer.span("b"):
            with tracer.span("c"):
                pass
        with tracer.span("d"):
            pass
    # children that overlap each other or stick out of their parent
    odd = [Span(0, "p", None, 100, 200), Span(1, "x", 0, 90, 150),
           Span(2, "y", 0, 120, 260), Span(3, "z", 0, 130, 140)]
    for spans in (tracer.spans, odd):
        selfs = self_times_ns(spans)
        assert all(0 <= selfs[s.id] <= s.duration_ns for s in spans)
    assert self_times_ns(odd)[0] == 0
    tree = {row["path"]: row for row in span_tree(tracer.spans)}
    assert set(tree) == {"a", "a/b", "a/b/c", "a/d"}
    assert all(row["self_ms"] >= 0 for row in tree.values())


SURVEY_ROWS = [
    {"check": "gammaP-vs-zir", "scope": "order 6", "status": "finding",
     "detail": "2 violation(s) in 9 graph(s)",
     "counterexample": {"examples": [{"graph6": "E?bw", "detail": "gammaP=2 > zir=1"},
                                     {"graph6": "E?`w", "detail": "gammaP=3 > zir=2"}]},
     "stats": {"checked": 9, "violations": 2}},
    {"check": "min-ZIR-leaderboard", "scope": "order 6", "status": "info",
     "detail": "minimum ZIR over connected graphs of order 6: 2",
     "stats": {"min_ZIR": 2, "examples": ["E?Bw", "E?Fg"]}},
]


def test_survey_comparison_ignores_only_graph6_strings():
    recorded = [reference.without_graph6(r) for r in SURVEY_ROWS]
    assert reference.check_survey(SURVEY_ROWS, recorded) == []

    regraphed = json.loads(json.dumps(SURVEY_ROWS))
    regraphed[0]["counterexample"]["examples"][0]["graph6"] = "E@hW"
    regraphed[1]["stats"]["examples"] = ["E?NW", "E_lo"]
    assert reference.check_survey(regraphed, recorded) == []

    edits = [
        lambda rows: rows[0].update(status="pass"),
        lambda rows: rows[0].update(detail="3 violation(s) in 9 graph(s)"),
        lambda rows: rows[0]["stats"].update(checked=10),
        lambda rows: rows[0]["stats"].update(violations=1),
        lambda rows: rows[0]["counterexample"]["examples"][1].update(detail="gammaP=4 > zir=2"),
        lambda rows: rows[1]["stats"].update(min_ZIR=3),
        lambda rows: rows[1]["stats"]["examples"].pop(),
        lambda rows: rows[1].update(scope="order 5"),
        lambda rows: rows.pop(),
    ]
    for edit in edits:
        changed = json.loads(json.dumps(SURVEY_ROWS))
        edit(changed)
        assert reference.check_survey(changed, recorded) != []


def test_survey_comparison_rejects_theorem_failures():
    row = {"check": "chain", "scope": "order 3", "status": "fail", "detail": "x"}
    assert reference.check_survey([row], [reference.without_graph6(row)]) != []


def test_recorded_survey_reference_is_graph6_free():
    rows = json.loads(workloads.SURVEY_REFERENCE.read_text())
    assert len(rows) == 90
    assert rows == [reference.without_graph6(r) for r in rows]
    assert not any(r["status"] == "fail" for r in rows)


def test_closure_counts_repeat_exactly():
    graphs = [parse_graph6(g6) for _, g6 in corpus.audit_corpus(3)[:6]]
    first = layers.closure_counts(graphs)
    assert first == layers.closure_counts(graphs)
    calls, misses = first
    assert calls > misses > 0


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["solve", "audit", "survey", "survey-2p"]


def test_untraced_loop_runs_whole_passes():
    assert list(workloads.until(1e-9, 5, 5)) == [0, 1, 2, 3, 4]
    assert list(workloads.until(1e-9, 5)) == [0]


def test_reference_speed_scale_uses_the_samples_near_a_call():
    tracker = speed.Speed()
    tracker.samples = [(0.0, 0.004), (0.5, 0.006), (10.0, 0.010)]
    reference_s = speed.REFERENCE_MS / 1e3
    assert tracker.scale(0.2, 0.4) == reference_s / 0.005
    assert tracker.scale(20.0, 30.0) == reference_s / 0.010
    assert speed.kernel() == speed.kernel()


def test_reference_sampler_reports_and_stops():
    with speed.Speed() as tracker:
        time.sleep(0.35)
    assert len(tracker.samples) >= 2
    assert all(k > 0 for _, k in tracker.samples)
    assert tracker._proc is None
