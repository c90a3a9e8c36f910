"""Acceptance suite: one printed pass/fail line per criterion (run with -s).

Criteria:
  1. family regression table at fixed instantiations (exact integers);
  2. closure-complement private-fort test vs definition-level fort
     enumeration on every connected labeled graph with n <= 6 plus seeded
     random graphs at n = 7 and 8;
  3. survey theorem checks over all labeled graphs with n <= 6, zero
     violations;
  4. abandonment logic on named instances plus the survey-wide identity;
  5. byte-identical reports across 1-thread and 8-thread runs;
  6. question scans (gammaP <= zir, gamma <= ZIR) with zero counterexamples.
"""

import json
import random

import pytest

from zirkit.families import generate
from zirkit.forcing import ClosureCache, closure, is_fort, is_zero_forcing_set
from zirkit.graphs import Graph, bits, enumerate_labeled_graphs, mask_of
from zirkit.irredundance import (graph_abandons_fort, is_maximal_zir_set,
                                 upper_zir_number)
from zirkit.profiles import parameter_profile
from zirkit.survey import SCAN_CHECKS, survey
from zirkit.tables import family_table

from oracles import private_fort_table, random_adj


def _emit(label: str, ok: bool, detail: str = "") -> None:
    marker = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"[{marker}] {label}{suffix}", flush=True)


@pytest.fixture(scope="module")
def survey6():
    return survey(6, threads=1)


# -- criterion 1: table regression -----------------------------------------

TABLE_ROWS = [
    ("empty:5", {"zir": 5, "Z": 5, "Zbar": 5, "ZIR": 5}),
    ("complete:5", {"zir": 4, "Z": 4, "Zbar": 4, "ZIR": 4}),
    ("complete_bipartite:2,3", {"zir": 2, "Z": 3, "Zbar": 3, "ZIR": 3}),
    ("path:7", {"zir": 1, "Z": 1, "Zbar": 2, "ZIR": 3}),
    ("path:4", {"ZIR": 2}),
    ("cycle:7", {"zir": 2, "Z": 2, "Zbar": 2, "ZIR": 3}),
    ("friendship:3", {"zir": 4, "Z": 4, "Zbar": 4, "ZIR": 4}),
    ("h_rs:3,5", {"zir": 2, "Z": 3, "Zbar": 4, "ZIR": 5}),
    ("h_rs:2,3", {"zir": 2, "Z": 2, "Zbar": 2, "ZIR": 3}),
    ("necklace:3", {"Z": 5, "Zbar": 5, "ZIR": 6}),
    ("h_chain:3", {"Z": 5, "ZIR": 6, "gamma2": 9}),
    ("corona(cycle:4,empty:2)", {"Z": 4, "Zbar": 4, "ZIR": 4}),
    ("corona(cycle:4,empty:1)", {"ZIR": 4}),
    ("join(union(union(complete:2,complete:2),complete:2),empty:2)",
     {"Z": 5, "ZIR": 6}),
    ("fig5", {"ZIR": 5, "gamma2": 3}),
    ("join(path:7,path:7)", {"ZIR": 10}),
    ("wheel:5", {"zir": 3, "Z": 3, "Zbar": 3, "ZIR": 3}),
    ("wheel:7", {"ZIR": 4}),
    # r = 4 lies outside the r >= 5 wheel and corona closed forms: W_4 has
    # ZIR 3, not 4 - ceil(4/3) = 2, so the corona bounds give
    # 1*3 + 1*ZIR(C_4) = 5 <= ZIR <= 2*3 = 6, and 6 is attained (checked
    # against the definition-level oracle in test_irredundance.py)
    ("corona(complete:2,cycle:4)", {"ZIR": 6}),
    ("pentasun", {"zir": 3}),
    ("fig6", {"zir": 4}),
    ("fig7", {"zir": 2, "gammaP": 2}),
]


@pytest.mark.parametrize("expr,expected", TABLE_ROWS, ids=[r[0] for r in TABLE_ROWS])
def test_criterion_1_table_regression(expr, expected):
    g = generate(expr)
    profile = parameter_profile(g, params=tuple(expected), graph_id=expr)
    got = {p: profile.values[p] for p in expected}
    ok = got == expected
    _emit(f"criterion 1: {expr}", ok, f"expected {expected} got {got}")
    assert got == expected


def test_criterion_1_fig7_witness_set():
    g = generate("fig7")
    s = mask_of([2, 3])  # the {v3, v4} set
    maximal = is_maximal_zir_set(g, s)
    seed = s
    for v in bits(s):
        seed |= g.adj[v]
    power_dominates = closure(g, seed) == g.full
    ok = maximal and not power_dominates
    _emit("criterion 1: fig7 {v3,v4} maximal ZIr, not power dominating", ok,
          f"maximal={maximal} power_dominates={power_dominates}")
    assert ok


def test_criterion_1_family_table_consistency():
    rows = family_table()
    bad = [r for r in rows if not r.ok]
    _emit("criterion 1: built-in family table", not bad,
          f"{len(rows)} values checked, {len(bad)} mismatches")
    assert not bad


# -- criterion 2: private-fort oracle equivalence ---------------------------


def _oracle_disagreements(n: int, adj: tuple[int, ...]) -> int:
    g = Graph.from_adj(adj)
    cache = ClosureCache(g)
    table = private_fort_table(adj, n)
    full = g.full
    bad = 0
    for s in range(full + 1):
        rest = full & ~s
        for x in bits(s):
            bx = 1 << x
            fast = not cache.closure(s ^ bx) & bx
            definitional = table[x][rest | bx]
            if fast != definitional:
                bad += 1
    return bad


def test_criterion_2_oracle_equivalence_exhaustive_small():
    checked = 0
    disagreements = 0
    for n in range(1, 7):
        for g in enumerate_labeled_graphs(n, connected_only=True):
            disagreements += _oracle_disagreements(n, g.adj)
            checked += 1
    ok = disagreements == 0 and checked == 27476  # OEIS A001187, summed
    _emit("criterion 2: oracle equivalence, connected n <= 6", ok,
          f"{checked} graphs, {disagreements} disagreements")
    assert ok


def test_criterion_2_oracle_equivalence_random_larger():
    rng = random.Random(78)
    checked = 0
    disagreements = 0
    for n in (7, 8):
        for _ in range(250):
            adj = random_adj(n, rng)
            disagreements += _oracle_disagreements(n, adj)
            checked += 1
    ok = disagreements == 0
    _emit("criterion 2: oracle equivalence, 500 random n in {7,8}", ok,
          f"{checked} graphs, {disagreements} disagreements")
    assert ok


# -- criterion 3: survey theorem suite --------------------------------------

CRITERION_3_CHECKS = (
    "chain", "min-degree", "zir-complement-dominating",
    "minimal-zfs-equivalence", "domination-sandwich", "max-degree-ratio",
    "twins", "zir1-characterization", "extreme-n-minus-1",
    "zir-n-minus-2-form",
)


def test_criterion_3_survey_theorems(survey6):
    failing = [r for r in survey6.reports
               if r.check in CRITERION_3_CHECKS and r.status == "fail"]
    total = sum(r.stats["checked"] for r in survey6.reports
                if r.check in CRITERION_3_CHECKS and r.stats)
    ok = not failing
    _emit("criterion 3: theorem survey on all labeled graphs n <= 6", ok,
          f"{total} gated checks, {len(failing)} failing reports")
    for r in failing:
        print(f"    {r.check} {r.scope}: {r.detail} {r.counterexample}")
    assert ok


# -- criterion 4: abandonment logic ------------------------------------------


def test_criterion_4_abandonment():
    problems = []
    for expr in ("friendship:2", "friendship:3"):
        if graph_abandons_fort(generate(expr)) is not None:
            problems.append(f"{expr} unexpectedly abandons a fort")
    for expr in ("wheel:5", "fig3", "join(path:4,empty:2)"):
        g = generate(expr)
        witness = graph_abandons_fort(g)
        if witness is None:
            problems.append(f"{expr} should abandon a fort")
            continue
        s, fort = witness
        if not is_maximal_zir_set(g, s):
            problems.append(f"{expr}: witness set not a maximal ZIr-set")
        if s.bit_count() != upper_zir_number(g)[0]:
            problems.append(f"{expr}: witness set not of maximum size")
        if is_zero_forcing_set(g, s):
            problems.append(f"{expr}: witness set unexpectedly forces")
        if fort & s or not is_fort(g, fort):
            problems.append(f"{expr}: abandoned fort invalid")
    ok = not problems
    _emit("criterion 4: abandonment on named instances", ok, "; ".join(problems))
    assert ok


def test_criterion_4_identity_where_nothing_abandoned(survey6):
    failing = [r for r in survey6.reports
               if r.check == "abandonment" and r.status == "fail"]
    ok = not failing
    _emit("criterion 4: ZIR = Zbar whenever no fort is abandoned (n <= 6)", ok,
          f"{len(failing)} failing reports")
    assert ok


# -- criterion 5: determinism across thread counts ---------------------------


def test_criterion_5_determinism(survey6):
    lines1 = survey6.to_json_lines()
    report8 = survey(6, threads=8)
    lines8 = report8.to_json_lines()
    surveys_equal = lines1 == lines8
    rows_a = [json.dumps(r.to_dict(), sort_keys=True) for r in family_table()]
    rows_b = [json.dumps(r.to_dict(), sort_keys=True) for r in family_table()]
    tables_equal = rows_a == rows_b
    witness_equal = True
    for expr in ("h_rs:3,5", "necklace:3", "fig5"):
        g = generate(expr)
        first = parameter_profile(g, graph_id=expr).witnesses
        second = parameter_profile(g, graph_id=expr).witnesses
        witness_equal = witness_equal and first == second
    ok = surveys_equal and tables_equal and witness_equal
    _emit("criterion 5: 1-thread vs 8-thread byte-identical reports", ok,
          f"survey={surveys_equal} table={tables_equal} witnesses={witness_equal}")
    assert ok


# -- criterion 6: open-question scans ----------------------------------------


def test_criterion_6_question_scans(survey6):
    scans = [r for r in survey6.reports if r.check in SCAN_CHECKS]
    findings = [r for r in scans if r.status == "finding"]
    checked = sum(r.stats["checked"] for r in scans if r.stats)
    ok = not findings
    detail = f"{checked} connected-graph checks, {len(findings)} findings"
    if findings:
        detail += " -- COUNTEREXAMPLES: " + "; ".join(
            f"{r.check} {r.scope} {r.counterexample}" for r in findings)
    _emit("criterion 6: gammaP <= zir and gamma <= ZIR scans (n <= 6)", ok, detail)
    assert ok
