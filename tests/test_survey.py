import concurrent.futures
import hashlib
import importlib
import random
import time
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from zirkit.cli import main
from zirkit.errors import BudgetError, PreconditionError
from zirkit.families import generate
from zirkit.graphs import Graph, bits, canonical_children, least_labelings, parse_graph6
from zirkit.profiles import Check, parameter_profile
from zirkit.survey import (_CHECKS, ALL_CHECKS, SCAN_CHECKS, _GraphData, exact_params,
                           survey)

from oracles import (brute_closure, brute_domination, brute_independence,
                     brute_power_domination, labeled_survey, random_adj,
                     unpruned_canonical_children)

survey_module = importlib.import_module("zirkit.survey")  # the package's survey is the function


def test_survey_order_four_all_checks_clean():
    report = survey(4)
    assert not report.failed
    assert not report.findings()
    by_name = {(r.check, r.scope): r for r in report.reports}
    chain4 = by_name[("chain", "order 4")]
    assert chain4.stats["checked"] == 64 and chain4.stats["violations"] == 0


def test_survey_budget_enforced():
    with pytest.raises(BudgetError):
        survey(7)
    with pytest.raises(BudgetError):
        survey(8, override_budget=True)


def test_survey_unknown_check_rejected():
    with pytest.raises(PreconditionError):
        survey(3, checks=("no-such-check",))


def test_survey_empty_check_selection_rejected():
    # an empty selection would report no check at all, as if all had passed
    with pytest.raises(PreconditionError):
        survey(3, checks=())


def test_survey_duplicate_checks_collapse():
    report = survey(3, checks=("chain", "chain"))
    by_scope = {r.scope: r for r in report.reports if r.check == "chain"}
    assert by_scope["order 3"].stats["checked"] == 8


def test_survey_connected_only_counts():
    report = survey(4, checks=("chain",), connected_only=True)
    by_scope = {r.scope: r for r in report.reports if r.check == "chain"}
    assert by_scope["order 4 connected"].stats["checked"] == 38


def test_survey_dedup_counts_isomorphism_classes():
    report = survey(5, checks=("chain",), dedup=True)
    by_scope = {r.scope: r for r in report.reports if r.check == "chain"}
    assert by_scope["order 4 dedup"].stats["checked"] == 11
    assert by_scope["order 5 dedup"].stats["checked"] == 34


def test_survey_threads_do_not_change_output():
    lines1 = survey(5, threads=1).to_json_lines()
    lines2 = survey(5, threads=4).to_json_lines()
    assert lines1 == lines2


def test_survey_default_orders_start_no_pool(monkeypatch):
    def no_pool(*args):
        raise AssertionError("a pool was started")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert survey(6, threads=2).to_json_lines() == survey(6).to_json_lines()


def test_survey_pool_starts_no_more_workers_than_shards(monkeypatch):
    # a pool started by fork starts all its workers at once, and order 7 has
    # at most one shard per order-6 class, of which there are 156
    asked = []

    def fake_pool(max_workers):
        asked.append(max_workers)
        raise RuntimeError("no pool started")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", fake_pool)
    with pytest.raises(RuntimeError, match="no pool started"):
        survey(7, override_budget=True, threads=10_000)
    assert len(asked) == 1 and asked[0] <= 156


def test_top_order_shards_return_no_children(monkeypatch):
    # the classes a shard finds are the next order's parents, so the top
    # order's shards send none back to the fold
    found = {}
    shard = survey_module._survey_shard

    def spy(args):
        out = shard(args)
        found[args[0]] = found.get(args[0], 0) + len(out[2])
        return out
    monkeypatch.setattr(survey_module, "_survey_shard", spy)
    survey(4, checks=("chain",))
    assert found == {1: 1, 2: 2, 3: 4, 4: 0}


@pytest.mark.slow
@pytest.mark.parametrize("threads", ["1", "2"])
def test_order_8_survey_stream_is_pinned(monkeypatch, capsys, threads):
    # the order-8 survey past the shipped cap of 7: about 8 s at one thread
    # and 5 s at two on 2 cores
    monkeypatch.setattr(survey_module, "SURVEY_HARD_MAX_ORDER", 8)
    main(["survey", "--order", "8", "--override-budget", "--threads", threads])
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == \
        "94bb72821a04ab1ead4eda46925e6344fb16b26498b03dfdeeb1345a278b9e0c"


def test_survey_pool_time_limit():
    # orders <= 6 run in process in about 80 ms; the pool starts at order 7
    with pytest.raises(BudgetError, match="time limit"):
        survey(7, override_budget=True, threads=2, time_limit=0.15)


@pytest.mark.parametrize("threads", [1, 2])
def test_survey_time_limit_holds_at_any_thread_count(threads):
    # every shard reads the deadline before each parent and each child, in
    # a worker too; the order-7 walk takes about a second
    start = time.monotonic()
    with pytest.raises(BudgetError, match="time limit"):
        survey(7, override_budget=True, threads=threads, time_limit=0.3)
    assert time.monotonic() - start < 1.3


# the classes of the order-5 graphs at edge masks 510, 511, 512 and 513
PLANTED = ("D^w", "D~w", "D?C", "D_C")


def test_survey_folds_examples_across_shards(monkeypatch):
    # the planted check fails every labeling of four classes, so its
    # verdict is isomorphism-invariant as the class walk requires
    def key(g):
        return g.n, least_labelings(g.adj, 1)[0]

    keys = {key(parse_graph6(g6)) for g6 in PLANTED}
    planted = Check("chain", (), lambda d: (key(d.graph) not in keys, "planted"), "chain")
    monkeypatch.setitem(_CHECKS, "chain", planted)
    report = survey(5, checks=("chain",))
    row = next(r for r in report.reports if (r.check, r.scope) == ("chain", "order 5"))
    assert row.status == "fail" and len(row.counterexample["examples"]) == 3
    assert report.to_json_lines() == labeled_survey(5, ("chain",)).to_json_lines()
    assert survey(5, checks=("chain",), threads=2).to_json_lines() == report.to_json_lines()


@pytest.mark.parametrize("connected_only,dedup",
                         [(False, False), (True, False), (False, True), (True, True)])
def test_class_walk_matches_labeled_walk(connected_only, dedup):
    expected = labeled_survey(5, ALL_CHECKS, connected_only, dedup).to_json_lines()
    for threads in (1, 2):
        assert survey(5, connected_only=connected_only, dedup=dedup,
                      threads=threads).to_json_lines() == expected


A000088 = (1, 2, 4, 11, 34, 156, 1044, 12346)  # isomorphism classes of order 1, 2, ...


@pytest.fixture(scope="module")
def class_walk():
    """Per order n = 1, 2, ...: each class of order n-1 with its children."""
    walk, parents = [], [()]
    for _ in A000088:
        walk.append([(parent, list(canonical_children(parent))) for parent in parents])
        parents = [adj for _, children in walk[-1] for adj, _ in children]
    return walk


def test_class_walk_visits_every_class_once(class_walk):
    # extending one graph of every class of the order below gives every
    # class of order n once, and the weights n!/|Aut G| sum to the number
    # of labeled graphs; the least labelings of the 12 346 classes of
    # order 8 would take about a minute, so they are compared below that
    for n, (classes, extended) in enumerate(zip(A000088, class_walk), 1):
        children = [child for _, kids in extended for child in kids]
        assert len(children) == classes
        if n <= 7:
            assert len({least_labelings(adj, 1)[0] for adj, _ in children}) == classes
        assert sum(factorial(n) // automorphisms for _, automorphisms in children) \
            == 2 ** (n * (n - 1) // 2)


def test_skipped_hoods_change_no_child(class_walk):
    # the degree and twin skips drop only neighbourhoods whose child the
    # full loop rejects or has already yielded, for every parent through
    # order 7
    for extended in class_walk:
        for parent, children in extended:
            assert children == list(unpruned_canonical_children(parent))


def test_survey_scan_checks_have_no_findings_small():
    report = survey(5, checks=SCAN_CHECKS)
    assert [r for r in report.reports if r.status == "finding"] == []


def test_survey_leaderboard_present():
    report = survey(3, checks=("chain",))
    boards = [r for r in report.reports if r.check == "min-ZIR-leaderboard"]
    assert len(boards) == 3
    assert boards[0].stats["min_ZIR"] == 1


def test_exact_params_agree_with_solvers(rng):
    # the survey engine recomputes everything definitionally; the solvers
    # prune with theorem bounds -- the two routes must agree
    for _ in range(30):
        n = rng.randint(1, 6)
        g = Graph.from_adj(random_adj(n, rng))
        table_route = exact_params(g)
        profile = parameter_profile(g)
        for param, value in profile.values.items():
            assert table_route[param] == value, (param, g.adj)


def test_exact_params_on_named_instances():
    g = generate("fig7")
    values = exact_params(g)
    assert values["zir"] == 2 and values["gammaP"] == 2
    values = exact_params(generate("cycle:6"))
    assert values == {"zir": 2, "ZIR": 3, "Z": 2, "Zbar": 2, "gamma": 2,
                      "gamma2": 3, "alpha": 3, "gammaP": 1}


def test_all_checks_registry_is_consistent():
    report = survey(2)
    seen = {r.check for r in report.reports}
    assert set(ALL_CHECKS) <= seen | {"min-ZIR-leaderboard"}


def test_graph_tables_match_definitions(small_graphs):
    # the survey's tables over all subsets against the definitions: the
    # closure of every mask, the maximal ZIr-sets by ZIr-ness member by
    # member, the minimal zero forcing sets by removal, and gamma, gamma2,
    # alpha and gammaP by the all-subset oracles; each witness is the least
    # minimal zero forcing set of its size by sorted vertex list
    rng = random.Random(20261018)
    larger = [Graph.from_adj(random_adj(rng.randint(7, 9), rng)) for _ in range(30)]
    for g in small_graphs + larger:
        d = _GraphData(g)
        adj = g.adj
        clo = [brute_closure(adj, m) for m in range(g.full + 1)]
        for v, closed in enumerate(d.closures):
            assert [closed >> m & 1 for m in range(g.full + 1)] == \
                [c >> v & 1 for c in clo], (g.adj, v)
        zir = [all(not clo[m ^ 1 << x] >> x & 1 for x in bits(m)) for m in range(g.full + 1)]
        assert d.maximal_zir_sets == [m for m in range(g.full + 1) if zir[m] and not any(
            zir[m | 1 << y] for y in bits(g.full & ~m))], g.adj
        minimal = [m for m in range(g.full + 1) if clo[m] == g.full and not any(
            clo[m ^ 1 << x] == g.full for x in bits(m))]
        assert d.minimal_zfs == minimal, g.adj
        for witness, pick in ((d.z_witness, min), (d.zbar_witness, max)):
            size = pick(m.bit_count() for m in minimal)
            assert witness == min((m for m in minimal if m.bit_count() == size),
                                  key=lambda m: list(bits(m))), g.adj
        assert (d.values["gamma"], d.values["gamma2"], d.values["alpha"],
                d.values["gammaP"]) == (
            brute_domination(adj, g.n, 1), brute_domination(adj, g.n, 2),
            brute_independence(adj, g.n), brute_power_domination(adj, g.n)), g.adj


def test_exact_params_refuses_orders_past_its_memory_bound():
    # the tables of order 23 would take about twice order 22's 94 MB and
    # 3 s; the refusal comes first
    start = time.monotonic()
    with pytest.raises(BudgetError, match="n <= 22"):
        exact_params(generate("path:23"))
    assert time.monotonic() - start < 1


@settings(deadline=None, max_examples=25)
@given(st.integers(7, 9), st.randoms(use_true_random=False))
def test_exact_params_equal_solver_profile(n, rnd):
    g = Graph.from_adj(random_adj(n, rnd))
    assert exact_params(g) == parameter_profile(g).values
