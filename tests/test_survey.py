import concurrent.futures
import hashlib
import importlib
import json
import random
import time
import tracemalloc
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from zirkit.cli import main
from zirkit.domination import power_domination_number
from zirkit.errors import BudgetError, PreconditionError
from zirkit.families import generate
from zirkit.graphs import (Graph, _twin_masks, bit_list, bits, canonical_children, edge_slots,
                           parse_graph6)
from zirkit.profiles import CHECKS, Check, parameter_profile, recognize_zn2_complement_form
from zirkit.subsets import TableFacts, close_all_subsets, exact_params, subset_tables
from zirkit.survey import _CHECKS, ALL_CHECKS, SCAN_CHECKS, _first_labelings, survey

from oracles import (brute_closure, brute_domination, brute_independence,
                     brute_power_domination, labeled_survey, least_labelings, random_adj,
                     reference_abandons, reference_complement_dominating,
                     reference_extreme_n_minus_1, reference_minimal_zfs_equivalence,
                     reference_twins, reference_zir1, reference_zn2_complement_form,
                     two_kernel_power_domination, unpruned_canonical_children)

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
        survey(10, override_budget=True)


def test_budget_hint_reads_the_hard_cap(monkeypatch):
    # the hint names the cap the override allows, so raising the cap is a
    # one-constant edit
    with pytest.raises(BudgetError, match=r"budget of 6 \(pass the override to allow 9\)$"):
        survey(7)
    monkeypatch.setattr(survey_module, "SURVEY_HARD_MAX_ORDER", 10)
    with pytest.raises(BudgetError, match=r"budget of 6 \(pass the override to allow 10\)$"):
        survey(7)


def test_survey_unknown_check_rejected():
    with pytest.raises(PreconditionError):
        survey(3, checks=("no-such-check",))


def test_survey_empty_check_selection_rejected():
    # an empty selection would report no check at all, as if all had passed
    with pytest.raises(PreconditionError):
        survey(3, checks=())


def test_survey_takes_checks_from_an_iterator():
    # the names are read once, so an iterator selects what a tuple does
    assert survey(3, checks=iter(["chain"])).reports == survey(3, checks=("chain",)).reports


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
@pytest.mark.parametrize("order,digest", [
    ("8", "94bb72821a04ab1ead4eda46925e6344fb16b26498b03dfdeeb1345a278b9e0c"),
    ("9", "0f37c9aab06761d12e62cdb69cd163686d599a7960a9411f3ada2baf93bcadcd"),
])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_override_survey_stream_is_pinned(capsys, order, digest, threads):
    # the override's top two orders; on 2 cores order 8 takes 2-4 s at one
    # thread and at two, order 9 about 90 s at one and 46 s at two
    main(["survey", "--order", order, "--override-budget", "--threads", threads])
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_survey_pool_time_limit():
    # orders <= 6 run in process in about 50 ms; the pool starts at order 7
    # and runs orders 7 and 8 for about 3 s
    with pytest.raises(BudgetError, match="time limit"):
        survey(8, override_budget=True, threads=2, time_limit=0.15)


@pytest.mark.parametrize("threads", [1, 2])
def test_survey_time_limit_holds_at_any_thread_count(threads):
    # every shard reads the deadline before each parent and each child, in
    # a worker too; the walk through order 8 takes 3-5 s
    start = time.monotonic()
    with pytest.raises(BudgetError, match="time limit"):
        survey(8, override_budget=True, threads=threads, time_limit=0.3)
    assert time.monotonic() - start < 1.3


# the classes of the order-5 graphs at edge masks 510, 511, 512 and 513
PLANTED = ("D^w", "D~w", "D?C", "D_C")


def plant(monkeypatch, name):
    # the planted check fails every labeling of four classes, so its
    # verdict is isomorphism-invariant as the class walk requires
    def key(g):
        return g.n, least_labelings(g.adj, 1)[0]

    keys = {key(parse_graph6(g6)) for g6 in PLANTED}
    planted = Check(name, (), lambda d: (key(d.graph) not in keys, "planted"))
    monkeypatch.setitem(_CHECKS, name, planted)


def test_survey_folds_examples_across_shards(monkeypatch):
    plant(monkeypatch, "chain")
    report = survey(5, checks=("chain",))
    row = next(r for r in report.reports if (r.check, r.scope) == ("chain", "order 5"))
    assert row.status == "fail" and len(row.counterexample["examples"]) == 3
    assert report.to_json_lines() == labeled_survey(5, ("chain",)).to_json_lines()
    assert survey(5, checks=("chain",), threads=2).to_json_lines() == report.to_json_lines()


def test_survey_reports_scan_counterexamples_as_findings(monkeypatch, capsys):
    # a question scan's counterexample is a finding: exit 0, counted on stderr
    plant(monkeypatch, "gammaP-vs-zir")
    assert main(["survey", "--order", "5", "--checks", "gammaP-vs-zir"]) == 0
    out, err = capsys.readouterr()
    scans = {r["scope"]: r["status"] for r in map(json.loads, out.splitlines())
             if r["check"] == "gammaP-vs-zir"}
    assert scans == {f"order {n}": "pass" for n in range(1, 5)} | {"order 5": "finding"}
    assert err.splitlines()[-1] == "survey: 1 finding(s) -- counterexamples above"


def test_survey_finds_the_examples_of_a_pool_order(monkeypatch):
    # a check that fails exactly on stars, an isomorphism-invariant verdict;
    # at two threads order 7's shards run in the worker pool, whose forked
    # workers inherit the planted check, and its examples in process
    star = Check("star", (), lambda d: (not d.size == d.n - 1 == d.max_degree, "star"))
    monkeypatch.setitem(_CHECKS, "star", star)
    one, two = (survey(7, checks=("star",), override_budget=True, threads=t) for t in (1, 2))
    assert one.to_json_lines() == two.to_json_lines()
    row = next(r for r in two.reports if (r.check, r.scope) == ("star", "order 7"))
    assert row.status == "fail" and row.stats == {"checked": 2_097_152, "violations": 7}
    examples = [parse_graph6(e["graph6"]) for e in row.counterexample["examples"]]
    assert len(examples) == 3 and all(g.size() == g.max_degree() == 6 for g in examples)


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
        parents = [adj for _, children in walk[-1] for adj, _, _ in children]
    return walk


def test_class_walk_visits_every_class_once(class_walk):
    # extending one graph of every class of the order below gives every
    # class of order n once, and the weights n!/|Aut G| sum to the number
    # of labeled graphs; the least labelings of the 12 346 classes of
    # order 8 would take about 7 s, so they are compared below that
    for n, (classes, extended) in enumerate(zip(A000088, class_walk), 1):
        children = [child for _, kids in extended for child in kids]
        assert len(children) == classes
        if n <= 7:
            assert len({least_labelings(adj, 1)[0] for adj, _, _ in children}) == classes
        assert sum(factorial(n) // automorphisms for _, automorphisms, _ in children) \
            == 2 ** (n * (n - 1) // 2)


def _edge_mask(g):
    return sum(1 << e for e, (i, j) in enumerate(edge_slots(g.n)) if g.adj[i] >> j & 1)


def test_shared_search_finds_the_least_labelings_of_all_classes(class_walk):
    # one search over a row's classes, each bounded by the masks before it,
    # keeps what the per-class searches keep: the cap least masks of the
    # union, or under dedup the cap least class minima; in walk order, in
    # reverse and in a shuffled order over every class through order 6
    rng = random.Random(25)
    for n, extended in enumerate(class_walk[:6], 1):
        classes = [adj for _, children in extended for adj, _, _ in children]
        shuffled = rng.sample(classes, len(classes))
        for cap in (1, 2, 3):
            for dedup in (False, True):
                expected = sorted(m for adj in classes
                                  for m in least_labelings(adj, 1 if dedup else cap))[:cap]
                for row in (classes, classes[::-1], shuffled):
                    got = [_edge_mask(g) for g in _first_labelings(n, row, dedup, cap, None)]
                    assert got == expected, (n, cap, dedup)


def test_skipped_hoods_change_no_child(class_walk):
    # the degree and twin skips drop only neighbourhoods whose child the
    # full loop rejects or has already yielded, for every parent through
    # order 7; each child comes with its own twin classes
    for extended in class_walk:
        for parent, children in extended:
            assert [(adj, automorphisms) for adj, automorphisms, _ in children] == \
                list(unpruned_canonical_children(parent))
            assert all(twins == _twin_masks(adj) for adj, _, twins in children), parent


def _against_references(f):
    # each whole-int check and the list-level walk it replaced give the
    # same verdict, detail and counterexample on the facts record f; the
    # shape checks that read degrees, edges and connectivity off the record
    # agree with the recognizers they replaced, whose verdict the detail names
    g = f.graph
    assert recognize_zn2_complement_form(g) == reference_zn2_complement_form(g), g.adj
    assert f.abandons == reference_abandons(f), g.adj
    pairs = [("minimal-zfs-equivalence", reference_minimal_zfs_equivalence),
             ("zir1-characterization", reference_zir1),
             ("extreme-n-minus-1", reference_extreme_n_minus_1)]
    if isinstance(f, TableFacts):
        pairs += [("zir-complement-dominating", reference_complement_dominating),
                  ("twins", reference_twins)]
    for name, reference in pairs:
        assert _CHECKS[name].evaluate(f) == reference(f), (name, g.adj)


def test_table_checks_match_list_level_references(class_walk):
    # with the twin classes the generator yields, as the survey shard sets them
    for extended in class_walk[:7]:  # every class through order 7
        for _, children in extended:
            for adj, _, twins in children:
                d = TableFacts(Graph.from_adj(adj))
                d.twins = twins
                _against_references(d)


def _doctored(g, **fields):
    """Both facts records of g with ``fields`` replaced before any check
    reads them: each value is a function of the record."""
    records = [TableFacts(g), parameter_profile(g)]
    for f in records:
        for name, value in fields.items():
            setattr(f, name, value(f))
    return records


def test_doctored_facts_reach_every_failure_branch_as_the_references_do():
    c5 = generate("cycle:5")
    full, hood = 0b11111, 0b01110  # all of C5, and N[2] = {1, 2, 3}
    equivalence = _CHECKS["minimal-zfs-equivalence"]
    # extra maximal sets: both force without being minimal, and each one's
    # complement misses a vertex; the least set is reported
    for f in _doctored(c5, maximal_table=lambda f: f.maximal_table | 1 << full | 1 << hood):
        _against_references(f)
        assert equivalence.evaluate(f) == (
            False, "set [1, 2, 3] minimal-zfs=False maximal-zir-and-zfs=True",
            {"set": [1, 2, 3]})
        if isinstance(f, TableFacts):
            assert _CHECKS["zir-complement-dominating"].evaluate(f) == (
                False, "complement of maximal ZIr-set [1, 2, 3] misses 2")
    # a missing one: a minimal zero forcing set that is no longer maximal
    z = TableFacts(c5).z_witness
    for f in _doctored(c5, maximal_table=lambda f: f.maximal_table & ~(1 << z)):
        _against_references(f)
        assert equivalence.evaluate(f)[:2] == (
            False, f"set {bit_list(z)} minimal-zfs=True maximal-zir-and-zfs=False")
    # abandonment, both ways: a non-forcing set of size ZIR added where no
    # fort is abandoned, and every such set taken away where one is
    fig5 = TableFacts(generate("fig5"))
    assert not fig5.abandons
    stray = next(m for m in range(fig5.graph.full + 1)
                 if m.bit_count() == fig5.values["ZIR"] and not fig5.forcing_table >> m & 1)
    for f in _doctored(fig5.graph, maximal_table=lambda f: f.maximal_table | 1 << stray):
        _against_references(f)
        assert f.abandons
    c6 = generate("cycle:6")
    assert TableFacts(c6).abandons
    for f in _doctored(c6, maximal_table=lambda f: f.maximal_table & f.forcing_table):
        _against_references(f)
        assert not f.abandons
    # twins: a witness that leaves out a twin class, Z's first, then Zbar's
    star = generate("star:4")
    for field, name in (("z_witness", "Z"), ("zbar_witness", "Zbar")):
        d = _doctored(star, **{field: lambda f: 0})[0]
        _against_references(d)
        assert _CHECKS["twins"].evaluate(d) == (
            False, f"{name} witness [] has fewer than 3 of twin class [1, 2, 3, 4]")
    # the complement forms: values doctored against the recognizer, on a
    # graph with and one without the form
    for expr in ("fig5", "path:4"):
        g = generate(expr)
        matches, decomp, lower = reference_zn2_complement_form(g)
        # a pass carries no decomposition
        assert _CHECKS["zir-n-minus-2-form"].evaluate(TableFacts(g)) == (
            True, f"zir={exact_params(g)['zir']} n-2={g.n - 2} recognizer={lower}")
        for f in _doctored(g, values=lambda f: {**f.values, "zir": g.n - 2 - lower,
                                                "Z": g.n - 2 - matches}):
            _against_references(f)
            zir_form = _CHECKS["zir-n-minus-2-form"].evaluate(f)
            assert zir_form == (False, f"zir={g.n - 2 - lower} n-2={g.n - 2} "
                                f"recognizer={lower}",
                                {"decomposition": decomp.to_dict() if decomp else None})
            z_form = next(c for c in CHECKS if c.name == "z-n-minus-2-form").evaluate(f)
            assert z_form == (False, f"Z={g.n - 2 - matches} n-2={g.n - 2} "
                              f"recognizer={matches}")


def test_survey_scan_checks_have_no_findings_small():
    report = survey(5, checks=SCAN_CHECKS)
    assert [r for r in report.reports if r.status == "finding"] == []


def test_survey_leaderboard_present():
    report = survey(3, checks=("chain",))
    boards = [r for r in report.reports if r.check == "min-ZIR-leaderboard"]
    assert len(boards) == 3
    assert boards[0].stats["min_ZIR"] == 1


@pytest.mark.slow
def test_exact_params_equal_solver_profile_on_every_order_8_class(class_walk):
    # the solver and table routes over the 12 346 classes of order 8
    for _, children in class_walk[7]:
        for adj, _, _ in children:
            g = Graph.from_adj(adj)
            assert exact_params(g) == parameter_profile(g).values, adj


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


def assert_gamma_p_routes_agree(g):
    # read off the forcing table, by the solver, and by the second kernel run
    value = TableFacts(g).values["gammaP"]
    assert value == power_domination_number(g)[0] == two_kernel_power_domination(g.adj), g.adj


def test_gamma_p_off_the_forcing_table_on_every_class_through_order_7(class_walk):
    for extended in class_walk[:7]:
        for _, children in extended:
            for adj, _, _ in children:
                assert_gamma_p_routes_agree(Graph.from_adj(adj))


def test_gamma_p_off_the_forcing_table_on_seeded_random_graphs():
    rng = random.Random(20261028)
    for _ in range(60):
        n, p = rng.randint(8, 14), rng.choice((0.1, 0.2, 0.3, 0.5, 0.7))
        assert_gamma_p_routes_agree(Graph(n, [(i, j) for i in range(n)
                                              for j in range(i + 1, n) if rng.random() < p]))


def test_gamma_p_off_the_forcing_table_on_its_worst_shapes():
    # every vertex isolated, disjoint K2s or K3s (closed twins), or a star
    # (one closed neighbourhood holds every other), up to order 16: the
    # shapes whose scans the isolated-vertex and swap facts cut short
    for n in range(1, 17):
        assert_gamma_p_routes_agree(generate(f"empty:{n}"))
        if n >= 2:
            assert_gamma_p_routes_agree(generate(f"star:{n - 1}"))
        for size in (2, 3):
            if n % size == 0:
                assert_gamma_p_routes_agree(Graph(n, [
                    (a, b) for c in range(0, n, size)
                    for a in range(c, c + size) for b in range(a + 1, c + size)]))


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
        d = TableFacts(g)
        adj = g.adj
        clo = [brute_closure(adj, m) for m in range(g.full + 1)]
        for v, closed in enumerate(close_all_subsets(adj, d.rows, subset_tables(g.n)[0])):
            assert [closed >> m & 1 for m in range(g.full + 1)] == \
                [c >> v & 1 for c in clo], (g.adj, v)
        zir = [all(not clo[m ^ 1 << x] >> x & 1 for x in bits(m)) for m in range(g.full + 1)]
        assert bit_list(d.maximal_table) == [m for m in range(g.full + 1) if zir[m] and not any(
            zir[m | 1 << y] for y in bits(g.full & ~m))], g.adj
        minimal = [m for m in range(g.full + 1) if clo[m] == g.full and not any(
            clo[m ^ 1 << x] == g.full for x in bits(m))]
        assert bit_list(d.minimal_table) == minimal, g.adj
        for witness, pick in ((d.z_witness, min), (d.zbar_witness, max)):
            size = pick(m.bit_count() for m in minimal)
            assert witness == min((m for m in minimal if m.bit_count() == size),
                                  key=lambda m: list(bits(m))), g.adj
        assert (d.values["gamma"], d.values["gamma2"], d.values["alpha"],
                d.values["gammaP"]) == (
            brute_domination(adj, g.n, 1), brute_domination(adj, g.n, 2),
            brute_independence(adj, g.n), brute_power_domination(adj, g.n)), g.adj


def test_exact_params_refuses_orders_past_its_memory_bound():
    # the tables of order 23 would take about twice order 22's 68 MB and
    # 1.2 s; the refusal comes first
    start = time.monotonic()
    with pytest.raises(BudgetError, match="n <= 22"):
        exact_params(generate("path:23"))
    assert time.monotonic() - start < 1


def test_exact_params_keeps_few_tables_live():
    # each table takes 2^n bits; the record keeps only the tables its checks
    # read, so the closures of all subsets and one forcer's AND prefixes
    # are the most that are live at once: below 3n tables, against about 5n
    # when it kept the closures and three tables per vertex
    n = 20
    subset_tables(n)  # cached, and not counted
    rng = random.Random(20)
    for p in (0.5, 0.8):
        g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        tracemalloc.start()
        try:
            exact_params(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * (1 << n) // 8, (p, peak)


@settings(deadline=None, max_examples=25)
@given(st.integers(7, 9), st.randoms(use_true_random=False))
def test_exact_params_equal_solver_profile(n, rnd):
    g = Graph.from_adj(random_adj(n, rnd))
    assert exact_params(g) == parameter_profile(g).values
