import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from zirkit.domination import (independence_number, k_domination_number,
                               power_domination_number)
from zirkit.errors import PreconditionError
from zirkit.families import generate, parse_family_expr
from zirkit.forcing import closure, is_minimal_zfs, zero_forcing_number
from zirkit.graphs import Graph, bit_list, disjoint_union, mask_of, parse_graph6, to_graph6
from zirkit.irredundance import (is_maximal_zir_set, lower_zir_number,
                                 maximal_zir_sets, upper_zero_forcing_number,
                                 upper_zir_number)
from zirkit.profiles import (PARAM_NAMES, check_bounds, check_characterizations,
                             parameter_profile, recognize_zn2_complement_form)
from zirkit.subsets import exact_params

from oracles import (_is_k_dominating, is_clique_plus_isolated, is_path_graph,
                     is_star_graph, random_adj)


def _values(expr, params=("zir", "Z", "Zbar", "ZIR")):
    g = generate(expr)
    profile = parameter_profile(g, params=params, graph_id=expr)
    # the solvers run in chain order, the profile keeps the requested one
    assert list(profile.values) == list(profile.witnesses) == list(params)
    return tuple(profile.values[p] for p in params)


def test_profile_values_for_small_families():
    assert _values("cycle:7") == (2, 2, 2, 3)
    assert _values("h_rs:3,5") == (2, 3, 4, 5)
    assert _values("empty:4") == (4, 4, 4, 4)
    assert _values("complete:5") == (4, 4, 4, 4)


def test_chain_starts_keep_z_and_zbar():
    # the profile starts Z's scan at zir, and Zbar reads no value; zir = Z
    # on C_7 and Zbar = ZIR on K_5 and the empty graph, so a start one size
    # past either bound would miss the value there
    rng = random.Random(20261019)
    graphs = [Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                        if rng.random() < p])
              for n in range(7, 13) for p in (0.3, 0.5, 0.7, 0.85)]
    graphs += [generate(expr) for expr in ("cycle:7", "complete:5", "empty:4")]
    for g in graphs:
        full = parameter_profile(g)
        for name, solver in (("Z", zero_forcing_number),
                             ("Zbar", upper_zero_forcing_number)):
            value, wit = solver(Graph.from_adj(g.adj))
            alone = parameter_profile(g, params=(name,))
            for p in (full, alone):
                assert (p.values[name], p.witnesses[name]) == (value, bit_list(wit)), \
                    (g.adj, name)


PROFILE_SOLVERS = {
    "zir": lower_zir_number, "Z": zero_forcing_number, "Zbar": upper_zero_forcing_number,
    "ZIR": upper_zir_number, "gamma": lambda g: k_domination_number(g, 1),
    "gamma2": lambda g: k_domination_number(g, 2), "alpha": independence_number,
    "gammaP": power_domination_number, "profile": parameter_profile,
    "maximal-zir-sets": maximal_zir_sets,
}


@pytest.mark.parametrize("name", PROFILE_SOLVERS)
def test_solvers_leave_no_reference_cycles(name):
    # a search that recurses through a self-referencing closure keeps its
    # ClosureCache (up to 2^n entries) alive until the cyclic collector runs
    g = generate("cycle:8")
    gc.collect()
    gc.disable()
    try:
        PROFILE_SOLVERS[name](g)
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(deadline=None)
@given(st.integers(7, 9), st.randoms(use_true_random=False))
def test_profile_witnesses_reverify_by_definition(n, rnd):
    g = Graph.from_adj(random_adj(n, rnd))
    p = parameter_profile(g)
    wit = {name: mask_of(vs) for name, vs in p.witnesses.items()}
    for name in ("zir", "ZIR"):
        assert is_maximal_zir_set(g, wit[name]), (g.adj, name)
    # Z: the first forcing set in (size, lexicographic) order, from size 0
    first = min((m for m in range(g.full + 1) if closure(g, m) == g.full),
                key=lambda m: (m.bit_count(), [v for v in range(n) if m >> v & 1]))
    assert wit["Z"] == first, g.adj
    assert is_minimal_zfs(g, wit["Zbar"]), g.adj
    for name, k in (("gamma", 1), ("gamma2", 2)):
        assert _is_k_dominating(g.adj, g.full, wit[name], k), (g.adj, name)
    assert all(wit[name].bit_count() == p.values[name] for name in wit), g.adj


def test_profile_flags_and_structure():
    g = generate("union(complete:3,empty:2)")
    p = parameter_profile(g, params=("zir",), graph_id="demo")
    assert p.n == 5 and p.has_edge and not p.connected and not p.isolated_free
    assert p.min_degree == 0 and p.max_degree == 2
    d = p.to_dict()
    assert d["graph"] == "demo" and d["zir"] == p.values["zir"]


def test_profile_budget_produces_omissions():
    g = generate("cycle:12")
    p = parameter_profile(g, max_order=10)
    assert p.values == {} and set(p.omitted) == {"zir", "Z", "Zbar", "ZIR",
                                                 "gamma", "gamma2", "alpha", "gammaP"}


def test_profile_past_graph6_has_no_id_and_omits_every_parameter():
    # graph6 stops at order 62, and the profile budget well before it
    for n in (63, 64):
        p = parameter_profile(Graph(n))
        assert p.omitted == list(PARAM_NAMES) and p.to_dict()["graph"] is None
    assert parameter_profile(Graph(62)).graph_id == to_graph6(Graph(62))


def test_profile_rejects_unknown_parameter():
    with pytest.raises(PreconditionError):
        parameter_profile(generate("path:3"), params=("zzz",))


def test_path_and_star_recognizers():
    assert is_path_graph(generate("path:1"))
    assert is_path_graph(generate("path:6"))
    assert not is_path_graph(generate("cycle:6"))
    assert is_star_graph(generate("star:4"))
    assert is_star_graph(generate("complete:2"))
    assert not is_star_graph(generate("path:4"))
    assert not is_path_graph(disjoint_union(generate("path:2"), generate("path:2")))


def test_clique_plus_isolated_recognizer():
    assert is_clique_plus_isolated(generate("complete:4"))
    assert is_clique_plus_isolated(generate("union(complete:3,empty:2)"))
    assert not is_clique_plus_isolated(generate("path:3"))
    assert not is_clique_plus_isolated(generate("empty:3"))


def test_complement_form_recognizer_fig5():
    matches, decomp, lower = recognize_zn2_complement_form(generate("fig5"))
    assert matches
    assert decomp.complete_sizes == (3,)
    assert decomp.bipartite_parts == ((2, 2),)
    assert decomp.universal_count == 0
    assert not lower  # a clique piece rules out the lower form


def test_complement_form_recognizer_negative():
    assert recognize_zn2_complement_form(generate("path:4"))[0] is False
    assert recognize_zn2_complement_form(generate("cycle:6"))[0] is False


def test_complement_form_recognizer_complete_graph():
    matches, decomp, lower = recognize_zn2_complement_form(generate("complete:5"))
    assert matches
    assert decomp.bipartite_parts == ((0, 5),)
    assert not lower


def test_complement_form_matches_zero_forcing_threshold(small_graphs, rng):
    from zirkit.forcing import zero_forcing_number
    for g in rng.sample([g for g in small_graphs if g.n >= 3], 200):
        matches, _, _ = recognize_zn2_complement_form(g)
        assert matches == (zero_forcing_number(g)[0] >= g.n - 2)


def test_complement_form_lower_flag_matches_zir(small_graphs, rng):
    from zirkit.irredundance import lower_zir_number
    for g in rng.sample([g for g in small_graphs if g.n >= 3], 120):
        _, _, lower = recognize_zn2_complement_form(g)
        assert lower == (lower_zir_number(g)[0] == g.n - 2)


def test_check_bounds_statuses():
    expr = "necklace:3"
    g = generate(expr)
    profile = parameter_profile(g, graph_id=expr)
    reports = {r.check: r for r in check_bounds(profile, parse_family_expr(expr))}
    assert reports["chain"].status == "pass"
    assert reports["min-degree-3-half"].status == "pass"
    assert reports["cubic-range"].status == "pass"
    assert reports["min-degree-2-third"].status == "skip"
    # the half bound is tight on the necklace
    assert profile.values["ZIR"] * 2 == g.n


def test_check_bounds_gates_disconnected():
    g = generate("union(cycle:3,cycle:3)")
    profile = parameter_profile(g)
    reports = {r.check: r for r in check_bounds(profile)}
    assert reports["max-degree-ratio"].status == "skip"
    assert reports["domination-sandwich"].status == "pass"  # isolated-free holds


def test_cubic_upper_bound_tight_on_k4():
    g = generate("complete:4")
    profile = parameter_profile(g)
    assert profile.values["ZIR"] == 3  # equals 3n/4
    reports = {r.check: r for r in check_bounds(profile)}
    assert reports["cubic-range"].status == "pass"


def test_join_and_corona_bounds():
    for expr in ("join(path:3,path:4)", "join(cycle:5,complete:1)",
                 "corona(cycle:3,complete:2)", "corona(complete:2,cycle:4)"):
        spec = parse_family_expr(expr)
        g = generate(expr)
        profile = parameter_profile(g, graph_id=expr)
        reports = check_bounds(profile, spec)
        failures = [r for r in reports if r.status == "fail"]
        assert not failures, failures
        names = {r.check for r in reports}
        if spec.kind == "join":
            assert "join-range" in names
        else:
            assert "corona-upper" in names and "corona-alpha-lower" in names


def test_a_spec_must_describe_the_profiled_graph():
    # the product checks read the factors off the spec, so the spec of
    # another graph would test C_5's values against a corona's bounds
    g = generate("cycle:5")
    spec = parse_family_expr("corona(cycle:4,empty:2)")
    for profile in (parameter_profile(g), parameter_profile(g, max_order=4)):
        for run in (check_bounds, check_characterizations):
            with pytest.raises(PreconditionError, match="does not describe the profiled graph"):
                run(profile, spec)


LEAF_SKIP = "needs corona(H, empty:t) with connected H of order >= 3 and t >= 2"


@pytest.mark.parametrize("expr,check,status,detail", [
    ("join(complete:1,path:4)", "join-range", "skip", "needs both factors of order >= 2"),
    ("join(complete:1,path:4)", "join-hub-range", "pass", "2 <= ZIR=3 <= 3"),
    ("join(path:14,complete:1)", "join-hub-range", "skip", "factor beyond budget"),
    ("corona(complete:1,path:13)", "corona-bounds", "skip", "factor beyond budget"),
    # leaf-zir-set reads its hypothesis from the factor graphs, so an
    # edgeless attached factor qualifies however it is spelled
    ("corona(cycle:4,union(empty:1,empty:1))", "leaf-zir-set", "pass",
     "all-leaf ZIr-set of size ZIR=4 exists=True"),
    ("corona(cycle:4,complete:2)", "leaf-zir-set", "skip", LEAF_SKIP),
    # like the join and corona bounds, it reports nothing off a corona
    ("join(path:4,empty:2)", "leaf-zir-set", None, None),
])
def test_product_check_paths(expr, check, status, detail):
    g = generate(expr)
    spec = parse_family_expr(expr)
    profile = parameter_profile(g, params=("ZIR",), graph_id=expr)
    reports = check_bounds(profile, spec) + check_characterizations(profile, spec)
    found = {r.check: (r.status, r.detail) for r in reports}
    assert found.get(check, (None, None)) == (status, detail)
    if check == "corona-bounds":
        # the one skip stands for all three corona bounds
        assert [r.check for r in reports if r.check.startswith("corona")] == [check]


def test_cut_vertex_bound_three_components():
    # each cycle vertex of C_4 ∘ 2K_1 cuts off its two leaves plus the rest
    g = generate("corona(cycle:4,empty:2)")
    profile = parameter_profile(g, params=("ZIR",), graph_id="corona(cycle:4,empty:2)")
    reports = {r.check: r for r in check_bounds(profile)}
    assert reports["cut-vertex"].status == "pass"
    # one leaf per vertex leaves only two components, so the bound is gated
    g = generate("pentasun")
    profile = parameter_profile(g, params=("ZIR",), graph_id="pentasun")
    reports = {r.check: r for r in check_bounds(profile)}
    assert reports["cut-vertex"].status == "skip"


def test_cut_vertex_bound_reads_each_component():
    # removing vertex 0 leaves K_1, P_4 and K_4, whose ZIR differ, so the
    # bound drops the least of three unequal values
    g = parse_graph6("IpCK?CB?w")
    pieces = [mask_of([1]), mask_of([2, 3, 4, 5]), mask_of([6, 7, 8, 9])]
    assert sum(pieces) == g.full & ~1
    assert all(g.adj[v] & ~(piece | 1) == 0 for piece in pieces for v in bit_list(piece))
    assert all(g.induced(piece).is_connected() for piece in pieces)
    values = [exact_params(g.induced(piece))["ZIR"] for piece in pieces]
    assert values == [1, 2, 3]
    profile = parameter_profile(g, params=("ZIR",))
    reports = {r.check: r for r in check_bounds(profile)}
    bound = sum(values) - min(values)
    assert (reports["cut-vertex"].status, reports["cut-vertex"].detail) == (
        "pass", f"ZIR={exact_params(g)['ZIR']} >= {bound} (cut vertex 0)")


def test_leaf_zir_set_left_out_without_zir():
    # a check whose value was not requested is left out, not skipped with a
    # hypothesis the graph meets
    expr = "corona(cycle:4,empty:2)"
    profile = parameter_profile(generate(expr), params=("Z",), graph_id=expr)
    reports = check_characterizations(profile, parse_family_expr(expr))
    assert "leaf-zir-set" not in {r.check for r in reports}


def test_characterizations_on_examples():
    # complete graph plus isolated vertices sits at the n-1 extreme
    g = disjoint_union(generate("complete:5"), generate("empty:2"))
    profile = parameter_profile(g)
    assert profile.values["zir"] == 6 == profile.values["ZIR"]
    reports = {r.check: r for r in check_characterizations(profile)}
    assert reports["extreme-n-minus-1"].status == "pass"
    assert reports["zir1-characterization"].status == "pass"

    expr = "corona(path:3,empty:2)"
    g = generate(expr)
    profile = parameter_profile(g, graph_id=expr)
    reports = {r.check: r for r in
               check_characterizations(profile, parse_family_expr(expr))}
    assert reports["leaf-zir-set"].status == "pass"

    g = generate("friendship:3")
    profile = parameter_profile(g)
    reports = {r.check: r for r in check_characterizations(profile)}
    assert reports["abandonment"].status == "pass"
    assert profile.values["ZIR"] == profile.values["Zbar"] == 4


def test_characterizations_hold_on_random_graphs(small_graphs, rng):
    for g in rng.sample(small_graphs, 40):
        profile = parameter_profile(g)
        for report in check_characterizations(profile):
            assert report.status in ("pass", "skip"), (report.check, report.detail)


def test_profile_graph_id_defaults_to_graph6():
    g = parse_graph6("D?{")
    assert parameter_profile(g, params=("Z",)).graph_id == "D?{"


def test_solvers_leave_the_graph_as_built():
    # no solver keeps state on the graph: after every parameter, the checks
    # and both domination walks, each slot equals that of a fresh copy
    for expr in ("cycle:6", "fig5", "friendship:3", "corona(cycle:4,empty:1)"):
        g = generate(expr)
        profile = parameter_profile(g)
        check_bounds(profile)
        check_characterizations(profile)
        k_domination_number(g, 1)
        k_domination_number(g, 2)
        fresh = Graph.from_adj(g.adj)
        for slot in Graph.__slots__:
            assert getattr(g, slot) == getattr(fresh, slot), (expr, slot)
        for name in ("n", "adj", "memo"):
            with pytest.raises(AttributeError):
                setattr(g, name, None)
