import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from zirkit.errors import GraphFormatError, InvalidSpecError, SizeCapError
from zirkit.families import (FAMILY_ARITY, FamilySpec, complete_graph, corona,
                             cycle_graph, empty_graph, fig7_graph, friendship_graph,
                             generate, h_chain_graph, h_rs_graph,
                             necklace_graph, parse_family_expr, pentasun_graph,
                             wheel_graph)
from zirkit.graphs import disjoint_union, join


def test_expression_round_trip():
    for text in ("cycle:5", "h_rs:3,5", "corona(cycle:5,empty:1)",
                 "join(union(complete:2,complete:2),empty:2)", "fig7"):
        spec = parse_family_expr(text)
        assert str(spec) == text
        assert generate(spec) == generate(text)


def test_expression_errors_name_the_problem():
    with pytest.raises(InvalidSpecError, match="unknown family"):
        parse_family_expr("zigzag:3")
    with pytest.raises(InvalidSpecError, match="parameter"):
        parse_family_expr("cycle")
    with pytest.raises(InvalidSpecError, match="two comma-separated"):
        parse_family_expr("join(cycle:3)")
    with pytest.raises(InvalidSpecError, match="trailing"):
        parse_family_expr("cycle:3junk")


def test_expression_whitespace_tolerated():
    for text in ("corona( cycle:5 , empty:1 )", "  h_rs: 3 , 5  ",
                 "join (path:3, empty:2)"):
        spec = parse_family_expr(text)
        assert generate(spec).n == generate(str(spec)).n


def test_g6_literal_in_expressions():
    spec = parse_family_expr("g6:D?{")
    assert generate(spec).n == 5
    prod = parse_family_expr("union(g6:A_,g6:A_)")
    assert generate(prod).size() == 2
    with pytest.raises(GraphFormatError, match="empty graph6 string"):
        generate("g6:")  # an empty literal parses; decoding it fails


@pytest.mark.parametrize("expr,message", [
    ("friendship:1", "k >= 2"),
    ("necklace:1", "k >= 2"),
    ("h_rs:1,5", "r >= 2"),
    ("h_rs:3,4", "odd s >= 3"),
    ("h_chain:2", "k >= 3"),
    ("wheel:2", "r >= 3"),
    ("cycle:2", "n >= 3"),
    ("empty:0", "n >= 1"),
])
def test_parameter_ranges_enforced(expr, message):
    with pytest.raises(InvalidSpecError, match=message):
        generate(expr)


def test_necklace_structure():
    g = necklace_graph(3)
    assert g.n == 12
    assert all(d == 3 for d in g.degrees())  # cubic
    for i in range(3):
        a, b, c, d = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
        assert not g.has_edge(a, c)  # the missing diamond edge
        for u, v in ((a, b), (a, d), (b, c), (b, d), (c, d)):
            assert g.has_edge(u, v)
        assert g.has_edge(c, (4 * (i + 1)) % 12)


def test_friendship_counts():
    g = friendship_graph(3)
    assert g.n == 7 and g.size() == 9
    assert sorted(g.degrees()) == [2, 2, 2, 2, 2, 2, 6]


def test_friendship_equals_join_of_hub_with_matching():
    for k in (2, 3, 4):
        pairs = complete_graph(2)
        for _ in range(k - 1):
            pairs = disjoint_union(pairs, complete_graph(2))
        built = join(complete_graph(1), pairs)
        assert built == friendship_graph(k)


def test_h_rs_structure():
    g = h_rs_graph(3, 5)
    assert g.n == 9
    u, w, y = 0, [1, 2, 3], [4, 5, 6, 7, 8]
    for wi in w:
        assert g.has_edge(u, wi)
        assert g.has_edge(y[-1], wi)
    for a, b in zip(y, y[1:]):
        assert g.has_edge(a, b)
    assert g.size() == 2 * 3 + 4


def test_h_chain_structure():
    g = h_chain_graph(3)
    assert g.n == 15
    assert sorted(g.degrees()) == [2] * 9 + [3] * 6
    # inter-cycle links v_{i,3} -> v_{i+1,1}
    assert g.has_edge(2, 5) and g.has_edge(7, 10) and g.has_edge(12, 0)


def test_wheel_structure():
    g = wheel_graph(5)
    assert g.n == 6
    assert g.degree(5) == 5
    assert g == join(cycle_graph(5), complete_graph(1))


def test_fig7_exact_edges():
    g = fig7_graph()
    assert g.n == 7
    assert sorted(g.edges()) == [(0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6)]


def test_pentasun_is_corona_of_five_cycle():
    g = pentasun_graph()
    assert g.n == 10
    assert g == corona(cycle_graph(5), empty_graph(1))
    assert sorted(g.degrees()) == [1] * 5 + [3] * 5


def test_figures_have_expected_sizes():
    for expr, n, m in (("fig3", 6, 7), ("fig5", 7, 14), ("fig6", 8, 17), ("fig7", 7, 6)):
        g = generate(expr)
        assert (g.n, g.size()) == (n, m)


def test_spec_dataclass_constructors():
    spec = FamilySpec.product("corona", FamilySpec.family("cycle", 5),
                              FamilySpec.family("empty", 1))
    assert generate(spec) == pentasun_graph()


# near-valid expressions, so most inputs get past the first token; the
# digits include two that str.isdigit accepts beyond ASCII
_NUMBERS = st.lists(st.sampled_from(["0", "3", "12", " 2", "\u00b2", "\u0663", ""]),
                    max_size=3).map(",".join)
_LEAVES = st.tuples(st.sampled_from(sorted(FAMILY_ARITY) + ["g6", "nope", ""]),
                    st.sampled_from(["", ":"]), _NUMBERS).map("".join)
_EXPRESSIONS = st.recursive(
    _LEAVES,
    lambda inner: st.tuples(st.sampled_from(["union", "join", "corona", "meet"]),
                            inner, inner,
                            st.sampled_from(["", ")", " ,"])).map(
        lambda t: f"{t[0]}({t[1]},{t[2]}{t[3]}"),
    max_leaves=6)


@settings(max_examples=500, deadline=None)
@given(st.text() | _EXPRESSIONS)
def test_expression_parser_raises_only_spec_errors(text):
    try:
        spec = parse_family_expr(text)
    except InvalidSpecError:
        return
    assert parse_family_expr(str(spec)) == spec


def test_expression_parser_rejects_unbuildable_input():
    with pytest.raises(InvalidSpecError, match="integer"):
        parse_family_expr("path:\u00b2")  # a digit to isdigit(), not to int()
    with pytest.raises(InvalidSpecError, match="integer"):
        parse_family_expr("path:" + "9" * 5000)  # past int()'s digit limit
    with pytest.raises(InvalidSpecError, match="nested"):
        parse_family_expr("union(" * 2000 + "path:1")


@pytest.mark.parametrize("text, spec, error", [
    # the comma after 3 is the join's: complete_bipartite takes two parameters
    ("join(complete_bipartite:2,3,path:4)", "join(complete_bipartite:2,3,path:4)", None),
    ("h_rs: 3 , 5", "h_rs:3,5", None),
    ("g6:", "g6:", None),
    ("g6 :D?{", None, "g6 literal must be written g6:<graph6>"),
    ("fig3:5", None, r"fig3 takes 0 parameter\(s\), got 1"),
    ("3path", None, "expected a family name at position 0"),
    # a g6 token is placed where its 'g6:' starts, not where its bytes do
    ("path:g6:A_", None, "expected an integer parameter at position 5"),
    ("h_rs:3,g6:A_", None, "expected an integer parameter at position 7"),
    ("cycle:3 g6:A_", None, "unexpected trailing text at position 8: 'g6:A_'"),
])
def test_expression_corner_cases(text, spec, error):
    if error is None:
        assert str(parse_family_expr(text)) == spec
    else:
        with pytest.raises(InvalidSpecError, match=error):
            parse_family_expr(text)


def test_whitespace_is_read_in_linear_time():
    # a pattern that retried trailing whitespace from each space took
    # seconds on 16 000 of them
    gap = " " * 12_500
    text = gap + gap.join(["corona(", "cycle", ":", "5", ",", "empty:1", ")"]) + gap
    t0 = time.perf_counter()
    spec = parse_family_expr(text)
    elapsed = time.perf_counter() - t0
    assert text.count(" ") == 100_000 and str(spec) == "corona(cycle:5,empty:1)"
    assert elapsed < 0.1, elapsed


@pytest.mark.parametrize("expr", [
    "complete:1000", "complete_bipartite:500,500", "path:200000", "cycle:200000",
    "friendship:60000", "wheel:100000", "necklace:40000", "h_rs:80000,5", "h_chain:40000",
])
def test_order_cap_checked_before_edges_are_built(expr):
    # each would otherwise build 200 000 edges or more before the cap is read
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(SizeCapError, match="exceeds the 64-vertex cap"):
            generate(expr)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1 and peak < 1 << 20, (elapsed, peak)
