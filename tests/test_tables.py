import pytest

from zirkit.errors import BudgetError
from zirkit.families import parse_family_expr
from zirkit.tables import DEFAULT_TABLE_SPECS, expected_values, family_table


def test_expected_values_base_families():
    assert expected_values("empty:5") == {"zir": 5, "Z": 5, "Zbar": 5, "ZIR": 5}
    assert expected_values("complete:5") == {"zir": 4, "Z": 4, "Zbar": 4, "ZIR": 4}
    assert expected_values("cycle:6") == {"zir": 2, "Z": 2, "Zbar": 2, "ZIR": 3}
    assert expected_values("cycle:3") == {"zir": 2, "Z": 2, "Zbar": 2, "ZIR": 2}
    assert expected_values("path:7") == {"zir": 1, "Z": 1, "Zbar": 2, "ZIR": 3}
    assert expected_values("path:4")["ZIR"] == 2
    assert expected_values("path:2") == {"zir": 1, "Z": 1, "Zbar": 1, "ZIR": 1}
    assert expected_values("complete_bipartite:2,3") == \
        {"zir": 2, "Z": 3, "Zbar": 3, "ZIR": 3}
    assert expected_values("complete_bipartite:1,1") == {"zir": 1, "Z": 1, "Zbar": 1, "ZIR": 1}
    assert expected_values("star:5") == {"zir": 1, "Z": 4, "Zbar": 4, "ZIR": 4}
    assert expected_values("friendship:3") == {"zir": 4, "Z": 4, "Zbar": 4, "ZIR": 4}
    assert expected_values("h_rs:3,5") == {"zir": 2, "Z": 3, "Zbar": 4, "ZIR": 5}
    assert expected_values("h_rs:2,3") == {"zir": 2, "Z": 2, "Zbar": 2, "ZIR": 3}
    assert expected_values("necklace:3") == {"Z": 5, "Zbar": 5, "ZIR": 6}
    assert expected_values("h_chain:3") == {"Z": 5, "ZIR": 6, "gamma2": 9}
    assert expected_values("wheel:3") == {"zir": 3, "Z": 3, "Zbar": 3, "ZIR": 3}
    assert expected_values("wheel:5") == {"zir": 3, "Z": 3, "Zbar": 3, "ZIR": 3}
    assert expected_values("wheel:7")["ZIR"] == 4
    assert expected_values("wheel:4") == {}  # closed form does not cover r=4
    assert expected_values("pentasun") == {"zir": 3}
    assert expected_values("g6:A_") == {}  # a literal graph has no closed form


def test_expected_values_products():
    assert expected_values("union(cycle:4,path:3)") == {"zir": 3, "ZIR": 3}
    assert expected_values("join(path:4,empty:2)")["ZIR"] == 4
    assert expected_values("join(empty:2,cycle:5)")["ZIR"] == 5  # order-symmetric
    assert expected_values(
        "join(union(union(complete:2,complete:2),complete:2),empty:2)") == \
        {"Z": 5, "ZIR": 6}
    assert expected_values("join(path:7,path:7)") == {"ZIR": 10}
    assert expected_values("join(path:6,path:7)") == {}  # needs both >= 7
    assert expected_values("join(cycle:5,complete:1)") == \
        {"zir": 3, "Z": 3, "Zbar": 3, "ZIR": 3}
    assert expected_values("join(union(complete:2,complete:2),complete:1)") == \
        {"zir": 3, "Z": 3, "Zbar": 3, "ZIR": 3}  # friendship graph
    assert expected_values("corona(cycle:4,empty:2)") == {"Z": 4, "Zbar": 4, "ZIR": 4}
    assert expected_values("corona(path:4,empty:1)") == {"ZIR": 4}
    assert expected_values("corona(complete:2,cycle:5)") == {"ZIR": 6}
    assert expected_values("corona(complete:2,cycle:4)") == {}  # r=4 uncovered
    assert expected_values("corona(complete:1,wheel:5)") == {"ZIR": 5}


def test_expected_values_join_with_k2():
    vals = expected_values("join(cycle:5,complete:2)")
    assert vals["ZIR"] == 5
    assert vals["Z"] == 4 and vals["Zbar"] == 4  # both shift by 2 from the cycle
    # complete base is excluded
    assert "ZIR" not in expected_values("join(complete:3,complete:2)")


def test_family_table_default_is_clean():
    rows = family_table()
    assert rows, "default spec list must produce checks"
    bad = [r for r in rows if not r.ok]
    assert not bad, [(r.spec, r.param, r.expected, r.computed) for r in bad]


def test_family_table_reports_mismatch_without_masking():
    # deliberately wrong spec pairing cannot happen through expected_values,
    # so force a mismatch through a doctored row comparison instead
    rows = family_table(("cycle:6",))
    assert all(r.ok for r in rows)
    doctored = rows[0].__class__(spec=rows[0].spec, graph6=rows[0].graph6,
                                 n=rows[0].n, param=rows[0].param,
                                 expected=rows[0].expected + 1,
                                 computed=rows[0].computed)
    assert not doctored.ok


def test_default_specs_parse():
    for text in DEFAULT_TABLE_SPECS:
        parse_family_expr(text)


def test_family_table_time_limit():
    with pytest.raises(BudgetError, match="time limit"):
        family_table(time_limit=0)


def test_family_table_above_solver_budget_is_budget_error():
    with pytest.raises(BudgetError, match="cycle:7 has order 7 > max_order 5"):
        family_table(("cycle:7",), max_order=5)
