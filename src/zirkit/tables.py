"""Regression table: expected closed-form parameter values per family.

``expected_values`` evaluates every closed form whose hypotheses the given
spec satisfies, so any in-range instantiation is checkable, and
``family_table`` diffs the solver output against those forms.  A mismatch is
a hard failure.

Closed forms implemented (gates in parentheses):

- empty n: all four values n.  complete n: all n-1 (n >= 2).
- complete_bipartite q,p: zir = min(q,p); Z = Zbar = ZIR = q+p-2 (q+p >= 3).
- path n: zir = Z = 1; Zbar = 2 (n >= 4, else 1); ZIR = floor((n-1)/2)
  (n >= 5; 1,1,1,2 for n = 1..4).
- cycle n (n >= 4): zir = Z = Zbar = 2, ZIR = floor(n/2); n = 3 is complete.
- friendship k: all k+1.
- wheel r: r = 3 complete; r >= 5: zir = Z = Zbar = 3, ZIR = r - ceil(r/3)
  (no closed form at r = 4, where ZIR = 3 instead).
- h_rs r,s: zir = 2, Z = r, Zbar = r+1 if s >= 5 else r, ZIR = r + (s-1)/2.
- necklace k: Z = Zbar = k+2, ZIR = 2k.  h_chain k: Z = k+2, ZIR = 2k,
  gamma2 = 3k.
- figure graphs: fig5 ZIR = 5, gamma2 = 3; fig6 zir = 4; fig7 zir = 2,
  gammaP = 2; pentasun zir = 3.
- union(a,b): zir and ZIR are additive over the parts.
- join patterns: X ∨ 2K_1 has ZIR = |X| (plus Z = r+2 when X is a perfect
  matching of r >= 3 edges); X ∨ K_2 with X not complete has ZIR = |X| and,
  when X has no isolated vertices, Z and Zbar shift by 2 from X;
  P_a ∨ P_b with a, b >= 7 has ZIR = a+b-4; K_1 ∨ (perfect matching of k
  pairs, k >= 2) is the friendship graph.
- corona patterns: G∘K_1 has ZIR = |G|; C_r∘2K_1 has Z = Zbar = ZIR = r;
  G∘C_r (r >= 5) has ZIR = |G|(r - ceil(r/3)); G∘W_{r+1} (r >= 5) has
  ZIR = |G| * r.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from .errors import BudgetError, PreconditionError, check_deadline, deadline
from .families import FamilySpec, generate, parse_family_expr
from .forcing import zero_forcing_number
from .graphs import Graph, to_graph6
from .irredundance import upper_zero_forcing_number
from .profiles import DEFAULT_PROFILE_MAX_ORDER, FACTOR_MAX_ORDER, parameter_profile

DEFAULT_TABLE_SPECS = (
    "empty:5", "complete:5", "complete_bipartite:2,3", "complete_bipartite:3,4",
    "star:6", "path:4", "path:7", "path:12", "cycle:4", "cycle:7", "cycle:12",
    "friendship:3", "friendship:4", "h_rs:2,3", "h_rs:3,5", "h_rs:4,7",
    "necklace:2", "necklace:3", "h_chain:3", "wheel:5", "wheel:6", "wheel:7",
    "corona(cycle:4,empty:2)", "corona(cycle:5,empty:2)",
    "corona(cycle:4,empty:1)", "corona(path:4,empty:1)",
    "corona(complete:2,cycle:5)", "corona(complete:1,wheel:5)",
    "join(union(union(complete:2,complete:2),complete:2),empty:2)",
    "join(path:4,empty:2)", "join(cycle:5,complete:2)",
    "join(path:7,path:7)", "join(path:7,path:8)",
    "fig5", "fig6", "fig7", "pentasun",
)


@dataclass(frozen=True)
class TableRow:
    spec: str
    graph6: str
    n: int
    param: str
    expected: int
    computed: int

    @property
    def ok(self) -> bool:
        return self.expected == self.computed

    def to_dict(self) -> dict:
        return {
            "spec": self.spec, "graph6": self.graph6, "n": self.n,
            "param": self.param, "expected": self.expected,
            "computed": self.computed, "ok": self.ok,
        }


def _all_equal(value: int) -> dict[str, int]:
    return {"zir": value, "Z": value, "Zbar": value, "ZIR": value}


def _is_perfect_matching(g: Graph) -> int | None:
    """Number of pairs if g is a disjoint union of edges, else None."""
    if g.n % 2 == 0 and all(d == 1 for d in g.degrees()):
        return g.n // 2
    return None


def _is_complete(g: Graph) -> bool:
    return g.size() == g.n * (g.n - 1) // 2


def expected_values(spec: FamilySpec | str) -> dict[str, int]:
    """Closed-form expectations for a family description; empty when none apply."""
    if isinstance(spec, str):
        spec = parse_family_expr(spec)
    kind, params = spec.kind, spec.params

    if kind == "empty":
        return _all_equal(params[0])
    if kind == "complete":
        n = params[0]
        return _all_equal(1 if n == 1 else n - 1)
    if kind in ("complete_bipartite", "star"):
        q, p = params if kind == "complete_bipartite" else (1, params[0])
        if q + p < 3:
            return _all_equal(1)
        return {"zir": min(q, p), "Z": q + p - 2, "Zbar": q + p - 2, "ZIR": q + p - 2}
    if kind == "path":
        n = params[0]
        out = {"zir": 1, "Z": 1, "Zbar": 2 if n >= 4 else 1}
        out["ZIR"] = {1: 1, 2: 1, 3: 1, 4: 2}.get(n, (n - 1) // 2)
        return out
    if kind == "cycle":
        n = params[0]
        if n == 3:
            return _all_equal(2)
        return {"zir": 2, "Z": 2, "Zbar": 2, "ZIR": n // 2}
    if kind == "friendship":
        return _all_equal(params[0] + 1)
    if kind == "wheel":
        r = params[0]
        if r == 3:
            return _all_equal(3)
        if r >= 5:
            return {"zir": 3, "Z": 3, "Zbar": 3, "ZIR": r - ceil(r / 3)}
        return {}
    if kind == "h_rs":
        r, s = params
        return {"zir": 2, "Z": r, "Zbar": r + 1 if s >= 5 else r,
                "ZIR": r + (s - 1) // 2}
    if kind == "necklace":
        k = params[0]
        return {"Z": k + 2, "Zbar": k + 2, "ZIR": 2 * k}
    if kind == "h_chain":
        k = params[0]
        return {"Z": k + 2, "ZIR": 2 * k, "gamma2": 3 * k}
    if kind == "fig5":
        return {"ZIR": 5, "gamma2": 3}
    if kind == "fig6":
        return {"zir": 4}
    if kind == "fig7":
        return {"zir": 2, "gammaP": 2}
    if kind == "pentasun":
        return {"zir": 3}
    if kind == "union":
        left = expected_values(spec.parts[0])
        right = expected_values(spec.parts[1])
        return {p: left[p] + right[p] for p in ("zir", "ZIR")
                if p in left and p in right}
    if kind == "join":
        return _join_expectations(spec)
    if kind == "corona":
        return _corona_expectations(spec)
    return {}


def _join_expectations(spec: FamilySpec) -> dict[str, int]:
    for base_spec, other_spec in (spec.parts, spec.parts[::-1]):
        other = other_spec
        base = generate(base_spec)
        if other.kind == "empty" and other.params[0] == 2:
            out = {"ZIR": base.n}
            pairs = _is_perfect_matching(base)
            if pairs is not None and pairs >= 3:
                out["Z"] = pairs + 2
            return out
        if other.kind == "complete" and other.params == (2,) and not _is_complete(base):
            out = {"ZIR": base.n}
            if base.isolated_vertices() == 0 and base.n <= FACTOR_MAX_ORDER:
                out["Z"] = zero_forcing_number(base)[0] + 2
                out["Zbar"] = upper_zero_forcing_number(base)[0] + 2
            return out
        if other.kind == "complete" and other.params == (1,):
            if base_spec.kind == "cycle":
                return expected_values(FamilySpec.family("wheel", base_spec.params[0]))
            pairs = _is_perfect_matching(base)
            if pairs is not None and pairs >= 2:
                return _all_equal(pairs + 1)  # friendship graph
    left_spec, right_spec = spec.parts
    if (left_spec.kind == "path" and right_spec.kind == "path"
            and left_spec.params[0] >= 7 and right_spec.params[0] >= 7):
        return {"ZIR": left_spec.params[0] + right_spec.params[0] - 4}
    return {}


def _corona_expectations(spec: FamilySpec) -> dict[str, int]:
    left_spec, right_spec = spec.parts
    base = generate(left_spec)
    if right_spec.kind == "empty" and right_spec.params == (1,):
        return {"ZIR": base.n}
    if (left_spec.kind == "cycle" and right_spec.kind == "empty"
            and right_spec.params == (2,)):
        r = left_spec.params[0]
        return {"Z": r, "Zbar": r, "ZIR": r}
    if right_spec.kind == "cycle" and right_spec.params[0] >= 5:
        r = right_spec.params[0]
        return {"ZIR": base.n * (r - ceil(r / 3))}
    if right_spec.kind == "wheel" and right_spec.params[0] >= 5:
        return {"ZIR": base.n * right_spec.params[0]}
    return {}


def family_table(specs: tuple[str, ...] | None = None,
                 max_order: int = DEFAULT_PROFILE_MAX_ORDER,
                 time_limit: float | None = None) -> list[TableRow]:
    """Instantiate each spec, solve the parameters with closed forms, diff;
    a spec above ``max_order`` is a ``BudgetError``, not a mismatch, and
    ``max_order`` below 1 or an empty ``specs`` a ``PreconditionError``."""
    at = deadline(time_limit)
    if max_order < 1:
        raise PreconditionError(f"max order must be at least 1, got {max_order}")
    specs = DEFAULT_TABLE_SPECS if specs is None else tuple(specs)
    if not specs:
        raise PreconditionError("no spec selected")
    rows: list[TableRow] = []
    for text in specs:
        check_deadline(at, "family table")
        spec = parse_family_expr(text) if isinstance(text, str) else text
        expected = expected_values(spec)
        if not expected:
            continue
        g = generate(spec)
        if g.n > max_order:
            raise BudgetError(f"table spec {spec} has order {g.n} > max_order {max_order}")
        profile = parameter_profile(g, params=tuple(expected), max_order=max_order,
                                    graph_id=str(spec), at=at)
        for param in sorted(expected):
            rows.append(TableRow(
                spec=str(spec), graph6=to_graph6(g), n=g.n, param=param,
                expected=expected[param], computed=profile.values[param]))
    return rows
