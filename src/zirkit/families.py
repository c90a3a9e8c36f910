"""Named graph families, bundled example graphs, and the family expression
mini-language used by the CLI.

Expressions are either ``name:p1,p2``, a product ``join(a,b)`` /
``corona(a,b)`` / ``union(a,b)``, or a literal ``g6:<graph6>``.  Example:
``corona(cycle:5,empty:1)`` is the pentasun.

Vertex numbering is fixed per family so witnesses are stable across runs:

- ``path``/``cycle``: chain order 0..n-1 (cycle closes n-1 to 0).
- ``complete_bipartite q p``: first part 0..q-1, second part q..q+p-1.
- ``star p``: center 0, leaves 1..p.
- ``friendship k``: hub 0, pendant pairs (2i-1, 2i).
- ``wheel r``: rim cycle 0..r-1, hub r.
- ``necklace k``: block i uses 4i..4i+3 as (a, b, c, d) with the a-c edge
  missing; blocks are linked c_i to a_{i+1} cyclically.
- ``h_rs r s``: hub u = 0, middle vertices w_1..w_r = 1..r, tail path
  y_1..y_s = r+1..r+s; both u and y_s are adjacent to every w_i.
- ``h_chain k``: five-cycles v_{i,1..5} at 5(i-1)..5i-1, linked
  v_{i,3} to v_{i+1,1} cyclically.
- ``fig3``/``fig5``/``fig6``/``fig7``: fixed edge lists (vertices v1..vn map
  to 0..n-1); ``pentasun`` is corona(cycle:5, empty:1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidSpecError
from .graphs import (MAX_ORDER, Graph, _check_order, corona, disjoint_union, join,
                     parse_graph6)

PRODUCT_OPS = ("union", "join", "corona")

_FIG3_EDGES = [(3, 2), (2, 0), (0, 1), (1, 3), (3, 4), (4, 5), (5, 3)]
_FIG6_EDGES = [(0, 1), (1, 2), (2, 3), (3, 5), (5, 4), (4, 0), (0, 6), (6, 7),
               (7, 3), (1, 4), (4, 2), (2, 5), (5, 1), (2, 6), (6, 5), (1, 7),
               (7, 4)]
_FIG7_EDGES = [(0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6)]

# family name -> number of integer parameters
FAMILY_ARITY = {
    "empty": 1, "complete": 1, "path": 1, "cycle": 1,
    "complete_bipartite": 2, "star": 1, "friendship": 1, "wheel": 1,
    "necklace": 1, "h_rs": 2, "h_chain": 1,
    "fig3": 0, "fig5": 0, "fig6": 0, "fig7": 0, "pentasun": 0,
}


@dataclass(frozen=True)
class FamilySpec:
    """A symbolic graph description: family instance, product, or literal."""

    kind: str
    params: tuple[int, ...] = ()
    parts: tuple["FamilySpec", ...] = field(default=())
    graph6: str = ""

    @classmethod
    def family(cls, name: str, *params: int) -> "FamilySpec":
        return cls(kind=name, params=tuple(params))

    @classmethod
    def product(cls, op: str, left: "FamilySpec", right: "FamilySpec") -> "FamilySpec":
        return cls(kind=op, parts=(left, right))

    @classmethod
    def literal(cls, graph6: str) -> "FamilySpec":
        return cls(kind="g6", graph6=graph6)

    def __str__(self) -> str:
        if self.kind == "g6":
            return f"g6:{self.graph6}"
        if self.kind in PRODUCT_OPS:
            return f"{self.kind}({self.parts[0]},{self.parts[1]})"
        if self.params:
            return f"{self.kind}:" + ",".join(str(p) for p in self.params)
        return self.kind


def parse_family_expr(text: str) -> FamilySpec:
    """Parse the mini-language into a FamilySpec; whitespace is ignored."""
    spec, pos = _parse_expr(text, _skip_ws(text, 0))
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise InvalidSpecError(f"unexpected trailing text at position {pos}: {text[pos:]!r}")
    return spec


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse_expr(text: str, pos: int, depth: int = 0) -> tuple[FamilySpec, int]:
    start = pos
    while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
        pos += 1
    name = text[start:pos]
    if not name:
        raise InvalidSpecError(f"expected a family name at position {start} in {text!r}")
    if name in PRODUCT_OPS:
        # each product has more vertices than its factors, so a deeper
        # nesting could never build a graph within the order cap
        if depth >= MAX_ORDER:
            raise InvalidSpecError(f"products nested deeper than {MAX_ORDER} levels")
        pos = _skip_ws(text, pos)
        if pos >= len(text) or text[pos] != "(":
            raise InvalidSpecError(f"{name} requires arguments: {name}(a,b)")
        left, pos = _parse_expr(text, _skip_ws(text, pos + 1), depth + 1)
        pos = _skip_ws(text, pos)
        if pos >= len(text) or text[pos] != ",":
            raise InvalidSpecError(f"{name} requires two comma-separated arguments")
        right, pos = _parse_expr(text, _skip_ws(text, pos + 1), depth + 1)
        pos = _skip_ws(text, pos)
        if pos >= len(text) or text[pos] != ")":
            raise InvalidSpecError(f"missing closing parenthesis in {name}(...)")
        return FamilySpec.product(name, left, right), pos + 1
    if name == "g6":
        if pos >= len(text) or text[pos] != ":":
            raise InvalidSpecError("g6 literal must be written g6:<graph6>")
        pos += 1
        start = pos
        # graph6 bytes are all >= '?' (63), so ',' and ')' safely terminate
        while pos < len(text) and text[pos] not in ",)":
            pos += 1
        return FamilySpec.literal(text[start:pos]), pos
    if name not in FAMILY_ARITY:
        known = ", ".join(sorted(FAMILY_ARITY))
        raise InvalidSpecError(f"unknown family {name!r}; known families: {known}")
    params: list[int] = []
    if _skip_ws(text, pos) < len(text) and text[_skip_ws(text, pos)] == ":":
        pos = _skip_ws(text, pos) + 1
        while True:
            pos = _skip_ws(text, pos)
            start = pos
            while pos < len(text) and text[pos] in "0123456789":
                pos += 1
            if start == pos:
                raise InvalidSpecError(f"expected an integer parameter at position {start}")
            try:
                params.append(int(text[start:pos]))
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise InvalidSpecError(
                    f"integer parameter at position {start} is too long") from None
            pos = _skip_ws(text, pos)
            if pos < len(text) and text[pos] == ",":
                # a further integer only belongs to us if the arity allows it
                if len(params) < FAMILY_ARITY[name]:
                    pos += 1
                    continue
            break
    if len(params) != FAMILY_ARITY[name]:
        raise InvalidSpecError(
            f"{name} takes {FAMILY_ARITY[name]} parameter(s), got {len(params)}")
    return FamilySpec.family(name, *params), pos


# -- generators ----------------------------------------------------------


def _require(cond: bool, message: str, order: int) -> None:
    """Reject bad parameters, then an order above the cap, before any edge
    is built."""
    if not cond:
        raise InvalidSpecError(message)
    _check_order(order)


def empty_graph(n: int) -> Graph:
    _require(n >= 1, f"empty requires n >= 1 (got {n})", n)
    return Graph(n)


def complete_graph(n: int) -> Graph:
    _require(n >= 1, f"complete requires n >= 1 (got {n})", n)
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> Graph:
    _require(n >= 1, f"path requires n >= 1 (got {n})", n)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    _require(n >= 3, f"cycle requires n >= 3 (got {n})", n)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite_graph(q: int, p: int) -> Graph:
    _require(q >= 1 and p >= 1, f"complete_bipartite requires q, p >= 1 (got {q}, {p})",
             q + p)
    return Graph(q + p, [(i, q + j) for i in range(q) for j in range(p)])


def star_graph(p: int) -> Graph:
    _require(p >= 1, f"star requires p >= 1 leaves (got {p})", p + 1)
    return complete_bipartite_graph(1, p)


def friendship_graph(k: int) -> Graph:
    _require(k >= 2, f"friendship requires k >= 2 (got {k})", 2 * k + 1)
    edges = [(0, v) for v in range(1, 2 * k + 1)]
    edges += [(2 * i - 1, 2 * i) for i in range(1, k + 1)]
    return Graph(2 * k + 1, edges)


def wheel_graph(r: int) -> Graph:
    _require(r >= 3, f"wheel requires rim length r >= 3 (got {r})", r + 1)
    edges = [(i, (i + 1) % r) for i in range(r)] + [(i, r) for i in range(r)]
    return Graph(r + 1, edges)


def necklace_graph(k: int) -> Graph:
    _require(k >= 2, f"necklace requires k >= 2 (got {k})", 4 * k)
    edges = []
    for i in range(k):
        a, b, c, d = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
        edges += [(a, b), (a, d), (b, c), (b, d), (c, d)]
        edges.append((c, 4 * ((i + 1) % k)))
    return Graph(4 * k, edges)


def h_rs_graph(r: int, s: int) -> Graph:
    _require(r >= 2, f"h_rs requires r >= 2 (got {r})", r + 1)
    _require(s >= 3 and s % 2 == 1, f"h_rs requires odd s >= 3 (got {s})", r + s + 1)
    u = 0
    w = list(range(1, r + 1))
    y = list(range(r + 1, r + s + 1))
    edges = [(u, wi) for wi in w] + [(y[-1], wi) for wi in w]
    edges += [(y[j], y[j + 1]) for j in range(s - 1)]
    return Graph(r + s + 1, edges)


def h_chain_graph(k: int) -> Graph:
    _require(k >= 3, f"h_chain requires k >= 3 (got {k})", 5 * k)
    edges = []
    for i in range(k):
        base = 5 * i
        edges += [(base + j, base + (j + 1) % 5) for j in range(5)]
        edges.append((base + 2, 5 * ((i + 1) % k)))
    return Graph(5 * k, edges)


def fig3_graph() -> Graph:
    return Graph(6, _FIG3_EDGES)


def fig5_graph() -> Graph:
    # K_{3,4} with parts {u1,u2,u3} = 0..2 and {x1,x2,y1,y2} = 3..6,
    # plus the edges x1-y1 and x2-y2
    edges = [(i, j) for i in range(3) for j in range(3, 7)] + [(3, 5), (4, 6)]
    return Graph(7, edges)


def fig6_graph() -> Graph:
    return Graph(8, _FIG6_EDGES)


def fig7_graph() -> Graph:
    return Graph(7, _FIG7_EDGES)


def pentasun_graph() -> Graph:
    return corona(cycle_graph(5), empty_graph(1))


_GENERATORS = {
    "empty": empty_graph,
    "complete": complete_graph,
    "path": path_graph,
    "cycle": cycle_graph,
    "complete_bipartite": complete_bipartite_graph,
    "star": star_graph,
    "friendship": friendship_graph,
    "wheel": wheel_graph,
    "necklace": necklace_graph,
    "h_rs": h_rs_graph,
    "h_chain": h_chain_graph,
    "fig3": fig3_graph,
    "fig5": fig5_graph,
    "fig6": fig6_graph,
    "fig7": fig7_graph,
    "pentasun": pentasun_graph,
}

_PRODUCTS = {"union": disjoint_union, "join": join, "corona": corona}


def generate(spec: FamilySpec | str) -> Graph:
    """Instantiate a FamilySpec (or expression string) as a concrete Graph."""
    if isinstance(spec, str):
        spec = parse_family_expr(spec)
    if spec.kind == "g6":
        return parse_graph6(spec.graph6)
    if spec.kind in _PRODUCTS:
        return _PRODUCTS[spec.kind](generate(spec.parts[0]), generate(spec.parts[1]))
    if spec.kind not in _GENERATORS:
        raise InvalidSpecError(f"unknown family {spec.kind!r}")
    return _GENERATORS[spec.kind](*spec.params)
