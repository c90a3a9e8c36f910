"""Parameter profiles, facts records, checks and structural recognizers.

A profile gathers every exact parameter of one graph together with
witnesses.  ``CHECKS`` is the one ordered registry of bounds and
characterizations: each entry tests its hypothesis and its claim on a
``Facts`` record, which holds the graph-level fields and reads the
set-level facts off a forcing table.  Two subclasses supply the values:
``ParamProfile``, whose values the solvers fill (``check_bounds`` and
``check_characterizations`` read the profile itself; the join and corona
bounds also read the factor graphs), and the survey's ``_GraphData`` from
its subset tables; so the two value routes stay independent while each
theorem is written once.  Structural recognizers (path, star,
clique-plus-isolated-vertices, and the complement decomposition behind the
near-extreme zero forcing characterization) are pure graph predicates that
those checks call on both routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_, or_
from typing import Any, Callable, Iterable

from .domination import k_domination_number, independence_number, power_domination_number
from .errors import PreconditionError, check_deadline
from .families import FamilySpec, generate
from .forcing import ClosureCache, close_all_subsets, subset_tables, zero_forcing_number
from .graphs import (Graph, bit_list, bits, complement, join as join_graph,
                     mask_of, to_graph6)
from .irredundance import (_first_zir_set, lower_zir_number, maximal_zir_sets,
                           upper_zero_forcing_number, upper_zir_number)

PARAM_NAMES = ("zir", "Z", "Zbar", "ZIR", "gamma", "gamma2", "alpha", "gammaP")
# parameter -> solver(g, cache, values so far) -> (value, witness mask), in
# the order parameter_profile solves them: each chain solver after its bound
_SOLVERS: dict[str, Callable[[Graph, ClosureCache, dict[str, int]], tuple[int, int]]] = {
    "zir": lambda g, cache, values: lower_zir_number(g, cache),
    "Z": lambda g, cache, values: zero_forcing_number(g, cache, values.get("zir", 0)),
    "ZIR": lambda g, cache, values: upper_zir_number(g, cache),
    "Zbar": lambda g, cache, values: upper_zero_forcing_number(g, cache, values.get("ZIR")),
    "gamma": lambda g, cache, values: k_domination_number(g, 1),
    "gamma2": lambda g, cache, values: k_domination_number(g, 2),
    "alpha": lambda g, cache, values: independence_number(g),
    "gammaP": lambda g, cache, values: power_domination_number(g),
}
DEFAULT_PROFILE_MAX_ORDER = 15
FACTOR_MAX_ORDER = 13  # the join and corona bounds solve factors up to this order
SUBSET_CHECK_MAX_ORDER = 10


class Facts:
    """The facts record of one graph that every check reads.

    It holds ``graph`` and the graph-level fields (``n``, ``min_degree``,
    ``max_degree``, ``has_edge``, ``connected``, ``isolated_free``), and
    reads ``forces(s)``, ``minimal_zfs`` and ``abandons`` off
    ``forcing_table``, whose bit m says whether m forces: the AND of the
    ``closures`` that ``forcing.close_all_subsets`` builds on first use.
    A subclass supplies ``values`` and ``maximal_zir_sets`` (ascending).
    """

    def __init__(self, g: Graph):
        degs = g.degrees()
        self.graph, self.n = g, g.n
        self.min_degree, self.max_degree = min(degs), max(degs)
        self.has_edge = self.max_degree > 0
        self.connected = g.is_connected()
        self.isolated_free = all(g.adj)

    @cached_property
    def closures(self) -> list[int]:
        return close_all_subsets(self.graph.adj, subset_tables(self.n)[0])

    @cached_property
    def forcing_table(self) -> int:
        return reduce(and_, self.closures)

    def forces(self, s: int) -> bool:
        return bool(self.forcing_table >> s & 1)

    @cached_property
    def minimal_table(self) -> int:
        # m is minimal iff it forces and is no forcing set s plus a vertex x
        f = self.forcing_table
        return f & ~reduce(or_, ((f & ~x) << (1 << v)
                                 for v, x in enumerate(subset_tables(self.n)[0])))

    @cached_property
    def minimal_zfs(self) -> list[int]:
        return bit_list(self.minimal_table)

    @cached_property
    def abandons(self) -> bool:
        # graph_abandons_fort, from ZIR and the maximal sets: every ZIr-set
        # of size ZIR is maximal
        zir_upper = self.values["ZIR"]
        return any(s.bit_count() == zir_upper and not self.forces(s)
                   for s in self.maximal_zir_sets)


class ParamProfile(Facts):
    """All computed parameters of one graph, with witnesses: the facts
    record its checks read.

    ``cache`` is the memo of closures the solvers fill, and
    ``maximal_zir_sets`` (the solvers' walk over the ZIr-sets) goes through
    it; the forcing table holds no ZIr-set, so ``minimal-zfs-equivalence``
    compares two independent routes.  Only checks gated to
    n <= ``SUBSET_CHECK_MAX_ORDER`` build that table.  Only checks the survey
    does not run read ``cache`` and ``product``, which is
    ``(kind, left, right)`` for a join or corona and None otherwise.
    """

    def __init__(self, g: Graph, graph_id: str | None = None):
        super().__init__(g)
        self.graph_id = to_graph6(g) if graph_id is None else graph_id
        self.cache = ClosureCache(g)
        self.values: dict[str, int] = {}
        self.witnesses: dict[str, list[int]] = {}
        self.omitted: list[str] = []
        self.product: tuple[str, Graph, Graph] | None = None

    def to_dict(self, include_witnesses: bool = True) -> dict:
        out = {
            "graph": self.graph_id,
            "n": self.n,
            "delta": self.min_degree,
            "Delta": self.max_degree,
            "has_edge": self.has_edge,
            "connected": self.connected,
            "isolated_free": self.isolated_free,
        }
        out.update({p: self.values[p] for p in PARAM_NAMES if p in self.values})
        if include_witnesses:
            out["witnesses"] = dict(self.witnesses)
        if self.omitted:
            out["omitted"] = list(self.omitted)
        return out

    @cached_property
    def maximal_zir_sets(self) -> list[int]:
        return maximal_zir_sets(self.graph, self.cache)

    @cached_property
    def corona_values(self) -> tuple[int, int, int, int] | None:
        """ZIR(H ∨ K_1), ZIR(G), ZIR(H) and α(G) of the corona G∘H, or None
        when the graph is no corona or a factor is beyond the budget."""
        kind, left, right = self.product or ("", None, None)
        if kind != "corona" or max(left.n, right.n + 1) > FACTOR_MAX_ORDER:
            return None
        return (upper_zir_number(join_graph(right, Graph(1)))[0],
                upper_zir_number(left)[0], upper_zir_number(right)[0],
                independence_number(left)[0])


@dataclass
class CheckReport:
    """Outcome of one named check on one scope."""

    check: str
    scope: str
    status: str  # pass | fail | skip | finding | info
    detail: str = ""
    counterexample: dict | None = None
    stats: dict | None = None

    def to_dict(self) -> dict:
        out = {"check": self.check, "scope": self.scope, "status": self.status}
        if self.detail:
            out["detail"] = self.detail
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.stats is not None:
            out["stats"] = self.stats
        return out


def requested_params(params: Iterable[str]) -> tuple[str, ...]:
    """``params`` as a tuple in first-seen order, repeats dropped; an unknown
    name or an empty selection raises ``PreconditionError``."""
    wanted = tuple(dict.fromkeys(params))
    for p in wanted:
        if p not in PARAM_NAMES:
            raise PreconditionError(
                f"unknown parameter {p!r}; known: {', '.join(PARAM_NAMES)}")
    if not wanted:
        raise PreconditionError("no parameter selected")
    return wanted


def parameter_profile(g: Graph, params: tuple[str, ...] | None = None,
                      max_order: int = DEFAULT_PROFILE_MAX_ORDER,
                      graph_id: str | None = None,
                      at: float | None = None) -> ParamProfile:
    """Compute the requested parameters (default: all) with witnesses.

    Above ``max_order`` the exact solvers are skipped and the requested
    parameters are listed in ``omitted`` instead of silently running an
    open-ended search.  The profile keeps ``g`` and the closure memo its
    solvers filled, and ``check_bounds`` and ``check_characterizations``
    read both off it.  ``at`` is an ``errors.deadline`` reading, checked
    before each parameter.

    The solvers run in the order of ``_SOLVERS``, along the paper's chain
    zir <= Z <= Zbar <= ZIR: Z's scan starts at zir (a minimum zero forcing
    set is a ZIr-set, and a ZIr-set that forces is maximal), and Zbar's
    descent starts at ZIR (every minimal zero forcing set is a ZIr-set),
    whenever that neighbour was requested too.  Either start skips only
    sizes that hold no candidate, so values and witnesses are the same as
    from the solvers alone; ``values`` and ``witnesses`` keep the requested
    order, and ``ParamProfile.to_dict`` decides whether witnesses print.
    """
    wanted = PARAM_NAMES if params is None else requested_params(params)
    profile = ParamProfile(g, graph_id)
    if g.n > max_order:
        profile.omitted = list(wanted)
        return profile

    for p, solve in _SOLVERS.items():
        if p in wanted:
            check_deadline(at, "compute")
            profile.values[p], witness = solve(g, profile.cache, profile.values)
            profile.witnesses[p] = bit_list(witness)
    profile.values = {p: profile.values[p] for p in wanted}
    profile.witnesses = {p: profile.witnesses[p] for p in wanted}
    return profile


# -- structural recognizers ----------------------------------------------


def is_path_graph(g: Graph) -> bool:
    """True iff g is a path (any order >= 1)."""
    if g.n == 1:
        return True
    degs = g.degrees()
    return (sum(degs) == 2 * (g.n - 1) and degs.count(1) == 2 and max(degs) <= 2
            and g.is_connected())


def is_star_graph(g: Graph) -> bool:
    """True iff g is a star K_{1,n-1} (order >= 2), or K_1."""
    if g.n == 1:
        return True
    degs = g.degrees()
    return sum(degs) == 2 * (g.n - 1) and max(degs) == g.n - 1 and g.is_connected()


def is_clique_plus_isolated(g: Graph) -> bool:
    """True iff g is a complete graph on >= 2 vertices plus isolated vertices."""
    core = [v for v in range(g.n) if g.adj[v]]
    if len(core) < 2:
        return False
    core_mask = mask_of(core)
    return all(g.adj[v] == core_mask & ~(1 << v) for v in core)


@dataclass(frozen=True)
class ComplementDecomposition:
    """Complement shape: (complete pieces ⊔ complete-bipartite pieces) ∨ K_r.

    ``complete_sizes`` lists clique components of size >= 3 (descending);
    ``bipartite_parts`` lists (q, p) with p >= q, ordered by q descending,
    with all isolated complement vertices pooled into a single trailing
    (0, m) piece; ``universal_count`` is r, the number of vertices adjacent
    to everything else in the complement.
    """

    complete_sizes: tuple[int, ...]
    bipartite_parts: tuple[tuple[int, int], ...]
    universal_count: int

    def to_dict(self) -> dict:
        return {
            "complete_sizes": list(self.complete_sizes),
            "bipartite_parts": [list(qp) for qp in self.bipartite_parts],
            "universal_count": self.universal_count,
        }


def recognize_zn2_complement_form(g: Graph
                                  ) -> tuple[bool, ComplementDecomposition | None, bool]:
    """Test whether the complement is (cliques ⊔ complete-bipartite) ∨ K_r.

    Returns ``(matches, decomposition, lower_form)``.  ``matches`` is
    equivalent to Z(G) >= n-2 for n >= 3.  ``lower_form`` additionally
    requires no clique pieces and (q_1 >= 2, or q_1 = 1 with at least two
    bipartite pieces), which for n >= 3 characterizes zir(G) = n-2.
    Singleton and K_2 components count as bipartite pieces (0,1) and (1,1),
    and all (0,*) pieces merge into one.
    """
    c = complement(g)
    universal = mask_of(v for v in range(c.n) if c.adj[v] == c.full & ~(1 << v))
    # the complement with each universal vertex cut off into its own component
    cut = Graph.from_adj([0 if (universal >> v) & 1 else row & ~universal
                          for v, row in enumerate(c.adj)])
    inner = cut.adj

    complete_sizes: list[int] = []
    bipartite: list[tuple[int, int]] = []
    pooled_empty = 0
    for comp in cut.components():
        if comp & universal:
            continue
        size = comp.bit_count()
        if size == 1:
            pooled_empty += 1
            continue
        if all(inner[u] == comp & ~(1 << u) for u in bits(comp)):
            if size == 2:
                bipartite.append((1, 1))
            else:
                complete_sizes.append(size)
            continue
        # complete bipartite iff the least vertex's neighbours are one side
        # and every vertex sees exactly the other side
        side = inner[(comp & -comp).bit_length() - 1]
        other = comp & ~side
        if any(inner[u] != (other if (side >> u) & 1 else side) for u in bits(comp)):
            return False, None, False
        q, p = sorted((side.bit_count(), other.bit_count()))
        bipartite.append((q, p))

    bipartite.sort(key=lambda qp: (-qp[0], -qp[1]))
    if pooled_empty:
        bipartite.append((0, pooled_empty))
    decomp = ComplementDecomposition(
        complete_sizes=tuple(sorted(complete_sizes, reverse=True)),
        bipartite_parts=tuple(bipartite),
        universal_count=universal.bit_count(),
    )
    t, k = len(decomp.complete_sizes), len(decomp.bipartite_parts)
    lower_form = (t == 0 and k >= 1
                  and (bipartite[0][0] >= 2 or (bipartite[0][0] == 1 and k >= 2)))
    return True, decomp, lower_form


# -- the check registry ---------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One bound or characterization, evaluated on a facts record.

    ``evaluate(facts)`` first tests the hypothesis and returns the reason
    it fails ("" to report nothing); when it holds, it returns
    ``(ok, detail)``, or ``(ok, detail, counterexample)``.  Checks whose
    ``needs`` are missing from the values are left out silently.
    ``survey_name`` is the name the survey runs the check under, or None
    when only ``check_bounds``/``check_characterizations`` run it.
    """

    name: str
    needs: tuple[str, ...]
    evaluate: Callable[[Any], str | tuple]
    survey_name: str | None = None


def _chain(f):
    v = f.values
    return (v["zir"] <= v["Z"] <= v["Zbar"] <= v["ZIR"],
            f"zir={v['zir']} Z={v['Z']} Zbar={v['Zbar']} ZIR={v['ZIR']}")


def _min_degree(f):
    return f.min_degree <= f.values["zir"], f"delta={f.min_degree} zir={f.values['zir']}"


def _edge_upper(f):
    if not f.has_edge:
        return "graph has no edge"
    return f.values["ZIR"] <= f.n - 1, f"ZIR={f.values['ZIR']} n={f.n}"


def _domination_sandwich(f):
    if f.n < 2 or not f.isolated_free:
        return "needs n >= 2 and no isolated vertices"
    v, n = f.values, f.n
    return (n - v["gamma2"] <= v["ZIR"] <= n - v["gamma"],
            f"n-gamma2={n - v['gamma2']} ZIR={v['ZIR']} n-gamma={n - v['gamma']}")


def _min_degree_3_half(f):
    if f.min_degree < 3 or f.n < 2:
        return "needs delta >= 3"
    return 2 * f.values["ZIR"] >= f.n, f"ZIR={f.values['ZIR']} n={f.n}"


def _min_degree_2_third(f):
    if f.min_degree != 2 or f.n < 3:
        return "needs delta = 2"
    return 3 * f.values["ZIR"] > f.n, f"ZIR={f.values['ZIR']} n={f.n}"


def _max_degree_ratio(f):
    if not f.connected or f.n < 2:
        return "needs a connected graph"
    zir_upper, dmax = f.values["ZIR"], f.max_degree
    return (zir_upper * (dmax + 1) <= dmax * f.n,
            f"ZIR={zir_upper} Delta={dmax} n={f.n}")


def _cubic_range(f):
    if not (f.connected and f.min_degree == 3 == f.max_degree and f.n >= 4):
        return "needs a connected cubic graph"
    zir_upper = f.values["ZIR"]
    return (f.n <= 2 * zir_upper and 4 * zir_upper <= 3 * f.n,
            f"ZIR={zir_upper} n={f.n}")


def _extreme_n(f):
    v, edgeless = f.values, not f.has_edge
    return ((v["zir"] == f.n) == edgeless == (v["ZIR"] == f.n),
            f"zir={v['zir']} ZIR={v['ZIR']} edgeless={edgeless}")


def _extreme_n_minus_1(f):
    if f.n < 2:
        return ""
    shape = is_clique_plus_isolated(f.graph)
    flags = [f.values[p] == f.n - 1 for p in ("zir", "Z", "Zbar", "ZIR")]
    return (all(flag == shape for flag in flags),
            f"values-at-n-1={flags} clique-plus-isolated={shape}")


def _zir_n_minus_2_form(f):
    if f.n < 3:
        return ""
    _, decomp, lower_form = recognize_zn2_complement_form(f.graph)
    zir_lower = f.values["zir"]
    return ((zir_lower == f.n - 2) == lower_form,
            f"zir={zir_lower} n-2={f.n - 2} recognizer={lower_form}",
            {"decomposition": decomp.to_dict() if decomp else None})


def _z_n_minus_2_form(f):
    if f.n < 3:
        return ""
    matches, _, _ = recognize_zn2_complement_form(f.graph)
    z = f.values["Z"]
    return (z >= f.n - 2) == matches, f"Z={z} n-2={f.n - 2} recognizer={matches}"


def _zir1(f):
    shape = is_path_graph(f.graph) or is_star_graph(f.graph)
    zir_lower = f.values["zir"]
    return (zir_lower == 1) == shape, f"zir={zir_lower} path-or-star={shape}"


def _minimal_zfs_equivalence(f):
    """Minimal zero forcing sets are exactly the maximal ZIr-sets that force."""
    if f.n > SUBSET_CHECK_MAX_ORDER:
        return f"subset sweep limited to n <= {SUBSET_CHECK_MAX_ORDER}"
    minimal = set(f.minimal_zfs)
    forcing_maximal = {s for s in f.maximal_zir_sets if f.forces(s)}
    if minimal == forcing_maximal:
        return True, "all subsets agree"
    s = min(minimal ^ forcing_maximal)
    return (False, f"set {bit_list(s)} minimal-zfs={s in minimal} "
            f"maximal-zir-and-zfs={s in forcing_maximal}", {"set": bit_list(s)})


def _leaf_zir_set(f):
    """For coronas H∘tK_1 (H connected, order >= 3, t >= 2): some maximum
    ZIr-set uses only leaves."""
    kind, h, attached = f.product or ("", None, None)
    applies = (kind == "corona" and attached.n >= 2 and not attached.size()
               and h.is_connected() and h.n >= 3)
    if not applies or "ZIR" not in f.values:
        return "needs corona(H, empty:t) with connected H of order >= 3 and t >= 2"
    g, target = f.graph, f.values["ZIR"]
    leaves = [v for v in range(g.n) if g.degree(v) == 1]
    ok = _first_zir_set(target, f.cache, None, leaves) is not None
    return ok, f"all-leaf ZIr-set of size ZIR={target} exists={ok}"


def _abandonment_identity(f):
    if f.n > SUBSET_CHECK_MAX_ORDER:
        return ""
    if f.abandons:
        return "graph abandons a fort"
    v = f.values
    return v["ZIR"] == v["Zbar"], f"ZIR={v['ZIR']} Zbar={v['Zbar']} (no abandoned fort)"


def _cut_vertex(f):
    """ZIR(G) >= sum of the top l-1 component values after removing a
    cut-vertex that splits into l >= 3 components."""
    if not f.connected or f.n < 4:
        return "needs ZIR and a connected graph on >= 4 vertices"
    g = f.graph
    best: tuple[int, int] | None = None  # (required lower bound, cut vertex)
    for c in range(g.n):
        sub = g.induced(g.full & ~(1 << c))
        comps = sub.components()
        if len(comps) < 3:
            continue
        values = sorted((upper_zir_number(sub.induced(comp))[0] for comp in comps),
                        reverse=True)
        bound = sum(values[:-1])
        if best is None or bound > best[0]:
            best = (bound, c)
    if best is None:
        return "no cut vertex splits into >= 3 components"
    zir_total = f.values["ZIR"]
    return zir_total >= best[0], f"ZIR={zir_total} >= {best[0]} (cut vertex {best[1]})"


def _join_range(f):
    kind, left, right = f.product or ("", None, None)
    if kind != "join":
        return ""
    if left.n < 2 or right.n < 2:
        return "needs both factors of order >= 2"
    zir_total = f.values["ZIR"]
    return f.n - 4 <= zir_total <= f.n - 1, f"{f.n - 4} <= ZIR={zir_total} <= {f.n - 1}"


def _join_hub_range(f):
    kind, left, right = f.product or ("", None, None)
    if kind != "join":
        return ""
    base, hub = (left, right) if right.n == 1 else (right, left)
    if hub.n != 1 or base.isolated_vertices():
        return "needs join with K_1 and isolated-free base"
    if base.n > FACTOR_MAX_ORDER:
        return "factor beyond budget"
    low = base.n - k_domination_number(base, 1)[0]
    zir_total = f.values["ZIR"]
    return low <= zir_total <= low + 1, f"{low} <= ZIR={zir_total} <= {low + 1}"


def _corona_bounds(f):
    # one skip stands for the three corona bounds below
    if f.product and f.product[0] == "corona" and f.corona_values is None:
        return "factor beyond budget"
    return ""


def _corona_upper(f):
    if f.corona_values is None:
        return ""
    if f.product[2].isolated_vertices():
        return "attached factor has isolated vertices"
    zir_total, zir_hull, n_left = f.values["ZIR"], f.corona_values[0], f.product[1].n
    return zir_total <= n_left * zir_hull, f"ZIR={zir_total} <= {n_left}*{zir_hull}"


def _corona_lower(f):
    if f.corona_values is None:
        return ""
    if f.product[2].isolated_vertices():
        return "attached factor has isolated vertices"
    zir_hull, zir_left, zir_right, _ = f.corona_values
    low = zir_left * zir_hull + (f.product[1].n - zir_left) * zir_right
    return f.values["ZIR"] >= low, f"ZIR={f.values['ZIR']} >= {low}"


def _corona_alpha_lower(f):
    if f.corona_values is None:
        return ""
    zir_hull, _, zir_right, alpha_left = f.corona_values
    low = alpha_left * zir_hull + (f.product[1].n - alpha_left) * (zir_right - 1)
    return f.values["ZIR"] >= low, f"ZIR={f.values['ZIR']} >= {low}"


BOUND_CHECKS = (
    Check("chain", PARAM_NAMES[:4], _chain, "chain"),
    Check("min-degree", ("zir",), _min_degree, "min-degree"),
    Check("edge-upper", ("ZIR",), _edge_upper),
    Check("domination-sandwich", ("ZIR", "gamma", "gamma2"), _domination_sandwich,
          "domination-sandwich"),
    Check("min-degree-3-half", ("ZIR",), _min_degree_3_half),
    Check("min-degree-2-third", ("ZIR",), _min_degree_2_third),
    Check("max-degree-ratio", ("ZIR",), _max_degree_ratio, "max-degree-ratio"),
    Check("cubic-range", ("ZIR",), _cubic_range),
    Check("cut-vertex", ("ZIR",), _cut_vertex),
    Check("join-range", ("ZIR",), _join_range),
    Check("join-hub-range", ("ZIR",), _join_hub_range),
    Check("corona-bounds", ("ZIR",), _corona_bounds),
    Check("corona-upper", ("ZIR",), _corona_upper),
    Check("corona-lower", ("ZIR",), _corona_lower),
    Check("corona-alpha-lower", ("ZIR",), _corona_alpha_lower),
)
CHARACTERIZATION_CHECKS = (
    Check("extreme-n", ("zir", "ZIR"), _extreme_n, "extreme-n"),
    Check("extreme-n-minus-1", PARAM_NAMES[:4], _extreme_n_minus_1, "extreme-n-minus-1"),
    Check("zir-n-minus-2-form", ("zir",), _zir_n_minus_2_form, "zir-n-minus-2-form"),
    Check("z-n-minus-2-form", ("Z",), _z_n_minus_2_form),
    Check("zir1-characterization", ("zir",), _zir1, "zir1-characterization"),
    Check("minimal-zfs-equivalence", (), _minimal_zfs_equivalence,
          "minimal-zfs-equivalence"),
    Check("leaf-zir-set", (), _leaf_zir_set),
    Check("abandonment-identity", ("Zbar", "ZIR"), _abandonment_identity, "abandonment"),
)
CHECKS = BOUND_CHECKS + CHARACTERIZATION_CHECKS


def _run_checks(checks: tuple[Check, ...], profile: ParamProfile,
                spec: FamilySpec | None) -> list[CheckReport]:
    profile.product = None
    if spec is not None and spec.kind in ("join", "corona"):
        profile.product = (spec.kind, generate(spec.parts[0]), generate(spec.parts[1]))
    vars(profile).pop("corona_values", None)  # it reads the product
    reports = []
    for c in checks:
        if not all(p in profile.values for p in c.needs):
            continue
        outcome = c.evaluate(profile)
        if isinstance(outcome, tuple):
            ok, detail, counterexample = (outcome + (None,))[:3]
            reports.append(CheckReport(c.name, profile.graph_id, "pass" if ok else "fail",
                                       detail, None if ok else counterexample))
        elif outcome:
            reports.append(CheckReport(c.name, profile.graph_id, "skip", outcome))
    return reports


def check_bounds(profile: ParamProfile, spec: FamilySpec | None = None) -> list[CheckReport]:
    """Evaluate every applicable bound on one profile.

    Join and corona bounds only apply when ``spec`` describes the graph as a
    product, since they compare against parameters of the factors.
    """
    return _run_checks(BOUND_CHECKS, profile, spec)


def check_characterizations(profile: ParamProfile,
                            spec: FamilySpec | None = None) -> list[CheckReport]:
    """Check each structural characterization whose hypothesis applies."""
    return _run_checks(CHARACTERIZATION_CHECKS, profile, spec)
