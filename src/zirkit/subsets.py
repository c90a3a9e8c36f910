"""The table route: each parameter by its definition, over all subsets at once.

A set-level fact of a graph on n vertices is a 2^n-bit int whose bit m
answers for the vertex set m.  ``subset_tables`` gives X_v (v ∈ m) and L_k
(|m| = k), and ``close_all_subsets`` closes all 2^n sets at once, one int
per vertex (Knuth, TAOCP 4A, §7.1.3).  Every other table is a few whole-int
operations on these, so every subset is decided with no solver and no bound
pruning (ZIR is the literal largest size of a maximal ZIr-set), and gamma_P
is read off the forcing table, since m power-dominates iff N[m] forces.

``Facts`` is the record every check of ``profiles.CHECKS`` reads, so each
theorem is written once; ``TableFacts`` takes its values from the tables,
``profiles.ParamProfile`` from the solvers.  This module imports only
``errors`` and ``graphs``, and the solver modules import nothing from it,
so the two routes share no closure code and the tests compare them.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from itertools import combinations
from operator import and_, or_
from typing import Sequence

from .errors import BudgetError
from .graphs import Graph, _twin_masks, bit_list

EXACT_PARAMS_MAX_ORDER = 22


@lru_cache(maxsize=1)
def subset_tables(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """2^n-bit ints over the sets m of n vertices: X_v for each vertex v,
    whose bit m says v ∈ m, and L_k for k = 0..n, whose bit m says |m| = k."""
    xs: list[int] = []
    layers = [1]
    for v in range(n):  # doubling: the sets without v, then those with it
        w = 1 << v
        xs = [x | x << w for x in xs] + [((1 << w) - 1) << w]
        layers = [lo | hi << w for lo, hi in zip(layers + [0], [0] + layers)]
    return tuple(xs), tuple(layers)


def close_all_subsets(adj: tuple[int, ...], rows: Sequence[list[int]],
                      start: Sequence[int]) -> list[int]:
    """Closures of 2^n sets at once: bit m of entry v says whether v lies in
    the closure of {u : bit m of ``start[u]``}, which is m when start is X_v.

    B_w |= B_u & ⋀_{y ∈ N(u) − w} B_y runs to a fixed point from a work
    list of forcers swept in rounds.  A grown B_w puts w and its neighbours
    other than u on it: where u forces w, u's other neighbours are blue.
    ``rows`` holds each vertex's neighbours, ascending (``Facts.rows``).
    """
    wake = [row | 1 << w for w, row in enumerate(adj)]
    blue, todo, u = list(start), (1 << len(adj)) - 1, -1
    while todo:
        # sweep round after round: the next forcer on the list after u
        ahead = todo >> u + 1 << u + 1 or todo
        low = ahead & -ahead
        todo ^= low
        u = low.bit_length() - 1
        ys = rows[u]
        # each w takes the AND over N(u) − w from a prefix and a suffix
        first = blue[u]
        before = [first]
        for y in ys:
            first &= blue[y]
            before.append(first)
        before.pop()
        after = -1
        for w in reversed(ys):
            bw = blue[w]
            grown = before.pop() & after & ~bw
            if grown:
                bw |= grown
                blue[w] = bw
                todo |= wake[w] & ~low
            after &= bw
    return blue


def _least(table: int, members: tuple[int, ...]) -> int:
    """The lexicographically least of the equal-size sets in ``table``: it
    holds each vertex, in ascending order, that a set still left holds."""
    for x in members:
        if table & x:
            table &= x
    return table.bit_length() - 1


def _smallest(table: int, layers: tuple[int, ...]) -> int:
    """The least size k of a set in ``table``, by a scan up the layers L_k."""
    k = 0
    while not table & layers[k]:
        k += 1
    return k


def _largest(table: int, layers: tuple[int, ...]) -> int:
    """The largest size k of a set in ``table``, by a scan down the layers."""
    k = len(layers) - 1
    while not table & layers[k]:
        k -= 1
    return k


def _power_domination_number(forcing_table: int, adj: tuple[int, ...],
                             rows: Sequence[list[int]]) -> int:
    """gamma_P read off the forcing table: m power-dominates iff N[m]
    forces, so it is the least k such that some k-set m has bit N[m] set.

    Two facts of the colour change rule bound the scan.  An isolated
    vertex is in N[m] only if it is in m, and no rule colours it, so it
    lies in every power dominating set.  If N[u] ⊆ N[w], swapping u for w
    grows N[m], and a superset of a forcing set forces, so only vertices
    whose closed neighbourhood lies in no other (the least of equal ones)
    are tried.  Bits are read from the table's bytes, O(1) each.
    """
    forces = forcing_table.to_bytes(((1 << len(adj)) + 7) >> 3, "little")
    closed = [row | 1 << v for v, row in enumerate(adj)]
    must, hoods = 0, []
    for v, hood in enumerate(closed):
        # N[v] ⊆ N[w] puts w in N[v], so only neighbours can contain it
        for w in rows[v]:
            other = closed[w]
            if not hood & ~other and (hood != other or w < v):
                break
        else:
            if adj[v]:
                hoods.append(hood)
            else:
                must |= hood
    for k in range(len(hoods) + 1):
        for picks in combinations(hoods, k):
            m = must
            for hood in picks:
                m |= hood
            if forces[m >> 3] >> (m & 7) & 1:
                return must.bit_count() + k
    raise AssertionError("no set power-dominates, not even the whole vertex set")


def _read_on_demand(name: str) -> cached_property:
    """A ``Facts`` table that its first read builds by ``read_closures``."""
    def read(facts: Facts):
        facts.read_closures()
        return vars(facts)[name]
    return cached_property(read)


class Facts:
    """The facts record of one graph that every check reads.

    It holds ``graph`` and the graph-level fields (``n``, ``min_degree``,
    ``max_degree``, ``size`` (edges), ``isolated`` (isolated vertices),
    ``has_edge``, ``connected``, ``isolated_free``); a caller that has
    already tested connectivity passes it in.  ``read_closures`` closes all
    subsets, reads three tables off the closures in one pass over the
    vertices and drops them: ``forcing_table`` (m forces),
    ``minimal_table`` (m is a minimal zero forcing set) and ``zir_table``
    (m is a ZIr-set); the first read of any of the three runs it.
    ``abandons`` reads the forcing table.  A subclass supplies ``values``
    and ``maximal_table`` (m is a maximal ZIr-set).
    """

    def __init__(self, g: Graph, connected: bool | None = None):
        degs = g.degrees()
        self.graph, self.n = g, g.n
        self.min_degree, self.max_degree = min(degs), max(degs)
        self.size, self.isolated = sum(degs) // 2, degs.count(0)
        self.has_edge = self.max_degree > 0
        self.connected = g.is_connected() if connected is None else connected
        self.isolated_free = not self.isolated

    @cached_property
    def rows(self) -> list[list[int]]:
        """Each vertex's neighbours in ascending order."""
        return [bit_list(row) for row in self.graph.adj]

    def read_closures(self) -> None:
        xs = subset_tables(self.n)[0]
        closures = close_all_subsets(self.graph.adj, self.rows, xs)
        self.forcing_table = forcing = reduce(and_, closures)
        grown = shrunk = 0
        for v, (closed, x) in enumerate(zip(closures, xs)):
            w = 1 << v
            grown |= (forcing & ~x) << w  # the forcing sets s plus v
            shrunk |= (closed & ~x) << w  # the sets s plus v with v ∈ cl(s)
        # m is minimal iff it forces and is no forcing set s plus a vertex;
        # m is a ZIr-set iff no member v lies in the closure of m - v
        self.minimal_table = forcing & ~grown
        self.zir_table = ((1 << (1 << self.n)) - 1) & ~shrunk

    forcing_table = _read_on_demand("forcing_table")
    minimal_table = _read_on_demand("minimal_table")
    zir_table = _read_on_demand("zir_table")

    @cached_property
    def abandons(self) -> bool:
        # graph_abandons_fort: every ZIr-set of size ZIR is maximal, so the
        # graph abandons a fort iff a maximal one of that size does not force
        return bool(self.maximal_table & subset_tables(self.n)[1][self.values["ZIR"]]
                    & ~self.forcing_table)


class TableFacts(Facts):
    """The facts record of one graph, its values read off the tables.

    It keeps only the tables a check reads.  ``held`` is the table of the
    sets that hold some N[v], and ``z_witness`` and ``zbar_witness`` are
    the least minimal zero forcing sets of sizes Z and Zbar.  ``twins`` is
    ``graphs._twin_masks``, which the survey shard sets from the class
    generator.
    """

    def __init__(self, g: Graph, connected: bool | None = None):
        super().__init__(g, connected)
        n, adj, rows, (xs, layers) = g.n, g.adj, self.rows, subset_tables(g.n)
        self.read_closures()
        zir, forcing, minimal = self.zir_table, self.forcing_table, self.minimal_table
        # a ZIr-set m is maximal iff no m + y is one
        self.maximal_table = maximal = zir & ~reduce(
            or_, ((zir & x) >> (1 << y) for y, x in enumerate(xs)))
        # one pass over the neighbours: m dominates iff each v is in m or
        # has a neighbour there, twice iff each v is in m or has two there
        # (one- and two-bit counters); m is independent iff no member has a
        # neighbour in m; m holds N[v] iff it holds v and each neighbour
        dominating, dominating2, self.held, clash = -1, -1, 0, 0
        for x, ys in zip(xs, rows):
            one = two = 0
            hold = x
            for u in ys:
                y = xs[u]
                two |= one & y
                one |= y
                hold &= y
            dominating &= x | one
            dominating2 &= x | two
            self.held |= hold
            clash |= x & one
        self.values = values = {
            "zir": _smallest(maximal, layers), "ZIR": _largest(maximal, layers),
            "Z": _smallest(forcing, layers), "Zbar": _largest(minimal, layers),
            "gamma": _smallest(dominating, layers),
            "gamma2": _smallest(dominating2, layers),
            "alpha": _largest(((1 << (1 << n)) - 1) & ~clash, layers),
            "gammaP": _power_domination_number(forcing, adj, rows),
        }
        # every minimum zero forcing set is minimal, so both witnesses are the
        # first minimal one of their size, by (size, lexicographic)
        self.z_witness = _least(minimal & layers[values["Z"]], xs)
        self.zbar_witness = _least(minimal & layers[values["Zbar"]], xs)

    @cached_property
    def twins(self) -> list[int]:
        return _twin_masks(self.graph.adj)


def exact_params(g: Graph) -> dict[str, int]:
    """The eight values of ``TableFacts``, to cross-check the solvers by.

    Each table takes 2^n bits, and under 3n are live at once.  At order
    ``EXACT_PARAMS_MAX_ORDER`` = 22, G(22, p) with p = 0.2-0.8 peaked at
    56-68 MB resident (17 MB the interpreter's, 23 MB the cached X_v and
    L_k) in 0.5-1.2 s of process time (x86_64, Python 3.11); each vertex
    more doubles both, and above it ``BudgetError`` comes first.
    """
    if g.n > EXACT_PARAMS_MAX_ORDER:
        raise BudgetError(f"exact_params supports n <= {EXACT_PARAMS_MAX_ORDER}, got {g.n}")
    return dict(TableFacts(g).values)
