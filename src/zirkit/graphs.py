"""Immutable bitset-encoded simple graphs with graph6 I/O and graph products.

Vertices are integers 0..n-1 and every vertex set is a Python int used as a
bitmask, so all set algebra is word operations.  The order is capped at 64
vertices; every instance the package works with fits comfortably.

Vertex numbering of product graphs: ``disjoint_union(g, h)`` keeps g's
vertices and shifts h's by ``g.n``; ``join`` is the union plus all cross
edges; ``corona(g, h)`` lays out g's vertices first, then the copy of h
attached to g-vertex i occupies the block ``g.n + i*h.n .. g.n + (i+1)*h.n - 1``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from .errors import BudgetError, GraphFormatError, PreconditionError, SizeCapError

MAX_ORDER = 64
MAX_GRAPH6_ORDER = 62
ENUM_MAX_ORDER = 7


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_list(mask: int) -> list[int]:
    """The set bit positions of ``mask`` in increasing order, as a list."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _masks_of_size(n: int, k: int) -> Iterator[int]:
    """All k-subsets of 0..n-1 as masks, lexicographic by vertex tuple."""
    for combo in combinations(range(n), k):
        m = 0
        for v in combo:
            m |= 1 << v
        yield m


def _first_subset(n: int, pred: Callable[[int], bool], start: int = 0) -> int:
    """The first mask of at least ``start`` vertices satisfying ``pred``,
    ascending by (size, lexicographic)."""
    for k in range(start, n + 1):
        for m in _masks_of_size(n, k):
            if pred(m):
                return m
    raise AssertionError("no subset qualifies, not even the full vertex set")


def _check_order(n: int) -> None:
    """Reject an order outside 1..MAX_ORDER before anything of that size is built."""
    if n < 1:
        raise PreconditionError("graph order must be at least 1")
    if n > MAX_ORDER:
        raise SizeCapError(f"graph order {n} exceeds the {MAX_ORDER}-vertex cap")


def components(adj: Sequence[int], within: int) -> Iterator[int]:
    """The connected components of the subgraph that the rows ``adj``
    induce on the vertex mask ``within``, as masks ordered by least vertex:
    each grown from its least vertex by a work list."""
    while within:
        comp = todo = within & -within
        while todo:
            low = todo & -todo
            todo ^= low
            grown = adj[low.bit_length() - 1] & within & ~comp
            comp |= grown
            todo |= grown
        within &= ~comp
        yield comp


class Graph:
    """Immutable simple graph with per-vertex adjacency bitmasks."""

    __slots__ = ("n", "adj", "full")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        _check_order(n)
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise PreconditionError(f"edge ({u},{v}) out of range for order {n}")
            if u == v:
                raise PreconditionError(f"loop at vertex {u} not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._init(adj)

    @classmethod
    def from_adj(cls, adj: tuple[int, ...]) -> "Graph":
        """Build from adjacency masks, validating symmetry and irreflexivity."""
        n = len(adj)
        _check_order(n)
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise PreconditionError(f"adjacency row {v} has bits beyond order {n}")
            if (row >> v) & 1:
                raise PreconditionError(f"loop at vertex {v} not allowed")
            for u in bits(row):
                if not (adj[u] >> v) & 1:
                    raise PreconditionError(f"asymmetric adjacency between {u} and {v}")
        return cls._of_rows(adj)

    @classmethod
    def _of_rows(cls, adj: Sequence[int]) -> "Graph":
        """Build from adjacency rows already known to be symmetric and loop-free,
        as a generator's or a product's are, without checking them."""
        g = cls.__new__(cls)
        g._init(adj)
        return g

    def _init(self, adj: Sequence[int]) -> None:
        """Set the fields from checked adjacency rows."""
        n = len(adj)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(adj))
        object.__setattr__(self, "full", (1 << n) - 1)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        return isinstance(other, Graph) and self.adj == other.adj

    def __hash__(self):
        return hash(self.adj)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.size()})"

    # -- basic queries -------------------------------------------------

    def size(self) -> int:
        """Number of edges."""
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    def min_degree(self) -> int:
        return min(self.degrees())

    def max_degree(self) -> int:
        return max(self.degrees())

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            for u in bits(self.adj[v] >> (v + 1)):
                yield (v, u + v + 1)

    # -- structure -----------------------------------------------------

    def components(self) -> list[int]:
        """Connected components as vertex masks, ordered by least vertex."""
        return list(components(self.adj, self.full))

    def is_connected(self) -> bool:
        return next(components(self.adj, self.full)) == self.full

    def isolated_vertices(self) -> int:
        return mask_of(v for v in range(self.n) if not self.adj[v])

    def induced(self, subset: int) -> "Graph":
        """Induced subgraph on the vertices of ``subset``, reindexed densely; an
        empty subset or one with bits beyond the order is a ``PreconditionError``."""
        if subset & ~self.full:
            raise PreconditionError(f"subset {subset:#b} has bits beyond order {self.n}")
        verts = bit_list(subset)
        _check_order(len(verts))
        new_bit = {v: 1 << i for i, v in enumerate(verts)}
        return Graph._of_rows([sum(map(new_bit.__getitem__, bit_list(self.adj[v] & subset)))
                               for v in verts])


# -- graph6 codec -------------------------------------------------------


def parse_graph6(text: str) -> Graph:
    """Decode a header-less short-form graph6 string (1 <= n <= 62)."""
    if not text:
        raise GraphFormatError("empty graph6 string", offset=0)
    try:
        data = text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise GraphFormatError("non-ASCII byte in graph6 data",
                               offset=exc.start) from None
    first = data[0]
    if first == 126:
        raise SizeCapError("long-form graph6 (order > 62) is not supported")
    if not 63 <= first <= 125:
        raise GraphFormatError(f"invalid size byte {chr(first)!r}", offset=0)
    n = first - 63
    if n == 0:
        raise GraphFormatError("graph6 order 0 not supported (order must be >= 1)", offset=0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - 1 < nbytes:
        raise GraphFormatError(
            f"truncated graph6 data: need {nbytes} data bytes, got {len(data) - 1}",
            offset=len(data))
    if len(data) - 1 > nbytes:
        raise GraphFormatError("trailing bytes after graph6 data", offset=1 + nbytes)
    value = 0
    for offset, byte in enumerate(data[1:], 1):
        if not 63 <= byte <= 126:
            raise GraphFormatError(f"invalid data byte {chr(byte)!r}", offset=offset)
        value = value << 6 | byte - 63
    # the pair bits, most significant first, in column-major upper-triangle
    # order (0,1), (0,2), (1,2), (0,3), ...; then padding in the last byte
    if value & ((1 << (6 * nbytes - nbits)) - 1):
        raise GraphFormatError("nonzero padding bits", offset=nbytes)
    adj = [0] * n
    k = 6 * nbytes
    for j in range(1, n):
        for i in range(j):
            k -= 1
            if value >> k & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph._of_rows(adj)


def to_graph6(g: Graph) -> str:
    """Encode as header-less short-form graph6; requires order <= 62."""
    if g.n > MAX_GRAPH6_ORDER:
        raise SizeCapError(f"graph6 supports order <= {MAX_GRAPH6_ORDER}, got {g.n}")
    n = g.n
    out = [chr(63 + n)]
    group = 0
    filled = 0
    for j in range(1, n):
        for i in range(j):
            group = (group << 1) | ((g.adj[i] >> j) & 1)
            filled += 1
            if filled == 6:
                out.append(chr(63 + group))
                group = 0
                filled = 0
    if filled:
        group <<= 6 - filled
        out.append(chr(63 + group))
    return "".join(out)


# -- products and complement --------------------------------------------


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; h's vertices are shifted up by g.n."""
    _check_order(g.n + h.n)
    return Graph._of_rows(g.adj + tuple(row << g.n for row in h.adj))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every edge between the two sides."""
    _check_order(g.n + h.n)
    hmask = h.full << g.n
    return Graph._of_rows([row | hmask for row in g.adj] + [row << g.n | g.full for row in h.adj])


def corona(g: Graph, h: Graph) -> Graph:
    """Attach a private copy of h, fully joined, to each vertex of g."""
    _check_order(g.n * (1 + h.n))
    adj = [row | h.full << g.n + i * h.n for i, row in enumerate(g.adj)]
    adj += [row << g.n + i * h.n | 1 << i for i in range(g.n) for row in h.adj]
    return Graph._of_rows(adj)


def complement(g: Graph) -> Graph:
    return Graph._of_rows([(g.full & ~row) & ~(1 << v) for v, row in enumerate(g.adj)])


# -- labeled enumeration ------------------------------------------------

# Edge slots for enumeration are ordered (0,1), (0,2), ..., (0,n-1), (1,2), ...
# and an edge mask assigns bit e to the e-th slot.


def edge_slots(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def adj_from_edge_mask(n: int, mask: int, slots: list[tuple[int, int]]) -> tuple[int, ...]:
    adj = [0] * n
    for e in bits(mask):
        i, j = slots[e]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return tuple(adj)


def enumerate_labeled_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """Yield every labeled simple graph on n vertices, ascending by edge mask."""
    if not 1 <= n <= ENUM_MAX_ORDER:
        raise BudgetError(
            f"labeled enumeration supports 1 <= n <= {ENUM_MAX_ORDER}, got {n}")
    slots = edge_slots(n)
    for mask in range(1 << len(slots)):
        g = Graph._of_rows(adj_from_edge_mask(n, mask, slots))
        if connected_only and not g.is_connected():
            continue
        yield g


def _equitable_cells(adj: Sequence[int], last: int | None = None) -> list[list[int]] | None:
    """The coarsest equitable partition refining the degree partition, as
    cells ordered by invariant signatures; or None, when ``last`` is given,
    as soon as that vertex leaves the last cell.

    Round one is the degree partition, by ascending degree.  Each later
    round splits every cell, in place, by its vertices' numbers of
    neighbours in each cell of the round before, its pieces in sorted order
    of those count vectors, until no cell splits.  The cells and their
    order depend only on the graph, so every automorphism maps each cell
    onto itself.  Since cells only split in place, a vertex that has left
    the last cell never comes back, and the early None is the final answer
    to "does ``last`` lie in the last cell".

    A round counts only neighbours in the cells that the round before
    split off (its splitters, McKay 1981), and leaves singletons alone.
    The vertices of a cell had equal counts in every cell of the partition
    before, so their counts differ only in the new pieces, and in all but
    the last piece of a split cell, whose count is the old cell's count
    minus the others: positions where two count vectors agree do not change
    their order, so the pieces come out as with the full vectors.
    """
    by_degree: dict[int, int] = {}
    for v, row in enumerate(adj):
        d = row.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    cells = [by_degree[d] for d in sorted(by_degree)]
    splitters = cells[:-1]
    while splitters:
        if last is not None and not cells[-1] >> last & 1:
            return None
        refined, pieces = [], []
        for cell in cells:
            if cell & (cell - 1):
                groups: dict[tuple[int, ...], int] = {}
                for v in bit_list(cell):
                    row = adj[v]
                    key = tuple([(row & s).bit_count() for s in splitters])
                    groups[key] = groups.get(key, 0) | 1 << v
                if len(groups) > 1:
                    split = [groups[key] for key in sorted(groups)]
                    refined += split
                    pieces += split[:-1]
                    continue
            refined.append(cell)
        cells, splitters = refined, pieces
    return [bit_list(cell) for cell in cells]


def _least_orders(adj: Sequence[int], cells: list[list[int]], cap: int,
                  found: list[list[int]] | None = None,
                  twins: list[int] | None = None) -> list[list[int]]:
    """The ``cap`` least edge masks (``edge_slots`` order) over the vertex
    orders that keep every cell of ``cells``, in turn, in its block of
    positions; each as ``[mask, orders that reach it, mask of the vertices
    those orders put last]``, ascending.  Every automorphism must map each
    cell onto itself, as those of ``_equitable_cells`` do.

    ``found`` may already hold the entries of graphs of the same order not
    isomorphic to this one: it is extended in place and returned, so the
    search over several graphs keeps the ``cap`` least masks of them all,
    and each graph's search is bounded by the masks of those before it.
    ``twins`` is the graph's ``_twin_masks``, computed if not given.

    Positions are filled from n-1 down: placing position p fixes the slots
    (p, q) for q > p, which are the next most significant bits, so an order
    whose high bits already exceed the ``cap``-th least mask's is dropped
    there.  Of the free twins (``_twin_masks``) of a cell only the least is
    placed, and its subtree counts once for each of them: swapping two free
    twins is an automorphism that fixes every placed vertex, so it maps the
    orders below one onto those below the other with the same masks.  For
    the same reason a vertex put last stands for its whole twin class in
    the last mask.  Orders that tie otherwise are all visited.
    """
    n = len(adj)
    twins = twins or _twin_masks(adj)
    lower = [t & ((1 << v) - 1) for v, t in enumerate(twins)]  # each vertex's lesser twins
    at = [c for c in cells for _ in c]  # the cell of each position
    offset = [p * (2 * n - p - 1) // 2 for p in range(n)]  # slot index of (p, p + 1)
    where = [0] * n  # the bit of each placed vertex's position
    found = [] if found is None else found

    def place(p: int, free: int, high: int, ways: int, last: int) -> None:
        shift = offset[p]
        rows = []
        for v in at[p]:
            if free >> v & 1 and not lower[v] & free:
                row, placed = 0, adj[v] & ~free
                while placed:
                    low = placed & -placed
                    row |= where[low.bit_length() - 1]
                    placed ^= low
                rows.append((row >> p + 1, v))
        rows.sort()
        for row, v in rows:
            mask = high | row << shift
            if len(found) == cap and mask >> shift > found[-1][0] >> shift:
                return  # rows are sorted, so every later one is worse too
            count = ways * (twins[v] & free).bit_count()
            orbit = last or twins[v]  # last is 0 only at position n-1
            where[v] = 1 << p
            if p:
                place(p - 1, free ^ 1 << v, mask, count, orbit)
                continue
            for entry in found:
                if entry[0] == mask:
                    entry[1] += count
                    entry[2] |= orbit
                    break
            else:
                found.append([mask, count, orbit])
                found.sort()
                del found[cap:]

    place(n - 1, (1 << n) - 1, 0, 1, 0)
    return found


def canonical_children(parent: Sequence[int]) -> Iterator[tuple[tuple[int, ...], int, list[int]]]:
    """The graphs that extend ``parent`` by one vertex, one per isomorphism
    class that this parent generates, each with |Aut G| and ``_twin_masks``.

    A child is ``parent`` plus a vertex n-1 with some neighbourhood (its
    hood).  Its canonical mask is the least edge mask over the vertex orders
    that keep each cell of ``_equitable_cells`` in its block of positions,
    so isomorphic graphs get the same one.  The orders that reach that mask
    form one coset of Aut G, so their number is |Aut G|, and the vertices
    they put last form one orbit: the canonical orbit.  ``_least_orders``
    finds both without walking the coset's twin swaps: swapping two twins
    not yet placed fixes the placed prefix, so it searches one of them and
    counts it for all.  The child is accepted iff n-1 lies in its canonical
    orbit and no earlier child has its canonical mask.  Extending one graph
    of every class of order n-1 so gives every class of order n exactly
    once (canonical augmentation, McKay 1998): the canonical orbit fixes
    the class of G - (n-1), so only one parent generates G.  Each child
    that refinement keeps gets its twin classes from ``_twin_masks`` once;
    the search places its twins by them, and the child is yielded with them.

    The canonical orbit lies in the last cell, so refinement stops as soon
    as n-1 leaves it.  Two kinds of hood are skipped before any refinement,
    and neither changes what is yielded:

    - A hood that leaves some vertex of the child with a larger degree than
      n-1.  The first refinement round orders the cells by degree and later
      rounds split cells in place, so the last cell holds only vertices of
      maximum degree; such a child is never accepted.
    - A hood that holds b but not a, for twins a < b of the parent
      (``_twin_masks``).  Swapping twins is an automorphism of the parent,
      so the swaps that move the hood's members of each twin class to its
      lowest vertices map this child onto the child of that sorted hood,
      fixing n-1.  The sorted hood is smaller, is skipped by neither test,
      and acceptance is invariant under the isomorphism: if the sorted hood
      was accepted, this child's mask is already seen; if not, this child
      is not accepted either.  So every yielded child has a sorted hood,
      and the yielded children and their order are unchanged.  ``seen``
      still catches the automorphisms that are not twin swaps.
    """
    n = len(parent) + 1
    new = 1 << (n - 1)
    top = max((row.bit_count() for row in parent), default=0)
    at_degree = [0] * n  # the parent's vertices of each degree
    for v, row in enumerate(parent):
        at_degree[row.bit_count()] |= 1 << v
    twins = _twin_masks(parent)
    # each parent vertex with the next twin above it: t & -(2 << v) drops
    # the twins up to v
    pairs = [(1 << v, up & -up) for v, t in enumerate(twins) if (up := t & -(2 << v))]
    seen = set()
    for hood in range(new):
        size = hood.bit_count()
        if size < top or hood & at_degree[size]:
            continue  # some vertex would outrank n-1 in degree
        if any(hood & b and not hood & a for a, b in pairs):
            continue  # a twin swap maps it onto an earlier hood
        adj = tuple(row | new if hood >> v & 1 else row
                    for v, row in enumerate(parent)) + (hood,)
        cells = _equitable_cells(adj, n - 1)
        if cells is None:  # n-1 left the last cell, which holds the canonical orbit
            continue
        child_twins = _twin_masks(adj)
        mask, automorphisms, orbit = _least_orders(adj, cells, 1, twins=child_twins)[0]
        if orbit & new and mask not in seen:
            seen.add(mask)
            yield adj, automorphisms, child_twins


# -- twins ---------------------------------------------------------------


def _twin_masks(adj: Sequence[int]) -> list[int]:
    """Each vertex's maximal twin class, as a mask that holds the vertex.

    A class collects vertices with equal open neighborhoods (independent
    twins) or equal closed neighborhoods (adjacent twins).  A vertex can
    have twins of at most one kind, so the classes partition the vertices;
    a vertex without twins is a class of its own.  Swapping two members of
    a class is an automorphism.
    """
    open_groups: dict[int, int] = {}
    closed_groups: dict[int, int] = {}
    for v, row in enumerate(adj):
        open_groups[row] = open_groups.get(row, 0) | 1 << v
        closed = row | 1 << v
        closed_groups[closed] = closed_groups.get(closed, 0) | 1 << v
    out = []
    for v, row in enumerate(adj):
        group = open_groups[row]
        out.append(group if group & (group - 1) else closed_groups[row | 1 << v])
    return out
