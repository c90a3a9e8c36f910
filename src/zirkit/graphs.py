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

from itertools import combinations, permutations
from typing import Callable, Iterable, Iterator, Sequence

from .errors import BudgetError, GraphFormatError, SizeCapError

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
    return list(bits(mask))


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


def _first_subset(n: int, pred: Callable[[int], bool]) -> int:
    """The first mask satisfying ``pred``, ascending by (size, lexicographic)."""
    for k in range(n + 1):
        for m in _masks_of_size(n, k):
            if pred(m):
                return m
    raise AssertionError("no subset qualifies, not even the full vertex set")


def _check_order(n: int) -> None:
    """Reject an order outside 1..MAX_ORDER before anything of that size is built."""
    if n < 1:
        raise ValueError("graph order must be at least 1")
    if n > MAX_ORDER:
        raise SizeCapError(f"graph order {n} exceeds the {MAX_ORDER}-vertex cap")


class Graph:
    """Immutable simple graph with per-vertex adjacency bitmasks."""

    __slots__ = ("n", "adj", "full")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        _check_order(n)
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for order {n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
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
                raise ValueError(f"adjacency row {v} has bits beyond order {n}")
            if (row >> v) & 1:
                raise ValueError(f"loop at vertex {v} not allowed")
            for u in bits(row):
                if not (adj[u] >> v) & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
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
        seen = 0
        comps = []
        for v in range(self.n):
            if (seen >> v) & 1:
                continue
            comp = 1 << v
            while True:
                grow = comp
                for u in bits(comp):
                    grow |= self.adj[u]
                if grow == comp:
                    break
                comp = grow
            comps.append(comp)
            seen |= comp
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def isolated_vertices(self) -> int:
        return mask_of(v for v in range(self.n) if not self.adj[v])

    def induced(self, subset: int) -> "Graph":
        """Induced subgraph on the vertices of ``subset``, reindexed densely."""
        verts = bit_list(subset)
        index = {v: i for i, v in enumerate(verts)}
        edges = [(index[u], index[v]) for u, v in self.edges()
                 if (subset >> u) & 1 and (subset >> v) & 1]
        return Graph(len(verts), edges)

    def relabel(self, perm: list[int]) -> "Graph":
        """Apply the permutation old index -> new index."""
        return Graph(self.n, [(perm[u], perm[v]) for u, v in self.edges()])


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
    edges = []
    k = 0
    # bit order: column-major upper triangle (0,1), (0,2), (1,2), (0,3), ...
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    for pos in range(1, len(data)):
        byte = data[pos]
        if not 63 <= byte <= 126:
            raise GraphFormatError(f"invalid data byte {chr(byte)!r}", offset=pos)
        group = byte - 63
        for shift in range(5, -1, -1):
            bit = (group >> shift) & 1
            if k < nbits:
                if bit:
                    edges.append(pairs[k])
                k += 1
            elif bit:
                raise GraphFormatError("nonzero padding bits", offset=pos)
    return Graph(n, edges)


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
    n = g.n + h.n
    if n > MAX_ORDER:
        raise SizeCapError(f"union order {n} exceeds the {MAX_ORDER}-vertex cap")
    return Graph.from_adj(g.adj + tuple(row << g.n for row in h.adj))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every edge between the two sides."""
    u = disjoint_union(g, h)
    gmask = (1 << g.n) - 1
    hmask = u.full & ~gmask
    adj = [row | hmask for row in u.adj[:g.n]] + [row | gmask for row in u.adj[g.n:]]
    return Graph.from_adj(tuple(adj))


def corona(g: Graph, h: Graph) -> Graph:
    """Attach a private copy of h, fully joined, to each vertex of g."""
    n = g.n * (1 + h.n)
    if n > MAX_ORDER:
        raise SizeCapError(f"corona order {n} exceeds the {MAX_ORDER}-vertex cap")
    edges = list(g.edges())
    for i in range(g.n):
        base = g.n + i * h.n
        edges.extend((base + a, base + b) for a, b in h.edges())
        edges.extend((i, base + a) for a in range(h.n))
    return Graph(n, edges)


def complement(g: Graph) -> Graph:
    adj = tuple((g.full & ~g.adj[v]) & ~(1 << v) for v in range(g.n))
    return Graph.from_adj(adj)


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
        g = Graph.from_adj(adj_from_edge_mask(n, mask, slots))
        if connected_only and not g.is_connected():
            continue
        yield g


def canonical_form(g: Graph) -> tuple[int, ...]:
    """Isomorphism-invariant key by exhaustive permutation; order <= 7 only."""
    if g.n > ENUM_MAX_ORDER:
        raise BudgetError(f"canonical form supports n <= {ENUM_MAX_ORDER}, got {g.n}")
    slots = edge_slots(g.n)
    slot_index = {p: e for e, p in enumerate(slots)}
    base = list(g.edges())
    best = None
    for perm in permutations(range(g.n)):
        mask = 0
        for u, v in base:
            a, b = perm[u], perm[v]
            if a > b:
                a, b = b, a
            mask |= 1 << slot_index[(a, b)]
        if best is None or mask < best:
            best = mask
    return (g.n, best if best is not None else 0)


# -- twins ---------------------------------------------------------------


def twin_classes(g: Graph) -> list[tuple[int, ...]]:
    """Partition the vertices into maximal twin classes.

    A class collects vertices with equal open neighborhoods (independent
    twins) or equal closed neighborhoods (adjacent twins); a vertex can have
    twins of at most one kind, so the partition is well defined.  Singleton
    classes are included.  Classes are ordered by their least vertex.
    """
    open_groups: dict[int, list[int]] = {}
    for v in range(g.n):
        open_groups.setdefault(g.adj[v], []).append(v)
    classes = []
    rest = []
    for group in open_groups.values():
        if len(group) >= 2:
            classes.append(tuple(group))
        else:
            rest.extend(group)
    closed_groups: dict[int, list[int]] = {}
    for v in rest:
        closed_groups.setdefault(g.adj[v] | (1 << v), []).append(v)
    for group in closed_groups.values():
        classes.append(tuple(group))
    classes.sort(key=lambda c: c[0])
    return classes
