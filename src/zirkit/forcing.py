"""Zero-forcing closure, forts, and the zero forcing number Z.

All vertex sets are int bitmasks.  The color change rule: a blue vertex with
exactly one white neighbor colors that neighbor blue.  The closure of a set
is the unique fixed point of the rule; a set is zero forcing when its closure
is the whole vertex set.  A fort is a nonempty set F such that no outside
vertex has exactly one neighbor in F; a set is zero forcing exactly when it
meets every fort, which is the duality the test suite exercises from both
sides.  The upper zero forcing number Zbar is a ZIr-set search and lives
in ``irredundance``.

Two kernels close sets, one per route, so the routes the tests compare
share no closure code.  The solvers' ``_close`` closes one set from a work
list of the blue vertices that may force, memoized by ``ClosureCache``,
whose ``add`` closes a closed set plus one vertex from that vertex.  The
table route's ``close_all_subsets`` closes all 2^n sets at once, one
2^n-bit int per vertex (Knuth, TAOCP 4A, §7.1.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import BudgetError, PreconditionError
from .graphs import Graph, _first_subset, _masks_of_size, bit_list, bits

FORT_ENUM_MAX_ORDER = 20


@dataclass(frozen=True)
class ForceStep:
    """One application of the color change rule."""

    forcer: int
    forced: int
    step: int

    def to_dict(self) -> dict:
        return {"forcer": self.forcer, "forced": self.forced, "step": self.step}


def _close(adj: tuple[int, ...], blue: int, todo: int) -> int:
    """Fixed point of the color change rule starting from ``blue``.

    ``todo`` holds the blue vertices that may force: all of ``blue`` from
    any start, or w and its blue neighbours when ``blue`` minus the bit w
    is already closed.  A force of x puts x and its blue neighbours on the
    list, the only vertices whose white neighbourhood shrank, so a closure
    costs the forces it makes rather than full sweeps.  A set that forces
    nothing comes back as the same object.
    """
    while todo:
        low = todo & -todo
        todo ^= low
        x = adj[low.bit_length() - 1] & ~blue
        if x and not (x & (x - 1)):
            blue |= x
            todo |= x | (adj[x.bit_length() - 1] & blue)
    return blue


class ClosureCache:
    """Memoized closures for one graph; at most 2^n entries.

    ``closure`` closes any set; ``add`` closes a closed set plus one
    outside vertex, seeding ``_close`` with that vertex alone.  Both share
    one memo keyed by the set closed.
    """

    __slots__ = ("adj", "_memo")

    def __init__(self, g: Graph):
        self.adj = g.adj
        self._memo: dict[int, int] = {}

    def closure(self, blue: int) -> int:
        got = self._memo.get(blue)
        if got is None:
            got = self._memo[blue] = _close(self.adj, blue, blue)
        return got

    def add(self, closed: int, w: int) -> int:
        """cl(closed + w) for a closed set ``closed`` and a bit w outside it."""
        blue = closed | w
        got = self._memo.get(blue)
        if got is None:
            got = self._memo[blue] = _close(
                self.adj, blue, w | self.adj[w.bit_length() - 1] & closed)
        return got


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


def close_all_subsets(adj: tuple[int, ...], start: Sequence[int]) -> list[int]:
    """Closures of 2^n sets at once: bit m of entry v says whether v lies in
    the closure of {u : bit m of ``start[u]``}, which is m when start is X_v.

    B_w |= B_u & ⋀_{y ∈ N(u) − w} B_y runs to a fixed point from a work
    list of forcers swept in rounds.  A grown B_w puts w and its neighbours
    other than u on it: where u forces w, u's other neighbours are blue.
    """
    blue, todo, u = list(start), (1 << len(adj)) - 1, -1
    while todo:
        # sweep round after round: the next forcer on the list after u
        ahead = todo >> u + 1 << u + 1 or todo
        low = ahead & -ahead
        todo ^= low
        u = low.bit_length() - 1
        ys = bit_list(adj[u])
        # each w takes the AND over N(u) − w from a prefix and a suffix
        before = [blue[u]]
        for y in ys[:-1]:
            before.append(before[-1] & blue[y])
        after = -1
        for w, first in zip(reversed(ys), reversed(before)):
            grown = first & after & ~blue[w]
            if grown:
                blue[w] |= grown
                todo |= (1 << w | adj[w]) & ~low
            after &= blue[w]
    return blue


def closure(g: Graph, blue: int) -> int:
    """Final coloring of ``blue`` under repeated color changes."""
    return _close(g.adj, blue, blue)


def closure_with_chronicle(g: Graph, blue: int) -> tuple[int, list[ForceStep]]:
    """Closure plus the force sequence produced by ascending-index scans.

    The final set does not depend on the order of forces; the chronicle is
    deterministic so debug output is reproducible.
    """
    adj = g.adj
    steps: list[ForceStep] = []
    changed = True
    while changed:
        changed = False
        for v in range(g.n):
            if (blue >> v) & 1:
                w = adj[v] & ~blue
                if w and not (w & (w - 1)):
                    forced = w.bit_length() - 1
                    blue |= w
                    steps.append(ForceStep(v, forced, len(steps)))
                    changed = True
    return blue, steps


def is_zero_forcing_set(g: Graph, b: int, cache: ClosureCache | None = None) -> bool:
    cl = cache.closure(b) if cache else _close(g.adj, b, b)
    return cl == g.full


def is_fort(g: Graph, f: int) -> bool:
    """True iff f is nonempty and no outside vertex has exactly one neighbor in f."""
    if not f:
        return False
    adj = g.adj
    outside = g.full & ~f
    while outside:
        low = outside & -outside
        outside ^= low
        if (adj[low.bit_length() - 1] & f).bit_count() == 1:
            return False
    return True


def max_fort_avoiding(g: Graph, a: int, cache: ClosureCache | None = None) -> int | None:
    """The largest fort disjoint from ``a``, or None if no such fort exists.

    This is the complement of the closure of ``a``: forcing from ``a`` can
    never enter a fort it does not meet, and the uncolored remainder (when
    nonempty) is itself a fort.
    """
    cl = cache.closure(a) if cache else _close(g.adj, a, a)
    rest = g.full & ~cl
    return rest if rest else None


def zero_forcing_number(g: Graph, cache: ClosureCache | None = None,
                        lower: int = 0) -> tuple[int, int]:
    """Minimum size of a zero forcing set and the lexicographically least witness.

    The scan starts at size max(delta, ``lower``).  Below delta every member
    of a set keeps at least two neighbours outside it, so nothing is forced.
    ``lower`` is a known lower bound on Z, such as zir(G): a minimum zero
    forcing set is a minimal one, hence a ZIr-set, and a ZIr-set that forces
    is maximal, since every outside vertex lies in its closure; so zir <= Z.
    No size below a valid bound holds a forcing set, so the witness is the
    same as with no bound.
    """
    cache = cache or ClosureCache(g)
    m = _first_subset(g.n, lambda m: cache.closure(m) == g.full,
                      max(g.min_degree(), lower))
    return m.bit_count(), m


def is_minimal_zfs(g: Graph, b: int, cache: ClosureCache | None = None) -> bool:
    """True iff b forces and no single removal still forces."""
    cache = cache or ClosureCache(g)
    if cache.closure(b) != g.full:
        return False
    for x in bits(b):
        if cache.closure(b & ~(1 << x)) == g.full:
            return False
    return True


def enumerate_forts(g: Graph) -> list[int]:
    """All forts, ascending by (size, lexicographic vertex order)."""
    if g.n > FORT_ENUM_MAX_ORDER:
        raise BudgetError(
            f"fort enumeration supports n <= {FORT_ENUM_MAX_ORDER}, got {g.n}")
    out = []
    for k in range(1, g.n + 1):
        for m in _masks_of_size(g.n, k):
            if is_fort(g, m):
                out.append(m)
    return out


def enumerate_minimal_forts(g: Graph) -> list[int]:
    """All inclusion-minimal forts, ascending by (size, lexicographic).

    Ascends by cardinality and keeps a fort only when it contains no smaller
    kept fort; same-size forts can never nest, so the kept list is exactly
    the minimal forts.
    """
    if g.n > FORT_ENUM_MAX_ORDER:
        raise BudgetError(
            f"minimal fort enumeration supports n <= {FORT_ENUM_MAX_ORDER}, got {g.n}")
    minimal: list[int] = []
    for k in range(1, g.n + 1):
        for m in _masks_of_size(g.n, k):
            if any(f & m == f for f in minimal):
                continue
            if is_fort(g, m):
                minimal.append(m)
    return minimal


def is_z_irrelevant(g: Graph, v: int) -> bool:
    """True iff v lies in no minimal fort (equivalently, in no minimal
    zero forcing set)."""
    if not 0 <= v < g.n:
        raise PreconditionError(f"vertex {v} out of range")
    return all(not (f >> v) & 1 for f in enumerate_minimal_forts(g))
