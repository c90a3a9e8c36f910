"""Exact domination, 2-domination, independence, and power domination.

Each witness is the first set of its size in lexicographic order: gamma,
gamma2 and gammaP scan ascending by size, and alpha's branch-and-bound
visits the independent sets in that order, keeping only a strictly larger
one.  An isolated vertex can never be k-dominated from outside, so it
belongs to every k-dominating witness; that falls out of the definition
with no special casing.

gamma and gamma2 walk the sets of each size as prefixes, in the order of
``graphs._masks_of_size``, carrying the vertices with at least one and two
neighbours in the prefix.  A prefix is dropped when some vertex below the
next pick and outside the prefix cannot reach k neighbours from the prefix
and the picks still to come, so the walk meets the scan's first set after
far fewer sets.
"""

from __future__ import annotations

from .errors import PreconditionError
from .forcing import ClosureCache
from .graphs import Graph, _first_subset, bits


def _first_k_dominating(adj: tuple[int, ...], reach: list[tuple[int, int]], k: int,
                        j: int, m: int, once: int, twice: int, start: int) -> int | None:
    """The first k-dominating set, in lexicographic order, that adds j
    vertices of ``start``..n-1 to m, or None.

    ``once`` and ``twice`` hold the vertices with at least one and two
    neighbours in m; ``reach[v]`` holds those with at least one and two
    neighbours in v..n-1.  Before v is picked, every vertex below v and
    outside m stays outside, so it needs its k neighbours from m and j
    picks of v..n-1; when one cannot have them, no later v helps either.
    Plain recursion, like ``_grow_independent``.
    """
    n = len(adj)
    if j == 0:
        return None if ~(m | (once if k == 1 else twice)) & ((1 << n) - 1) else m
    for v in range(start, n - j + 1):
        one, two = reach[v]
        if k == 1:
            good = once | one
        else:
            good = twice | once & one | (two if j > 1 else 0)
        if ~(m | good) & ((1 << v) - 1):
            return None
        nb = adj[v]
        got = _first_k_dominating(adj, reach, k, j - 1, m | 1 << v, once | nb,
                                  twice | once & nb, v + 1)
        if got is not None:
            return got
    return None


def k_domination_number(g: Graph, k: int) -> tuple[int, int]:
    """Minimum set whose outside vertices all have >= k neighbors inside,
    as (size, mask).

    Each size is walked in the lexicographic order of its sets, so the
    witness is the first minimum k-dominating set.
    """
    if k not in (1, 2):
        raise PreconditionError(f"k-domination implemented for k in {{1, 2}}, got {k}")
    adj = g.adj
    reach = [(0, 0)] * g.n
    one = two = 0
    for u in range(g.n - 1, -1, -1):
        two |= one & adj[u]
        one |= adj[u]
        reach[u] = (one, two)
    size = 0
    while (m := _first_k_dominating(adj, reach, k, size, 0, 0, 0, 0)) is None:
        size += 1
    return size, m


def _grow_independent(adj: tuple[int, ...], cur: int, cand: int, best: int) -> int:
    """The larger of ``best`` and the largest independent set extending
    ``cur`` by vertices of ``cand``; a set replaces ``best`` only when
    strictly larger, so the first found in branch order wins a tie.

    Plain recursion, not a nested closure, so no reference cycle outlives
    the search.
    """
    size = cur.bit_count()
    while cand:
        if size + cand.bit_count() <= best.bit_count():
            return best
        low = cand & -cand
        cand ^= low
        took = cur | low
        if size + 1 > best.bit_count():
            best = took
        best = _grow_independent(adj, took, cand & ~adj[low.bit_length() - 1], best)
    return best


def independence_number(g: Graph) -> tuple[int, int]:
    """Maximum independent set size, with the lexicographically first
    maximum independent set as its witness."""
    best = _grow_independent(g.adj, 0, g.full, 0)
    return best.bit_count(), best


def power_domination_number(g: Graph) -> tuple[int, int]:
    """Minimum seed set whose closed neighborhood forces the whole graph."""
    cache = ClosureCache(g)
    adj = g.adj

    def power_dominates(m: int) -> bool:
        seed = m
        for v in bits(m):
            seed |= adj[v]
        return cache.closure(seed) == g.full

    m = _first_subset(g.n, power_dominates)
    return m.bit_count(), m
