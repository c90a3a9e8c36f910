"""Exact domination, 2-domination, independence, and power domination.

All solvers scan ascending by cardinality with lexicographic tie-break, so
witnesses are deterministic.  An isolated vertex can never be k-dominated
from outside, so it belongs to every k-dominating witness; that falls out of
the definition with no special casing.
"""

from __future__ import annotations

from .errors import PreconditionError
from .forcing import ClosureCache
from .graphs import Graph, _first_subset, bits


def _is_k_dominating(adj: tuple[int, ...], full: int, m: int, k: int) -> bool:
    outside = full & ~m
    while outside:
        low = outside & -outside
        outside ^= low
        if (adj[low.bit_length() - 1] & m).bit_count() < k:
            return False
    return True


def k_domination_number(g: Graph, k: int) -> tuple[int, int]:
    """Minimum set whose outside vertices all have >= k neighbors inside,
    as (size, mask).

    The scan runs once per graph and k; later calls read its witness back.
    """
    if k not in (1, 2):
        raise PreconditionError(f"k-domination implemented for k in {{1, 2}}, got {k}")
    m = g._domination.get(k)
    if m is None:
        m = g._domination[k] = _first_subset(
            g.n, lambda m: _is_k_dominating(g.adj, g.full, m, k))
    return m.bit_count(), m


def _grow_independent(adj: tuple[int, ...], cur: int, cand: int, best: int) -> int:
    """The larger of ``best`` and the largest independent set extending
    ``cur`` by vertices of ``cand``; a set replaces the incumbent only when
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
    """Maximum independent set size with a deterministic witness."""
    adj = g.adj

    # greedy incumbent by ascending index
    best = 0
    cand = g.full
    while cand:
        low = cand & -cand
        v = low.bit_length() - 1
        best |= low
        cand &= ~(adj[v] | low)

    best = _grow_independent(adj, 0, g.full, best)
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
