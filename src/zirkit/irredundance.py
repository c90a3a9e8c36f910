"""Private forts, and zir, ZIR and Zbar on one ZIr-set extension step.

A fort F is a private fort of x relative to S when F meets S exactly in
{x}.  S is a ZIr-set when every member owns a private fort; the property is
hereditary under subsets.  zir(G) and ZIR(G) are the minimum and maximum
sizes of a maximal ZIr-set; Zbar(G), the maximum size of a minimal zero
forcing set, is the maximum size of a ZIr-set that forces.

The privacy test runs through the forcing closure: a private fort of x
relative to S exists iff x survives outside the closure of S - {x}, in which
case the uncolored remainder is the unique maximum such fort.  So a
ZIr-set's mask determines its certificates: every solver returns
(value, witness mask), and ``has_private_fort`` recovers each member's
maximum private fort from the mask alone.  The test suite verifies this
against definition-level fort enumeration on every small graph, so the
fast path is gated by an independent oracle rather than assumed.

Every search grows ZIr-sets one vertex at a time with ``_grow``, which
carries the closure of the set and of each member's remainder, so adding a
vertex recloses each member's remainder closure with it: a closed set plus
the new vertex, by the seeded kernel behind ``ClosureCache.add``.  Two
lexicographic walks over the ZIr-sets serve every solver: one
(``_largest_zir_set``) keeps the first largest set whose closure a test
accepts, for ZIR (any), Zbar (V, without reading ZIR) and abandonment (not
V); the other (``_maximal_walk``) gives zir and the maximal ZIr-sets.
``is_zir_set`` and ``is_maximal_zir_set`` stay on the plain definition, and
the tests re-verify witnesses through them.

For zir, once a maximal ZIr-set of size b is found, the walk skips a
ZIr-set t whose subtree cannot hold a maximal ZIr-set smaller than b
(``_cannot_stay_maximal``).  The cut runs at t's parent, before t's last
vertex is grown, with the parent's later candidates: a superset of the
vertices that can still join t, and a cut that fires on a superset fires
on each subset.  The bound counts first forces, as
Z >= delta does (Barioli et al., "Zero forcing parameters and minimum rank
problems", LAA 2010): a vertex v left out of a maximal ZIr-set T makes
T + v fail, and that failure needs a force, so some u in T + v has at most
one neighbour outside T + v.  When, for some vertex below t's highest
member, no u can reach that with the members still allowed, every set
below t is cut.  The sets cut hold no maximal ZIr-set smaller than b, so
what the walk finds, the witness included, is unchanged; the walk over
every maximal ZIr-set (``maximal_zir_sets``) is not cut.
"""

from __future__ import annotations

from typing import Callable

from .errors import PreconditionError
from .forcing import ClosureCache, max_fort_avoiding
from .graphs import Graph, bit_list, bits


def has_private_fort(g: Graph, s: int, x: int,
                     cache: ClosureCache | None = None) -> int | None:
    """The maximum private fort of x relative to s, or None when x has none.

    That fort is the complement of the closure of s - {x}.
    """
    bx = 1 << x
    if not s & bx:
        raise PreconditionError(f"vertex {x} is not a member of the set")
    cache = cache or ClosureCache(g)
    cl = cache.closure(s & ~bx)
    return None if cl & bx else g.full & ~cl


def minimal_private_fort(g: Graph, s: int, x: int,
                         cache: ClosureCache | None = None) -> int | None:
    """An inclusion-minimal private fort of x relative to s, or None.

    Shrinks the maximum private fort by visiting vertices in descending
    index order: dropping v is allowed when some fort containing x still
    lives inside F - {v}, and the surviving region (complement of the
    closure of everything else) becomes the new F.  Single-vertex deletion
    alone can get stuck above a smaller fort, so each step recloses against
    the whole remainder; afterwards no member vertex is removable, which is
    exactly inclusion-minimality.
    """
    cache = cache or ClosureCache(g)
    fort = has_private_fort(g, s, x, cache)
    if fort is None:
        return None
    bx = 1 << x
    for v in reversed(bit_list(fort)):
        bv = 1 << v
        if bv == bx or not fort & bv:
            continue
        cl = cache.closure(g.full & ~(fort & ~bv))
        if not cl & bx:
            fort = g.full & ~cl
    return fort


def is_zir_set(g: Graph, s: int, cache: ClosureCache | None = None) -> bool:
    """True iff every member of s has a private fort (vacuously true for empty s)."""
    cache = cache or ClosureCache(g)
    for x in bits(s):
        if cache.closure(s & ~(1 << x)) & (1 << x):
            return False
    return True


def is_maximal_zir_set(g: Graph, s: int, cache: ClosureCache | None = None) -> bool:
    cache = cache or ClosureCache(g)
    if not is_zir_set(g, s, cache):
        return False
    for v in bits(g.full & ~s):
        if is_zir_set(g, s | (1 << v), cache):
            return False
    return True


def _certify(g: Graph, members: int, cache: ClosureCache) -> int:
    """``members``, once every member is checked to own a private fort."""
    if any(has_private_fort(g, members, x, cache) is None for x in bits(members)):
        raise AssertionError("witness lost a private fort; solver bug")
    return members


def upper_zir_number(g: Graph, cache: ClosureCache | None = None) -> tuple[int, int]:
    """ZIR(G): maximum size of a ZIr-set, with the lexicographically first
    such set as witness mask; it is automatically maximal."""
    cache = cache or ClosureCache(g)
    best = _largest_zir_set(cache, None, bit_list(g.full))
    return best.bit_count(), _certify(g, best, cache)


def upper_zero_forcing_number(g: Graph, cache: ClosureCache | None = None) -> tuple[int, int]:
    """Zbar(G): maximum size of a minimal zero forcing set, with its first witness.

    The minimal zero forcing sets are exactly the ZIr-sets that force: when
    s forces, a fort avoiding s - {x} contains x and is private to it.  So
    the witness is the first largest ZIr-set whose closure is V.
    """
    cache = cache or ClosureCache(g)
    got = _largest_zir_set(cache, lambda cl: cl == g.full, bit_list(g.full))
    return got.bit_count(), _certify(g, got, cache)


_Members = tuple[tuple[int, int], ...]


def _grow(ct: int, members: _Members, w: int, add: Callable[[int, int], int]
          ) -> tuple[int, _Members] | None:
    """One extension step of a ZIr-set t by the outside vertex bit w.

    ``members`` pairs each member bit x of t with cl(t - x), and ct = cl(t).
    Returns the same pair for t + w when it is still a ZIr-set, else None.
    Since cl(t - x + w) = cl(cl(t - x) | w), every member is reclosed with
    w.  Each cl(t - x) lies inside ct, which does not hold w, so each of
    those closures closes a closed set plus one bit outside it, and ``add``
    is ``ClosureCache.add``.
    """
    if ct & w:
        return None
    grown = []
    for x, cx in members:
        cx = add(cx, w)
        if cx & x:
            return None
        grown.append((x, cx))
    grown.append((w, ct))
    return add(ct, w), tuple(grown)


def _largest_zir_set(cache: ClosureCache, accept: Callable[[int], bool] | None,
                     verts: list[int], s: int = 0, cs: int = 0, members: _Members = (),
                     start: int = 0, best: int | None = None) -> int | None:
    """The lexicographically first largest ZIr-set that adds only bits of
    ``verts[start:]`` to the ZIr-set s and whose closure ``accept`` takes
    (any, for None), or ``best`` when none is larger.  cs = cl(s), and
    ``members`` holds s's member closures.

    Depth first in lexicographic order, extending only ZIr prefixes
    (heredity); ``best`` is replaced only by a strictly larger set, so it
    stays the first of its size, and a prefix stops once the vertices left
    cannot beat it.  Plain recursion, not a nested closure, so no reference
    cycle keeps ``cache`` alive after the walk.
    """
    size = len(members)
    if (best is None or size > best.bit_count()) and (accept is None or accept(cs)):
        best = s
    add = cache.add
    for i in range(start, len(verts)):
        if best is not None and size + len(verts) - i <= best.bit_count():
            break
        w = 1 << verts[i]
        grown = _grow(cs, members, w, add)
        if grown is not None:
            best = _largest_zir_set(cache, accept, verts, s | w, *grown, i + 1, best)
    return best


def _cannot_stay_maximal(adj: tuple[int, ...], t: int, cand: int, r: int) -> bool:
    """True when no maximal ZIr-set T with t <= T <= t | cand has at most r
    members outside t, by a counting argument on first forces.

    Take a lower outside vertex v (below t's highest member, not in t); it
    lies outside every such T.  If T is maximal, T + v is no ZIr-set, so
    some member y has y in cl(T + v - y), and the first force of that
    closure comes from some u in T + v with |N(u) - (T + v)| <= 1.  With
    M = N(u) - (t + v), T must then hold u (unless u is in t + v) and all
    of M but at most one vertex, and T adds only vertices of ``cand`` to
    t.  So v needs some u in t | cand | v where M has at most one vertex
    outside ``cand`` and [u not in t + v] + max(0, |M| - 1) <= r; a v
    without one rules out every T.  The per-u masks do not depend on v and
    are worked out once.
    """
    lower = ((1 << (t.bit_length() - 1)) - 1) & ~t
    white = ~(t | cand)
    covered = 0  # the lower v that some u in t | cand serves
    m = t | cand
    while m:
        low = m & -m
        m ^= low
        nb = adj[low.bit_length() - 1] & ~t
        out = nb & white
        k = out.bit_count()
        if k > 2:
            continue
        extra = 0 if t & low else 1
        need = nb.bit_count() - 1  # |M| - 1 for a v outside N(u)
        if k < 2 and extra + max(0, need) <= r:
            return False  # u serves every v
        if extra + max(0, need - 1) <= r:  # v in N(u) leaves M one smaller
            covered |= nb if k < 2 else out
    for v in bits(lower & ~covered):
        nb = adj[v] & ~t  # u = v, already in t + v
        if (nb & white).bit_count() > 1 or nb.bit_count() - 1 > r:
            return True
    return False


def _maximal_walk(cache: ClosureCache, t: int, ct: int, members: _Members,
                  cands: list[int], found: list[int], smaller: bool) -> None:
    """Append to ``found`` the maximal ZIr-sets that contain t and add only
    bits of ``cands`` above t's highest member, in lexicographic order.

    t is a ZIr-set given with ct = cl(t) and its member closures, and
    ``cands`` holds every bit above t's highest member whose addition may
    leave a ZIr-set.  Each candidate is grown when it is reached and, if
    t + w is a ZIr-set, its subtree is walked at once with the later
    candidates; one that failed at t fails again there (heredity).  t is
    maximal when no candidate and no lower outside bit passes ``_grow``.

    With ``smaller``, only sets smaller than the last one found are visited,
    so ``found`` ends with the first maximal ZIr-set of minimum size.  Then
    the first-force cut ``_cannot_stay_maximal`` runs before a candidate w
    is grown: on t + w, with every candidate after w and r = |last find| -
    2 - |t|.  Those candidates are a superset of the vertices that can
    still join t + w, and a cut that fires on a set of candidates fires on
    each of its subsets.  When it fires, some lower outside vertex stays
    addable to every set below t + w with at most r members more, so none
    of them is maximal, and w is skipped without a closure.  Only when no
    candidate grew are the skipped ones grown, to decide whether t itself
    is maximal.  Plain recursion, like ``_largest_zir_set``.
    """
    add = cache.add
    size = len(members)
    rest = sum(cands)  # the candidates after w
    held = []  # the candidates passed over without a grow
    grew = False
    for i, w in enumerate(cands):
        rest ^= w
        if smaller and found:
            r = found[-1].bit_count() - 2 - size
            if r < 0:  # no child can be smaller than the last find
                held += cands[i:]
                break
            if _cannot_stay_maximal(cache.adj, t | w, rest, r):
                held.append(w)
                continue
        grown = _grow(ct, members, w, add)
        if grown is not None:
            grew = True
            _maximal_walk(cache, t | w, *grown, cands[i + 1:], found, smaller)
    if grew or any(_grow(ct, members, w, add) is not None for w in held):
        return
    lower = ((1 << (t.bit_length() - 1)) - 1) & ~t  # t is never empty here
    if all(_grow(ct, members, 1 << v, add) is None for v in bits(lower)):
        found.append(t)


def lower_zir_number(g: Graph, cache: ClosureCache | None = None) -> tuple[int, int]:
    """zir(G): minimum size of a maximal ZIr-set, with its witness mask.

    One lexicographic walk over the ZIr-sets that, after each maximal set it
    finds, visits only smaller sets.  The witness is the lexicographically
    first maximal ZIr-set of minimum size.
    """
    cache = cache or ClosureCache(g)
    found: list[int] = []
    _maximal_walk(cache, 0, 0, (), [1 << v for v in range(g.n)], found, True)
    return found[-1].bit_count(), _certify(g, found[-1], cache)


def maximal_zir_sets(g: Graph, cache: ClosureCache | None = None) -> list[int]:
    """Every maximal ZIr-set of g, as ascending masks, by the same walk."""
    cache = cache or ClosureCache(g)
    found: list[int] = []
    _maximal_walk(cache, 0, 0, (), [1 << v for v in range(g.n)], found, False)
    return sorted(found)


def abandons_fort(g: Graph, s: int, cache: ClosureCache | None = None) -> int | None:
    """The largest fort disjoint from the maximal ZIr-set s, or None.

    Present exactly when s is not a zero forcing set.  Abandonment is only
    meaningful relative to maximal ZIr-sets, so the precondition is enforced.
    """
    cache = cache or ClosureCache(g)
    if not is_maximal_zir_set(g, s, cache):
        raise PreconditionError("abandons_fort requires a maximal ZIr-set")
    return max_fort_avoiding(g, s, cache)


def graph_abandons_fort(g: Graph, cache: ClosureCache | None = None
                        ) -> tuple[int, int] | None:
    """(set, fort) for the first maximum-size ZIr-set that fails to be a
    zero forcing set and the largest fort it abandons, or None when every
    maximum-size ZIr-set forces.

    The first largest ZIr-set whose closure is not V, kept at size ZIR(G).
    """
    cache = cache or ClosureCache(g)
    found = _largest_zir_set(cache, lambda cl: cl != g.full, bit_list(g.full))
    if found is None or found.bit_count() < upper_zir_number(g, cache)[0]:
        return None
    fort = max_fort_avoiding(g, found, cache)
    if fort is None:
        raise AssertionError("non-forcing set must leave a fort uncolored")
    return _certify(g, found, cache), fort
