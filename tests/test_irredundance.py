import random
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

from zirkit import domination, irredundance
from zirkit.errors import PreconditionError
from zirkit.families import (complete_bipartite_graph, complete_graph,
                             cycle_graph, empty_graph, fig3_graph, fig7_graph,
                             friendship_graph, generate, h_rs_graph,
                             path_graph, star_graph, wheel_graph)
from zirkit.forcing import (ClosureCache, closure, is_fort, is_minimal_zfs,
                            is_zero_forcing_set)
from zirkit.graphs import Graph, bit_list, bits, disjoint_union, join, mask_of
from zirkit.irredundance import (_cannot_stay_maximal, _certify, _grow, abandons_fort,
                                 graph_abandons_fort, has_private_fort, is_maximal_zir_set,
                                 is_zir_set, lower_zir_number, maximal_zir_sets,
                                 minimal_private_fort, upper_zero_forcing_number,
                                 upper_zir_number)
from zirkit.profiles import _SOLVERS, parameter_profile
from zirkit.subsets import TableFacts, exact_params

from oracles import (brute_closure, brute_forts, brute_zir_params, private_fort_exists,
                     random_adj)


def test_private_fort_requires_membership():
    with pytest.raises(PreconditionError):
        has_private_fort(cycle_graph(4), mask_of([0, 1]), 2)


def test_private_fort_in_complete_bipartite():
    # sets that omit one vertex from each side leave pair forts private
    g = complete_bipartite_graph(2, 3)
    s = mask_of([0, 2, 3])  # omits 1 from the small side, 4 from the large
    fort = has_private_fort(g, s, 0)
    assert fort is not None
    assert is_fort(g, fort) and fort & s == 1


def test_private_fort_fig7_example():
    g = fig7_graph()
    s = mask_of([2, 3])  # the {v3, v4} set
    for x in (2, 3):
        fort = has_private_fort(g, s, x)
        assert fort is not None and fort & s == 1 << x


def test_singleton_always_has_private_fort_in_connected_graph():
    for g in (cycle_graph(5), path_graph(4), star_graph(3)):
        fort = has_private_fort(g, 1, 0)
        assert fort is not None and is_fort(g, fort)


def test_fast_path_agrees_with_fort_enumeration(small_graphs, rng):
    for g in rng.sample(small_graphs, 250):
        forts = brute_forts(g.adj, g.n)
        cache = ClosureCache(g)
        for s in range(g.full + 1):
            for x in bits(s):
                fort = has_private_fort(g, s, x, cache)
                assert (fort is not None) == private_fort_exists(s, x, forts)
                if fort is not None:
                    assert is_fort(g, fort)
                    assert fort & s == 1 << x


def test_minimal_private_fort_examples():
    c5 = cycle_graph(5)
    fort = minimal_private_fort(c5, mask_of([0, 2]), 0)
    assert fort == mask_of([0, 1, 3])  # the only minimal choice

    fr2 = friendship_graph(2)
    assert minimal_private_fort(fr2, mask_of([1, 3]), 1) == mask_of([1, 2])

    k13 = star_graph(3)
    assert minimal_private_fort(k13, 1, 0) == k13.full  # center owns all of V


def test_minimal_private_fort_matching_graph():
    # one pass of single-vertex deletions cannot shrink the full vertex set
    # of a perfect matching; the recomputing shrink reaches an edge
    g = disjoint_union(complete_graph(2), complete_graph(2))
    assert minimal_private_fort(g, 1, 0) == mask_of([0, 1])


def test_minimal_private_fort_is_inclusion_minimal(small_graphs, rng):
    for g in rng.sample(small_graphs, 120):
        forts = brute_forts(g.adj, g.n)
        for _ in range(8):
            s = rng.randrange(1, g.full + 1)
            members = bit_list(s)
            x = rng.choice(members)
            fort = minimal_private_fort(g, s, x)
            if fort is None:
                assert not private_fort_exists(s, x, forts)
                continue
            assert fort & s == 1 << x and is_fort(g, fort)
            for f in forts:
                if f & s == 1 << x:
                    assert not (f & fort == f and f != fort)


def test_zir_set_examples():
    g = fig7_graph()
    assert is_zir_set(g, mask_of([2, 3]))
    # closed neighborhood inside the set kills the ZIr property
    p4 = path_graph(4)
    assert not is_zir_set(p4, mask_of([0, 1, 2]))
    assert is_zir_set(p4, 0)
    # any delta vertices of degree >= delta form a ZIr-set
    for g in (cycle_graph(6), complete_graph(5), wheel_graph(5)):
        d = g.min_degree()
        eligible = [v for v in range(g.n) if g.degree(v) >= d][:d]
        assert is_zir_set(g, mask_of(eligible))


def test_zir_heredity(small_graphs, rng):
    for g in rng.sample(small_graphs, 100):
        cache = ClosureCache(g)
        for s in range(g.full + 1):
            if is_zir_set(g, s, cache):
                for x in bits(s):
                    assert is_zir_set(g, s & ~(1 << x), cache)
    for n in (6, 7):
        for _ in range(15):
            g = Graph.from_adj(random_adj(n, rng))
            cache = ClosureCache(g)
            s = rng.randrange(g.full + 1)
            if is_zir_set(g, s, cache):
                sub = s & rng.randrange(g.full + 1)
                assert is_zir_set(g, sub, cache)


def test_maximal_zir_examples():
    c5 = cycle_graph(5)
    for a in range(5):
        for b in range(a + 1, 5):
            assert is_maximal_zir_set(c5, mask_of([a, b]))
    h35 = h_rs_graph(3, 5)
    assert is_maximal_zir_set(h35, mask_of([0, 4]))  # {u, y1}
    p5 = path_graph(5)
    assert not is_maximal_zir_set(p5, mask_of([1]))  # extends to {v2, v4}
    assert is_maximal_zir_set(p5, mask_of([1, 3]))


def test_zir_numbers_match_definition_oracle(small_graphs, rng):
    for g in rng.sample(small_graphs, 150):
        oracle = brute_zir_params(g.adj, g.n)
        assert lower_zir_number(g)[0] == oracle["zir"]
        assert upper_zir_number(g)[0] == oracle["ZIR"]
    for _ in range(10):
        g = Graph.from_adj(random_adj(6, rng))
        oracle = brute_zir_params(g.adj, g.n)
        assert lower_zir_number(g)[0] == oracle["zir"]
        assert upper_zir_number(g)[0] == oracle["ZIR"]


def test_zir_reads_no_domination(monkeypatch):
    # ZIR climbs from the empty set, so the domination sandwich it is
    # checked against gives it neither a start nor a cap
    def refuse(g, k):
        raise AssertionError("ZIR read a domination number")

    monkeypatch.setattr(domination, "k_domination_number", refuse)
    assert not hasattr(irredundance, "k_domination_number")
    for expr in ("star:5", "complete:5", "friendship:3", "fig5", "fig7"):
        g = generate(expr)
        assert upper_zir_number(g)[0] == exact_params(g)["ZIR"], expr


def test_zbar_reads_no_zir(monkeypatch):
    # Zbar's walk takes no start from ZIR, so the chain check's Zbar <= ZIR
    # compares two independent solves
    def refuse(g, cache=None):
        raise AssertionError("Zbar read ZIR")

    monkeypatch.setattr(irredundance, "upper_zir_number", refuse)
    for expr in ("path:6", "cycle:7", "h_rs:3,5", "complete:5", "friendship:3",
                 "wheel:5", "fig3", "join(path:4,empty:2)"):
        g = generate(expr)
        want = exact_params(g)["Zbar"]
        assert upper_zero_forcing_number(g)[0] == want, expr
        assert parameter_profile(g, params=("Zbar",)).values["Zbar"] == want, expr
        # a ZIR below Zbar among the values so far would cut a start short
        assert _SOLVERS["Zbar"](g, ClosureCache(g), {"ZIR": 0})[0] == want, expr


def test_zir_family_values():
    assert upper_zir_number(cycle_graph(6))[0] == 3
    assert upper_zir_number(cycle_graph(7))[0] == 3
    assert lower_zir_number(path_graph(6))[0] == 1
    assert lower_zir_number(star_graph(5))[0] == 1
    assert lower_zir_number(h_rs_graph(3, 5))[0] == 2
    assert upper_zir_number(wheel_graph(5))[0] == 3
    assert upper_zir_number(complete_bipartite_graph(2, 3))[0] == 3
    assert lower_zir_number(complete_bipartite_graph(2, 3))[0] == 2


def test_empty_graph_values_are_additive():
    g = empty_graph(4)
    assert lower_zir_number(g)[0] == 4
    assert upper_zir_number(g)[0] == 4


def test_corona_k2_c4_value_pinned():
    # the wheel factor C_4 ∨ K_1 falls outside the r >= 5 closed form: its
    # ZIR is 3, and the corona multiplies it, giving 6; both values are
    # checked against the definition-level oracle
    for g, value in ((wheel_graph(4), 3),
                     (generate("corona(complete:2,cycle:4)"), 6)):
        assert upper_zir_number(g)[0] == brute_zir_params(g.adj, g.n)["ZIR"] == value


def test_degree_d_sets_are_zir_sets(small_graphs, rng):
    # any d vertices, each of degree at least d, form a ZIr-set
    for g in rng.sample([g for g in small_graphs if g.size() > 0], 80):
        for d in range(1, g.max_degree() + 1):
            eligible = [v for v in range(g.n) if g.degree(v) >= d]
            if len(eligible) < d:
                continue
            chosen = rng.sample(eligible, d)
            assert is_zir_set(g, mask_of(chosen))


def test_zir_additive_over_disjoint_union(small_graphs, rng):
    parts = [g for g in small_graphs if 2 <= g.n <= 4]
    for _ in range(25):
        a, b = rng.choice(parts), rng.choice(parts)
        u = disjoint_union(a, b)
        assert lower_zir_number(u)[0] == lower_zir_number(a)[0] + lower_zir_number(b)[0]
        assert upper_zir_number(u)[0] == upper_zir_number(a)[0] + upper_zir_number(b)[0]


def test_zir_sets_decompose_over_components(small_graphs, rng):
    # a set is ZIr in a disjoint union exactly when each part restriction is
    parts = [g for g in small_graphs if 2 <= g.n <= 4]
    for _ in range(20):
        a, b = rng.choice(parts), rng.choice(parts)
        u = disjoint_union(a, b)
        low = (1 << a.n) - 1
        for s in range(u.full + 1):
            expected = is_zir_set(a, s & low) and is_zir_set(b, s >> a.n)
            assert is_zir_set(u, s) == expected


def test_witness_certificates_verify():
    for expr in ("cycle:6", "h_rs:3,5", "fig3", "wheel:5", "complete_bipartite:2,3"):
        g = generate(expr)
        for solver in (lower_zir_number, upper_zir_number):
            value, s = solver(g)
            assert s.bit_count() == value
            assert is_maximal_zir_set(g, s)
            forts = [has_private_fort(g, s, x) for x in bits(s)]
            assert None not in forts
            for x, fort in zip(bits(s), forts):
                assert is_fort(g, fort)
                assert fort & s == 1 << x


def test_private_fort_union_size_bound(small_graphs, rng):
    # |S| <= n - |union of the first k private forts| + k for every prefix
    for g in rng.sample(small_graphs, 60):
        for solver in (lower_zir_number, upper_zir_number):
            _, s = solver(g)
            union = 0
            for k, x in enumerate(bits(s), start=1):
                union |= has_private_fort(g, s, x)
                assert s.bit_count() <= g.n - union.bit_count() + k


def test_complement_of_maximal_zir_set_dominates(small_graphs, rng):
    for g in rng.sample([g for g in small_graphs if g.isolated_vertices() == 0], 80):
        cache = ClosureCache(g)
        for s in range(g.full + 1):
            if is_maximal_zir_set(g, s, cache):
                comp = g.full & ~s
                assert all((comp >> v) & 1 or g.adj[v] & comp for v in range(g.n))


def test_certify_rejects_a_member_without_a_private_fort(monkeypatch):
    # every printed witness re-verifies: on the path 0-1-2, {0, 1} leaves 1
    # no private fort, since 0 alone forces 1
    g = path_graph(3)
    s = mask_of([0, 1])
    assert has_private_fort(g, s, 1) is None
    with pytest.raises(AssertionError, match="lost a private fort"):
        _certify(g, s, ClosureCache(g))
    assert _certify(g, mask_of([0]), ClosureCache(g)) == mask_of([0])
    # the solvers that read the largest-ZIr-set walk certify what it returns
    monkeypatch.setattr(irredundance, "_largest_zir_set", lambda *args: s)
    for solve in (upper_zir_number, upper_zero_forcing_number):
        with pytest.raises(AssertionError, match="lost a private fort"):
            solve(g)


def test_abandons_fort_examples():
    fig3 = fig3_graph()
    s = mask_of([0, 3, 4])
    fort = abandons_fort(fig3, s)
    assert fort is not None and fort & mask_of([1, 2]) == mask_of([1, 2])

    p4_2k1 = join(path_graph(4), empty_graph(2))
    fort = abandons_fort(p4_2k1, mask_of(range(4)))
    assert fort == mask_of([4, 5])

    # a maximal ZIr-set that forces abandons nothing
    c6 = cycle_graph(6)
    assert is_maximal_zir_set(c6, mask_of([0, 1]))
    assert abandons_fort(c6, mask_of([0, 1])) is None

    with pytest.raises(PreconditionError):
        abandons_fort(fig3, mask_of([0]))


def test_graph_abandons_fort():
    assert graph_abandons_fort(friendship_graph(2)) is None
    assert graph_abandons_fort(friendship_graph(3)) is None
    for expr in ("wheel:5", "fig3", "join(path:4,empty:2)"):
        g = generate(expr)
        witness = graph_abandons_fort(g)
        assert witness is not None
        s, fort = witness
        assert is_maximal_zir_set(g, s)
        assert s.bit_count() == upper_zir_number(g)[0]
        assert is_fort(g, fort) and not fort & s
        assert not is_zero_forcing_set(g, s)


def test_graph_abandons_fort_is_the_first_non_forcing_top_set(small_graphs):
    # the set is the first ZIr-set of size ZIR in (size, lexicographic)
    # order that does not force, by the definitions alone, and the fort the
    # uncolored rest; there is one exactly when the table route says so
    for g in small_graphs + _gnp_graphs(40, range(8, 12), 20261020):
        cache = ClosureCache(g)
        zir_sets = [s for s in range(g.full + 1) if is_zir_set(g, s, cache)]
        top = max(s.bit_count() for s in zir_sets)
        first = min((s for s in zir_sets if s.bit_count() == top
                     and brute_closure(g.adj, s) != g.full), key=bit_list, default=None)
        got = graph_abandons_fort(g)
        assert (got is not None) == (first is not None) == TableFacts(g).abandons, g.adj
        if got is not None:
            assert got == (first, g.full & ~brute_closure(g.adj, first)), g.adj


def test_abandonment_vs_not_forcing(small_graphs, rng):
    # a maximal ZIr-set abandons a fort exactly when it fails to force
    for g in rng.sample(small_graphs, 60):
        cache = ClosureCache(g)
        for s in range(g.full + 1):
            if is_maximal_zir_set(g, s, cache):
                abandoned = abandons_fort(g, s, cache)
                assert (abandoned is not None) == (not is_zero_forcing_set(g, s, cache))


def _gnp_graphs(count, orders, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n, p = rng.choice(orders), rng.choice((0.3, 0.5, 0.7))
        out.append(Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                             if rng.random() < p]))
    return out


def _first_witnesses(g):
    """Each parameter's witness by a scan of every subset in (size,
    lexicographic) order, on the definitions alone: the first set that meets
    a minimum parameter's definition, and the first set of the top size that
    meets a maximum parameter's."""
    cache = ClosureCache(g)
    adj, full = g.adj, g.full
    order = sorted(range(full + 1), key=lambda s: (s.bit_count(), bit_list(s)))

    def dominates(s, k):
        return all((adj[v] & s).bit_count() >= k for v in bits(full & ~s))

    def power_dominates(s):
        return brute_closure(adj, reduce(or_, (adj[v] for v in bits(s)), s)) == full

    definitions = {
        "zir": (min, lambda s: is_maximal_zir_set(g, s, cache)),
        "Z": (min, lambda s: brute_closure(adj, s) == full),
        "Zbar": (max, lambda s: is_minimal_zfs(g, s, cache)),
        "ZIR": (max, lambda s: is_zir_set(g, s, cache)),
        "gamma": (min, lambda s: dominates(s, 1)),
        "gamma2": (min, lambda s: dominates(s, 2)),
        "alpha": (max, lambda s: not any(adj[v] & s for v in bits(s))),
        "gammaP": (min, power_dominates),
    }
    first = {}
    for name, (pick, holds) in definitions.items():
        sets = [s for s in order if holds(s)]
        size = pick(s.bit_count() for s in sets)
        first[name] = bit_list(next(s for s in sets if s.bit_count() == size))
    return first


def test_witnesses_are_the_first_in_search_order(small_graphs):
    # every solver, alone and in the profile's chain, returns the first set
    # of its size that meets its parameter's definition
    for g in small_graphs + _gnp_graphs(40, range(8, 12), 20261018):
        alone = {p: bit_list(solve(g, ClosureCache(g), {})[1])
                 for p, solve in _SOLVERS.items()}
        assert parameter_profile(g).witnesses == alone == _first_witnesses(g), g.adj


@st.composite
def _graphs(draw, max_order=9):
    n = draw(st.integers(1, max_order))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


@settings(deadline=None)
@given(_graphs())
def test_grow_step_matches_definition(g):
    cache = ClosureCache(g)
    for t in range(g.full + 1):
        if not is_zir_set(g, t, cache):
            continue
        members = tuple((1 << x, closure(g, t & ~(1 << x))) for x in bits(t))
        for w in bits(g.full & ~t):
            s = t | 1 << w
            grown = _grow(closure(g, t), members, 1 << w, cache.add)
            assert (grown is not None) == is_zir_set(g, s, cache)
            if grown is not None:
                assert grown[0] == closure(g, s)
                assert sorted(grown[1]) == [(1 << x, closure(g, s & ~(1 << x)))
                                            for x in bits(s)]


def test_maximal_zir_sets_walk_matches_subset_scan(small_graphs):
    for g in small_graphs + _gnp_graphs(24, range(7, 11), 20261019):
        cache = ClosureCache(g)
        scan = [s for s in range(g.full + 1) if is_maximal_zir_set(g, s, cache)]
        assert maximal_zir_sets(g) == scan, g.adj


@settings(deadline=None)
@given(_graphs(max_order=8))
def test_maximality_cut_keeps_every_small_maximal_set(g):
    # the zir walk drops the sets t + A (A within cand, |A| <= r) when the
    # cut fires; for every t and cand a scan of all the maximal ZIr-sets
    # must then find none there
    cache = ClosureCache(g)
    maximal = [s for s in range(g.full + 1) if is_maximal_zir_set(g, s, cache)]
    for t in range(1, g.full + 1):
        above = g.full & ~((1 << t.bit_length()) - 1)
        cand = above
        while True:
            smallest = min(((s & ~t).bit_count() for s in maximal
                            if s & t == t and not s & ~(t | cand)), default=g.n)
            for r in range(cand.bit_count() + 1):
                if _cannot_stay_maximal(g.adj, t, cand, r):
                    assert r < smallest, (g.adj, t, cand, r)
            if not cand:
                break
            cand = (cand - 1) & above
