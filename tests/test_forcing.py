import pytest
from hypothesis import given, settings

from zirkit.errors import BudgetError
from zirkit.families import (complete_graph, cycle_graph, friendship_graph,
                             generate, h_rs_graph, path_graph, star_graph)
from zirkit.forcing import (ClosureCache, _close, close_all_subsets, closure,
                            closure_with_chronicle,
                            enumerate_forts, enumerate_minimal_forts, is_fort,
                            is_minimal_zfs, is_z_irrelevant,
                            is_zero_forcing_set, max_fort_avoiding,
                            subset_tables, zero_forcing_number)
from zirkit.graphs import Graph, bits, mask_of
from zirkit.irredundance import upper_zero_forcing_number

from oracles import brute_closure, brute_forcing_params, brute_forts, brute_minimal_forts
from strategies import graphs


def test_closure_path_from_endpoint():
    assert closure(path_graph(4), 0b0001) == 0b1111


def test_closure_stalls_on_cycle_singleton():
    assert closure(cycle_graph(4), 0b0001) == 0b0001


def test_closure_stalls_on_star_center():
    assert closure(star_graph(3), 0b0001) == 0b0001


def test_closure_operator_laws(small_graphs, rng):
    sample = rng.sample(small_graphs, 200)
    for g in sample:
        for _ in range(6):
            b = rng.randrange(g.full + 1)
            b2 = rng.randrange(g.full + 1)
            cl = closure(g, b)
            assert cl & b == b                      # extensive
            assert closure(g, cl) == cl             # idempotent
            assert closure(g, b | b2) & cl == cl    # monotone


def test_chronicle_steps_are_valid_forces():
    g = path_graph(5)
    final, steps = closure_with_chronicle(g, 0b00001)
    assert final == g.full
    assert [s.step for s in steps] == list(range(len(steps)))
    blue = 0b00001
    for s in steps:
        white_nbrs = g.adj[s.forcer] & ~blue
        assert white_nbrs == 1 << s.forced  # unique white neighbor at that time
        blue |= 1 << s.forced
    assert blue == final


def test_zfs_examples():
    c5 = cycle_graph(5)
    assert is_zero_forcing_set(c5, mask_of([0, 1]))
    assert not is_zero_forcing_set(c5, mask_of([0, 2]))
    g = complete_graph(4)
    assert is_zero_forcing_set(g, g.full)
    k23 = generate("complete_bipartite:2,3")
    assert not is_zero_forcing_set(k23, mask_of([0, 1]))


def test_singleton_fort_iff_isolated(small_graphs, rng):
    for g in rng.sample(small_graphs, 60):
        for v in range(g.n):
            assert is_fort(g, 1 << v) == (g.degree(v) == 0)


def test_fort_examples():
    c5 = cycle_graph(5)
    assert is_fort(c5, mask_of([0, 1, 3]))
    assert not is_fort(c5, mask_of([0, 1, 2]))
    assert is_fort(c5, c5.full)
    fr = friendship_graph(3)
    assert is_fort(fr, mask_of([1, 2]))
    assert not is_fort(fr, 0)


def test_zfs_iff_hits_every_fort(small_graphs, named_corpus, rng):
    graphs = rng.sample(small_graphs, 250) + [g for _, g in named_corpus if g.n <= 8]
    for g in graphs:
        forts = brute_forts(g.adj, g.n)
        minimal = brute_minimal_forts(g.adj, g.n)
        cache = ClosureCache(g)
        subsets = range(g.full + 1) if g.n <= 5 else \
            [rng.randrange(g.full + 1) for _ in range(120)]
        for b in subsets:
            forces = is_zero_forcing_set(g, b, cache)
            assert forces == all(b & f for f in forts)
            assert forces == all(b & f for f in minimal)


def test_union_of_forts_is_fort(small_graphs, rng):
    for g in rng.sample([g for g in small_graphs if g.n >= 3], 120):
        forts = brute_forts(g.adj, g.n)
        for _ in range(30):
            f1, f2 = rng.choice(forts), rng.choice(forts)
            assert is_fort(g, f1 | f2)


def test_max_fort_avoiding_examples():
    assert max_fort_avoiding(path_graph(4), 0b0001) is None
    c5 = cycle_graph(5)
    assert max_fort_avoiding(c5, mask_of([0])) == mask_of([1, 2, 3, 4])
    fr2 = friendship_graph(2)
    assert max_fort_avoiding(fr2, mask_of([0])) == fr2.full & ~1


def test_max_fort_avoiding_contains_every_avoiding_fort(small_graphs, rng):
    for g in rng.sample(small_graphs, 150):
        forts = brute_forts(g.adj, g.n)
        for _ in range(10):
            a = rng.randrange(g.full + 1)
            w = max_fort_avoiding(g, a)
            if w is not None:
                assert is_fort(g, w) and not w & a
            for f in forts:
                if not f & a:
                    assert w is not None and f & w == f


def test_zero_forcing_numbers():
    for n in (4, 5, 7):
        assert zero_forcing_number(cycle_graph(n))[0] == 2
    for n in (2, 4, 6):
        assert zero_forcing_number(complete_graph(n))[0] == n - 1
    assert zero_forcing_number(h_rs_graph(3, 5))[0] == 3
    assert zero_forcing_number(path_graph(6)) == (1, 1)  # witness {v1}


def test_upper_zero_forcing_numbers():
    for n in (4, 5, 7):
        assert upper_zero_forcing_number(path_graph(n))[0] == 2
    assert upper_zero_forcing_number(h_rs_graph(3, 5))[0] == 4
    assert upper_zero_forcing_number(h_rs_graph(2, 3))[0] == 2
    assert upper_zero_forcing_number(complete_graph(3))[0] == 2


def test_forcing_numbers_match_fort_transversal_oracle(small_graphs, rng):
    for g in rng.sample(small_graphs, 120):
        oracle = brute_forcing_params(g.adj, g.n)
        assert zero_forcing_number(g)[0] == oracle["Z"]
        assert upper_zero_forcing_number(g)[0] == oracle["Zbar"]


def test_is_minimal_zfs_examples():
    h35 = h_rs_graph(3, 5)
    assert is_minimal_zfs(h35, mask_of([1, 2, 4]))  # two w's plus y_1
    k3 = complete_graph(3)
    assert not is_minimal_zfs(k3, k3.full)
    p5 = path_graph(5)
    assert not is_minimal_zfs(p5, mask_of([0, 4]))


def test_minimal_zfs_members_lie_in_minimal_forts(small_graphs, rng):
    # every vertex of a minimal zero forcing set is in some minimal fort
    for g in rng.sample([g for g in small_graphs if g.n == 5], 60):
        minimal_forts = brute_minimal_forts(g.adj, g.n)
        cache = ClosureCache(g)
        covered = 0
        for f in minimal_forts:
            covered |= f
        for b in range(g.full + 1):
            if is_minimal_zfs(g, b, cache):
                assert b & covered == b


def test_minimal_fort_enumeration_examples():
    c5 = cycle_graph(5)
    forts = enumerate_minimal_forts(c5)
    assert len(forts) == 5
    assert all(f.bit_count() == 3 for f in forts)
    expected = {mask_of(s) for s in ([0, 1, 3], [1, 2, 4], [2, 3, 0], [3, 4, 1], [4, 0, 2])}
    assert set(forts) == expected

    assert enumerate_minimal_forts(path_graph(3)) == [mask_of([0, 2])]

    fr2 = friendship_graph(2)
    forts = enumerate_minimal_forts(fr2)
    pair_forts = [f for f in forts if f.bit_count() == 2]
    center_forts = [f for f in forts if f & 1]
    assert sorted(pair_forts) == [mask_of([1, 2]), mask_of([3, 4])]
    assert len(center_forts) == 4 and all(f.bit_count() == 3 for f in center_forts)
    assert len(forts) == 6


def test_minimal_forts_match_oracle(small_graphs, rng):
    for g in rng.sample(small_graphs, 150):
        assert sorted(enumerate_minimal_forts(g)) == sorted(brute_minimal_forts(g.adj, g.n))


def test_every_fort_contains_a_minimal_fort(small_graphs, rng):
    for g in rng.sample(small_graphs, 80):
        minimal = enumerate_minimal_forts(g)
        for f in enumerate_forts(g):
            assert any(m & f == m for m in minimal)


def test_fort_enumeration_budget():
    with pytest.raises(BudgetError):
        enumerate_minimal_forts(Graph(21))


def test_z_irrelevance():
    assert is_z_irrelevant(path_graph(3), 1)
    assert not is_z_irrelevant(path_graph(3), 0)
    for v in range(5):
        assert not is_z_irrelevant(cycle_graph(5), v)
        assert not is_z_irrelevant(complete_graph(5), v)
    from zirkit.errors import PreconditionError
    with pytest.raises(PreconditionError):
        is_z_irrelevant(path_graph(3), 3)


def test_z_irrelevant_iff_in_no_minimal_zfs(small_graphs, rng):
    for g in rng.sample([g for g in small_graphs if g.n <= 5], 80):
        cache = ClosureCache(g)
        in_minimal_zfs = 0
        for b in range(g.full + 1):
            if is_minimal_zfs(g, b, cache):
                in_minimal_zfs |= b
        for v in range(g.n):
            assert is_z_irrelevant(g, v) == (not (in_minimal_zfs >> v) & 1)


def test_min_degree_lower_bound_and_chain(small_graphs, rng):
    for g in rng.sample(small_graphs, 120):
        z, _ = zero_forcing_number(g)
        zbar, _ = upper_zero_forcing_number(g)
        assert g.min_degree() <= z <= zbar


def test_chronicle_serializes_to_json_records():
    import json
    _, steps = closure_with_chronicle(path_graph(4), 0b0001)
    payload = json.loads(json.dumps([s.to_dict() for s in steps]))
    assert payload == [{"forcer": 0, "forced": 1, "step": 0},
                       {"forcer": 1, "forced": 2, "step": 1},
                       {"forcer": 2, "forced": 3, "step": 2}]


def test_witnesses_are_lexicographically_least():
    g = cycle_graph(5)
    z, wit = zero_forcing_number(g)
    assert (z, wit) == (2, mask_of([0, 1]))
    zbar, wit = upper_zero_forcing_number(g)
    assert zbar == 2 and wit == mask_of([0, 1])


@settings(deadline=None)
@given(graphs(8))
def test_seeded_closure_matches_full_closure(g):
    # the kernel closes any set from all of it, and a closed set plus one
    # outside vertex from that vertex alone; the memo entry the seeded
    # route leaves is the one a later plain lookup reads
    clo = [brute_closure(g.adj, m) for m in range(g.full + 1)]
    assert [closure(g, m) for m in range(g.full + 1)] == clo
    for c in {c for c in clo if c != g.full}:
        for v in range(g.n):
            w = 1 << v
            if c & w:
                continue
            want = clo[c | w]
            assert _close(g.adj, c | w, w | g.adj[v] & c) == want, (g.adj, c, v)
            cache = ClosureCache(g)
            assert cache.add(c, w) == want
            assert cache.closure(c | w) == want and len(cache._memo) == 1


def _set_at(tables: list[int], m: int) -> int:
    """The vertex set that bit m of per-vertex tables describes."""
    return mask_of(v for v, t in enumerate(tables) if t >> m & 1)


@settings(deadline=None)
@given(graphs(8))
def test_all_subsets_kernel_matches_closure(g):
    # bit m of member table v says v ∈ m and of layer k says |m| = k; the
    # bit-sliced kernel closes every set at once, from the sets themselves
    # and from their closed neighbourhoods N[m], the start power domination
    # closes
    members, layers = subset_tables(g.n)
    assert [_set_at(members, m) for m in range(g.full + 1)] == list(range(g.full + 1))
    assert [_set_at(layers, m) for m in range(g.full + 1)] == \
        [1 << m.bit_count() for m in range(g.full + 1)]
    hoods = [m | mask_of(u for v in bits(m) for u in bits(g.adj[v]))
             for m in range(g.full + 1)]
    hood_start = [mask_of(m for m, h in enumerate(hoods) if h >> v & 1) for v in range(g.n)]
    for start, sets in ((members, range(g.full + 1)), (hood_start, hoods)):
        closed = close_all_subsets(g.adj, start)
        for m, s in enumerate(sets):
            assert _set_at(closed, m) == brute_closure(g.adj, s), (g.adj, m)
