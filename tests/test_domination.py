import pytest
from hypothesis import given, settings

from zirkit.errors import PreconditionError
from zirkit.families import (complete_graph, corona, cycle_graph, empty_graph,
                             fig5_graph, fig7_graph, generate, path_graph,
                             star_graph)
from zirkit.domination import (independence_number, k_domination_number,
                               power_domination_number)
from zirkit.forcing import closure
from zirkit.graphs import Graph, bits

from oracles import (brute_domination, brute_independence,
                     brute_power_domination, first_k_dominating, random_adj)
from strategies import graphs


def test_domination_examples():
    assert k_domination_number(cycle_graph(6), 1)[0] == 2
    assert k_domination_number(cycle_graph(7), 1)[0] == 3
    assert k_domination_number(fig5_graph(), 2)[0] == 3
    assert k_domination_number(star_graph(4), 1)[0] == 1


def test_k_restricted_to_one_and_two():
    with pytest.raises(PreconditionError):
        k_domination_number(path_graph(3), 3)


def test_isolated_vertices_forced_into_witness():
    g = empty_graph(3)
    for k in (1, 2):
        assert k_domination_number(g, k) == (3, g.full)


def test_domination_witness_is_valid_and_minimal_size(small_graphs, rng):
    for g in rng.sample(small_graphs, 120):
        for k in (1, 2):
            value, witness = k_domination_number(g, k)
            assert value == brute_domination(g.adj, g.n, k)
            assert witness.bit_count() == value
            outside = g.full & ~witness
            for v in bits(outside):
                assert (g.adj[v] & witness).bit_count() >= k


@settings(deadline=None)
@given(graphs(9))
def test_domination_witness_is_the_first_in_scan_order(g):
    # the prefix walk's prune keeps the (size, lexicographic) scan's first
    # set; ZIR's seed and the printed witnesses read it
    for k in (1, 2):
        assert k_domination_number(g, k)[1] == first_k_dominating(g, k), (g.adj, k)


def test_two_domination_implies_domination(small_graphs, rng):
    for g in rng.sample(small_graphs, 80):
        gamma, _ = k_domination_number(g, 1)
        gamma2, d2 = k_domination_number(g, 2)
        assert gamma <= gamma2
        outside = g.full & ~d2
        assert all(g.adj[v] & d2 for v in bits(outside))


def test_two_domination_degree_bounds(small_graphs, rng):
    # delta >= 3 forces gamma2 <= n/2; delta = 2 forces gamma2 <= 2n/3
    for g in rng.sample(small_graphs, 150):
        g2 = k_domination_number(g, 2)[0]
        if g.min_degree() >= 3:
            assert 2 * g2 <= g.n
        elif g.min_degree() == 2:
            assert 3 * g2 <= 2 * g.n


def test_independence_examples():
    assert independence_number(complete_graph(6))[0] == 1
    assert independence_number(cycle_graph(5))[0] == 2
    assert independence_number(corona(cycle_graph(4), empty_graph(2)))[0] == 8


def test_independence_matches_oracle(small_graphs, rng):
    for g in rng.sample(small_graphs, 120):
        value, wit = independence_number(g)
        assert value == brute_independence(g.adj, g.n)
        assert wit.bit_count() == value
        assert all(not g.adj[v] & wit for v in bits(wit))
    for _ in range(10):
        g = Graph.from_adj(random_adj(7, rng))
        assert independence_number(g)[0] == brute_independence(g.adj, g.n)


def test_power_domination_examples():
    assert power_domination_number(fig7_graph())[0] == 2
    for n in (3, 5, 8):
        assert power_domination_number(cycle_graph(n))[0] == 1
    assert power_domination_number(complete_graph(7))[0] == 1


def test_power_domination_witness_and_oracle(small_graphs, rng):
    for g in rng.sample(small_graphs, 100):
        value, wit = power_domination_number(g)
        assert value == brute_power_domination(g.adj, g.n)
        seed = wit
        for v in bits(wit):
            seed |= g.adj[v]
        assert closure(g, seed) == g.full


def test_power_domination_at_most_zero_forcing(small_graphs, rng):
    from zirkit.forcing import zero_forcing_number
    for g in rng.sample(small_graphs, 100):
        assert power_domination_number(g)[0] <= zero_forcing_number(g)[0]


def test_h_chain_two_domination_value():
    assert k_domination_number(generate("h_chain:3"), 2)[0] == 9
