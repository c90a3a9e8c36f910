from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings

from zirkit.errors import BudgetError, SizeCapError, ZirkitError
from zirkit.families import (complete_bipartite_graph, complete_graph, cycle_graph,
                             empty_graph, fig5_graph, necklace_graph, path_graph,
                             star_graph)
from zirkit import graphs
from zirkit.graphs import (Graph, _equitable_cells, _least_orders, _twin_masks,
                           bit_list, canonical_children, complement, components, corona,
                           disjoint_union, edge_slots, enumerate_labeled_graphs, join,
                           mask_of)

from oracles import (every_hood, least_labelings, random_adj, reference_equitable_cells,
                     reference_least_orders, reference_twin_classes,
                     unpruned_canonical_children)
from strategies import graphs as drawn_graphs


def test_graph_rejects_loops_and_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(SizeCapError):
        Graph(65)


def test_from_adj_validates_symmetry():
    with pytest.raises(ValueError):
        Graph.from_adj((0b010, 0b000, 0b000))


@pytest.mark.parametrize("build", [
    lambda: Graph(0),
    lambda: Graph(3, [(1, 1)]),
    lambda: Graph(3, [(0, 3)]),
    lambda: Graph.from_adj(()),
    lambda: Graph.from_adj((0b010, 0b000, 0b000)),
    lambda: Graph.from_adj((0b1000, 0b000, 0b000)),
    lambda: Graph.from_adj((0b010, 0b011, 0b000)),
    lambda: path_graph(3).induced(0b11011),
    lambda: path_graph(3).induced(0),
], ids=["order-0", "loop", "edge-out-of-range", "adj-order-0", "asymmetric",
        "bits-beyond-order", "adj-loop", "induced-bits-beyond-order", "induced-empty"])
def test_bad_graph_input_is_a_zirkit_error(build):
    # a ValueError too, as callers of the constructors have caught it
    with pytest.raises(ZirkitError) as err:
        build()
    assert isinstance(err.value, ValueError)


def test_union_counts():
    u = disjoint_union(Graph(1), Graph(1))
    assert u.n == 2 and u.size() == 0
    u = disjoint_union(path_graph(3), cycle_graph(3))
    assert u.n == 6 and u.size() == 5
    three_k2 = disjoint_union(disjoint_union(complete_graph(2), complete_graph(2)),
                              complete_graph(2))
    assert three_k2.n == 6 and all(d == 1 for d in three_k2.degrees())


def test_join_counts_and_edges():
    for g, h in [(path_graph(3), cycle_graph(4)), (complete_graph(2), empty_graph(3))]:
        j = join(g, h)
        assert j.n == g.n + h.n
        assert j.size() == g.size() + h.size() + g.n * h.n
    assert join(path_graph(2), path_graph(2)) == complete_graph(4)


def test_wheel_as_join_degree_sequence():
    w6 = join(cycle_graph(5), complete_graph(1))
    assert sorted(w6.degrees()) == [3, 3, 3, 3, 3, 5]


def test_corona_layout():
    c = corona(cycle_graph(3), empty_graph(2))
    assert c.n == 9
    # each cycle vertex has two private leaves
    for i in range(3):
        for a in range(2):
            leaf = 3 + 2 * i + a
            assert c.degree(leaf) == 1
            assert c.has_edge(i, leaf)
    # corona with K_1 on a single base vertex is the join with a hub
    left = corona(complete_graph(1), path_graph(3))
    right = join(path_graph(3), complete_graph(1))
    perm = [3, 0, 1, 2]  # corona puts the base vertex first, the join puts it last
    assert Graph(4, [(perm[u], perm[v]) for u, v in left.edges()]) == right


def test_size_caps_on_products():
    with pytest.raises(SizeCapError, match="^graph order 80 exceeds the 64-vertex cap$"):
        disjoint_union(empty_graph(40), empty_graph(40))
    with pytest.raises(SizeCapError, match="^graph order 80 exceeds the 64-vertex cap$"):
        join(empty_graph(40), empty_graph(40))
    with pytest.raises(SizeCapError, match="^graph order 110 exceeds the 64-vertex cap$"):
        corona(empty_graph(10), empty_graph(10))


@settings(max_examples=60, deadline=None)
@given(drawn_graphs(6), drawn_graphs(6))
def test_products_match_their_definitions(g, h):
    # the products build rows unchecked: each is the graph of its defining
    # edge list, and from_adj accepts its rows
    shifted = [(g.n + a, g.n + b) for a, b in h.edges()]
    cross = [(u, g.n + v) for u in range(g.n) for v in range(h.n)]
    attached = [(i, g.n + i * h.n + a) for i in range(g.n) for a in range(h.n)]
    copies = [(g.n + i * h.n + a, g.n + i * h.n + b)
              for i in range(g.n) for a, b in h.edges()]
    non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
    for built, n, edges in [(disjoint_union(g, h), g.n + h.n, [*g.edges(), *shifted]),
                            (join(g, h), g.n + h.n, [*g.edges(), *shifted, *cross]),
                            (corona(g, h), g.n * (1 + h.n), [*g.edges(), *copies, *attached]),
                            (complement(g), g.n, non_edges)]:
        assert built == Graph(n, edges) == Graph.from_adj(built.adj)


def test_complement_involution_and_complete():
    assert complement(complete_graph(5)) == empty_graph(5)
    for g in (path_graph(5), cycle_graph(6), fig5_graph()):
        assert complement(complement(g)) == g


def test_fig5_complement_structure():
    # complement splits into a triangle on {u1,u2,u3} and a 4-cycle on the rest
    c = complement(fig5_graph())
    assert sorted(c.edges()) == [(0, 1), (0, 2), (1, 2),
                                 (3, 4), (3, 6), (4, 5), (5, 6)]


def test_enumeration_counts():
    assert len(list(enumerate_labeled_graphs(1))) == 1
    assert len(list(enumerate_labeled_graphs(3))) == 8
    graphs4 = list(enumerate_labeled_graphs(4))
    assert len(graphs4) == 64
    assert sum(1 for g in graphs4 if g.is_connected()) == 38
    with pytest.raises(BudgetError):
        next(enumerate_labeled_graphs(8))


def test_enumeration_connected_filter():
    conn = list(enumerate_labeled_graphs(4, connected_only=True))
    assert len(conn) == 38
    assert all(g.is_connected() for g in conn)


def test_enumeration_is_in_edge_mask_order():
    graphs = list(enumerate_labeled_graphs(3))
    # slots are (0,1), (0,2), (1,2); mask 0 is empty, mask 1 is the lone
    # edge (0,1), mask 3 has edges (0,1) and (0,2)
    assert graphs[0].size() == 0
    assert sorted(graphs[1].edges()) == [(0, 1)]
    assert sorted(graphs[3].edges()) == [(0, 1), (0, 2)]
    assert graphs[7].size() == 3


def test_least_labelings_are_the_least_relabeled_masks(rng):
    slot = {pair: 1 << e for e, pair in enumerate(edge_slots(6))}
    for _ in range(20):
        g = Graph.from_adj(random_adj(6, rng))
        masks = sorted({sum(slot[min(p[u], p[v]), max(p[u], p[v])] for u, v in g.edges())
                        for p in permutations(range(6))})
        assert least_labelings(g.adj, 3) == masks[:3]
    assert least_labelings(cycle_graph(4).adj, 5) == [30, 45, 51]  # 4!/8 labelings


def test_canonical_label_counts_automorphisms():
    # |Aut|: 8 for the 4-cycle, 2 for the path P4, 5! for the empty graph;
    # the star K1,3's centre has the largest degree, so its cell comes last
    # and it is the canonical orbit
    def canonical(g):
        return _least_orders(g.adj, _equitable_cells(g.adj), 1)[0]

    assert canonical(cycle_graph(4))[1] == 8
    assert canonical(path_graph(4))[1] == 2
    assert canonical(empty_graph(5))[1] == 120
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert canonical(star)[1:] == [6, 0b0001]


@pytest.mark.parametrize("parent,classes", [(complete_graph(7), 1), (empty_graph(7), 8)],
                         ids=["complete", "edgeless"])
def test_twin_parents_refine_few_hoods(monkeypatch, parent, classes):
    # all seven vertices are twins, so only the hoods {0, ..., k-1} are
    # refined, and of those K7 keeps only the full hood, the one that gives
    # the new vertex the largest degree; the children are K8, and K1,k plus
    # 7-k isolated vertices for k = 0..7
    calls = []

    def counted(adj, last=None):
        calls.append(adj)
        return _equitable_cells(adj, last)

    monkeypatch.setattr(graphs, "_equitable_cells", counted)
    assert len(list(canonical_children(parent.adj))) == classes
    assert len(calls) <= 8


def reference_classes(order):
    """One graph of each isomorphism class of ``order``, by the reference
    generator (every hood, full refinement, every tying order)."""
    classes = [()]
    for _ in range(order):
        classes = [adj for parent in classes for adj, _ in unpruned_canonical_children(parent)]
    return classes


def assert_refinement_matches_reference(adj):
    # the same ordered cells, and an early exit exactly when n-1 misses the
    # last cell, as the refinement that counts every vertex in every cell
    n = len(adj)
    cells = reference_equitable_cells(adj)
    assert _equitable_cells(adj) == cells, adj
    assert reference_equitable_cells(adj, n - 1) == \
        (cells if n - 1 in cells[-1] else None), adj
    assert _equitable_cells(adj, n - 1) == reference_equitable_cells(adj, n - 1), adj


def test_refinement_matches_reference_on_every_labeled_graph_through_order_6():
    # 33 867 labeled graphs, so every labeling of each class: about 2 s
    for n in range(1, 7):
        for g in enumerate_labeled_graphs(n):
            assert_refinement_matches_reference(g.adj)


@settings(deadline=None, max_examples=300)
@given(drawn_graphs(10))
def test_refinement_matches_reference_through_order_10(g):
    assert_refinement_matches_reference(g.adj)


def assert_search_matches_reference(adj):
    # the refinement as above, the same [mask, |Aut|, orbit] at cap 1 and
    # the same least labelings at cap 3 as the search that visits every
    # tying order
    n = len(adj)
    assert_refinement_matches_reference(adj)
    cells = reference_equitable_cells(adj)
    assert _least_orders(adj, cells, 1) == reference_least_orders(adj, cells, 1), adj
    assert least_labelings(adj, 3) == \
        [mask for mask, _, _ in reference_least_orders(adj, [list(range(n))], 3)], adj


def test_search_matches_reference_on_every_hood_through_order_6():
    # the hoods of every class of order 0 to 5: about 1 s
    hoods = [adj for order in range(6) for parent in reference_classes(order)
             for adj in every_hood(parent)]
    assert len(hoods) == 1307
    for adj in hoods:
        assert_search_matches_reference(adj)


@pytest.mark.slow
def test_search_matches_reference_on_every_order_7_hood():
    # the 64 hoods of each of the 156 classes of order 6: about 11 s
    hoods = [adj for parent in reference_classes(6) for adj in every_hood(parent)]
    assert len(hoods) == 9984
    for adj in hoods:
        assert_search_matches_reference(adj)


@pytest.mark.parametrize("g,automorphisms", [
    (complete_graph(12), factorial(12)),
    (empty_graph(12), factorial(12)),
    (join(complete_graph(5), empty_graph(5)), factorial(5) ** 2),
    (join(join(empty_graph(4), empty_graph(4)), empty_graph(4)), factorial(4) ** 3 * factorial(3)),
    (star_graph(11), factorial(11)),
], ids=["K12", "12K1", "K5+5K1", "K4,4,4", "K1,11"])
def test_automorphism_counts_past_the_tie_walk(g, automorphisms):
    # far more tying orders than the reference could visit; each group acts
    # transitively on every cell, so the canonical orbit is the last cell;
    # the orders that reach the least labeling are a coset of Aut G too
    cells = _equitable_cells(g.adj)
    assert _least_orders(g.adj, cells, 1)[0][1:] == [automorphisms, mask_of(cells[-1])]
    assert _least_orders(g.adj, [list(range(g.n))], 1)[0][1] == automorphisms


def test_components_and_connectivity():
    u = disjoint_union(path_graph(2), cycle_graph(3))
    comps = u.components()
    assert comps == [0b00011, 0b11100]
    assert not u.is_connected()
    assert cycle_graph(5).is_connected()
    assert u.induced(0b11100) == cycle_graph(3)
    assert list(components(path_graph(5).adj, 0b11011)) == [0b00011, 0b11000]


def twin_parts(adj):
    """The twin classes of ``adj`` from ``_twin_masks``, in order of least vertex."""
    return [tuple(bit_list(m)) for m in dict.fromkeys(_twin_masks(adj))]


def test_twin_classes_partite_sets():
    assert twin_parts(complete_bipartite_graph(2, 3).adj) == [(0, 1), (2, 3, 4)]


def test_twin_classes_necklace_pairs():
    pairs = [c for c in twin_parts(necklace_graph(3).adj) if len(c) == 2]
    assert pairs == [(1, 3), (5, 7), (9, 11)]  # the (b_i, d_i) pairs


def test_twin_classes_path_singletons():
    assert twin_parts(path_graph(4).adj) == [(0,), (1,), (2,), (3,)]
    part = twin_parts(path_graph(3).adj)
    assert (0, 2) in part and (1,) in part


def test_twin_classes_partition_every_vertex(rng):
    # each vertex's class holds it, the classes partition the vertices, and
    # those of two or more are the definition's
    for g in (fig5_graph(), necklace_graph(2), cycle_graph(6)):
        assert sorted(v for c in twin_parts(g.adj) for v in c) == list(range(g.n))
    for _ in range(200):
        adj = random_adj(rng.randint(1, 7), rng)
        assert all(t >> v & 1 for v, t in enumerate(_twin_masks(adj))), adj
        classes = [list(c) for c in twin_parts(adj) if len(c) > 1]
        assert classes == reference_twin_classes(adj), adj
