import random

import pytest
from hypothesis import given, settings, strategies as st

from zirkit.errors import GraphFormatError, SizeCapError
from zirkit.graphs import Graph, enumerate_labeled_graphs, parse_graph6, to_graph6

from oracles import graph6_decode_reference, graph6_encode_reference, random_adj


def test_k2_decodes_from_hand_worked_bytes():
    # 'A' encodes n=2; '_' is 63+32, bit pattern 100000, so the single
    # pair (0,1) is an edge
    g = parse_graph6("A_")
    assert g.n == 2
    assert g.has_edge(0, 1)
    assert g.size() == 1


def test_k2_encodes_to_a_underscore():
    assert to_graph6(Graph(2, [(0, 1)])) == "A_"


def test_single_vertex_encodes_to_at_sign():
    assert to_graph6(Graph(1)) == "@"
    assert parse_graph6("@").n == 1


def test_five_vertex_round_trip_is_identity():
    g = parse_graph6("D?{")
    assert g.n == 5
    assert to_graph6(g) == "D?{"


def test_round_trip_random_graphs():
    rng = random.Random(1000)
    for _ in range(1000):
        n = rng.randint(1, 20)
        g = Graph.from_adj(random_adj(n, rng))
        assert parse_graph6(to_graph6(g)) == g


def test_codec_agrees_with_independent_reference():
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            assert to_graph6(g) == graph6_encode_reference(n, set(g.edges()))
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(1, 30)
        g = Graph.from_adj(random_adj(n, rng))
        encoded = graph6_encode_reference(n, set(g.edges()))
        assert to_graph6(g) == encoded
        assert parse_graph6(encoded) == g
        n2, edges2 = graph6_decode_reference(to_graph6(g))
        assert n2 == n and edges2 == set(g.edges())


@pytest.mark.parametrize("bad", ["", "F?????", "F???", "A_x"])
def test_wrong_length_is_rejected(bad):
    with pytest.raises(GraphFormatError):
        parse_graph6(bad)


def test_error_names_byte_offset():
    with pytest.raises(GraphFormatError) as err:
        parse_graph6("A_Z")  # trailing byte after the one data byte
    assert err.value.offset == 2


def test_order_zero_rejected():
    with pytest.raises(GraphFormatError):
        parse_graph6("?")


def test_non_ascii_rejected_with_offset():
    with pytest.raises(GraphFormatError) as err:
        parse_graph6("Aé")
    assert err.value.offset == 1


def test_invalid_data_byte_rejected_with_offset():
    with pytest.raises(GraphFormatError, match="invalid data byte") as err:
        parse_graph6("A!")  # '!' is below the data range 63..126
    assert err.value.offset == 1


def test_long_form_rejected():
    with pytest.raises(SizeCapError):
        parse_graph6("~??~?????")


def test_nonzero_padding_rejected():
    # n=3 has 3 pair bits; low padding bits of the data byte must be zero
    with pytest.raises(GraphFormatError):
        parse_graph6("B?"[:1] + chr(63 + 0b000001))


def test_encode_rejects_order_beyond_62():
    with pytest.raises(SizeCapError):
        to_graph6(Graph(63))


# graph6 bytes are '?'..'~'; a few others mixed in reach the error branches
_GRAPH6_ISH = st.text(st.characters(min_codepoint=0, max_codepoint=130), max_size=40) \
    | st.text(st.sampled_from([chr(c) for c in range(63, 127)] + ["\x00", " ", "\xe9"]),
              max_size=40)


@settings(max_examples=500, deadline=None)
@given(st.text() | _GRAPH6_ISH)
def test_decoder_raises_only_format_errors(text):
    try:
        g = parse_graph6(text)
    except (GraphFormatError, SizeCapError):
        return
    assert to_graph6(g) == text
