"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from zirkit.graphs import Graph


@st.composite
def graphs(draw, max_order: int):
    """A labeled graph of order 1..max_order with each edge drawn on its own,
    so sparse graphs and isolated vertices come up as well as dense ones."""
    n = draw(st.integers(1, max_order))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])
