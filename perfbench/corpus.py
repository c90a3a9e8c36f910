"""Seeded input corpora for the benchmark workloads.

The program only ever sees the graph6 strings built here.  Random graphs
are drawn per (order, density) stratum with a fixed count per stratum, so a
new seed changes the edges but not the mix of sizes and densities, and a
corpus is shuffled so that any prefix a timed run completes is
representative of the whole.
"""

from __future__ import annotations

import random

from zirkit import Graph, generate, to_graph6

# The ROADMAP's fixed family corpus (n = 12..15).
FAMILIES = (
    "cycle:12", "path:12", "h_rs:4,7", "necklace:3", "wheel:12", "h_chain:3",
    "corona(cycle:5,empty:2)", "join(path:7,path:8)",
)
DENSITIES = (0.2, 0.35, 0.5, 0.7)
SOLVE_ORDERS = (12, 13, 14, 15)
SOLVE_PER_STRATUM = 10
AUDIT_ORDERS = (8, 9, 10)
AUDIT_PER_STRATUM = 84
SURVEY_ORDER = 6
# Labeled graphs of order 1..6: sum of 2^C(n,2).
SURVEY_GRAPHS = sum(1 << (n * (n - 1) // 2) for n in range(1, SURVEY_ORDER + 1))
# Seeded order-6 graphs that stand in for "the workload's graphs" in the
# survey workloads' solver-layer probe.
SURVEY_PROBE_GRAPHS = 48


def gnp(rng: random.Random, n: int, p: float) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < p])


def _strata(rng: random.Random, orders, per_stratum: int) -> list[tuple[str, str]]:
    out = []
    for n in orders:
        for p in DENSITIES:
            for _ in range(per_stratum):
                out.append((f"gnp(n={n},p={p})", to_graph6(gnp(rng, n, p))))
    return out


def solve_corpus(seed: int) -> list[tuple[str, str]]:
    """(label, graph6) pairs: the family corpus plus 160 seeded G(n,p) graphs."""
    rng = random.Random(f"solve:{seed}")
    corpus = [(spec, to_graph6(generate(spec))) for spec in FAMILIES]
    corpus += _strata(rng, SOLVE_ORDERS, SOLVE_PER_STRATUM)
    rng.shuffle(corpus)
    return corpus


def audit_corpus(seed: int) -> list[tuple[str, str]]:
    """(label, graph6) pairs: 1 008 seeded G(n,p) graphs with n = 8..10."""
    rng = random.Random(f"audit:{seed}")
    corpus = _strata(rng, AUDIT_ORDERS, AUDIT_PER_STRATUM)
    rng.shuffle(corpus)
    return corpus


def probe_indices(workload: str, corpus: list[tuple[str, str]]) -> list[int]:
    """Corpus positions the solver-layer probe times: a fixed set per seed.

    For solve that is every family graph plus the first eight random ones;
    for audit the first 48 graphs.
    """
    if workload == "solve":
        families = [i for i, (label, _) in enumerate(corpus) if label in FAMILIES]
        randoms = [i for i, (label, _) in enumerate(corpus) if label not in FAMILIES]
        return families + randoms[:8]
    return list(range(48))


def survey_probe_corpus(seed: int) -> list[tuple[str, str]]:
    """(label, graph6) pairs: uniformly drawn labeled graphs of order 6."""
    rng = random.Random(f"survey:{seed}")
    return [("labeled(n=6)", to_graph6(gnp(rng, SURVEY_ORDER, 0.5)))
            for _ in range(SURVEY_PROBE_GRAPHS)]
