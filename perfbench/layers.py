"""Per-layer probes: direct, traced calls into each module's public functions.

Each probe graph gets one span with a child span per call.  The four
profile solvers share one closure cache, in the order ``parameter_profile``
runs them, so their times include the same cache reuse a CLI call sees; the
other calls build their own state, as they do inside the program.
"""

from __future__ import annotations

import random
import statistics

from zirkit import (closure, enumerate_labeled_graphs, exact_params,
                    graph_abandons_fort, independence_number,
                    k_domination_number, lower_zir_number,
                    power_domination_number, to_graph6,
                    upper_zero_forcing_number, upper_zir_number,
                    zero_forcing_number)
from zirkit.forcing import ClosureCache

from tracing import CountingClosureCache, Tracer

CLOSE_MASKS = 400
EXACT_SAMPLE_PER_ORDER = 400

# (metric, span name, call); the first four run in profile order on one cache.
PROFILE_SOLVERS = (
    ("irredundance.zir_ms", "irredundance.lower_zir_number", lower_zir_number),
    ("forcing.Z_ms", "forcing.zero_forcing_number", zero_forcing_number),
    ("forcing.Zbar_ms", "forcing.upper_zero_forcing_number", upper_zero_forcing_number),
    ("irredundance.ZIR_ms", "irredundance.upper_zir_number", upper_zir_number),
)
OTHER_CALLS = (
    ("irredundance.abandons_ms", "irredundance.graph_abandons_fort", graph_abandons_fort),
    ("domination.gamma_ms", "domination.k_domination_number",
     lambda g: k_domination_number(g, 1)),
    ("domination.gamma2_ms", "domination.k_domination_number",
     lambda g: k_domination_number(g, 2)),
    ("domination.alpha_ms", "domination.independence_number", independence_number),
    ("domination.gammaP_ms", "domination.power_domination_number", power_domination_number),
)


def probe_graph(tracer: Tracer, g, rng: random.Random) -> dict[str, float]:
    """Time every solver-layer call on one graph; returns metric -> value."""
    out = {}
    with tracer.span("probe.graph"):
        masks = [rng.getrandbits(g.n) for _ in range(CLOSE_MASKS)]
        with tracer.span("forcing.closure") as s:
            for m in masks:
                closure(g, m)
        out["forcing.close_ns"] = s.duration_ns / len(masks)
        cache = ClosureCache(g)
        for metric, name, fn in PROFILE_SOLVERS:
            with tracer.span(name) as s:
                fn(g, cache)
            out[metric] = s.duration_ns / 1e6
        for metric, name, fn in OTHER_CALLS:
            with tracer.span(name) as s:
                fn(g)
            out[metric] = s.duration_ns / 1e6
    return out


def closure_counts(graphs) -> tuple[int, int]:
    """(closure calls, distinct masks) of the profile solvers over ``graphs``."""
    calls = misses = 0
    for g in graphs:
        cache = CountingClosureCache(g)
        for _, _, fn in PROFILE_SOLVERS:
            fn(g, cache)
        calls += cache.calls
        misses += cache.misses
    return calls, misses


def solver_layer(tracer: Tracer, graphs, seed: int) -> dict[str, float]:
    """Median per-graph solver-layer metrics and the closure counts."""
    rng = random.Random(f"masks:{seed}")
    rows = [probe_graph(tracer, g, rng) for g in graphs]
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    calls, misses = closure_counts(graphs)
    metrics["forcing.closure_calls"] = calls
    metrics["forcing.closure_misses"] = misses
    metrics["forcing.cache_hit_ratio"] = 1 - misses / calls
    return metrics


def survey_primitives(tracer: Tracer, order: int, seed: int) -> dict[str, float]:
    """Per-graph cost of enumeration and of ``exact_params`` for orders 1..order.

    Enumeration is timed over every labeled graph; ``exact_params`` over a
    seeded sample per order, scaled up by that order's graph count.
    """
    rng = random.Random(f"survey-sample:{seed}")
    enum_ns = 0
    exact_total_s = 0.0
    top_us = 0.0
    count = 0
    with tracer.span("survey.primitives"):
        for n in range(1, order + 1):
            graphs = []
            with tracer.span("graphs.enumerate_labeled_graphs") as s:
                for g in enumerate_labeled_graphs(n):
                    to_graph6(g)
                    graphs.append(g)
            enum_ns += s.duration_ns
            count += len(graphs)
            sample = graphs if len(graphs) <= EXACT_SAMPLE_PER_ORDER \
                else rng.sample(graphs, EXACT_SAMPLE_PER_ORDER)
            with tracer.span("survey.exact_params") as s:
                for g in sample:
                    exact_params(g)
            per_graph_us = s.duration_ns / 1e3 / len(sample)
            exact_total_s += per_graph_us * len(graphs) / 1e6
            top_us = per_graph_us
    return {"survey.exact_params_us": top_us,
            "survey.enumerate_us": enum_ns / 1e3 / count,
            "estimated_primitives_s": exact_total_s + enum_ns / 1e9}
