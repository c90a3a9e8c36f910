"""The four workloads: timed closed loops, the correctness gate, trace runs.

Load is a closed loop with one client in this process: the next graph (or
survey) starts only when the previous ``cli.main`` call returned.  The only
parallelism is ``survey-2p``'s pool of two worker processes.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from zirkit import cli, exact_params, parse_graph6
from zirkit.profiles import PARAM_NAMES

import corpus as corpora
import layers
import reference
from speed import Speed
from tracing import Tracer, self_times_ns, span_tree, traced_cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SURVEY_REFERENCE = HERE / "survey_reference.json"

COMPUTE_ARGV = ["compute", "--params", ",".join(PARAM_NAMES), "--witness",
                "--check-bounds", "--graph6"]
SETUP_REPS = 7
# Order of the survey the solve and audit trace runs use to measure the
# survey layer, which those workloads never reach.
PROBE_SURVEY_ORDER = 5

END_TO_END = {
    "graphs_per_s": "1/s", "graph_ms_p50": "ms", "graph_ms_p90": "ms",
    "cpu_ms_per_graph": "ms", "peak_rss_mb": "MB", "setup_s": "s",
}
PER_LAYER = {
    "forcing.close_ns": "ns", "forcing.closure_calls": "count",
    "forcing.closure_misses": "count", "forcing.cache_hit_ratio": "ratio",
    "forcing.Z_ms": "ms", "forcing.Zbar_ms": "ms",
    "irredundance.zir_ms": "ms", "irredundance.ZIR_ms": "ms",
    "irredundance.abandons_ms": "ms",
    "domination.gamma_ms": "ms", "domination.gamma2_ms": "ms",
    "domination.alpha_ms": "ms", "domination.gammaP_ms": "ms",
    "profiles.profile_ms": "ms", "profiles.checks_ms": "ms",
    "cli.overhead_ms": "ms",
    "survey.exact_params_us": "us", "survey.enumerate_us": "us",
    "survey.remainder_s": "s", "survey.worker_busy_ratio": "ratio",
    "graphs.graph6_us": "us", "trace.overhead_s": "s",
}
# ROADMAP re-anchor figures the first baseline is cross-checked against.
ROADMAP_FIGURES = {
    "Zbar on h_chain:3 (ms)": 294.0,
    "Zbar on corona(cycle:5,empty:2) (ms)": 231.0,
    "zir on join(path:7,path:8) (ms)": 300.0,
    "exact_params at n = 6 (us)": 450.0,
    "survey --order 6, 1 thread (s)": 15.5,
    "survey --order 6, 2 threads (s)": 8.8,
}


class Run:
    """What one benchmark run found: counts, metrics and problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.samples = 0  # latencies behind the percentiles: graphs, or surveys
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}
        self.details: dict = {}

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)


# -- shared helpers ---------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "zirkit").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` in one step, so an interrupted run leaves no torn file."""
    OUT.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


@dataclass
class Call:
    """One in-process ``cli.main`` call; ``rc`` is a traceback if it raised."""

    index: int
    rc: object
    stdout: str
    start: float  # perf_counter when the call began
    seconds: float
    cpu_self: float
    cpu_children: float


def call_cli(argv: list[str], index: int = 0, tracer: Tracer | None = None) -> Call:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        self0, children0 = cpu_seconds(resource.RUSAGE_SELF), cpu_seconds(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                with tracer.span("cli.main"):
                    rc = cli.main(argv)
        except Exception:  # a crash is a failed graph, not a failed benchmark
            rc = traceback.format_exc(limit=2)
        seconds = time.perf_counter() - t0
        cpu_self = cpu_seconds(resource.RUSAGE_SELF) - self0
        cpu_children = cpu_seconds(resource.RUSAGE_CHILDREN) - children0
    return Call(index, rc, out.getvalue(), t0, seconds, cpu_self, cpu_children)


def until(seconds: float, n: int, chunk: int = 1):
    """Cycle through 0..n-1 for about ``seconds``, ``chunk`` items at a time.

    Another chunk starts only if, at the mean chunk time so far, the run
    then ends nearer to ``seconds`` than it would without it; for long items
    such as surveys this keeps the run length near ``seconds``.  With
    ``chunk = n`` the run is made of whole passes, so every item is timed
    equally often.
    """
    start = time.perf_counter()
    i = 0
    while True:
        for _ in range(chunk):
            yield i % n
            i += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / (i // chunk) / 2 >= seconds:
            return


def paired_calls(argv_for, indices, tracer: Tracer) -> tuple[list[Call], list[Call]]:
    """Run each item traced and untraced, alternating which goes first, so
    that drift during the run cancels out of the tracing overhead."""
    traced, plain = [], []
    for k, i in enumerate(indices):
        for with_trace in ((True, False) if k % 2 == 0 else (False, True)):
            if with_trace:
                with traced_cli(tracer):
                    traced.append(call_cli(argv_for(i), i, tracer))
            else:
                plain.append(call_cli(argv_for(i), i))
    return traced, plain


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def cpu_seconds(who: int) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's, in MiB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def loop_metrics(calls: list[Call], times: list[float], n: int,
                 graphs_per_call: int, cpu_scales: list[float]) -> dict[str, float]:
    """Throughput, latency percentiles and CPU of a loop, from per-call times.

    With a corpus (n > 1) the latency percentiles are taken over its graphs,
    each at the median of its calls, so every graph weighs the same in
    every run; a survey is one call, so there they are taken over calls.
    """
    by_item: dict[int, list[float]] = {}
    for k, (c, t) in enumerate(zip(calls, times)):
        by_item.setdefault(c.index if n > 1 else k, []).append(t)
    per_graph_ms = [statistics.median(ts) * 1e3 / graphs_per_call
                    for ts in by_item.values()]
    graphs = len(calls) * graphs_per_call
    cpu = sum((c.cpu_self + c.cpu_children) * k for c, k in zip(calls, cpu_scales))
    return {
        "graphs_per_s": graphs / sum(times),
        "graph_ms_p50": statistics.median(per_graph_ms),
        "graph_ms_p90": nearest_rank(per_graph_ms, 0.9),
        "cpu_ms_per_graph": cpu * 1e3 / graphs,
    }


def end_to_end(run: Run, argv_for, n: int, seconds: float, graphs_per_call: int,
               setup_s: tuple[float, float]) -> list[Call]:
    """The untraced closed loop, in whole passes, and its end-to-end metrics.

    The reference sampler runs alongside (see speed.py) and every time is
    reported at reference speed; the wall-clock figures go to the record.
    """
    if n > 1:
        call_cli(argv_for(0))  # warm-up: lazy imports and first-call set-up
    with Speed() as speed:
        calls = [call_cli(argv_for(i), i) for i in until(seconds, n, n)]
    scales = [speed.scale(c.start, c.start + c.seconds) for c in calls]
    ones = [1.0] * len(calls)
    run.metrics.update(loop_metrics(calls, [c.seconds * k for c, k in zip(calls, scales)],
                                    n, graphs_per_call, scales))
    run.metrics["peak_rss_mb"] = peak_rss_mb()
    run.metrics["setup_s"] = setup_s[0]
    run.details["wall"] = {**loop_metrics(calls, [c.seconds for c in calls], n,
                                          graphs_per_call, ones),
                           "setup_s": setup_s[1]}
    run.details["kernel_ms"] = speed.kernel_ms()
    run.samples = len({c.index for c in calls}) if n > 1 else len(calls)
    run.details["calls"] = len(calls)
    return calls


def import_seconds() -> float:
    """Import time of zirkit.cli measured inside a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import zirkit.cli; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout)


def setup(build) -> tuple[list, list, tuple[float, float], float]:
    """Build the corpus SETUP_REPS times.

    One repetition is a fresh-interpreter import plus corpus generation plus
    graph6 parsing.  Returns the corpus, its parsed graphs, the median
    repetition at reference speed and in wall seconds, and the median
    ``parse_graph6`` time per graph in microseconds.
    """
    walls, spans, parse_us = [], [], []
    with Speed() as speed:
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            imported = import_seconds()
            t0 = time.perf_counter()
            corpus = build()
            t1 = time.perf_counter()
            graphs = [parse_graph6(g6) for _, g6 in corpus]
            t2 = time.perf_counter()
            walls.append(imported + t2 - t0)
            spans.append((start, t2))
            parse_us.append((t2 - t1) * 1e6 / len(corpus))
    scaled = [w * speed.scale(a, b) for w, (a, b) in zip(walls, spans)]
    return (corpus, graphs, (statistics.median(scaled), statistics.median(walls)),
            statistics.median(parse_us))


def cli_layer(spans) -> dict[str, float]:
    """CLI self time per cli.main call and, for compute calls, the profile
    and checks time inside it, as medians over ``spans``."""
    selfs = self_times_ns(spans)
    calls = {s.id: {"self": selfs[s.id], "profile": 0, "checks": 0}
             for s in spans if s.name == "cli.main"}
    for s in spans:
        if s.parent in calls and s.name != "survey.survey":
            key = "profile" if s.name == "profiles.parameter_profile" else "checks"
            calls[s.parent][key] += s.duration_ns
    out = {"cli.overhead_ms": statistics.median(c["self"] for c in calls.values()) / 1e6}
    compute = [c for c in calls.values() if c["profile"]]
    if compute:
        out["profiles.profile_ms"] = statistics.median(c["profile"] for c in compute) / 1e6
        out["profiles.checks_ms"] = statistics.median(c["checks"] for c in compute) / 1e6
    return out


def check_counts(run: Run, workload: str, seed: int, graphs) -> None:
    """Closure counts must repeat exactly: twice here, and across runs."""
    counts = layers.closure_counts(graphs)
    again = (run.metrics["forcing.closure_calls"], run.metrics["forcing.closure_misses"])
    if counts != again:
        run.fail(f"closure counts differ between passes: {counts} vs {again}")
    path = OUT / f"counts-{workload}-seed{seed}-{source_digest()[:12]}.json"
    if path.exists():
        earlier = tuple(json.loads(path.read_text()))
        if earlier != counts:
            run.fail(f"closure counts differ from an earlier traced run: "
                     f"{counts} vs {earlier}")
    else:
        write_atomic(path, json.dumps(counts))


def survey_argv(threads: int, order: int = corpora.SURVEY_ORDER) -> list[str]:
    return ["survey", "--order", str(order), "--threads", str(threads)]


def survey_layer(run: Run, tracer: Tracer, order: int, threads: int,
                 calls: list[Call], seed: int) -> None:
    """Survey-layer metrics from untraced survey calls of the given order."""
    wall = statistics.median(c.seconds for c in calls)
    # Workers' CPU: the pool's children, or this process with one thread.
    worker_cpu = statistics.median(c.cpu_children if threads > 1 else c.cpu_self
                                   for c in calls)
    prim = layers.survey_primitives(tracer, order, seed)
    run.metrics["survey.exact_params_us"] = prim["survey.exact_params_us"]
    run.metrics["survey.enumerate_us"] = prim["survey.enumerate_us"]
    # The primitives' estimated time, shared evenly by the workers, is taken
    # out of the wall time; what is left is checks, sharding and merge.
    run.metrics["survey.remainder_s"] = wall - prim["estimated_primitives_s"] / threads
    run.metrics["survey.worker_busy_ratio"] = worker_cpu / (threads * wall)


def tracing_overhead(run: Run, traced: list[Call], plain: list[Call]) -> None:
    run.metrics["trace.overhead_s"] = (sum(c.seconds for c in traced)
                                       - sum(c.seconds for c in plain))
    run.samples = len(traced)


# -- solve and audit ----------------------------------------------------------


def reference_values() -> tuple[dict, Path]:
    """``exact_params`` results kept by graph6 for this source tree.

    The reference is computed outside the timed region; keeping it lets a
    repeated seed skip recomputing it.
    """
    path = OUT / f"reference-{source_digest()[:12]}.json"
    return (json.loads(path.read_text()) if path.exists() else {}), path


def verify_compute(run: Run, corpus, graphs, calls: list[Call]) -> None:
    expected, path = reference_values()
    known = len(expected)
    for c in calls:
        label, g6 = corpus[c.index]
        if g6 not in expected:
            expected[g6] = exact_params(graphs[c.index])
        problems = reference.check_compute(graphs[c.index].adj, expected[g6],
                                           c.rc, c.stdout)
        run.attempted += 1
        if problems:
            run.fail(f"{label} {g6}: {'; '.join(problems)}")
    if len(expected) > known:
        write_atomic(path, json.dumps(expected))


def compute_workload(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    build = corpora.solve_corpus if workload == "solve" else corpora.audit_corpus
    corpus, graphs, setup_s, graph6_us = setup(lambda: build(seed))
    argv_for = lambda i: COMPUTE_ARGV + [corpus[i][1]]  # noqa: E731
    run = Run()
    if not trace:
        calls = end_to_end(run, argv_for, len(corpus), seconds, 1, setup_s)
        verify_compute(run, corpus, graphs, calls)
        return run

    tracer = Tracer()
    traced, plain = paired_calls(argv_for, until(seconds, len(corpus)), tracer)
    tracing_overhead(run, traced, plain)
    run.metrics.update(cli_layer(tracer.spans))
    run.metrics["graphs.graph6_us"] = graph6_us
    verify_compute(run, corpus, graphs, traced + plain)

    probe = corpora.probe_indices(workload, corpus)
    probe_graphs = [graphs[i] for i in probe]
    run.metrics.update(layers.solver_layer(tracer, probe_graphs, seed))
    check_counts(run, workload, seed, probe_graphs)

    survey = call_cli(survey_argv(1, PROBE_SURVEY_ORDER))
    if survey.rc != 0:
        run.fail(f"survey --order {PROBE_SURVEY_ORDER} exit code {survey.rc}")
    survey_layer(run, tracer, PROBE_SURVEY_ORDER, 1, [survey], seed)
    run.details["span_tree"] = span_tree(tracer.spans)
    if workload == "solve":
        cross_check_solve(run, tracer, corpus, probe)
    return run


def cross_check_solve(run: Run, tracer: Tracer, corpus, probe) -> None:
    """Family solver times against the ROADMAP figures."""
    wanted = {("h_chain:3", "forcing.upper_zero_forcing_number"): "Zbar on h_chain:3 (ms)",
              ("corona(cycle:5,empty:2)", "forcing.upper_zero_forcing_number"):
                  "Zbar on corona(cycle:5,empty:2) (ms)",
              ("join(path:7,path:8)", "irredundance.lower_zir_number"):
                  "zir on join(path:7,path:8) (ms)"}
    label_of = dict(zip((s.id for s in tracer.spans if s.name == "probe.graph"),
                        (corpus[i][0] for i in probe)))
    found = {wanted[label_of[s.parent], s.name]: s.duration_ns / 1e6
             for s in tracer.spans
             if s.parent in label_of and (label_of[s.parent], s.name) in wanted}
    run.details["roadmap_cross_check"] = cross_check(found)


def cross_check(found: dict[str, float]) -> list[dict]:
    rows = []
    for name, measured in found.items():
        expected = ROADMAP_FIGURES[name]
        ratio = measured / expected
        rows.append({"figure": name, "roadmap": expected, "measured": round(measured, 3),
                     "flag": "ok" if 0.5 <= ratio <= 2 else "more than 2x off"})
    return rows


# -- survey and survey-2p -----------------------------------------------------


def survey_argv(threads: int, order: int = corpora.SURVEY_ORDER) -> list[str]:
    return ["survey", "--order", str(order), "--threads", str(threads)]


def single_thread_stdout(run_here: str | None) -> str:
    """stdout of ``survey --order 6 --threads 1`` for this source tree.

    Kept per source digest, so survey-2p compares against the survey
    workload's output without rerunning it when that already ran here.
    """
    path = OUT / f"survey-stdout-{source_digest()[:12]}.txt"
    if run_here is not None:
        if not path.exists():
            write_atomic(path, run_here)
        return run_here
    if not path.exists():
        write_atomic(path, call_cli(survey_argv(1)).stdout)
    return path.read_text()


def verify_surveys(run: Run, calls: list[Call], threads: int) -> None:
    reference_rows = json.loads(SURVEY_REFERENCE.read_text())
    baseline = single_thread_stdout(calls[0].stdout if threads == 1 else None)
    for c in calls:
        run.attempted += len(reference_rows)
        if c.rc != 0:
            run.fail(f"survey exit code {c.rc}", len(reference_rows))
        elif c.stdout != baseline:
            run.fail(f"--threads {threads} stdout differs from --threads 1",
                     len(reference_rows))
        else:
            for problem in reference.check_survey(reference.survey_rows(c.stdout),
                                                  reference_rows):
                run.fail(problem)


def survey_workload(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    threads = 2 if workload == "survey-2p" else 1
    argv_for = lambda i: survey_argv(threads)  # noqa: E731
    corpus, graphs, setup_s, graph6_us = setup(lambda: corpora.survey_probe_corpus(seed))
    run = Run()
    if not trace:
        calls = end_to_end(run, argv_for, 1, seconds, corpora.SURVEY_GRAPHS, setup_s)
        verify_surveys(run, calls, threads)
        return run

    tracer = Tracer()
    traced, plain = paired_calls(argv_for, until(seconds, 1), tracer)
    tracing_overhead(run, traced, plain)
    verify_surveys(run, traced + plain, threads)
    survey_layer(run, tracer, corpora.SURVEY_ORDER, threads, plain, seed)
    run.metrics.update(cli_layer(tracer.spans))

    # profile and checks time, and the solver layer, on seeded order-6 graphs
    first = len(tracer.spans)
    with traced_cli(tracer):
        compute = [call_cli(COMPUTE_ARGV + [g6], i, tracer)
                   for i, (_, g6) in enumerate(corpus)]
    verify_compute(run, corpus, graphs, compute)
    compute_layer = cli_layer(tracer.spans[first:])
    run.metrics["profiles.profile_ms"] = compute_layer["profiles.profile_ms"]
    run.metrics["profiles.checks_ms"] = compute_layer["profiles.checks_ms"]
    run.metrics["graphs.graph6_us"] = graph6_us
    run.metrics.update(layers.solver_layer(tracer, graphs, seed))
    check_counts(run, workload, seed, graphs)
    run.details["span_tree"] = span_tree(tracer.spans)
    figure = f"survey --order 6, {threads} thread{'s' if threads > 1 else ''} (s)"
    run.details["roadmap_cross_check"] = cross_check({
        figure: statistics.median(c.seconds for c in plain),
        "exact_params at n = 6 (us)": run.metrics["survey.exact_params_us"]})
    return run


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    if workload in ("solve", "audit"):
        return compute_workload(workload, seed, seconds, trace)
    return survey_workload(workload, seed, seconds, trace)
