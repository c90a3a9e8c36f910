"""Exhaustive small-graph surveys with theorem checks and question scans.

The survey covers every labeled simple graph of order 1..max_order
(optionally connected only, optionally one representative per isomorphism
class) and evaluates a set of named checks on each.  Theorem checks must
never fail; a failure is reported with a re-verifiable counterexample.
Question scans ("gammaP-vs-zir", "gamma-vs-ZIR") record counterexamples as
findings rather than failures.

It walks isomorphism classes, not labeled graphs: ``graphs.canonical_children``
extends each class of order n-1 by a vertex and yields every class of
order n once, with its automorphism count.  Each class stands for its
n!/|Aut G| labelings in the counts (for itself alone under dedup), so a
check's verdict and skip must not depend on the labels.  The examples are
the least labeled edge masks of the violating or leading classes, so the
report reads as a walk over every labeled graph in edge-mask order would.

Every parameter here is recomputed from per-graph tables over all subsets
by its definition (for example ZIR is the literal maximum over maximal
ZIr-sets): ``forcing.close_all_subsets`` closes every subset at once, and
each table (forcing, ZIr, dominating, independent, power dominating) is a
few operations on 2^n-bit ints.  No solver is called and no theorem bound
prunes anything, so the survey is an independent route from the pruned
solver searches; the test suite cross-checks the two.
``_GraphData`` is the survey's ``profiles.Facts`` record, with its values
from the subset tables: the theorems shared with ``compute --check-bounds``
are evaluated by the predicates of ``profiles.CHECKS``, and only the
survey's own theorems and scans live here.  The scans read nothing but
``values``, so they run on either facts record.
``THEOREM_CHECKS``, ``SCAN_CHECKS`` and ``ALL_CHECKS`` list the survey names
of these registries.

Each order is sharded over the classes of the order below; one loop folds
the shard results in shard order, so the output is identical for any
thread count.  The orders within the default budget run in process at any
thread count; more than one thread starts a worker pool for the orders
past it.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field
from functools import cached_property, reduce
from math import factorial
from operator import and_, or_

from .errors import BudgetError, PreconditionError, check_deadline, deadline
from .forcing import close_all_subsets, subset_tables
from .graphs import (Graph, adj_from_edge_mask, bit_list, bits, canonical_children, edge_slots,
                     least_labelings, mask_of, to_graph6, twin_classes)
from .profiles import CHECKS, Check, CheckReport, Facts

SURVEY_DEFAULT_MAX_ORDER = 6
SURVEY_HARD_MAX_ORDER = 7
EXACT_PARAMS_MAX_ORDER = 22
_COUNTEREXAMPLE_CAP = 3
_LEADER_EXAMPLE_CAP = 3


@dataclass
class SurveyReport:
    max_order: int
    connected_only: bool
    dedup: bool
    checks: tuple[str, ...]
    reports: list[CheckReport] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return any(r.status == "fail" for r in self.reports)

    def findings(self) -> list[CheckReport]:
        return [r for r in self.reports if r.status == "finding"]

    def to_json_lines(self) -> list[str]:
        import json
        return [json.dumps(r.to_dict(), sort_keys=True) for r in self.reports]


# -- per-graph computation -------------------------------------------------


def _least(table: int, members: tuple[int, ...]) -> int:
    """The lexicographically least of the equal-size sets in ``table``: it
    holds each vertex, in ascending order, that a set still left holds."""
    for x in members:
        if table & x:
            table &= x
    return table.bit_length() - 1


class _GraphData(Facts):
    """The facts record of one graph, answered by tables over all subsets.

    Each table is a 2^n-bit int whose bit m answers for the set m, a few
    whole-int operations on ``Facts.closures`` and the tables X_v and L_k
    of ``forcing.subset_tables``: every subset is decided, with no solver
    and no bound pruning.
    """

    def __init__(self, g: Graph):
        super().__init__(g)
        n, adj, (xs, layers), every = g.n, g.adj, subset_tables(g.n), (1 << (1 << g.n)) - 1
        # m is a ZIr-set iff no member x lies in the closure of m - x, and
        # maximal iff no m + y is one
        zir = every & ~reduce(or_, (
            (b & ~x) << (1 << v) for v, (b, x) in enumerate(zip(self.closures, xs))))
        self.maximal_table = zir & ~reduce(
            or_, ((zir & x) >> (1 << y) for y, x in enumerate(xs)))
        # v is dominated by m iff v ∈ m or a neighbour is, twice iff v ∈ m or
        # two neighbours are: one- and two-bit counters over the neighbours;
        # m is independent iff no member has a neighbour in m
        once, twice, clash = [], [], 0
        for v in range(n):
            one = two = 0
            for u in bits(adj[v]):
                two |= one & xs[u]
                one |= xs[u]
            once.append(xs[v] | one)
            twice.append(xs[v] | two)
            clash |= xs[v] & one
        # N[m] holds v iff m dominates v, so the kernel started at the
        # domination tables closes every N[m]
        power = reduce(and_, close_all_subsets(adj, once))

        def sizes(table: int) -> list[int]:
            return [k for k, layer in enumerate(layers) if table & layer]

        maximal = sizes(self.maximal_table)
        self.values = values = {
            "zir": maximal[0], "ZIR": maximal[-1],
            "Z": sizes(self.forcing_table)[0], "Zbar": sizes(self.minimal_table)[-1],
            "gamma": sizes(reduce(and_, once))[0], "gamma2": sizes(reduce(and_, twice))[0],
            "alpha": sizes(every & ~clash)[-1], "gammaP": sizes(power)[0],
        }
        # every minimum zero forcing set is minimal, so both witnesses are the
        # first minimal one of their size, by (size, lexicographic)
        self.z_witness = _least(self.minimal_table & layers[values["Z"]], xs)
        self.zbar_witness = _least(self.minimal_table & layers[values["Zbar"]], xs)

    @cached_property
    def maximal_zir_sets(self) -> list[int]:
        return bit_list(self.maximal_table)


# -- survey-only checks; the shared theorems live in profiles.CHECKS ---------


def _complement_dominating(d):
    if not d.isolated_free:
        return ""
    adj, full = d.graph.adj, d.graph.full
    for m in d.maximal_zir_sets:
        comp = full & ~m
        for v in range(d.n):
            if not (comp >> v) & 1 and not adj[v] & comp:
                return False, f"complement of maximal ZIr-set {bit_list(m)} misses {v}"
    return True, ""


def _twins(d):
    classes = [c for c in twin_classes(d.graph) if len(c) >= 2]
    if not classes:
        return ""
    for cls in classes:
        cls_mask = mask_of(cls)
        need = len(cls) - 1
        for name, witness in (("Z", d.z_witness), ("Zbar", d.zbar_witness)):
            if (witness & cls_mask).bit_count() < need:
                return False, (f"{name} witness {bit_list(witness)} has fewer than "
                               f"{need} of twin class {list(cls)}")
    return True, ""


def _gamma_p_vs_zir(d):
    if not d.connected:
        return ""
    v = d.values
    return v["gammaP"] <= v["zir"], f"gammaP={v['gammaP']} > zir={v['zir']}"


def _gamma_vs_zir_upper(d):
    if not d.connected:
        return ""
    v = d.values
    return v["gamma"] <= v["ZIR"], f"gamma={v['gamma']} > ZIR={v['ZIR']}"


_SURVEY_THEOREMS = (
    Check("zir-complement-dominating", (), _complement_dominating,
          "zir-complement-dominating"),
    Check("twins", (), _twins, "twins"),
)
# question scans: a counterexample is a finding, not a failure
_SCANS = (
    Check("gammaP-vs-zir", ("gammaP", "zir"), _gamma_p_vs_zir, "gammaP-vs-zir"),
    Check("gamma-vs-ZIR", ("gamma", "ZIR"), _gamma_vs_zir_upper, "gamma-vs-ZIR"),
)
_CHECKS = {c.survey_name: c for c in CHECKS + _SURVEY_THEOREMS + _SCANS if c.survey_name}
SCAN_CHECKS = tuple(c.survey_name for c in _SCANS)
THEOREM_CHECKS = tuple(name for name in _CHECKS if name not in SCAN_CHECKS)
ALL_CHECKS = tuple(_CHECKS)


def _keep_least(leader: tuple, value: int | None, classes: tuple) -> tuple:
    """Fold ``(value, classes)`` into ``leader``, the least value so far with
    every class that reaches it."""
    best, kept = leader
    if value is None or (best is not None and value > best):
        return leader
    if best is None or value < best:
        return value, classes
    return best, kept + classes


def _tally(acc: tuple, part: tuple) -> tuple:
    """Fold two ``(checked, violations, violating classes)`` tallies."""
    return acc[0] + part[0], acc[1] + part[1], acc[2] + part[2]


def _survey_shard(args: tuple) -> tuple[dict, tuple, list]:
    """Evaluate the classes of order n whose parents are the given classes
    of order n-1; returns mergeable tallies, the leader and the classes.

    Tallies count each class n!/|Aut G| times, once under ``dedup``;
    classes are adjacency tuples, returned only if ``more`` orders follow.
    """
    n, parents, checks, connected_only, dedup, more, at = args
    run = [(name, _CHECKS[name]) for name in checks]
    tallies = dict.fromkeys(checks, (0, 0, ()))
    leader: tuple[int | None, tuple] = (None, ())
    children = []
    labelings = factorial(n)
    for parent in parents:
        check_deadline(at, "survey")
        for adj, automorphisms in canonical_children(parent):
            check_deadline(at, "survey")
            if more:
                children.append(adj)
            g = Graph.from_adj(adj)
            if connected_only and not g.is_connected():
                continue
            d = _GraphData(g)
            weight = 1 if dedup else labelings // automorphisms
            for name, check in run:
                outcome = check.evaluate(d)
                if isinstance(outcome, tuple):
                    part = (weight, 0, ()) if outcome[0] else (weight, weight, (adj,))
                    tallies[name] = _tally(tallies[name], part)
            if d.connected:
                leader = _keep_least(leader, d.values["ZIR"], (adj,))
    return tallies, leader, children


def _first_labelings(n: int, classes: tuple, dedup: bool, cap: int, at) -> list[Graph]:
    """The first ``cap`` labeled graphs of ``classes`` in the labeled walk's
    order: ascending edge mask over all their labelings, or over each
    class's least labeling under ``dedup``."""
    masks = []
    for adj in classes:
        check_deadline(at, "survey")
        masks.extend(least_labelings(adj, 1 if dedup else cap))
    slots = edge_slots(n)
    return [Graph.from_adj(adj_from_edge_mask(n, m, slots)) for m in sorted(masks)[:cap]]


def survey(max_order: int,
           checks: tuple[str, ...] | None = None,
           connected_only: bool = False,
           dedup: bool = False,
           threads: int = 1,
           override_budget: bool = False,
           time_limit: float | None = None) -> SurveyReport:
    """Run the selected checks over every labeled graph of order <= max_order.

    The walk visits one graph per isomorphism class and weighs it by its
    number of labelings, so a check's verdict and skip must be
    isomorphism-invariant; its detail may depend on labels.  Every check
    here meets that: ``twins`` reads witnesses, but every zero forcing set
    holds all but one vertex of each twin class.  Examples are the least
    labeled graphs of the violating or leading classes, and each detail is
    re-evaluated on its example, so the report reads as a walk over every
    labeled graph in edge-mask order would.

    Each order is sharded over the classes of the order below.  One loop
    folds the shard results in shard order; ``threads`` > 1 only runs the
    shards of the orders past ``SURVEY_DEFAULT_MAX_ORDER`` in a pool of
    that many workers, or of one per shard when there are fewer shards.
    Each shard, in either case, reads ``time_limit`` (seconds) before each
    parent and each child and raises ``BudgetError`` once it has passed; so
    does the example search.
    """
    at = deadline(time_limit)
    if max_order < 1:
        raise BudgetError("survey order must be at least 1")
    limit = SURVEY_HARD_MAX_ORDER if override_budget else SURVEY_DEFAULT_MAX_ORDER
    if max_order > limit:
        raise BudgetError(
            f"survey order {max_order} exceeds the budget of {limit}"
            + ("" if override_budget else " (pass the override to allow 7)"))
    if threads < 1:
        raise PreconditionError(f"survey threads must be at least 1, got {threads}")
    if checks is None:
        checks = ALL_CHECKS
    for c in checks:
        if c not in _CHECKS:
            raise PreconditionError(f"unknown check {c!r}; known: {', '.join(ALL_CHECKS)}")
    checks = tuple(dict.fromkeys(checks))  # keep order, drop duplicates
    if not checks:
        raise PreconditionError("no survey check selected")

    orders = range(1, max_order + 1)
    tallies = {n: dict.fromkeys(checks, (0, 0, ())) for n in orders}
    leaders = {n: (None, ()) for n in orders}
    parents: list[tuple[int, ...]] = [()]  # the one class of order 0
    pool = None
    try:
        for n in orders:
            chunk = -(-len(parents) // (threads * 4))
            shards = [(n, parents[lo:lo + chunk], checks, connected_only, dedup,
                       n < max_order, at) for lo in range(0, len(parents), chunk)]
            # All orders within the default budget take about 100-110 ms in
            # process on 2 cores.  A pool saved no time there, took up to
            # about 55 % more CPU time, and its forks, round trips and
            # shared cores make the time of a call vary more.  A pool
            # started by fork starts all its workers at once, so it gets no
            # more of them than there are shards.
            if threads > 1 and pool is None and n > SURVEY_DEFAULT_MAX_ORDER:
                pool = concurrent.futures.ProcessPoolExecutor(min(threads, len(shards)))
            results = pool.map(_survey_shard, shards) if pool else map(_survey_shard, shards)
            parents = []
            for shard_tallies, shard_leader, children in results:
                tallies[n] = {c: _tally(t, shard_tallies[c]) for c, t in tallies[n].items()}
                leaders[n] = _keep_least(leaders[n], *shard_leader)
                parents.extend(children)
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)

    for n in orders:
        for check, (checked, violations, classes) in tallies[n].items():
            examples = []
            for g in _first_labelings(n, classes, dedup, _COUNTEREXAMPLE_CAP, at):
                ok, detail, *_ = _CHECKS[check].evaluate(_GraphData(g))
                if ok:
                    raise AssertionError(f"check {check} passes a labeling of a failing class")
                examples.append({"graph6": to_graph6(g), "detail": detail})
            tallies[n][check] = (checked, violations, examples)
        value, classes = leaders[n]
        leaders[n] = (value, [to_graph6(g) for g in
                              _first_labelings(n, classes, dedup, _LEADER_EXAMPLE_CAP, at)])
    return _report(SurveyReport(max_order=max_order, connected_only=connected_only,
                                dedup=dedup, checks=checks), tallies, leaders)


def _report(report: SurveyReport, tallies: dict, leaders: dict) -> SurveyReport:
    """Fill ``report`` with one row per check and order and the leaderboard
    rows, from per-order ``(checked, violations, examples)`` tallies and
    ``(min ZIR, graph6 examples)`` leaders."""
    for n in range(1, report.max_order + 1):
        scope = f"order {n}" + (" connected" if report.connected_only else "") \
            + (" dedup" if report.dedup else "")
        for check, (checked, violations, examples) in tallies[n].items():
            status = "pass" if not violations \
                else "finding" if check in SCAN_CHECKS else "fail"
            report.reports.append(CheckReport(
                check=check, scope=scope, status=status,
                detail=f"{violations} violation(s) in {checked} graph(s)",
                counterexample={"examples": list(examples)} if examples else None,
                stats={"checked": checked, "violations": violations}))
        leader_value, leader_examples = leaders[n]
        report.reports.append(CheckReport(
            check="min-ZIR-leaderboard", scope=scope, status="info",
            detail=f"minimum ZIR over connected graphs of order {n}: {leader_value}",
            stats={"min_ZIR": leader_value, "examples": leader_examples}))
    report.reports.sort(key=lambda r: (r.check, r.scope))
    return report


def exact_params(g: Graph) -> dict[str, int]:
    """Definition-level parameter computation from tables over all subsets.

    Exposed so tests can cross-check the pruned solver searches against the
    survey's independent route.  Each table takes 2^n bits: at order
    ``EXACT_PARAMS_MAX_ORDER`` = 22, G(22, p) with p = 0.2-0.8 peaked at
    87-94 MB resident (17 MB the interpreter's) in 0.7-1.5 s on one core,
    each vertex more doubles both, and above it ``BudgetError`` comes first.
    """
    if g.n > EXACT_PARAMS_MAX_ORDER:
        raise BudgetError(f"exact_params supports n <= {EXACT_PARAMS_MAX_ORDER}, got {g.n}")
    return dict(_GraphData(g).values)
