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
the least labeled edge masks of the violating or leading classes
(``_first_labelings``), so the report reads as a walk over every labeled
graph in edge-mask order would.  Each class is built from the generator's
rows unchecked, and its connectivity is tested once.

Each class is evaluated on the table route alone, as a ``subsets.TableFacts``
record: no solver is called and no theorem bound prunes anything.  This
module alone decides what the survey runs (``ALL_CHECKS``): the registry
theorems named in ``SHARED_CHECKS``, under the names ``compute`` uses, its
own theorems and its scans.  Every check reads tables and adjacency rows,
never a list of sets: ``zir-complement-dominating`` reads the sets that
hold some N[v] under the maximal ZIr-set table, and ``twins`` the twin
classes ``graphs.canonical_children`` yields with each class.  The scans
read nothing but ``values``, so they run on either facts record.

Each order is sharded over the classes of the order below, and a shard
keeps integer counts and a list of violating classes per check;
``survey.survey`` says how the shards run and fold.  The default budget is
order ``SURVEY_DEFAULT_MAX_ORDER`` (6) and the override's
``SURVEY_HARD_MAX_ORDER`` (9).
"""

from __future__ import annotations

import concurrent.futures
import json
from dataclasses import dataclass, field
from math import factorial

from .errors import BudgetError, PreconditionError, check_deadline, deadline
from .graphs import (Graph, _least_orders, adj_from_edge_mask, bit_list, canonical_children,
                     edge_slots, to_graph6)
from .profiles import CHECKS, Check, CheckReport, select
from .subsets import TableFacts

SURVEY_DEFAULT_MAX_ORDER = 6
SURVEY_HARD_MAX_ORDER = 9
_EXAMPLE_CAP = 3  # the examples of one report row


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
        return [json.dumps(r.to_dict(), sort_keys=True) for r in self.reports]


# -- survey-only checks; the shared theorems live in profiles.CHECKS ---------


def _complement_dominating(d):
    if not d.isolated_free:
        return ""
    # the complement of m misses v iff v and all its neighbours lie in m
    bad = d.maximal_table & d.held
    if not bad:
        return True, ""
    m = (bad & -bad).bit_length() - 1
    v = next(v for v, row in enumerate(d.graph.adj) if not (row | 1 << v) & ~m)
    return False, f"complement of maximal ZIr-set {bit_list(m)} misses {v}"


def _twins(d):
    classes = [m for m in dict.fromkeys(d.twins) if m & (m - 1)]
    if not classes:
        return ""
    for cls in classes:
        need = cls.bit_count() - 1
        for name, witness in (("Z", d.z_witness), ("Zbar", d.zbar_witness)):
            if (witness & cls).bit_count() < need:
                return False, (f"{name} witness {bit_list(witness)} has fewer than "
                               f"{need} of twin class {bit_list(cls)}")
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


# the theorems of profiles.CHECKS that the survey runs, in registry order
SHARED_CHECKS = ("chain", "min-degree", "domination-sandwich", "max-degree-ratio", "extreme-n",
                 "extreme-n-minus-1", "zir-n-minus-2-form", "zir1-characterization",
                 "minimal-zfs-equivalence", "abandonment")
_SURVEY_THEOREMS = (Check("zir-complement-dominating", (), _complement_dominating),
                    Check("twins", (), _twins))
# question scans: a counterexample is a finding, not a failure
_SCANS = (Check("gammaP-vs-zir", ("gammaP", "zir"), _gamma_p_vs_zir),
          Check("gamma-vs-ZIR", ("gamma", "ZIR"), _gamma_vs_zir_upper))
_CHECKS = {c.name: c for c in CHECKS if c.name in SHARED_CHECKS}
_CHECKS |= {c.name: c for c in _SURVEY_THEOREMS + _SCANS}
SCAN_CHECKS = tuple(c.name for c in _SCANS)
ALL_CHECKS = tuple(_CHECKS)


def _keep_least(leader: list, value: int | None, classes: list) -> None:
    """Fold ``(value, classes)`` into ``leader``, ``[the least value so far,
    every class that reaches it]``."""
    best = leader[0]
    if value is None or (best is not None and value > best):
        return
    if best is None or value < best:
        leader[:] = value, list(classes)
    else:
        leader[1] += classes


def _survey_shard(args: tuple) -> tuple[dict, list, list]:
    """Evaluate the classes of order n whose parents are the given classes
    of order n-1; returns mergeable tallies, the leader and the classes.

    A tally is ``[checked, violations, violating classes]``, counting each
    class n!/|Aut G| times, once under ``dedup``; classes are adjacency
    tuples, returned only if ``more`` orders follow.
    """
    n, parents, checks, connected_only, dedup, more, at = args
    tallies = {name: [0, 0, []] for name in checks}
    run = [(_CHECKS[name].evaluate, tallies[name]) for name in checks]
    leader: list = [None, []]
    children = []
    labelings = factorial(n)
    for parent in parents:
        check_deadline(at, "survey")
        for adj, automorphisms, twins in canonical_children(parent):
            check_deadline(at, "survey")
            if more:
                children.append(adj)
            g = Graph._of_rows(adj)  # the generator built each row pair
            connected = g.is_connected()
            if connected_only and not connected:
                continue
            d = TableFacts(g, connected)
            d.twins = twins
            weight = 1 if dedup else labelings // automorphisms
            for evaluate, tally in run:
                outcome = evaluate(d)
                if isinstance(outcome, tuple):
                    tally[0] += weight
                    if not outcome[0]:
                        tally[1] += weight
                        tally[2].append(adj)
            if connected:
                _keep_least(leader, d.values["ZIR"], [adj])
    return tallies, leader, children


def _first_labelings(n: int, classes: list, dedup: bool, cap: int, at) -> list[Graph]:
    """The first ``cap`` labeled graphs of ``classes``, pairwise
    non-isomorphic, in the labeled walk's order: ascending edge mask over
    all their labelings, or over each class's least labeling under
    ``dedup``.

    One ``_least_orders`` search runs over the classes in turn, so the
    masks found so far bound the search of each next class: the ``cap``
    least under all labelings, or under ``dedup`` the ``cap``-th least
    class minimum, which a class's own least mask must beat to count.
    """
    found: list[list[int]] = []
    one_cell = [list(range(n))]
    for adj in classes:
        check_deadline(at, "survey")
        if dedup:
            least = _least_orders(adj, one_cell, 1, found[cap - 1:])
            found = sorted(found[:cap - 1] + least)
        else:
            _least_orders(adj, one_cell, cap, found)
    slots = edge_slots(n)
    return [Graph._of_rows(adj_from_edge_mask(n, m, slots)) for m, _, _ in found]


def survey(max_order: int,
           checks: tuple[str, ...] | None = None,
           connected_only: bool = False,
           dedup: bool = False,
           threads: int = 1,
           override_budget: bool = False,
           time_limit: float | None = None) -> SurveyReport:
    """Run the selected checks over every labeled graph of order <= max_order.

    Every check's verdict and skip are isomorphism-invariant, as the class
    walk needs (``twins`` reads witnesses, but every zero forcing set holds
    all but one vertex of each twin class); its detail may depend on
    labels, so each example's detail is re-evaluated on that example.

    Each order is sharded over the classes of the order below.  One loop
    folds the shard results in shard order and then finds the order's
    examples, before the next order starts; ``threads`` > 1 only runs the
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
            + ("" if override_budget
               else f" (pass the override to allow {SURVEY_HARD_MAX_ORDER})"))
    if threads < 1:
        raise PreconditionError(f"survey threads must be at least 1, got {threads}")
    checks = select(ALL_CHECKS if checks is None else checks, _CHECKS, "check")

    tallies, leaders = {}, {}
    parents: list[tuple[int, ...]] = [()]  # the one class of order 0
    pool = None
    try:
        for n in range(1, max_order + 1):
            chunk = -(-len(parents) // (threads * 4))
            shards = [(n, parents[lo:lo + chunk], checks, connected_only, dedup,
                       n < max_order, at) for lo in range(0, len(parents), chunk)]
            # All orders within the default budget run in process in about
            # 28-30 ms of CPU time (the least of 40 calls; x86_64, Python
            # 3.11).  A pool saved no time there even at 100-110 ms, took up
            # to about 55 % more CPU time, and its forks, round trips and
            # shared cores make the time of a call vary more.  A pool started
            # by fork starts all its workers at once, so it gets no more of
            # them than there are shards.
            if threads > 1 and pool is None and n > SURVEY_DEFAULT_MAX_ORDER:
                pool = concurrent.futures.ProcessPoolExecutor(min(threads, len(shards)))
            results = pool.map(_survey_shard, shards) if pool else map(_survey_shard, shards)
            folded = {c: [0, 0, []] for c in checks}
            leader: list = [None, []]
            parents = []
            for shard_tallies, shard_leader, children in results:
                for c, tally in folded.items():
                    checked, violations, classes = shard_tallies[c]
                    tally[0] += checked
                    tally[1] += violations
                    tally[2] += classes
                _keep_least(leader, *shard_leader)
                parents.extend(children)
            tallies[n] = {}
            for check, (checked, violations, classes) in folded.items():
                examples = []
                for g in _first_labelings(n, classes, dedup, _EXAMPLE_CAP, at):
                    ok, detail, *_ = _CHECKS[check].evaluate(TableFacts(g))
                    if ok:
                        raise AssertionError(f"check {check} passes a labeling of a failing class")
                    examples.append({"graph6": to_graph6(g), "detail": detail})
                tallies[n][check] = (checked, violations, examples)
            value, classes = leader
            leaders[n] = (value, [to_graph6(g) for g in
                                  _first_labelings(n, classes, dedup, _EXAMPLE_CAP, at)])
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
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

