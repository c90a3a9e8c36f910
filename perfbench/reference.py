"""Correctness gate: checks program output against independent references.

Parameter values are compared with ``zirkit.survey.exact_params``, the
closure-table route that shares no search code with the solvers.  Witnesses
are re-verified by definition with the small set predicates below, written
here rather than imported so that a solver bug cannot also hide in the
checker.  Survey rows are compared with rows recorded from a known-good
commit, ignoring only graph6 example strings, which a change of enumeration
order may legitimately alter.
"""

from __future__ import annotations

import json


def _members(mask: int):
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def closure(adj: tuple[int, ...], blue: int) -> int:
    """Apply the color change rule in ascending vertex order to a fixed point."""
    changed = True
    while changed:
        changed = False
        for v in range(len(adj)):
            if blue >> v & 1:
                white = adj[v] & ~blue
                if white.bit_count() == 1:
                    blue |= white
                    changed = True
    return blue


def forces(adj, s: int) -> bool:
    return closure(adj, s) == (1 << len(adj)) - 1


def is_minimal_zfs(adj, s: int) -> bool:
    return forces(adj, s) and not any(forces(adj, s & ~(1 << x)) for x in _members(s))


def is_zir_set(adj, s: int) -> bool:
    """Every member x keeps a private fort: x stays white when S - {x} closes."""
    return all(not closure(adj, s & ~(1 << x)) >> x & 1 for x in _members(s))


def is_maximal_zir_set(adj, s: int) -> bool:
    outside = ((1 << len(adj)) - 1) & ~s
    return is_zir_set(adj, s) and not any(is_zir_set(adj, s | 1 << v)
                                          for v in _members(outside))


def k_dominates(adj, s: int, k: int) -> bool:
    outside = ((1 << len(adj)) - 1) & ~s
    return all((adj[v] & s).bit_count() >= k for v in _members(outside))


def is_independent(adj, s: int) -> bool:
    return all(not adj[v] & s for v in _members(s))


def power_dominates(adj, s: int) -> bool:
    seed = s
    for v in _members(s):
        seed |= adj[v]
    return forces(adj, seed)


WITNESS_RULES = {
    "zir": is_maximal_zir_set,
    "Z": forces,
    "Zbar": is_minimal_zfs,
    "ZIR": is_maximal_zir_set,
    "gamma": lambda adj, s: k_dominates(adj, s, 1),
    "gamma2": lambda adj, s: k_dominates(adj, s, 2),
    "alpha": is_independent,
    "gammaP": power_dominates,
}


def check_compute(adj: tuple[int, ...], expected: dict[str, int],
                  exit_code: object, stdout: str) -> list[str]:
    """Problems with one ``compute --witness --check-bounds`` run; [] if none.

    ``exit_code`` is the traceback text when the call raised.
    """
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    try:
        rows = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except json.JSONDecodeError as exc:
        return problems + [f"unparseable output: {exc}"]
    if not rows or "check" in rows[0]:
        return problems + ["no profile row"]
    profile = rows[0]
    for param, want in expected.items():
        got = profile.get(param)
        if got != want:
            problems.append(f"{param}={got}, reference {want}")
            continue
        witness = profile.get("witnesses", {}).get(param)
        if witness is None:
            problems.append(f"{param} has no witness")
            continue
        mask = 0
        for v in witness:
            mask |= 1 << v
        if mask.bit_count() != want or not WITNESS_RULES[param](adj, mask):
            problems.append(f"{param} witness {witness} does not verify")
    for row in rows[1:]:
        if row.get("status") not in ("pass", "skip"):
            problems.append(f"check {row.get('check')} is {row.get('status')}")
    return problems


def survey_rows(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def without_graph6(row: dict) -> dict:
    """The row with its graph6 example strings removed and nothing else."""
    row = json.loads(json.dumps(row))
    for example in (row.get("counterexample") or {}).get("examples", []):
        example.pop("graph6", None)
    stats = row.get("stats") or {}
    if isinstance(stats.get("examples"), list):
        stats["examples"] = len(stats["examples"])
    return row


def check_survey(rows: list[dict], reference: list[dict]) -> list[str]:
    """Problems with one survey's rows against the recorded reference."""
    problems = [f"theorem check {r['check']} fails on {r['scope']}"
                for r in rows if r.get("status") == "fail"]
    got = [without_graph6(r) for r in rows]
    if len(got) != len(reference):
        problems.append(f"{len(got)} rows, reference has {len(reference)}")
    for g, want in zip(got, reference):
        if g != want:
            problems.append(f"row {want.get('check')}/{want.get('scope')} differs: {g}")
    return problems
