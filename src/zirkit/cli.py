"""Command-line front end: compute, forts, table, survey, convert.

Exit codes: 0 success, 1 check failure (table mismatch or survey theorem
violation), 2 usage error (unknown family, malformed graph6, budget).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .errors import GraphFormatError, ZirkitError, check_deadline, deadline
from .families import generate, parse_family_expr
from .forcing import enumerate_forts, enumerate_minimal_forts
from .graphs import Graph, bit_list, parse_graph6, to_graph6
from .profiles import (DEFAULT_PROFILE_MAX_ORDER, PARAM_NAMES, check_bounds,
                       check_characterizations, parameter_profile, select)
from .survey import ALL_CHECKS, SURVEY_HARD_MAX_ORDER, survey
from .tables import family_table


def _add_source_options(p: argparse.ArgumentParser, with_edges: bool = False) -> None:
    src = p.add_argument_group("graph source (choose exactly one)")
    src.add_argument("--graph6", metavar="G6", help="graph6 literal")
    src.add_argument("--file", metavar="PATH",
                     help="file of graph6 strings, one per line, '#' comments")
    src.add_argument("--family", metavar="EXPR",
                     help="family expression, e.g. corona(cycle:5,empty:1)")
    if with_edges:
        src.add_argument("--edges", metavar="PATH",
                         help="edge-list file: first line 'n <N>', then 'u v' lines")


def _iter_source(args) -> list[tuple[str, Graph]]:
    picked = [name for name in ("graph6", "file", "family", "edges")
              if getattr(args, name, None) is not None]
    if len(picked) != 1:
        raise ZirkitError("choose exactly one of --graph6, --file, --family"
                          + (", --edges" if hasattr(args, "edges") else ""))
    source = picked[0]
    value = getattr(args, source)
    if source == "graph6":
        return [(value, parse_graph6(value))]
    if source == "edges":
        return [(value, _parse_edge_file(value))]
    if source == "family":
        spec = parse_family_expr(value)
        return [(str(spec), generate(spec))]
    out = []
    for lineno, line in _numbered_lines(value):
        try:
            out.append((line, parse_graph6(line)))
        except ZirkitError as exc:
            raise type(exc)(f"{value}:{lineno}: {exc}") from None
    return out


def _numbered_lines(path: str) -> list[tuple[int, str]]:
    """The lines of a UTF-8 file that hold more than a comment, numbered from
    1, each cut at its first ``#`` and stripped; a decode error names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return [(lineno, line) for lineno, raw in enumerate(fh, 1)
                    if (line := raw.split("#", 1)[0].strip())]
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None


def _split(items: str, sep: str) -> tuple[str, ...]:
    """The items of an option's ``sep``-separated list, stripped, blanks dropped."""
    return tuple(item.strip() for item in items.split(sep) if item.strip())


def _parse_edge_file(path: str) -> Graph:
    n = None
    edges = []
    for lineno, line in _numbered_lines(path):
        where = f"{path}:{lineno}"
        parts = line.split()
        if n is None:
            if parts[0] != "n" or len(parts) != 2 or not parts[1].isdecimal() \
                    or int(parts[1]) < 1:
                raise GraphFormatError(
                    f"{where}: first line must be 'n <order>' with order >= 1")
            n = int(parts[1])
            continue
        try:
            u, v = map(int, parts)
        except ValueError:
            raise GraphFormatError(f"{where}: expected 'u v'") from None
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(
                f"{where}: edge ({u},{v}) is a loop or out of range for order {n}")
        edges.append((u, v))
    if n is None:
        raise GraphFormatError(f"{path}: empty edge-list file")
    return Graph(n, edges)


def _cmd_compute(args) -> int:
    params = select(_split(args.params, ","), PARAM_NAMES, "parameter")
    if args.check_bounds:
        params = PARAM_NAMES  # every bound needs the full profile
    spec = parse_family_expr(args.family) if args.family is not None else None
    at = deadline(args.time_limit)
    graphs = _iter_source(args)
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["graph", "n"] + list(params))
    failed = False
    for graph_id, g in graphs:
        check_deadline(at, "compute")
        profile = parameter_profile(g, params=params, max_order=args.max_order,
                                    graph_id=graph_id, at=at)
        row = profile.to_dict(include_witnesses=args.witness)
        reports = []
        if args.check_bounds:
            reports = check_bounds(profile, spec) + check_characterizations(profile, spec)
            failed = failed or any(r.status == "fail" for r in reports)
        if args.format == "jsonl":
            for out in [row] + [r.to_dict() for r in reports]:
                print(json.dumps(out, sort_keys=True))
        else:
            writer.writerow([row["graph"], row["n"]] + [row.get(p, "") for p in params])
            for r in reports:
                if r.status == "fail":
                    print(f"zirkit compute: check {r.check} failed on {r.scope}: {r.detail}",
                          file=sys.stderr)
        sys.stdout.flush()
    return 1 if failed else 0


def _cmd_forts(args) -> int:
    at = deadline(args.time_limit)
    for graph_id, g in _iter_source(args):
        check_deadline(at, "forts")
        forts = enumerate_minimal_forts(g) if args.minimal else enumerate_forts(g)
        for f in forts:
            print(json.dumps({"graph": graph_id, "fort": bit_list(f),
                              "size": f.bit_count(),
                              "minimal": bool(args.minimal)}, sort_keys=True))
    return 0


def _cmd_table(args) -> int:
    specs = _split(args.specs, ";") if args.specs is not None else None
    rows = family_table(specs, max_order=args.max_order, time_limit=args.time_limit)
    failures = [r for r in rows if not r.ok]
    if args.format == "jsonl":
        for r in rows:
            print(json.dumps(r.to_dict(), sort_keys=True))
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(["spec", "graph6", "n", "param", "expected", "computed", "status"])
        for r in rows:
            writer.writerow([r.spec, r.graph6, r.n, r.param, r.expected,
                             r.computed, "ok" if r.ok else "MISMATCH"])
    print(f"table: {len(rows)} value(s) checked, {len(failures)} mismatch(es)",
          file=sys.stderr)
    return 1 if failures else 0


def _cmd_survey(args) -> int:
    checks = None if args.checks == "all" else _split(args.checks, ",")
    report = survey(args.order, checks=checks, connected_only=args.connected_only,
                    dedup=args.dedup, threads=args.threads,
                    override_budget=args.override_budget,
                    time_limit=args.time_limit)
    if args.format == "jsonl":
        for line in report.to_json_lines():
            print(line)
    summary = io.StringIO()
    width = max(len(r.check) for r in report.reports) + 2
    for r in report.reports:
        summary.write(f"{r.check:<{width}} {r.scope:<20} {r.status:<8} {r.detail}\n")
    print(summary.getvalue(), end="",
          file=sys.stderr if args.format == "jsonl" else sys.stdout)
    findings = report.findings()
    if findings:
        print(f"survey: {len(findings)} finding(s) -- counterexamples above",
              file=sys.stderr)
    return 1 if report.failed else 0


def _cmd_convert(args) -> int:
    for graph_id, g in _iter_source(args):
        if args.to == "graph6":
            print(to_graph6(g))
        else:
            print(f"# {graph_id}")
            print(f"n {g.n}")
            for u, v in g.edges():
                print(f"{u} {v}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zirkit",
        description="Exact zero-forcing irredundance toolkit: forts, private "
                    "forts, zir/ZIR, forcing and domination parameters.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="parameter profiles for graphs")
    _add_source_options(p)
    p.add_argument("--params", default="zir,Z,Zbar,ZIR",
                   help="comma-separated parameters (default zir,Z,Zbar,ZIR)")
    p.add_argument("--witness", action="store_true", help="include witnesses")
    p.add_argument("--check-bounds", action="store_true",
                   help="also run every applicable bound and characterization "
                        "check (forces the full parameter set; exit 1 on a "
                        "failed check)")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.add_argument("--max-order", type=int, default=DEFAULT_PROFILE_MAX_ORDER,
                   help="solver budget; larger graphs get omitted parameters")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("forts", help="list forts of a graph")
    _add_source_options(p)
    p.add_argument("--minimal", action="store_true", help="minimal forts only")
    p.set_defaults(func=_cmd_forts)

    p = sub.add_parser("table", help="family regression table vs closed forms")
    p.add_argument("--specs", help="semicolon-separated family expressions "
                                   "(default: built-in list)")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--max-order", type=int, default=DEFAULT_PROFILE_MAX_ORDER)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("survey", help="exhaustive checks over small graphs")
    p.add_argument("--order", type=int, required=True, help="maximum order")
    p.add_argument("--checks", default="all",
                   help="comma-separated check names or 'all'; known: "
                        + ", ".join(ALL_CHECKS))
    p.add_argument("--connected-only", action="store_true")
    p.add_argument("--dedup", action="store_true",
                   help="count each isomorphism class once, not its labelings")
    p.add_argument("--threads", type=int, default=1)
    top = SURVEY_HARD_MAX_ORDER
    p.add_argument("--override-budget", action="store_true",
                   help=f"allow order {top} (2^{top * (top - 1) // 2} graphs)")
    p.add_argument("--format", choices=("jsonl", "text"), default="jsonl")
    p.set_defaults(func=_cmd_survey)

    for name in ("compute", "forts", "table", "survey"):
        sub.choices[name].add_argument("--time-limit", type=float, metavar="SECONDS",
                                       help="exit 2 once this many seconds have passed")

    p = sub.add_parser("convert", help="transcode between graph6 and edge lists")
    _add_source_options(p, with_edges=True)
    p.add_argument("--to", choices=("graph6", "edges"), required=True)
    p.set_defaults(func=_cmd_convert)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ZirkitError, OSError) as exc:
        print(f"zirkit {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
