"""In-memory spans and counters recorded from outside the program.

Spans are opened by the benchmark around calls into zirkit's public
functions; nothing inside ``src/zirkit`` is instrumented.  For the CLI the
benchmark swaps the names ``zirkit.cli`` imported from ``profiles`` and
``survey`` for timing wrappers while a traced pass runs, so the span tree
of one ``cli.main`` call is ``cli.main`` -> profile / checks / survey.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

from zirkit import cli
from zirkit.forcing import ClosureCache


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start_ns: int
    end_ns: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Collects spans in memory; nesting follows the call stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        s = Span(len(self.spans), name, self._stack[-1] if self._stack else None,
                 time.perf_counter_ns())
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            self._stack.pop()
            s.end_ns = time.perf_counter_ns()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0
        reach = s.start_ns
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start_ns):
            lo, hi = max(c.start_ns, reach), min(c.end_ns, s.end_ns)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration_ns - covered
    return out


def span_tree(spans: list[Span]) -> list[dict]:
    """Aggregate spans by their name path: count, total and self milliseconds."""
    selfs = self_times_ns(spans)
    paths: dict[int, str] = {}
    agg: dict[str, dict] = {}
    for s in spans:  # parents are recorded before their children
        path = s.name if s.parent is None else f"{paths[s.parent]}/{s.name}"
        paths[s.id] = path
        a = agg.setdefault(path, {"path": path, "count": 0, "total_ms": 0.0, "self_ms": 0.0})
        a["count"] += 1
        a["total_ms"] += s.duration_ns / 1e6
        a["self_ms"] += selfs[s.id] / 1e6
    return list(agg.values())


# zirkit.cli name -> span name of the public function it is bound to.
CLI_CALLEES = {
    "parameter_profile": "profiles.parameter_profile",
    "check_bounds": "profiles.check_bounds",
    "check_characterizations": "profiles.check_characterizations",
    "survey": "survey.survey",
}


@contextlib.contextmanager
def traced_cli(tracer: Tracer):
    """Route zirkit.cli's calls into profiles and survey through spans."""
    saved = {attr: getattr(cli, attr) for attr in CLI_CALLEES}
    try:
        for attr, name in CLI_CALLEES.items():
            setattr(cli, attr, tracer.wrap(saved[attr], name))
        yield
    finally:
        for attr, fn in saved.items():
            setattr(cli, attr, fn)


class CountingClosureCache(ClosureCache):
    """ClosureCache that counts lookups and the distinct masks looked up.

    A memo computes each distinct mask once, so the distinct count is the
    miss count without relying on how the base class stores its entries.
    """

    __slots__ = ("calls", "masks")

    def __init__(self, g):
        super().__init__(g)
        self.calls = 0
        self.masks: set[int] = set()

    def closure(self, blue: int) -> int:
        self.calls += 1
        self.masks.add(blue)
        return super().closure(blue)

    @property
    def misses(self) -> int:
        return len(self.masks)
