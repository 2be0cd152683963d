"""In-memory span recorder that wraps functions where their caller binds them.

A `Tracer` replaces a module attribute (for example ``roughscale.pipeline.
fluctuation_function``) with a wrapper that records one `Span` per call: name,
start, end, parent span and thread. Spans stay in memory until the benchmark
writes them out. Self time is a span's duration minus the part of that
interval its child spans cover, so concurrent children on two threads are
counted once.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Span:
    id: int
    name: str            # "<module>.<function>", the module owning the work
    start: float         # perf_counter seconds
    end: float
    parent: int | None   # id of the span that caused this one
    thread: int

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent, self.thread]


@dataclass(frozen=True)
class Target:
    """One binding to wrap: attribute `attr` of module `module`.

    `count(counters, args, kwargs, result)` records per-call counters;
    `adapt(fn, counters)` may replace the function before it is wrapped, for
    counts that need more than arguments and result (captured warnings).
    """

    module: str
    attr: str
    name: str
    count: Callable | None = None
    adapt: Callable | None = None


class Counters:
    """Thread-safe named totals, plus named notes, filled by `Target.count` hooks."""

    def __init__(self):
        self._lock = threading.Lock()
        self._totals: Counter = Counter()
        self.notes: dict[str, object] = {}

    def add(self, key: str, value: float = 1) -> None:
        with self._lock:
            self._totals[key] += value

    def note(self, key: str, value) -> None:
        with self._lock:
            self.notes[key] = value

    def get(self, key: str, default: float = 0):
        with self._lock:
            return self._totals.get(key, default)


class Tracer:
    """Records spans around wrapped callables while installed.

    A span that starts on a thread with no open span (a pool worker) takes as
    parent the innermost open span of the thread that created the tracer,
    which is the call that is waiting on the pool.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counters = Counters()
        self._ids = itertools.count()
        self._local = threading.local()
        self._home_stack: list[int] = self._stack()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int | None]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            home = self._home_stack
            parent = home[-1] if home else None
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent

    def _close(self, sid: int, name: str, start: float, parent: int | None) -> None:
        end = perf_counter()
        self._stack().pop()
        self.spans.append(Span(sid, name, start, end, parent, threading.get_ident()))

    def wrap(self, fn: Callable, name: str, count: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, name, start, parent)
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        sid, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, start, parent)

    def install(self, targets: list[Target]) -> "Tracer":
        for t in targets:
            module = importlib.import_module(t.module)
            original = getattr(module, t.attr)
            fn = t.adapt(original, self.counters) if t.adapt else original
            self._restore.append((module, t.attr, original))
            setattr(module, t.attr, self.wrap(fn, t.name, t.count))
        return self

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        elif e > cur_end:
            cur_end = e
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    out = {}
    for sp in spans:
        covered = union_length((max(c.start, sp.start), min(c.end, sp.end))
                               for c in children.get(sp.id, ()))
        out[sp.id] = sp.duration - covered
    return out


def wall_attribution(spans: list[Span]) -> dict[int, float]:
    """Span id -> wall time during which the span was running.

    A span runs while it is open and none of its children is; a call waiting
    on pool threads therefore gets none of that time. Each instant is split
    evenly among the spans running at once, so the values sum to the wall
    time the spans cover even with two threads.
    """
    open_children: Counter = Counter()
    open_ids: set[int] = set()
    running: set[int] = set()
    parent = {sp.id: sp.parent for sp in spans}
    out: dict[int, float] = defaultdict(float)
    events = sorted([(sp.start, 1, sp.id) for sp in spans]
                    + [(sp.end, 0, sp.id) for sp in spans])
    last = None
    for t, is_start, sid in events:
        if running and t > last:
            share = (t - last) / len(running)
            for r in running:
                out[r] += share
        last = t
        p = parent[sid] if parent[sid] in parent else None
        if is_start:
            open_ids.add(sid)
            running.add(sid)
            if p is not None:
                open_children[p] += 1
                running.discard(p)
        else:
            open_ids.discard(sid)
            running.discard(sid)
            if p is not None:
                open_children[p] -= 1
                if open_children[p] == 0 and p in open_ids:
                    running.add(p)
    return out


def module_table(spans: list[Span], wall_s: float) -> dict[str, dict]:
    """Per module: summed self time, call count, wall time attributed by
    `wall_attribution`, and that wall time as a share of `wall_s`.

    Self times of spans on two threads add up, so a module's self time can
    exceed its wall time; the wall shares sum to at most 1.
    """
    selfs = self_times(spans)
    walls = wall_attribution(spans)
    table: dict[str, dict] = {}
    for sp in spans:
        row = table.setdefault(sp.module, {"self_s": 0.0, "calls": 0, "wall_s": 0.0})
        row["self_s"] += selfs[sp.id]
        row["calls"] += 1
        row["wall_s"] += walls.get(sp.id, 0.0)
    for row in table.values():
        row["share_of_wall"] = row["wall_s"] / wall_s if wall_s > 0 else 0.0
    return dict(sorted(table.items(), key=lambda kv: -kv[1]["wall_s"]))


def totals_by_name(spans: list[Span]) -> dict[str, dict]:
    """Per span name: summed duration, summed self time and call count."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for sp in spans:
        row = out.setdefault(sp.name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        row["total_s"] += sp.duration
        row["self_s"] += selfs[sp.id]
        row["calls"] += 1
    return out
