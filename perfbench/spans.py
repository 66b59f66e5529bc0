"""In-memory spans and counts for the traced benchmark run.

A span is (name, start, end, parent): perf_counter seconds and the index
of the enclosing span, -1 at the root. Wrappers are installed on module
attributes at the place the program looks a name up (``ddsi.train.step``
is what ``train()`` calls), so ``src/`` stays untouched. Nothing is
written until ``dump`` at the end of the run.

The layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager

# nearest-rank percentiles tried from the highest down; the tail reported
# is the highest one that leaves at least TAIL_BEYOND samples above it
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10
TAIL_MIN_SAMPLES = 40
# the layers must cover all but this share of the commands' wall time
# (see uncovered_problems)
CLI_SELF_SHARE = 0.10
CLI_SELF_FLOOR_S = 0.05


class Recorder:
    """Spans and counts of one traced round; nothing is recorded while `on` is false."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.on = False
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        if not self.on:
            yield
            return
        idx = self._open(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float) -> None:
        t1 = time.perf_counter()
        self.stack.pop()
        rec = self.spans[idx]
        rec[1] = t0
        rec[2] = t1

    def wrap(self, module, attr: str, name, count=None) -> None:
        """Replace module.attr with a traced wrapper.

        name is a span name or a function of (args, kwargs) returning one;
        count, if given, is called as count(counts, args, kwargs, result).
        """
        fn = getattr(module, attr)
        rec = self

        def traced(*args, **kwargs):
            if not rec.on:
                return fn(*args, **kwargs)
            idx = rec._open(name if isinstance(name, str) else name(args, kwargs))
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(idx, t0)
            if count is not None:
                count(rec.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        self.patch(module, attr, traced)

    def patch(self, module, attr: str, value) -> None:
        """Set module.attr to value until unwrap_all."""
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def unwrap_all(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def dump(self, path, extra: dict) -> None:
        doc = dict(extra)
        doc["counts"] = dict(self.counts)
        doc["span_fields"] = ["name", "start", "end", "parent"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a traced call adds to a plain one, median over repeats.

    Measured on a no-op function, so that spans x cost estimates the
    tracing overhead without the host's run-to-run noise.
    """
    import types

    costs = []
    for _ in range(repeats):
        mod = types.SimpleNamespace(f=lambda: None)
        t0 = time.perf_counter()
        for _ in range(calls):
            mod.f()
        plain = time.perf_counter() - t0
        rec = Recorder()
        rec.wrap(mod, "f", "cost.f")
        rec.on = True
        t0 = time.perf_counter()
        for _ in range(calls):
            mod.f()
        costs.append((time.perf_counter() - t0 - plain) / calls)
    return statistics.median(costs)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def durations(rec: Recorder, name: str) -> list[float]:
    return [s[2] - s[1] for s in rec.spans if s[0] == name]


def total(rec: Recorder, *names: str) -> float:
    wanted = set(names)
    return sum(s[2] - s[1] for s in rec.spans if s[0] in wanted)


def per_call(values_s: list[float]) -> dict[str, float]:
    """Median and tail in ms, the tail's percentile and the sample count."""
    n = len(values_s)
    if n == 0:
        return {"median": 0.0, "tail": 0.0, "tail_pct": 0.0, "n": 0}
    ms = sorted(v * 1e3 for v in values_s)
    med = statistics.median(ms)
    tail, pct = med, 50.0
    if n >= TAIL_MIN_SAMPLES:
        for p in TAIL_LADDER:
            rank = -(-round(p * 10) * n // 1000)  # ceil(p/100 * n)
            if n - rank >= TAIL_BEYOND:
                tail, pct = ms[rank - 1], p
                break
    return {"median": med, "tail": tail, "tail_pct": pct, "n": n}


def command_breakdown(rec: Recorder) -> list[dict]:
    """For every root span (a cli.* command, or the set-up's own load):
    wall time and self time per layer."""
    own = rec.self_times()
    root_of = [-1] * len(rec.spans)
    rows: list[dict] = []
    row_of_root: dict[int, dict] = {}
    for i, s in enumerate(rec.spans):
        root_of[i] = i if s[3] < 0 else root_of[s[3]]
        root = root_of[i]
        if root == i:
            row_of_root[i] = {"command": s[0], "wall_s": s[2] - s[1], "self_s": Counter()}
            rows.append(row_of_root[i])
        row_of_root[root]["self_s"][layer_of(s[0])] += own[i]
    for row in rows:
        row["self_s"] = dict(row["self_s"])
    return rows


def uncovered_problems(rows: list[dict]) -> list[str]:
    """Commands whose time is left outside the layer wrappers.

    A command's cli self time is its time in no layer's span: argument
    parsing, manifests, and any work the wrappers miss. Summed over the
    commands of one name, it may be at most CLI_SELF_SHARE of their wall
    time, or CLI_SELF_FLOOR_S.
    """
    wall, cli = Counter(), Counter()
    for row in rows:
        wall[row["command"]] += row["wall_s"]
        cli[row["command"]] += row["self_s"].get("cli", 0.0)
    return [
        f"{name}: {cli[name]:.3f} s of its {wall[name]:.3f} s lies outside every layer's spans"
        for name in wall
        if cli[name] > max(CLI_SELF_SHARE * wall[name], CLI_SELF_FLOOR_S)
    ]
