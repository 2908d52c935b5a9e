"""Span recorder for the traced benchmark run.

The recorder wraps public functions at the module attributes the pipeline
calls through, so each call into a layer leaves a span (name, start, end,
parent, pass id).  Spans stay in memory until the run ends.  A name the
program no longer has is listed as absent instead of raising, so internals
can be renamed or removed without breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 for a top-level span
    pass_id: str


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.calls: dict[str, Counter[str]] = {}
        self.absent: list[str] = []
        self.pass_id = ""
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def count(self, name: str) -> None:
        self.calls.setdefault(self.pass_id, Counter())[name] += 1

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.pass_id))
        self.count(name)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def _traced(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _counted(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self, traced, counted=()):
        """Wrap ``(module, attribute, span name)`` targets for the duration.

        ``traced`` targets record a span per call; ``counted`` targets only
        count calls, so their callees stay children of the caller's span.
        Originals are restored on exit, even when the body raises.
        """
        for targets, make in ((traced, self._traced), (counted, self._counted)):
            for module_name, attr, name in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if not callable(original):
                    label = f"{module_name}.{attr}"
                    if label not in self.absent:
                        self.absent.append(label)
                    continue
                setattr(module, attr, make(original, name))
                self._installed.append((module, attr, original))
        try:
            yield self
        finally:
            while self._installed:
                module, attr, original = self._installed.pop()
                setattr(module, attr, original)

    def self_times(self, pass_id: str) -> dict[str, float]:
        """Seconds of each span name not covered by its child spans."""
        out: Counter[str] = Counter()
        for s in self.spans:
            if s.pass_id != pass_id:
                continue
            out[s.name] += s.end - s.start
            if s.parent >= 0:
                out[self.spans[s.parent].name] -= s.end - s.start
        return dict(out)

    def totals(self, pass_id: str) -> dict[str, float]:
        """Seconds of each span name, child spans included."""
        out: Counter[str] = Counter()
        for s in self.spans:
            if s.pass_id == pass_id:
                out[s.name] += s.end - s.start
        return dict(out)

    def top_level_seconds(self, pass_id: str) -> float:
        return sum(
            s.end - s.start for s in self.spans if s.pass_id == pass_id and s.parent < 0
        )

    def call_counts(self, pass_id: str) -> Counter[str]:
        return self.calls.get(pass_id, Counter())

    def to_json(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "pass_id"],
            "spans": [[s.name, s.start, s.end, s.parent, s.pass_id] for s in self.spans],
            "calls": {k: dict(v) for k, v in self.calls.items()},
            "absent": list(self.absent),
        }
