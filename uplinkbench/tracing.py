"""Span recording around the calls into each layer, from outside ``src/``.

:class:`SpanRecorder` replaces a function or method at the name its
caller looks it up by (a module global such as
``repro.runtime.queue.triangularize_frame``, or a class attribute such as
``StreamingFrontier.tick``) with a wrapper that records one span per call:
``(name, start, end, parent, frame)``.  ``parent`` is the index of the
enclosing recorded span (``-1`` at the root) and ``frame`` the benchmark's
index of the frame being offered when the call ran.  Spans stay in memory
until :meth:`SpanRecorder.write` dumps them as JSON lines.  Only the
thread that installed the wrappers records; calls from other threads (the
service front's connection threads) pass straight through.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict


def _attribute(owner, attr: str):
    """``owner.attr`` as stored: for a class, the raw function or
    ``staticmethod`` in its ``__dict__``, so restoring it is exact."""
    return owner.__dict__[attr] if isinstance(owner, type) else (
        getattr(owner, attr))


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.frame: int | None = None
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        self._thread = threading.get_ident()

    # -- installation ----------------------------------------------------
    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attr``.  ``observe(args, result)``, when given, runs after
        each recorded call (for counts such as rows per Viterbi sweep)."""
        original = _attribute(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if threading.get_ident() != recorder._thread:
                return original(*args, **kwargs)
            stack = recorder._stack
            index = len(recorder.spans)
            recorder.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans[index] = (name, start, end, parent,
                                         recorder.frame)
            if observe is not None:
                observe(args, result)
            return result

        self.replace(owner, attr, traced)

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`uninstall`."""
        self._installed.append((owner, attr, _attribute(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total time and self time (total
        minus the time of direct children), in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        report: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = report[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return dict(report)

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, _, _ in self.spans
                if span_name == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, frame in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "frame": frame}) + "\n")

    def cost_per_span_s(self, calls: int = 20000) -> float:
        """Measured cost one recorded span adds to a call: a wrapped
        no-op against the bare no-op, on this recorder's code path."""
        probe = type("Probe", (), {"noop": staticmethod(lambda: None)})
        bare = probe.noop
        started = time.perf_counter()
        for _ in range(calls):
            bare()
        bare_s = time.perf_counter() - started
        scratch = SpanRecorder()
        scratch.wrap(probe, "noop", "probe")
        wrapped = probe.noop
        started = time.perf_counter()
        for _ in range(calls):
            wrapped()
        wrapped_s = time.perf_counter() - started
        scratch.uninstall()
        return max(0.0, wrapped_s - bare_s) / calls
