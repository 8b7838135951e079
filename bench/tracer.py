"""In-memory span tracer for the traced benchmark run.

Spans are recorded from outside the program: :meth:`Tracer.wrap` replaces a
module attribute that forestdens code looks up at call time (for example
``forestdens.expfam.solve_theta``, which ``forest`` calls as
``expfam.solve_theta``) with a wrapper that opens a span, calls the
original, and closes the span.  Nothing in ``src/`` is changed.

Each span is ``(name, start, end, parent, op)`` with times from the clock
given to :class:`Tracer`; the benchmark passes the reference-seconds clock
of its speed probe, the clock of the end-to-end metrics.  A span's
self time is its duration minus the durations of its direct children; the
program is single-threaded (``workers=1``), so children never overlap.

Calls made while no op is active (input generation, output checks) are
passed straight through and leave no span.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
from collections import Counter, defaultdict


class Tracer:
    """Collects spans and per-op counts; install wrappers with :meth:`wrap`."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[tuple[int, str, float, float, int, int | None]] = []
        self.op: int | None = None
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.minima: dict[int, dict[str, float]] = defaultdict(dict)
        self.maxima: dict[int, dict[str, float]] = defaultdict(dict)
        self._ids = itertools.count()
        self._stack: list[tuple[int, str, float]] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> None:
        self._stack.append((next(self._ids), name, self.clock()))

    def _close(self) -> None:
        end = self.clock()
        token, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((token, name, start, end, parent, self.op))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a block."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def count(self, key: str, amount=1) -> None:
        self.counts[self.op][key] += amount

    def low(self, key: str, value: float) -> None:
        cur = self.minima[self.op].get(key)
        self.minima[self.op][key] = value if cur is None else min(cur, value)

    def high(self, key: str, value: float) -> None:
        cur = self.maxima[self.op].get(key)
        self.maxima[self.op][key] = value if cur is None else max(cur, value)

    def wrap(self, module, attr: str, name: str, on_return=None, errors=()):
        """Replace ``module.attr`` with a traced wrapper.

        ``on_return(tracer, result)`` runs after a successful call.  Each
        exception type in ``errors`` that passes through the call is counted
        as ``<name>.<ExceptionName>`` and re-raised unchanged.
        """
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return original(*args, **kwargs)
            tracer._open(name)
            try:
                result = original(*args, **kwargs)
            except errors as exc:
                tracer.count(f"{name}.{type(exc).__name__}")
                raise
            finally:
                tracer._close()
            if on_return is not None:
                on_return(tracer, result)
            return result

        setattr(module, attr, traced)
        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        """Put every replaced module attribute back."""
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    # -- reduction -----------------------------------------------------

    def self_times(self) -> dict[int, dict[str, tuple[int, float, float]]]:
        """Per op: span name -> (calls, self seconds, inclusive seconds)."""
        child = defaultdict(float)
        for _token, _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, tuple]] = defaultdict(dict)
        for token, name, start, end, _parent, op in self.spans:
            calls, self_s, incl = out[op].get(name, (0, 0.0, 0.0))
            dur = end - start
            out[op][name] = (calls + 1, self_s + dur - child[token], incl + dur)
        return out

    def write(self, path) -> None:
        """Write every span as a ``[name, start, end, parent, op]`` row.

        Rows are in opening order, so a span's id is its row number and
        ``parent`` is a row number (-1 for an op's outermost span).
        """
        with open(path, "w") as fh:
            json.dump({"clock": "reference seconds",
                       "fields": ["name", "start", "end", "parent", "op"],
                       "spans": [[name, start, end, parent, op]
                                 for _token, name, start, end, parent, op in sorted(self.spans)]},
                      fh)
