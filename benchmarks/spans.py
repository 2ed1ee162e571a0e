"""In-memory span tracer that wraps colo's public functions from outside.

The benchmark patches a function where its caller looks it up (a module
attribute, or a method on a class) with a wrapper that records one span per
call: name, start, end, parent span, the benchmark phase it ran in, and an
optional row count.  Nothing in ``colo`` knows about the tracer; patches are
undone when the ``installed()`` block exits.  Spans stay in memory until the
run ends, when ``summary`` folds them into per-name totals and ``dump``
writes them out.
"""

import functools
import gzip
import json
from contextlib import contextmanager
from time import perf_counter

# span record layout: [name, start, end, parent index or -1, phase, rows]
NAME, START, END, PARENT, PHASE, ROWS = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}  # (phase, key) -> summed count
        self.phase = None
        self._stack = []
        self._targets = []  # (owner, attr, make_wrapper) registered by span()/observe()
        self._saved = []

    # -- registration --------------------------------------------------

    def span(self, owner, attr, name, rows=None):
        """Record a span for each call of ``owner.attr``.

        ``name`` is a string or ``name(args, kwargs)``; ``rows`` optionally
        maps ``(args, kwargs)`` to a work count stored on the span.
        """
        self._targets.append((owner, attr, lambda orig: self._span_wrapper(orig, name, rows)))

    def observe(self, owner, attr, fn):
        """Call ``fn(tracer, result, args, kwargs)`` after each call; no span."""

        def make(orig):
            @functools.wraps(orig)
            def wrapped(*args, **kwargs):
                out = orig(*args, **kwargs)
                fn(self, out, args, kwargs)
                return out

            return wrapped

        self._targets.append((owner, attr, make))

    def count(self, key, n):
        k = (self.phase, key)
        self.counts[k] = self.counts.get(k, 0) + n

    def inside(self, name):
        """True when a span called ``name`` is open on the call stack."""
        return any(self.spans[i][NAME] == name for i in self._stack)

    def _span_wrapper(self, orig, name, rows):
        spans, stack = self.spans, self._stack

        @functools.wraps(orig)
        def wrapped(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            n = rows(args, kwargs) if rows is not None else 0
            idx = len(spans)
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, self.phase, n]
            spans.append(rec)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                rec[START] = t0
                stack.pop()

        return wrapped

    # -- patching ------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every registered target for the duration of the block."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for owner, attr, make in self._targets:
                orig = getattr(owner, attr)
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, make(orig))
            yield self
        finally:
            for owner, attr, orig in reversed(self._saved):
                setattr(owner, attr, orig)
            self._saved.clear()

    # -- aggregation ---------------------------------------------------

    def summary(self, phases):
        """Per span name over the given phases: calls, total_s, self_s, rows.

        Self time is a span's duration minus the durations of its direct
        child spans.
        """
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        out = {}
        for i, rec in enumerate(self.spans):
            if rec[PHASE] not in phases:
                continue
            s = out.setdefault(rec[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "rows": 0})
            dur = rec[END] - rec[START]
            s["calls"] += 1
            s["total_s"] += dur
            s["self_s"] += dur - child[i]
            s["rows"] += rec[ROWS]
        return out

    def top_level_s(self, phases):
        """Summed duration of spans with no traced parent in the given phases."""
        return sum(r[END] - r[START] for r in self.spans if r[PARENT] < 0 and r[PHASE] in phases)

    def counted(self, key, phases):
        return sum(v for (phase, k), v in self.counts.items() if k == key and phase in phases)

    def dump(self, path):
        """Write every span as one JSON list per line: name, start, end, parent, phase, rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="ascii") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")
