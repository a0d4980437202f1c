"""In-memory span tracing around the program's layer functions.

A `Tracer` replaces a function at the name its caller looks it up (a module
attribute or a dict entry) with a wrapper that records one span per call:
name, start, end, parent span and op id, plus optional counts.  Spans stay
in memory and are written as JSON lines when the run ends.  A layer's self
time is its span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

NAME, START, END, PARENT, OP, COUNTS = range(6)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op, counts]
        self.op = None
        self._stack = []
        self._patches = []  # (owner, key, original, is_dict)

    # --- recording -----------------------------------------------------------

    def _open(self, name):
        span = [name, time.perf_counter(), None,
                self._stack[-1] if self._stack else -1, self.op, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name, op):
        """A span opened by the benchmark itself; spans inside it get op id op."""
        self.op = op
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)
            self.op = None

    def wrap(self, fn, name, count=None, before=None):
        """fn wrapped in a span; count(result, *args) -> {metric: n} after the
        call, before(args, kwargs) -> (args, kwargs) ahead of it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                span[COUNTS].update(count(result, *args, **kwargs))
            return result

        return traced

    def counter(self, fn, metric):
        """fn wrapped without a span: each call adds 1 to metric on the
        innermost open span."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer._stack:
                counts = tracer.spans[tracer._stack[-1]][COUNTS]
                counts[metric] = counts.get(metric, 0) + 1
            return fn(*args, **kwargs)

        return counted

    # --- installing ----------------------------------------------------------

    def install(self, targets):
        """targets: (owner path, key, factory(tracer, original) -> wrapper).

        The owner path names a module, or a module attribute that is a dict
        (e.g. "cotface.losses:ANGULAR_LOSSES"); key "*" wraps every entry.
        """
        for owner_path, key, factory in targets:
            module_name, _, dict_name = owner_path.partition(":")
            owner = importlib.import_module(module_name)
            if dict_name:
                owner = getattr(owner, dict_name)
                keys = list(owner) if key == "*" else [key]
                for k in keys:
                    self._patch(owner, k, factory, is_dict=True)
            else:
                self._patch(owner, key, factory, is_dict=False)

    def _patch(self, owner, key, factory, is_dict):
        original = owner[key] if is_dict else getattr(owner, key)
        replacement = factory(self, original)
        if is_dict:
            owner[key] = replacement
        else:
            setattr(owner, key, replacement)
        self._patches.append((owner, key, original, is_dict))

    def uninstall(self):
        for owner, key, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # --- reading -------------------------------------------------------------

    def self_times(self):
        """Per span index: duration minus the durations of direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def totals(self, ops):
        """Summed self seconds, call counts and counters per span name over
        the spans of the given ops."""
        ops = set(ops)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        counts = defaultdict(int)
        for span, own in zip(self.spans, self.self_times()):
            if span[OP] not in ops:
                continue
            self_s[span[NAME]] += own
            calls[span[NAME]] += 1
            for metric, n in span[COUNTS].items():
                counts[metric] += n
        return self_s, calls, counts

    def write_jsonl(self, path):
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span[NAME], "start_s": span[START] - t0,
                    "end_s": span[END] - t0, "parent": span[PARENT],
                    "op": span[OP], "counts": span[COUNTS],
                }) + "\n")
