"""In-memory span tracer that wraps the public functions of blindcapon.

Every public function defined in a traced module is replaced, in every
module that binds it, by a wrapper that records one span per call:
``(span_id, parent_id, trace_id, name, start, end)``.  Modules import
names directly (``capon_ice`` binds ``covariance_factor`` from ``core``,
``monte_carlo`` binds ``complex_laplacean``), so patching only the defining
module would miss those calls.

A span opened by one of the ``roots`` functions starts a new trace id, so
each Monte Carlo trial and each CLI command gets its own trace.
"""

import functools
import gzip
import inspect
import itertools
import time
from collections import defaultdict


class Tracer:
    """Records spans and per-call counters while installed.

    ``hooks`` maps a qualified function name (``module.function``) to a
    callable ``hook(counters, result, args, kwargs)`` that adds counts read
    from the call's arguments and return value to ``counters``.
    """

    def __init__(self, modules, roots=(), hooks=None):
        self.modules = list(modules)
        self.roots = set(roots)
        self.hooks = dict(hooks or {})
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []
        self._ids = itertools.count(1)
        self._patched = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        hook = self.hooks.get(name)
        is_root = name in self.roots
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent_id, parent_trace = stack[-1] if stack else (0, 0)
            span_id = next(ids)
            trace_id = span_id if is_root or not stack else parent_trace
            stack.append((span_id, trace_id))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent_id, trace_id, name, start, end))
            if hook is not None:
                hook(self.counters, result, args, kwargs)
            return result

        return traced

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, entry[1])
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self):
        """Per function name: ``{"calls": n, "self_s": seconds}``.

        Self time is a span's duration minus the durations of its direct
        child spans; calls nest strictly on one thread, so children never
        overlap.
        """
        child_time = defaultdict(float)
        for _, parent_id, _, _, start, end in self.spans:
            if parent_id:
                child_time[parent_id] += end - start
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for span_id, _, _, name, start, end in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[span_id]
        return dict(out)

    def write_spans(self, path):
        """Write all spans as gzip-compressed CSV."""
        with gzip.open(path, "wt") as fh:
            fh.write("span_id,parent_id,trace_id,name,start_s,end_s\n")
            for span_id, parent_id, trace_id, name, start, end in self.spans:
                fh.write(f"{span_id},{parent_id},{trace_id},{name},{start:.9f},{end:.9f}\n")
