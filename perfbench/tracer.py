"""Span tracer installed around wavewalk's public functions.

Every public function of the traced modules is replaced, in each
wavewalk namespace that binds it, by a wrapper that records a span
(name, start, end, parent span, op id).  Names are looked up when the
tracer is installed; a name the package no longer has is recorded as
absent, so removing a function does not break the benchmark.  Spans
stay in memory until the run writes them out.

A function that calls itself (serialize.json_text recurses per element)
gets one span for the outermost call; inner calls run unwrapped.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time

MODULES = ("cli", "filters", "ifs", "measures", "scaling", "transfer", "diagnostics", "serialize")

#: methods traced by call count only (they sit on the hottest scalar path)
COUNTED_METHODS = ("ifs.PathSystem.branch",)


def _public_functions(module):
    return [
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    ]


class Tracer:
    """Collects spans and per-function counters while installed.

    hooks maps "module.function" to a callable (args, kwargs, result)
    returning {counter: increment}; counters are summed per function.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.names: list[str] = []
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self.counters: dict[str, dict[str, float]] = {}
        self.absent: list[str] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list = []
        self._wrappers: dict = {}

    # -- installation -------------------------------------------------

    def install(self, wanted=()):
        """Wrap every public function of MODULES, plus the wanted names.

        wanted lists "module.function" names the caller relies on; any
        of them that cannot be found is added to self.absent.
        """
        package = importlib.import_module("wavewalk")
        modules = {m: importlib.import_module(f"wavewalk.{m}") for m in MODULES}
        namespaces = [package] + list(modules.values())
        found = set()
        for short, mod in modules.items():
            for fname in _public_functions(mod):
                original = getattr(mod, fname)
                wrapper = self._wrapper(f"{short}.{fname}", original, self._wrap)
                for ns in namespaces:
                    if vars(ns).get(fname) is original:
                        self._patch(ns, fname, original, wrapper)
                found.add(f"{short}.{fname}")
        for qual in COUNTED_METHODS:
            short, cls_name, meth = qual.split(".")
            cls = getattr(modules[short], cls_name, None)
            original = vars(cls).get(meth) if cls is not None else None
            if original is None:
                continue
            self._patch(cls, meth, original, self._wrapper(qual, original, self._counted))
            found.add(qual)
        self.absent = sorted(set(wanted) - found)

    def uninstall(self):
        for ns, name, original in reversed(self._patches):
            setattr(ns, name, original)
        self._patches.clear()

    def _patch(self, ns, name, original, wrapper):
        setattr(ns, name, wrapper)
        self._patches.append((ns, name, original))

    def _wrapper(self, qual, fn, make):
        if qual not in self._wrappers:
            self._wrappers[qual] = make(qual, fn)
        return self._wrappers[qual]

    def _counted(self, qual, fn):
        counts = self.counts
        counts.setdefault(qual, 0)

        def wrapper(*args, **kwargs):
            counts[qual] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, qual, fn):
        name_id = len(self.names)
        self.names.append(qual)
        hook = self.hooks.get(qual)
        spans, stack = self.spans, self._stack
        counters = self.counters.setdefault(qual, {})
        active = [0]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            active[0] = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[0] = 0
                stack.pop()
                spans[sid] = (name_id, start, end, parent, self.op_id)
            if hook is not None:
                for key, inc in hook(args, kwargs, result).items():
                    counters[key] = counters.get(key, 0.0) + inc
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qual)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- results ------------------------------------------------------

    def totals(self):
        """{name: (calls, total_s, self_s)} from the spans of finished calls.

        Self time is a span's duration minus the time its direct child
        spans cover.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: dict[str, list] = {}
        for sid, span in enumerate(self.spans):
            name = self.names[span[0]]
            dur = span[2] - span[1]
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += dur
            acc[2] += dur - child[sid]
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path):
        """Write names and spans as gzipped JSON: [name_id, start, end, parent, op]."""
        doc = {
            "names": self.names,
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "counts": self.counts,
            "absent": self.absent,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)
