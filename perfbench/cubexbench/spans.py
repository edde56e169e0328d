"""Span wrappers for the traced run.

`Tracer` wraps every public function and method of the layer modules
`core`, `thompson`, `houghton` and `cubical` (and `__mul__`, named
`mul`).  The modules import each other with `from .core import ...`,
so a function is bound in several module namespaces; the wrapper is
installed in every one of them, or internal calls would go uncounted.
Spans are kept in memory as columns (name, start, end, parent span,
query id, whether the result was None) and written out when the run
ends.  Nothing is wrapped until `install()`, and `uninstall()` puts the
original objects back.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array

LAYERS = ("core", "thompson", "houghton", "cubical")
PACKAGE = "cubex"

# Spans kept in one run, about 30 bytes each.  A traced run stops at the
# end of the round that passes it.
SPAN_CAP = 500_000


def _layer_functions(module, short):
    """(metric name, owner, attribute, raw object, function) to wrap."""
    out = []
    for attr, obj in vars(module).items():
        if attr.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((f"{short}.{attr}", None, attr, obj, obj))
        elif inspect.isclass(obj):
            for name, raw in vars(obj).items():
                label = "mul" if name == "__mul__" else name
                if label.startswith("_"):
                    continue
                fn = getattr(raw, "__func__", raw)  # class/staticmethod
                if inspect.isfunction(fn):
                    out.append((f"{short}.{attr}.{label}", obj, name, raw, fn))
    return out


class Tracer:
    """Wrappers that record a span per call into the layer modules."""

    def __init__(self):
        self.names = []
        self.name_col = array("i")
        self.parent_col = array("i")
        self.query_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.none_col = array("b")
        self.stack = [-1]
        self.query = -1
        self.queries = []  # (op, weight) per query id
        self.patches = self._plan()

    def _plan(self):
        """(owner, attribute, original, wrapped) for every binding."""
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        patches = []
        for short in LAYERS:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for label, owner, attr, raw, fn in _layer_functions(module, short):
                wrapped = self._wrap(fn, len(self.names))
                self.names.append(label)
                if owner is not None:
                    if isinstance(raw, (classmethod, staticmethod)):
                        wrapped = type(raw)(wrapped)
                    patches.append((owner, attr, raw, wrapped))
                    continue
                for m in modules:
                    for bound, value in vars(m).items():
                        if value is raw:
                            patches.append((m, bound, raw, wrapped))
        return patches

    def _wrap(self, fn, name_id):
        name_add = self.name_col.append
        parent_add = self.parent_col.append
        query_add = self.query_col.append
        start_add = self.start_col.append
        end_add = self.end_col.append
        none_add = self.none_col.append
        end_col = self.end_col
        none_col = self.none_col
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(end_col)
            name_add(name_id)
            parent_add(stack[-1])
            query_add(tracer.query)
            end_add(0.0)
            none_add(0)
            stack.append(idx)
            start_add(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_col[idx] = clock()
                stack.pop()
            if result is None:
                none_col[idx] = 1
            return result

        return traced

    def install(self):
        for owner, attr, _, wrapped in self.patches:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    @property
    def full(self):
        return len(self.end_col) >= SPAN_CAP

    def run_query(self, query):
        """Run one query under the wrappers; returns (answer, seconds)."""
        self.query = len(self.queries)
        self.queries.append([query.op, 0])
        t0 = time.perf_counter()
        try:
            answer = query.call()
        finally:
            elapsed = time.perf_counter() - t0
            self.query = -1
        if query.weight is not None:
            self.queries[-1][1] = query.weight(answer)
        return answer, elapsed

    # -- analysis ---------------------------------------------------------

    def totals(self):
        """Per layer name: calls, self seconds, None results, and the
        calls made under each root (query-level) name.  Only spans
        inside a query count."""
        n = len(self.end_col)
        names = self.names
        name_col, parent_col = self.name_col, self.parent_col
        dur = [e - s for s, e in zip(self.start_col, self.end_col)]
        child = [0.0] * n
        root = [0] * n
        for i in range(n):
            p = parent_col[i]
            if p >= 0:
                child[p] += dur[i]
                root[i] = root[p]
            else:
                root[i] = i
        table = {}
        for i in range(n):
            if self.query_col[i] < 0:
                continue
            row = table.setdefault(
                names[name_col[i]],
                {"calls": 0, "self_s": 0.0, "none": 0, "under": {}},
            )
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
            row["none"] += self.none_col[i]
            top = names[name_col[root[i]]]
            row["under"][top] = row["under"].get(top, 0) + 1
        return table

    def dump(self, path):
        """Write the spans, gzipped: a JSON header line, then one line a
        span with the columns the header names."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            header = {
                "names": self.names,
                "queries": self.queries,
                "columns": ["name", "start", "end", "parent", "query", "none"],
            }
            out.write(json.dumps(header) + "\n")
            for row in zip(
                self.name_col,
                self.start_col,
                self.end_col,
                self.parent_col,
                self.query_col,
                self.none_col,
            ):
                out.write("%d %.9f %.9f %d %d %d\n" % row)
