"""Span tracing of orbichern's public functions, installed from outside.

`Tracer.install()` replaces every public function and method of the
traced modules with a wrapper that records one span (name, start, end,
parent) per call.  The same wrapper is also bound wherever another module
imported the function by name, so `from .rrg import check_iso_spatial`
in `cli` records too.  Spans live in flat arrays in memory and are written
out once, by `dump`, when the run ends.

Naming: a function is `<module>.<function>`, a method
`<module>.<Class>.<method>`, with the method's own `__name__` (so
`Cyclotomic.__rmul__`, the same function as `__mul__`, records as
`exactnum.Cyclotomic.__mul__`).
"""

import contextlib
import functools
import json
import sys
import time
from array import array

MODULES = (
    "exactnum",
    "linalg",
    "groups",
    "reps",
    "complexes",
    "charts",
    "series",
    "rrg",
    "groupoids",
    "cli",
)

# dunder methods worth a span; the rest (__init__, __repr__, ...) are object
# plumbing.  A reflected alias (`__rmul__ = __mul__`) shares its original's
# wrapper and label, so `2 * c` and `sum(...)` count as mul and add.
_DUNDERS = frozenset(
    (
        "__add__",
        "__radd__",
        "__sub__",
        "__rsub__",
        "__mul__",
        "__rmul__",
        "__truediv__",
        "__rtruediv__",
        "__pow__",
        "__neg__",
        "__eq__",
        "__hash__",
        "__str__",
    )
)


def _wanted(attr):
    return not attr.startswith("_") or attr in _DUNDERS


class Tracer:
    """Flat in-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._originals = {}

    def _name_id(self, label):
        nid = self._ids.get(label)
        if nid is None:
            nid = self._ids[label] = len(self.names)
            self.names.append(label)
        return nid

    def _wrap(self, fn, label):
        nid = self._name_id(label)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap the public callables of every traced module, in place."""
        mods = {m: sys.modules["orbichern." + m] for m in MODULES}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(short, obj)
                elif callable(obj) and not attr.startswith("_"):
                    self._originals[id(obj)] = self._wrap(obj, "%s.%s" % (short, attr))
        # rebind names imported with `from ... import` in any package module
        for mod in list(mods.values()) + [sys.modules["orbichern"]]:
            for attr, obj in list(vars(mod).items()):
                wrapped = self._originals.get(id(obj))
                if wrapped is not None:
                    setattr(mod, attr, wrapped)

    def _wrap_class(self, short, cls):
        done = {}
        for attr, raw in list(vars(cls).items()):
            if not _wanted(attr):
                continue
            if isinstance(raw, staticmethod):
                fn, rewrap = raw.__func__, staticmethod
            elif isinstance(raw, classmethod):
                fn, rewrap = raw.__func__, classmethod
            elif callable(raw) and not isinstance(raw, type):
                fn, rewrap = raw, None
            else:
                continue
            wrapped = done.get(id(fn))
            if wrapped is None:
                label = "%s.%s.%s" % (short, cls.__name__, fn.__name__)
                wrapped = done[id(fn)] = self._wrap(fn, label)
            setattr(cls, attr, rewrap(wrapped) if rewrap else wrapped)

    @contextlib.contextmanager
    def excluded(self):
        """Drop the spans recorded inside the block (all of them closed)."""
        first = len(self.name)
        try:
            yield
        finally:
            for arr in (self.name, self.parent, self.start, self.end):
                del arr[first:]

    def dump(self, path, extra=None):
        """Write the spans: a JSON header line, then the four raw arrays."""
        header = {
            "extra": extra or {},
            "names": self.names,
            "count": len(self.name),
            "arrays": ["name:i", "parent:i", "start:d", "end:d"],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def load(path):
    """Read a file written by `Tracer.dump`: (header, arrays)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        arrays = []
        for spec in header["arrays"]:
            arr = array(spec.split(":")[1])
            arr.fromfile(fh, n)
            arrays.append(arr)
    return header, arrays


class Profile:
    """Per-name call counts, outermost time and per-module self time."""

    def __init__(self):
        self.calls = {}
        self.time_s = {}
        self.self_s = {}

    def add(self, names, arrays, group, time_keys):
        """Fold one span set in.

        `group` maps a span name to the metric name it counts under
        (several span names may share one).  Time is summed only for the
        metric names in `time_keys`, and a span nested inside another span
        of the same metric adds none, so recursion is not counted twice.
        """
        nm, parent, start, end = arrays
        n = len(nm)
        keys = [group.get(x, x) for x in names]
        modules = [x.split(".", 1)[0] for x in names]
        timed = [k in time_keys for k in keys]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls, time_s, self_s = self.calls, self.time_s, self.self_s
        for i in range(n):
            k = nm[i]
            key = keys[k]
            dur = end[i] - start[i]
            calls[key] = calls.get(key, 0) + 1
            mod = modules[k]
            self_s[mod] = self_s.get(mod, 0.0) + dur - child[i]
            if timed[k]:
                p = parent[i]
                while p >= 0 and keys[nm[p]] != key:
                    p = parent[p]
                if p < 0:
                    time_s[key] = time_s.get(key, 0.0) + dur
