"""Outside-in span tracer for liederiv.

The tracer wraps public liederiv functions from outside the package:
each wrapped call records one span (name, start, end, parent).  A
function is patched at every ``liederiv.*`` module attribute that holds
the same object, because modules bind helpers by name (``locder`` holds
its own reference to ``linalg.rref``); methods are patched on their
class.  Generator functions get one span per ``next()`` call, so the
time spent producing each item is counted where it is spent.

Names that no longer resolve are reported as absent instead of raising,
so the tracer keeps working while the package is refactored.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

PACKAGE = "liederiv"
_NO_PARENT = -1
_MISSING = object()


class Tracer:
    """Records spans in flat arrays; ``install`` patches, ``uninstall``
    restores.  ``observers`` maps a traced name to a callback
    ``fn(args, kwargs, result, parent_name)`` that runs after the span
    closes, so its cost is not charged to the span."""

    def __init__(self, names, observers=None):
        self.names = list(names)
        self.observers = dict(observers or {})
        self.calls = {name: 0 for name in self.names}
        self.absent = []
        self._name_ids = {name: i for i, name in enumerate(self.names)}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = []
        self._undo = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        for name in self.names:
            try:
                owner, attr, original = self._resolve(name)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            self._patch(name, owner, attr, original)

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._undo):
            if value is _MISSING:
                delattr(target, attr)
            else:
                setattr(target, attr, value)
        self._undo.clear()

    def _resolve(self, name):
        """'linalg.SparseEchelon.insert' -> (class, 'insert', raw attribute)."""
        parts = name.split(".")
        owner = importlib.import_module(f"{PACKAGE}.{parts[0]}")
        for part in parts[1:-1]:
            owner = getattr(owner, part)
        attr = parts[-1]
        if inspect.isclass(owner):
            for klass in owner.__mro__:
                if attr in vars(klass):
                    return owner, attr, vars(klass)[attr]
            raise AttributeError(attr)
        return owner, attr, getattr(owner, attr)

    def _patch(self, name, owner, attr, original) -> None:
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = type(original)(self._wrap(name, original.__func__))
            self._set(owner, attr, wrapped)
            return
        wrapped = self._wrap(name, original)
        if inspect.isclass(owner):
            self._set(owner, attr, wrapped)
            return
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapped)

    def _set(self, target, attr, value) -> None:
        self._undo.append((target, attr, vars(target).get(attr, _MISSING)))
        setattr(target, attr, value)

    def _wrap(self, name, fn):
        name_id = self._name_ids[name]
        observer = self.observers.get(name)
        calls = self.calls
        clock = time.perf_counter
        stack, names, parents, starts, ends = (
            self._stack, self._name, self._parent, self._start, self._end
        )

        def open_span() -> int:
            # bookkeeping first and the clock last, so the span's own
            # duration carries as little tracer cost as possible
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else _NO_PARENT)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            return idx

        if inspect.isgeneratorfunction(fn):

            def traced_iter(gen):
                while True:
                    idx = open_span()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        ends[idx] = clock()
                        stack.pop()
                    yield item

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[name] += 1
                return traced_iter(fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                calls[name] += 1
            if observer is not None:
                observer(args, kwargs, result, self._span_name(parents[idx]))
            return result

        return wrapper

    def _span_name(self, idx):
        return None if idx == _NO_PARENT else self.names[self._name[idx]]

    # -- reading ----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._start)

    def self_times(self) -> list:
        """Per span: duration minus the time its child spans cover.
        Spans nest without overlap in one thread, so the covered time is
        the sum of the child durations."""
        n = len(self._start)
        child = [0.0] * n
        for i in range(n):
            p = self._parent[i]
            if p != _NO_PARENT:
                child[p] += self._end[i] - self._start[i]
        return [self._end[i] - self._start[i] - child[i] for i in range(n)]

    def summary(self, under=()) -> dict:
        """Per name: calls, self_s, total_s (inclusive, outermost spans
        only so recursion is not double counted), and per ``(name,
        ancestor)`` pair in ``under`` the self time of ``name`` spans that
        have ``ancestor`` on their parent chain."""
        self_t = self.self_times()
        names = self.names
        out = {
            name: {"calls": self.calls[name], "self_s": 0.0, "total_s": 0.0,
                   "absent": name in self.absent}
            for name in names
        }
        under_ids = {(self._name_ids[a], self._name_ids[b]): (a, b) for a, b in under}
        under_s = {pair: 0.0 for pair in under}
        # chain[i]: the set of name ids on span i's ancestor chain,
        # including its own; sets are interned, since few names exist
        n = len(self._start)
        chain = [None] * n
        interned = {}
        empty = frozenset()
        for i in range(n):
            nid = self._name[i]
            p = self._parent[i]
            ancestors = chain[p] if p != _NO_PARENT else empty
            entry = out[names[nid]]
            entry["self_s"] += self_t[i]
            if nid not in ancestors:
                entry["total_s"] += self._end[i] - self._start[i]
            for (leaf, anc), pair in under_ids.items():
                if leaf == nid and anc in ancestors:
                    under_s[pair] += self_t[i]
            key = (ancestors, nid)
            mine = interned.get(key)
            if mine is None:
                mine = interned[key] = ancestors | {nid}
            chain[i] = mine
        return {"functions": out, "under": under_s}
