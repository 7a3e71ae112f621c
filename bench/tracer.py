"""Outside-in span tracing for the grassflow modules.

The tracer replaces chosen module-level functions with wrappers that
record one span per call: name, parent span, start and end.  Nothing in
the library is edited; the wrappers are swapped into every namespace that
holds the original function (the defining module, every module that
imported it by name, the package root and module-level dicts such as the
suite table) and swapped back by ``restore``.

Private helpers that are not wrapped stay invisible: their cost lands in
the self time of the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import inspect
import time
import types
from array import array


class Tracer:
    """Keeps every span in memory until the caller writes them out.

    Spans live in flat arrays rather than one object each, so that a few
    hundred thousand of them add no work for the garbage collector.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.child_s = array("d")  # time spent in traced children
        self.captured: dict[int, object] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn, capture=None):
        """Return a wrapper that records a span for each call of ``fn``.

        ``capture(args, kwargs)``, when given, runs before the span starts
        and its result is kept in ``captured`` under the span's index.
        """
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        name_of, parent_of, start, end, child_s = (
            self.name_of, self.parent, self.start, self.end, self.child_s
        )
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            if capture is not None:
                self.captured[index] = capture(args, kwargs)
            parent = stack[-1] if stack else -1
            name_of.append(name_id)
            parent_of.append(parent)
            end.append(0.0)
            child_s.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                finish = clock()
                end[index] = finish
                stack.pop()
                if parent >= 0:
                    child_s[parent] += finish - start[index]

        return traced

    def patch(self, modules: dict, targets, captures=None) -> None:
        """Wrap each ``"<module>.<function>"`` in ``targets`` wherever it is held.

        ``modules`` maps short module names to module objects; every module
        object among its values is searched for references to the original.
        """
        captures = captures or {}
        namespaces = [m for m in modules.values() if isinstance(m, types.ModuleType)]
        for target in targets:
            mod_name, attr = target.split(".")
            original = getattr(modules[mod_name], attr)
            wrapped = self.wrap(target, original, captures.get(target))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._swap(ns, key, wrapped)
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._swap(value, dkey, wrapped)

    def _swap(self, holder, key, new) -> None:
        if isinstance(holder, dict):
            self._patches.append((holder, key, holder[key]))
            holder[key] = new
        else:
            self._patches.append((holder, key, getattr(holder, key)))
            setattr(holder, key, new)

    def restore(self) -> None:
        """Put every original function back, newest patch first."""
        for holder, key, old in reversed(self._patches):
            if isinstance(holder, dict):
                holder[key] = old
            else:
                setattr(holder, key, old)
        self._patches.clear()

    def self_time(self, index: int) -> float:
        return (self.end[index] - self.start[index]) - self.child_s[index]

    def summary(self) -> dict:
        """Calls and summed self time per span name."""
        out: dict[str, dict] = {}
        for index, name_id in enumerate(self.name_of):
            entry = out.setdefault(self.names[name_id], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self.self_time(index)
        return out

    def child_counts(self, name: str) -> dict[int, int]:
        """Number of direct child spans called ``name``, per parent index."""
        counts: dict[int, int] = {}
        if name in self.names:
            name_id = self.names.index(name)
            for index, nid in enumerate(self.name_of):
                if nid == name_id:
                    parent = self.parent[index]
                    counts[parent] = counts.get(parent, 0) + 1
        return counts

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "fields": ["name", "parent", "start_s", "end_s"],
            "spans": [list(row) for row in zip(self.name_of, self.parent, self.start, self.end)],
        }


def public_functions(module, extra=()) -> list[str]:
    """``"<short>.<name>"`` for each public function a module defines, plus ``extra``."""
    short = module.__name__.rsplit(".", 1)[-1]
    names = [
        name
        for name, value in vars(module).items()
        if inspect.isfunction(value)
        and value.__module__ == module.__name__
        and (not name.startswith("_") or name in extra)
    ]
    return [f"{short}.{name}" for name in sorted(names)]
