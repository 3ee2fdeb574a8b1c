"""Span recording around the public calls the benchmark makes into repro.

The benchmark treats ``repro`` as a black box: it never edits the
package, it only wraps public methods and functions, and only inside the
process that asked for a traced run.  Several kernel classes use
``__slots__`` (``LRUFileCache``, ``Request``, ``Environment``), so
wrappers go on the *class*; module-level functions are re-bound in every
loaded module that imported them by name, and every patch is undone by
:meth:`Tracer.uninstall`.

Spans live in flat arrays (name id, start, end, parent index, run id)
so a traced saturation iteration — about a million spans — stays small
in memory.  A span's *self time* is its duration minus the part of it
its child spans cover; self times of all spans under one root add up
to the root's duration exactly, which is what lets per-layer self times
be checked against the traced wall time.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["Tracer", "SpanTable"]


class SpanTable:
    """Finished spans as numpy arrays, with self times computed."""

    def __init__(self, names: List[str], name_id, start, end, parent, run):
        self.names = list(names)
        self.name_id = np.frombuffer(name_id, dtype=np.int32).copy()
        self.start = np.frombuffer(start, dtype=np.float64).copy()
        self.end = np.frombuffer(end, dtype=np.float64).copy()
        self.parent = np.frombuffer(parent, dtype=np.int32).copy()
        self.run = np.frombuffer(run, dtype=np.int32).copy()
        self.duration = self.end - self.start
        covered = np.zeros(len(self.duration))
        has_parent = self.parent >= 0
        np.add.at(covered, self.parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - covered

    def __len__(self) -> int:
        return len(self.duration)

    def _per_name(self, weights: Optional[np.ndarray]) -> Dict[str, float]:
        sums = np.bincount(self.name_id, weights=weights, minlength=len(self.names))
        return {name: float(sums[i]) for i, name in enumerate(self.names)}

    def counts(self) -> Dict[str, int]:
        return {k: int(v) for k, v in self._per_name(None).items()}

    def self_seconds(self) -> Dict[str, float]:
        return self._per_name(self.self_time)

    def indices(self, name: str) -> np.ndarray:
        """Span indices of ``name``, in start order."""
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.name_id == self.names.index(name))

    def has_ancestor(self, idx: int, name: str) -> bool:
        if name not in self.names:
            return False
        target = self.names.index(name)
        p = int(self.parent[idx])
        while p >= 0:
            if self.name_id[p] == target:
                return True
            p = int(self.parent[p])
        return False

    def write_npz(self, path: str) -> None:
        """Save the spans (arrays ``name_id``, ``start``, ``end``,
        ``parent``, ``run`` and the ``names`` they index) with numpy."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=self.name_id,
            start=self.start,
            end=self.end,
            parent=self.parent,
            run=self.run,
        )


class Tracer:
    """Records nested spans around wrapped callables.

    ``run_units`` names spans that start a new run/trial id when they
    open outside any other unit span (a chaos trial's counterfactual
    baseline therefore shares its trial's id).
    """

    def __init__(self, run_units: Tuple[str, ...] = ()):
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._name_id = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._run = array("i")
        self._stack: List[int] = [-1]
        self._run_id = [0]
        self._unit_depth = [0]
        self._run_units = set(run_units)
        self._restore: List[Callable[[], None]] = []
        self.counters: Dict[str, int] = {}

    # -- span recording -------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that every call records one span."""
        nid = self._intern(name)
        name_id, start, end = self._name_id, self._start, self._end
        parent, run, stack = self._parent, self._run, self._stack
        run_id, unit_depth = self._run_id, self._unit_depth
        is_unit = name in self._run_units
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_unit:
                if unit_depth[0] == 0:
                    run_id[0] += 1
                unit_depth[0] += 1
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            run.append(run_id[0])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                if is_unit:
                    unit_depth[0] -= 1

        return traced

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside one span named ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def table(self) -> SpanTable:
        return SpanTable(
            self._names, self._name_id, self._start, self._end,
            self._parent, self._run,
        )

    # -- patching -------------------------------------------------------------

    def wrap_method(self, cls: type, attr: str, name: str) -> bool:
        """Wrap ``cls.attr`` if ``cls`` itself defines it as a function."""
        fn = cls.__dict__.get(attr)
        if not isinstance(fn, types.FunctionType):
            return False
        setattr(cls, attr, self.wrap(name, fn))
        self._restore.append(lambda: setattr(cls, attr, fn))
        return True

    def wrap_hierarchy(self, base: type, attrs, name: str) -> int:
        """Wrap ``attrs`` on ``base`` and on every subclass that defines
        them; returns how many methods were wrapped."""
        wrapped = 0
        seen = set()
        todo = [base]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            for attr in attrs:
                wrapped += self.wrap_method(cls, attr, name)
        return wrapped

    def _rebind(self, fn: Callable, replacement: Callable, prefixes) -> int:
        rebound = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith(prefixes):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, replacement)
                    rebound += 1
                    self._restore.append(
                        lambda m=mod, a=attr, v=value: setattr(m, a, v)
                    )
        return rebound

    def wrap_function(self, fn: Callable, name: str, prefixes=("repro",)) -> int:
        """Re-bind ``fn`` to a span-recording wrapper in every loaded module
        under ``prefixes`` that holds it by name; returns how many names
        were re-bound."""
        return self._rebind(fn, self.wrap(name, fn), prefixes)

    def count_function(self, fn: Callable, counter: str, prefixes=("repro",)) -> int:
        """Re-bind ``fn`` to a wrapper that only counts calls (no span, so
        its time stays with the caller); returns how many names were
        re-bound."""
        counters = self.counters
        counters.setdefault(counter, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return self._rebind(fn, counted, prefixes)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()
