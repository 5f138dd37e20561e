"""Span tracing of l4span from outside the package.

The tracer replaces public functions and methods with wrappers that record
one span per call: name, start, end, parent span (the enclosing wrapped
call) and the packet id where the call has one.  Functions are patched at
the name their caller looks them up by (``sim.py`` and ``layer.py`` import
the scheduler, marking, short-circuit and sender functions by name), and
every patch is undone by ``restore``.

Spans are kept in flat arrays, one per field, while the simulation runs
and written out at the end.  Calls nest on one thread, so a span's
children never overlap and its self time is its duration minus the summed
durations of its children.
"""

from __future__ import annotations

import itertools
import time
from array import array

import numpy as np

HOOK = "trace.hook"
FIELDS = ("id", "name", "parent", "pkt", "start", "end")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one column per field; a span's row is appended when it ends
        self._cols = {f: array("q") for f in FIELDS}
        self._next_id = itertools.count()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrapped(self, fn, name, pkt_arg=None, observe=None, before=None):
        """``fn`` wrapped to record a span per call.

        ``name`` is a span name, or a function of the call's arguments that
        returns a name id.  ``observe(args, result)`` runs after the span
        closes and must be cheap; ``before(args)`` runs before it opens and
        is recorded as a ``trace.hook`` span so its cost leaves the caller's
        self time.
        """
        name_of = name if callable(name) else None
        nid = None if name_of else self.name_id(name)
        hook_id = self.name_id(HOOK) if before is not None else None
        stack = self._stack
        add_id, add_name, add_parent, add_pkt, add_start, add_end = (
            self._cols[f].append for f in FIELDS)
        next_id = self._next_id.__next__
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if before is not None:
                add_start(clock())
                before(args)
                add_end(clock())
                add_id(next_id())
                add_name(hook_id)
                add_parent(stack[-1])
                add_pkt(-1)
            i = next_id()
            parent = stack[-1]
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                add_id(i)
                add_name(nid if name_of is None else name_of(args))
                add_parent(parent)
                add_pkt(-1 if pkt_arg is None else args[pkt_arg].pkt_id)
                add_start(t0)
                add_end(t1)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name, **kw) -> None:
        """Replace ``owner.attr`` (a module global or a class attribute)."""
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrapped(original, name, **kw))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """The span columns, indexed by span id (the order spans began)."""
        order = np.argsort(np.frombuffer(self._cols["id"], dtype=np.int64))
        return {f: np.frombuffer(col, dtype=np.int64)[order]
                for f, col in self._cols.items() if f != "id"}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Per span: duration minus the time its child spans cover (ns)."""
    dur = (end - start).astype(np.float64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered

