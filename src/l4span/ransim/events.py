"""Deterministic discrete-event loop.

Events execute in (time, insertion-order) order; a handler may only
schedule events at or after the current time.  Each event carries the
handler it runs, called as ``handler(data, at)``; its ``kind`` is only the
label that per-kind event counts read (see ROADMAP item 1).  ``next_at``
peeks at the time of the next event without running it.

A slot's zero-delay work (post-slot work) runs inside its ``SLOT_TICK``
unless another event is due at the tick's instant when the tick ends;
only then does the simulator schedule it as an ``F1U_FEEDBACK`` event at
the slot's own time, behind that event.  It carries, in transmit order,
each DRB that completed SDUs with its deliveries that take no time (UM,
and AM with zero delivery delay), whose status message (the highest
transmitted SN) it applies; then the DRBs that transmitted without
completing one, whose message it applies only if their layer has a
refresh pending when the work runs.  ``DELIVER_TO_UE`` events are the
delayed AM deliveries.
"""

from __future__ import annotations

import enum
import heapq
import math
from typing import Any, Callable, NamedTuple


class EventKind(enum.Enum):
    ARRIVE_DOWNLINK = "arrive_downlink"
    SLOT_TICK = "slot_tick"
    F1U_FEEDBACK = "f1u_feedback"
    DELIVER_TO_UE = "deliver_to_ue"
    ARRIVE_UPLINK = "arrive_uplink"
    SENDER_TIMER = "sender_timer"


class SimEvent(NamedTuple):  # the heap entry; ``seq`` is unique, so order is (at, seq)
    at: float
    seq: int
    kind: EventKind
    handler: Callable[[Any, float], None]
    data: Any


_heappush = heapq.heappush
_new_tuple = tuple.__new__


class EventLoop:
    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[SimEvent] = []
        self._seq = 0

    def schedule(self, at: float, kind: EventKind, handler: Callable[[Any, float], None],
                 data: Any = None) -> None:
        if at < self.now - 1e-12:
            raise ValueError(f"cannot schedule event at {at} before now={self.now}")
        self._seq += 1
        # a NamedTuple's generated __new__ is a Python function; the tuple's is not
        _heappush(self._heap, _new_tuple(SimEvent, (at, self._seq, kind, handler, data)))

    def next_at(self) -> float:
        """The time of the next event, or infinity when none is queued."""
        heap = self._heap
        return heap[0].at if heap else math.inf

    def run(self, until: float, dispatch: Callable[[SimEvent], None]) -> int:
        """Execute events up to and including time ``until``; returns the count."""
        heap = self._heap
        heappop = heapq.heappop
        count = 0
        while heap and heap[0].at <= until:
            ev = heappop(heap)
            self.now = ev.at
            dispatch(ev)
            count += 1
        self.now = until
        return count
