"""Deterministic discrete-event loop.

Events execute in (time, insertion-order) order; a handler may only
schedule events at or after the current time.  Each event carries the
handler it runs, called as ``handler(data, at)``; its ``kind`` is only the
label that per-kind event counts read (see ROADMAP item 1).

A slot's deliveries that take no time (UM, and AM with zero delivery
delay) and its status messages run inside its ``SLOT_TICK``, so no other
event at the tick's instant runs between the slot and its feedback.
``DELIVER_TO_UE`` events are the delayed AM deliveries.
"""

from __future__ import annotations

import enum
import heapq
from typing import Any, Callable, NamedTuple


class EventKind(enum.Enum):
    ARRIVE_DOWNLINK = "arrive_downlink"
    SLOT_TICK = "slot_tick"
    # nothing schedules it; the benchmark's per-kind figures name it, and a
    # delayed status message (ROADMAP item 16) would be one
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
