"""Deterministic discrete-event loop.

Events execute in (time, insertion-order) order; a handler may only
schedule events at or after the current time.

The simulator schedules one ``F1U_FEEDBACK`` event per slot with
transmissions, at the slot's own time.  It carries the slot's zero-delay
work in transmit order: the deliveries that take no time (UM, and AM
with zero delivery delay) and the transmit/delivery feedback of each DRB
that transmitted.  ``DELIVER_TO_UE`` events are the delayed AM deliveries.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Any, Callable, Optional


class EventKind(enum.Enum):
    ARRIVE_DOWNLINK = "arrive_downlink"
    SLOT_TICK = "slot_tick"
    F1U_FEEDBACK = "f1u_feedback"
    DELIVER_TO_UE = "deliver_to_ue"
    ARRIVE_UPLINK = "arrive_uplink"
    SENDER_TIMER = "sender_timer"


@dataclass
class SimEvent:
    at: float
    kind: EventKind
    data: Any = None


class EventLoop:
    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, SimEvent]] = []
        self._seq = 0

    def schedule(self, at: float, kind: EventKind, data: Any = None) -> None:
        if at < self.now - 1e-12:
            raise ValueError(f"cannot schedule event at {at} before now={self.now}")
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, SimEvent(at=at, kind=kind, data=data)))

    def pop(self) -> Optional[SimEvent]:
        if not self._heap:
            return None
        _, _, ev = heapq.heappop(self._heap)
        self.now = ev.at
        return ev

    def run(self, until: float, handler: Callable[[SimEvent], None]) -> int:
        """Execute events up to and including time ``until``; returns the count."""
        count = 0
        while self._heap and self._heap[0][0] <= until:
            ev = self.pop()
            handler(ev)
            count += 1
        self.now = until
        return count
