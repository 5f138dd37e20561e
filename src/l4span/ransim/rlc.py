"""Per-DRB RLC queue: drop-tail FIFO of SDUs with partial-transmit carryover."""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Optional

from ..core import DrbConfig, Packet


class EnqueueResult(enum.Enum):
    QUEUED = "queued"
    DROPPED_TAIL = "dropped_tail"


@dataclass(slots=True)
class Sdu:
    """One queued SDU; ``head_at`` is set when it reaches the head of the
    queue and ``done_at`` when its last byte is transmitted."""

    pkt: Packet
    sn: int
    enq_at: float
    head_at: Optional[float] = None
    done_at: Optional[float] = None


class RlcQueue:
    """FIFO SDU queue; transmission order equals ingress order (in-order RLC).

    Only the head SDU may be partly sent: ``head_left`` counts its unsent
    bytes (0 when the queue is empty), so a partial send is three counter
    updates and touches no ``Sdu``."""

    def __init__(self, drb: DrbConfig):
        self.drb = drb
        self.sdus: deque[Sdu] = deque()
        self.highest_tx_sn: Optional[int] = None
        # byte conservation: admitted = transmitted(used) + standing + (drops tracked separately)
        self.admitted_bytes = 0
        self.transmitted_bytes = 0
        self.dropped_bytes = 0
        self.dropped_sdus = 0
        # bytes queued and not yet transmitted, the head's unsent part included
        self.standing_bytes = 0
        self.head_left = 0

    def has_room(self) -> bool:
        return len(self.sdus) < self.drb.max_queue_sdus

    def enqueue(self, pkt: Packet, sn: int, now: float) -> EnqueueResult:
        sdus = self.sdus
        size = pkt.size_bytes
        if not len(sdus) < self.drb.max_queue_sdus:  # not has_room()
            self.dropped_bytes += size
            self.dropped_sdus += 1
            return EnqueueResult.DROPPED_TAIL
        if sdus:
            sdus.append(Sdu(pkt, sn, now))
        else:
            sdus.append(Sdu(pkt, sn, now, now))  # at the head on arrival
            self.head_left = size
        self.admitted_bytes += size
        self.standing_bytes += size
        return EnqueueResult.QUEUED

    def transmit(self, budget_bytes: float, now: float) -> tuple[list[Sdu], int]:
        """Serve ``int(budget_bytes)`` bytes (``budget_bytes`` >= 0) in FIFO
        order; returns the SDUs completed, in order, and the bytes used.

        Each completed SDU gets ``done_at = now`` and its successor, if any,
        ``head_at = now``; ``highest_tx_sn`` becomes the last completed SN.
        A budget that ends inside an SDU leaves it at the head with fewer
        unsent bytes (``head_left``), to complete in a later slot.  The
        scheduler moves the three counters itself for a budget that ends
        inside the head, and calls this only when the head completes or
        its UE has several backlogged queues."""
        budget = int(budget_bytes)
        sdus = self.sdus
        used = 0
        completed: list[Sdu] = []
        while budget > 0 and sdus:
            left = self.head_left
            if budget < left:
                self.head_left = left - budget
                used += budget
                break
            budget -= left
            used += left
            head = sdus.popleft()
            head.done_at = now
            completed.append(head)
            self.highest_tx_sn = head.sn
            if sdus:
                nxt = sdus[0]
                nxt.head_at = now
                self.head_left = nxt.pkt.size_bytes
            else:
                self.head_left = 0
        self.standing_bytes -= used
        self.transmitted_bytes += used
        return completed, used
