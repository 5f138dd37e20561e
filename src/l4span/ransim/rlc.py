"""Per-DRB RLC queue: drop-tail FIFO of SDUs with partial-transmit carryover."""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from ..core import DrbConfig, Packet


# what a transmit that completes no SDU returns; shared, never mutated
_NO_SDUS: tuple = ()


class EnqueueResult(enum.Enum):
    QUEUED = "queued"
    DROPPED_TAIL = "dropped_tail"


@dataclass
class Sdu:
    """One queued SDU; ``head_at`` is set when it reaches the head of the
    queue and ``done_at`` when its last byte is transmitted."""

    pkt: Packet
    sn: int
    enq_at: float
    head_at: Optional[float] = None
    done_at: Optional[float] = None
    sent_bytes: int = 0


class RlcQueue:
    """FIFO SDU queue; transmission order equals ingress order (in-order RLC)."""

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

    def has_room(self) -> bool:
        return len(self.sdus) < self.drb.max_queue_sdus

    def enqueue(self, pkt: Packet, sn: int, now: float) -> EnqueueResult:
        if not self.has_room():
            self.dropped_bytes += pkt.size_bytes
            self.dropped_sdus += 1
            return EnqueueResult.DROPPED_TAIL
        sdu = Sdu(pkt=pkt, sn=sn, enq_at=now)
        if not self.sdus:
            sdu.head_at = now
        self.sdus.append(sdu)
        self.admitted_bytes += pkt.size_bytes
        self.standing_bytes += pkt.size_bytes
        return EnqueueResult.QUEUED

    def transmit(self, budget_bytes: float, now: float) -> tuple[Sequence[Sdu], int]:
        """Serve up to ``budget_bytes`` (>= 0); one SDU may be sent partially
        and completes in a later slot.  Returns completed SDUs and bytes used.

        A budget that ends inside the head SDU (``int(budget_bytes)`` below
        its unsent bytes) is counter arithmetic: it moves the head's
        ``sent_bytes``, ``standing_bytes`` and ``transmitted_bytes`` and
        returns a shared empty tuple.  The head's ``head_at`` is already
        set, and no ``done_at`` or ``highest_tx_sn`` changes."""
        budget = int(budget_bytes)
        sdus = self.sdus
        if sdus:
            head = sdus[0]
            if budget < head.pkt.size_bytes - head.sent_bytes:
                head.sent_bytes += budget
                self.standing_bytes -= budget
                self.transmitted_bytes += budget
                return _NO_SDUS, budget
        used = 0
        completed: list[Sdu] = []
        while budget > 0 and sdus:
            head = sdus[0]
            need = head.pkt.size_bytes - head.sent_bytes
            take = min(need, budget)
            head.sent_bytes += take
            budget -= take
            used += take
            self.standing_bytes -= take
            if head.sent_bytes == head.pkt.size_bytes:
                sdus.popleft()
                head.done_at = now
                completed.append(head)
                self.highest_tx_sn = head.sn
                if sdus:
                    sdus[0].head_at = now
        self.transmitted_bytes += used
        return completed, used
