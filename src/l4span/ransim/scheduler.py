"""Slot-based MAC scheduler over a time-varying channel.

Each slot's resources are divided among backlogged UEs as fractions of the
slot; a UE given fraction f transmits f * capacity(t) * slot_len bytes.
Round-robin gives equal fractions with unused share redistributed;
proportional-fair weights the division by instantaneous capacity over an
EWMA of the served rate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .channel import ChannelTrace
from .rlc import RlcQueue, Sdu

PF_EWMA_HORIZON_SECS = 0.1
_PF_RATE_FLOOR = 1000.0  # B/s, keeps weights finite for freshly active UEs


class SchedulerPolicy(enum.Enum):
    ROUND_ROBIN = "round_robin"
    PROPORTIONAL_FAIR = "proportional_fair"


@dataclass
class UeContext:
    ue_id: int
    trace: ChannelTrace
    queues: list[RlcQueue] = field(default_factory=list)
    ewma_rate: float = _PF_RATE_FLOOR

    def standing_bytes(self) -> int:
        return sum(q.standing_bytes for q in self.queues)


@dataclass
class SlotTransmissions:
    """What one DRB transmitted during a slot."""

    queue: RlcQueue
    completed: list[Sdu]
    used_bytes: int


def _water_fill(needs: list[float], weights: list[float], total: float) -> list[float]:
    """Divide ``total`` proportionally to weights, capping at each need and
    redistributing unused share; terminates in at most len(needs) passes."""
    n = len(needs)
    alloc = [0.0] * n
    active = [i for i in range(n) if needs[i] > 0]
    remaining = total
    while active and remaining > 1e-12:
        wsum = sum(weights[i] for i in active)
        if wsum <= 0:
            break
        given = 0.0
        still = []
        for i in active:
            share = remaining * weights[i] / wsum
            room = needs[i] - alloc[i]
            take = share if share < room else room
            alloc[i] += take
            given += take
            if alloc[i] < needs[i] - 1e-12:
                still.append(i)
        remaining -= given
        if given <= 1e-12:
            break
        active = still
    return alloc


def _queue_shares(needs: list[float], budget: float) -> list[float]:
    """Split a UE's budget equally over its backlogged queues.  One queue
    gets min(budget, need), which is what ``_water_fill`` returns for it
    whenever the budget is above its 1e-12 floor (budgets here are >= 1)."""
    if len(needs) == 1:
        need = needs[0]
        return [budget if budget < need else need]
    return _water_fill(needs, [1.0] * len(needs), budget)


def scheduler_slot(
    ues: list[UeContext],
    policy: SchedulerPolicy,
    slot_len_secs: float,
    now: float,
) -> list[SlotTransmissions]:
    """Serve one slot; returns per-DRB transmissions (feedback is emitted per
    DRB per slot with transmissions by the caller).  Only UEs with standing
    bytes have their channel rate looked up."""
    backlogged = []  # (index, capacity, standing bytes)
    for i, ue in enumerate(ues):
        standing = ue.standing_bytes()
        if standing > 0:
            cap = ue.trace.rate_at(now)
            if cap > 0:
                backlogged.append((i, cap, standing))
    reports: list[SlotTransmissions] = []
    served = [0] * len(ues)
    if backlogged:
        # needs and allocation in slot-fraction units
        needs = []
        weights = []
        for i, cap, standing in backlogged:
            needs.append(min(1.0, standing / (cap * slot_len_secs)))
            if policy is SchedulerPolicy.PROPORTIONAL_FAIR:
                weights.append(cap / max(ues[i].ewma_rate, _PF_RATE_FLOOR))
            else:
                weights.append(1.0)
        fractions = _water_fill(needs, weights, 1.0)
        for (i, cap, _), fraction in zip(backlogged, fractions):
            budget = fraction * cap * slot_len_secs
            if budget < 1:
                continue
            queues = [q for q in ues[i].queues if q.standing_bytes > 0]
            q_alloc = _queue_shares([float(q.standing_bytes) for q in queues], budget)
            for q, share in zip(queues, q_alloc):
                if share < 1:
                    continue
                completed, used = q.transmit(share, now)
                served[i] += used
                if used > 0:
                    reports.append(SlotTransmissions(queue=q, completed=completed, used_bytes=used))
    alpha = slot_len_secs / PF_EWMA_HORIZON_SECS
    for i, ue in enumerate(ues):
        ue.ewma_rate = (1.0 - alpha) * ue.ewma_rate + alpha * (served[i] / slot_len_secs)
    return reports
