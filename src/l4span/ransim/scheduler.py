"""Slot-based MAC scheduler over a time-varying channel.

Each slot's resources are divided among backlogged UEs as fractions of the
slot; a UE given fraction f transmits f * capacity(t) * slot_len bytes.
Round-robin gives equal fractions with unused share redistributed;
proportional-fair weights the division by instantaneous capacity over an
EWMA of the served rate.

Slots fall at multiples of the slot length, and a caller passes each slot
only the UEs that may have data: a UE not passed is idle that slot.  An
idle slot's PF update is ``(1 - alpha) * ewma + alpha * 0.0``, which equals
``(1 - alpha) * ewma`` exactly, so the average decays lazily: a UE applies
the decays of the slots it missed, one multiplication per slot, when it is
next backlogged.  The result is bit-identical to updating every UE every
slot.  Round robin never reads the average and leaves it alone.

A slot makes one pass over the UEs it is passed, computing each backlogged
UE's standing bytes, capacity, need, PF catch-up and weight, then divides
the slot and serves each UE.  A UE with one queue skips ``_queue_shares``:
its share is ``min(budget, standing)``.  Most shares end inside a queue's
head SDU, and ``RlcQueue.transmit`` serves those with counter arithmetic,
so a slot's Python-level SDU work follows SDU completions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

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
    # the time of the first slot whose PF update ``ewma_rate`` lacks; it must
    # start at the caller's first slot, or a new UE is decayed for the slots
    # before it (one multiplication each)
    ewma_at: float = 0.0

    def standing_bytes(self) -> int:
        return sum(q.standing_bytes for q in self.queues)


class SlotTransmissions(NamedTuple):
    """What one DRB transmitted during a slot."""

    queue: RlcQueue
    completed: Sequence[Sdu]
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
    """Split a UE's budget equally over its backlogged queues.  The
    scheduler gives a UE with one queue min(budget, need) without calling
    this: that is what ``_water_fill`` returns for one queue whenever the
    budget is above its 1e-12 floor (budgets here are >= 1)."""
    return _water_fill(needs, [1.0] * len(needs), budget)


def pf_catch_up(ue: UeContext, now: float, slot_len_secs: float) -> None:
    """Apply the idle decays of the slots before ``now`` that ``ue`` missed.

    One multiplication per slot: ``keep ** k`` rounds differently."""
    keep = 1.0 - slot_len_secs / PF_EWMA_HORIZON_SECS
    rate = ue.ewma_rate
    for _ in range(round((now - ue.ewma_at) / slot_len_secs)):
        rate = keep * rate
    ue.ewma_rate = rate
    ue.ewma_at = now


def scheduler_slot(
    ues: list[UeContext],
    policy: SchedulerPolicy,
    slot_len_secs: float,
    now: float,
) -> list[SlotTransmissions]:
    """Serve one slot; returns per-DRB transmissions (feedback is emitted per
    DRB per slot with transmissions by the caller).  UEs not passed are idle
    this slot.  Of those passed, only UEs with standing bytes have their
    channel rate looked up, and only those with capacity have their PF
    average brought up to date.  Under PF, each UE's ``ewma_at`` must start
    at the time of the caller's first slot."""
    pf = policy is SchedulerPolicy.PROPORTIONAL_FAIR
    half_slot = slot_len_secs / 2
    # one pass: standing bytes, capacity, need (in slot-fraction units),
    # PF catch-up and weight of each backlogged UE
    backlogged = []  # (ue, capacity, standing bytes)
    needs = []
    weights = []
    for ue in ues:
        standing = 0
        for q in ue.queues:
            standing += q.standing_bytes
        if standing > 0:
            cap = ue.trace.rate_at(now)
            if cap > 0:
                backlogged.append((ue, cap, standing))
                need = standing / (cap * slot_len_secs)
                needs.append(need if need < 1.0 else 1.0)
                if pf:
                    if now - ue.ewma_at > half_slot:  # idle for at least one slot
                        pf_catch_up(ue, now, slot_len_secs)
                    rate = ue.ewma_rate
                    weights.append(cap / (_PF_RATE_FLOOR if _PF_RATE_FLOOR > rate else rate))
                else:
                    weights.append(1.0)
    reports: list[SlotTransmissions] = []
    if not backlogged:
        return reports
    fractions = _water_fill(needs, weights, 1.0)
    alpha = slot_len_secs / PF_EWMA_HORIZON_SECS
    for (ue, cap, standing), fraction in zip(backlogged, fractions):
        budget = fraction * cap * slot_len_secs
        if budget < 1:
            continue
        if len(ue.queues) == 1:
            # _queue_shares' one-queue share; it is >= 1, so bytes move
            q = ue.queues[0]
            completed, served = q.transmit(budget if budget < standing else standing, now)
            reports.append(SlotTransmissions(q, completed, served))
        else:
            queues = [q for q in ue.queues if q.standing_bytes > 0]
            served = 0
            for q, share in zip(queues, _queue_shares([float(q.standing_bytes) for q in queues],
                                                      budget)):
                if share < 1:
                    continue
                completed, used = q.transmit(share, now)
                if used > 0:
                    served += used
                    reports.append(SlotTransmissions(q, completed, used))
        if pf and served:
            # an unserved UE's update is an exact decay, applied lazily
            ue.ewma_rate = (1.0 - alpha) * ue.ewma_rate + alpha * (served / slot_len_secs)
            ue.ewma_at = now + slot_len_secs
    return reports
