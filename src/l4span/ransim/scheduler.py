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

A slot gathers one row per backlogged UE (standing bytes, capacity, need,
PF catch-up and weight), divides the slot with ``_water_fill`` and serves
each row.  A UE keeps the capacity of its current trace segment and the
segment's end, so the trace is looked up only when a slot passes that end.
A UE with one backlogged queue skips the per-queue split: its share is
``min(budget, standing)``.  Most such shares end inside the queue's head
SDU, and a share that does is counter arithmetic on the queue
(``head_left``, ``standing_bytes``, ``transmitted_bytes``) done here;
``RlcQueue.transmit`` runs only when a head SDU completes or the UE has
several backlogged queues.  The slot returns one ``(queue, completed)``
pair per DRB that moved bytes, in transmit order; ``completed`` is empty
for a share that ended inside the head SDU.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .channel import ChannelTrace
from .rlc import RlcQueue, Sdu

PF_EWMA_HORIZON_SECS = 0.1
_PF_RATE_FLOOR = 1000.0  # B/s, keeps weights finite for freshly active UEs


class SchedulerPolicy(enum.Enum):
    ROUND_ROBIN = "round_robin"
    PROPORTIONAL_FAIR = "proportional_fair"


@dataclass
class UeContext:
    """A UE's scheduler state.  ``queues`` is fixed at construction (kept as
    a tuple); ``queue`` is the only one, or None for a UE with several.
    Slots must be served in time order: ``cap`` holds until ``cap_until``."""

    ue_id: int
    trace: ChannelTrace
    queues: Sequence[RlcQueue] = ()
    ewma_rate: float = _PF_RATE_FLOOR
    # the time of the first slot whose PF update ``ewma_rate`` lacks; it must
    # start at the caller's first slot, or a new UE is decayed for the slots
    # before it (one multiplication each)
    ewma_at: float = 0.0
    queue: Optional[RlcQueue] = field(init=False)
    # the capacity of the trace segment of the last lookup, and its end
    cap: float = field(default=0.0, init=False)
    cap_until: float = field(default=-math.inf, init=False)

    def __post_init__(self) -> None:
        self.queues = tuple(self.queues)
        self.queue = self.queues[0] if len(self.queues) == 1 else None

    def standing_bytes(self) -> int:
        return sum(q.standing_bytes for q in self.queues)


def _water_fill(needs: list[float], weights: list[float], total: float) -> list[float]:
    """Divide ``total`` proportionally to weights, capping at each need and
    redistributing unused share; terminates in at most len(needs) passes.

    Each pass gives every index still short of its need ``remaining * weight
    / wsum`` capped at its room, with ``wsum`` their weights added up in
    order from 0.0 by the loop that picks them (the builtin ``sum`` rounds
    differently from CPython 3.12 on), and adds the takes up in order from
    0.0.  Plain scalar arithmetic: ``min`` and whole-list ``map`` calls cost
    more per element at the benchmark workloads' sizes (2 to 16 rows)."""
    alloc = [0.0] * len(needs)
    active = []
    wsum = 0.0
    for i, need in enumerate(needs):
        if need > 0:
            active.append(i)
            wsum += weights[i]
    remaining = total
    while active and remaining > 1e-12:
        if wsum <= 0:
            break
        given = 0.0
        still = []
        still_wsum = 0.0
        for i in active:
            w = weights[i]
            share = remaining * w / wsum
            room = needs[i] - alloc[i]
            take = share if share < room else room
            a = alloc[i] = alloc[i] + take
            given += take
            if a < needs[i] - 1e-12:
                still.append(i)
                still_wsum += w
        remaining -= given
        if given <= 1e-12:
            break
        active = still
        wsum = still_wsum
    return alloc


def pf_catch_up(ue: UeContext, now: float, slot_len_secs: float) -> None:
    """Apply the idle decays of the slots before ``now`` that ``ue`` missed.

    One multiplication per slot: ``keep ** k`` rounds differently."""
    keep = 1.0 - slot_len_secs / PF_EWMA_HORIZON_SECS
    rate = ue.ewma_rate
    for _ in range(round((now - ue.ewma_at) / slot_len_secs)):
        rate = keep * rate
    ue.ewma_rate = rate
    ue.ewma_at = now


def _serve_queues(queues: list[RlcQueue], budget: float, now: float,
                  sent: list[tuple[RlcQueue, Sequence[Sdu]]]) -> int:
    """Serve a UE's backlogged queues equal shares of ``budget``, water-filled
    to their standing bytes; returns the bytes served."""
    served = 0
    needs = [float(q.standing_bytes) for q in queues]
    for q, share in zip(queues, _water_fill(needs, [1.0] * len(needs), budget)):
        if share < 1:
            continue
        completed, used = q.transmit(share, now)
        if used:
            sent.append((q, completed))
        served += used
    return served


def scheduler_slot(
    ues: list[UeContext],
    policy: SchedulerPolicy,
    slot_len_secs: float,
    now: float,
) -> list[tuple[RlcQueue, Sequence[Sdu]]]:
    """Serve one slot.  Returns each DRB that moved bytes with the SDUs it
    completed (none for a share inside the head SDU), in transmit order.
    UEs not passed are idle this slot.  Of those passed,
    only UEs with standing bytes have their capacity read, and only those
    with capacity have their PF average brought up to date.  Under PF,
    each UE's ``ewma_at`` must start at the time of the caller's first slot."""
    pf = policy is SchedulerPolicy.PROPORTIONAL_FAIR
    half_slot = slot_len_secs / 2
    # gather: one row per backlogged UE with capacity, and its need (in
    # slot-fraction units) and weight
    rows = []  # (ue, its only queue or None, capacity, standing bytes)
    needs = []
    weights = []
    add_row, add_need, add_weight = rows.append, needs.append, weights.append
    for ue in ues:
        only = ue.queue
        if only is None:
            standing = 0
            for q in ue.queues:
                standing += q.standing_bytes
        else:
            standing = only.standing_bytes
        if standing > 0:
            if now >= ue.cap_until:
                ue.cap, ue.cap_until = ue.trace.segment_at(now)
            cap = ue.cap
            if cap > 0:
                add_row((ue, only, cap, standing))
                need = standing / (cap * slot_len_secs)
                add_need(need if need < 1.0 else 1.0)
                if pf:
                    if now - ue.ewma_at > half_slot:  # idle for at least one slot
                        pf_catch_up(ue, now, slot_len_secs)
                    rate = ue.ewma_rate
                    add_weight(cap / (_PF_RATE_FLOOR if _PF_RATE_FLOOR > rate else rate))
                else:
                    add_weight(1.0)
    sent: list[tuple[RlcQueue, Sequence[Sdu]]] = []
    if not rows:
        return sent
    # a lone UE's share is w / w = 1.0, so its need (<= 1.0) is its fraction
    fractions = needs if len(rows) == 1 and weights[0] > 0 else _water_fill(needs, weights, 1.0)
    alpha = slot_len_secs / PF_EWMA_HORIZON_SECS
    keep = 1.0 - alpha
    next_slot = now + slot_len_secs
    add_sent = sent.append
    for (ue, only, cap, standing), fraction in zip(rows, fractions):
        budget = fraction * cap * slot_len_secs
        if budget < 1:
            continue
        if only is None:
            queues = [q for q in ue.queues if q.standing_bytes > 0]
            # one backlogged queue holds all of the UE's standing bytes
            only = queues[0] if len(queues) == 1 else None
        if only is None:
            served = _serve_queues(queues, budget, now, sent)
        else:
            # the one-queue share, min(budget, standing): what _water_fill
            # gives one queue whenever the budget is above its 1e-12 floor.
            # It is >= 1, so bytes move.  A share inside the head SDU moves
            # the counters here, as transmit would, without the call
            served = int(budget) if budget < standing else standing
            left = only.head_left
            if served < left:
                only.head_left = left - served
                only.standing_bytes -= served
                only.transmitted_bytes += served
                add_sent((only, ()))
            else:
                completed, served = only.transmit(served, now)
                add_sent((only, completed))
        if pf and served:
            # an unserved UE's update is an exact decay, applied lazily
            ue.ewma_rate = keep * ue.ewma_rate + alpha * (served / slot_len_secs)
            ue.ewma_at = next_slot
    return sent
