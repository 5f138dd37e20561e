"""The slot scheduler against naive oracles.

The slot oracle is the eager scheduler: every UE of the cell is passed
every slot, every UE's proportional-fair average is updated every slot, and
every share goes through the general water fill and a queue whose SDUs
count their own sent bytes.  The scheduler under test sees only the UEs
with standing bytes (plus any idle ones a caller chooses to pass), decays
idle averages lazily, caches each UE's capacity up to its segment's end,
gives a UE with one backlogged queue its share without the queue split and
moves a share that ends inside a head SDU as counters.  After every slot
each queue's counters, the SDUs each DRB completed and the DRBs that
transmitted without completing must match the oracle; once a UE catches
up, its average must match bit for bit.
The water fill and the queue split are checked against the oracles bit for
bit on their own too: the water fill is the oracle's algorithm today, and
the check keeps any faster form of it exact.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from hypothesis import example, given, settings
from hypothesis import strategies as st

from l4span.core import DrbConfig, EcnCodepoint, FiveTuple, Packet, Proto
from l4span.ransim.channel import ChannelTrace
from l4span.ransim.rlc import RlcQueue
from l4span.ransim.scheduler import (
    _PF_RATE_FLOOR,
    PF_EWMA_HORIZON_SECS,
    SchedulerPolicy,
    UeContext,
    _queue_shares,
    _water_fill,
    pf_catch_up,
    scheduler_slot,
)

SLOT = 0.0005


def oracle_water_fill(needs, weights, total):
    """Divide ``total`` proportionally to weights, capping at each need and
    redistributing unused share, one pass over every unmet need at a time;
    each pass's weight sum is added in order from 0.0, never by ``sum``."""
    n = len(needs)
    alloc = [0.0] * n
    active = []
    wsum = 0.0
    for i in range(n):
        if needs[i] > 0:
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
            share = remaining * weights[i] / wsum
            room = needs[i] - alloc[i]
            take = share if share < room else room
            alloc[i] += take
            given += take
            if alloc[i] < needs[i] - 1e-12:
                still.append(i)
                still_wsum += weights[i]
        remaining -= given
        if given <= 1e-12:
            break
        active = still
        wsum = still_wsum
    return alloc


def oracle_queue_shares(needs, budget):
    return oracle_water_fill(needs, [1.0] * len(needs), budget)


@dataclass
class _OracleSdu:
    sn: int
    size: int
    sent_bytes: int = 0


class OracleQueue:
    """An RLC queue whose SDUs count their own sent bytes, served by a
    byte loop; ``head_left`` is derived from the head."""

    def __init__(self, drb: DrbConfig):
        self.drb = drb
        self.sdus: deque[_OracleSdu] = deque()
        self.transmitted_bytes = 0
        self.standing_bytes = 0

    @property
    def head_left(self) -> int:
        return self.sdus[0].size - self.sdus[0].sent_bytes if self.sdus else 0

    def enqueue(self, pkt: Packet, sn: int, now: float) -> None:
        if len(self.sdus) < self.drb.max_queue_sdus:
            self.sdus.append(_OracleSdu(sn, pkt.size_bytes))
            self.standing_bytes += pkt.size_bytes

    def transmit(self, budget_bytes: float) -> tuple[list[int], int]:
        """(SNs completed, bytes used) for a budget of ``int(budget_bytes)``."""
        budget = int(budget_bytes)
        used = 0
        completed = []
        while budget > 0 and self.sdus:
            head = self.sdus[0]
            take = min(head.size - head.sent_bytes, budget)
            head.sent_bytes += take
            budget -= take
            used += take
            self.standing_bytes -= take
            if head.sent_bytes == head.size:
                self.sdus.popleft()
                completed.append(head.sn)
        self.transmitted_bytes += used
        return completed, used


@dataclass
class _OracleUe:
    trace: ChannelTrace
    queues: list
    ewma_rate: float = _PF_RATE_FLOOR


def oracle_slot(ues, policy, slot_len_secs, now):
    """Serve one slot over every UE, updating every UE's PF average eagerly.

    Returns the (DRB key, completed SNs) of each DRB that completed SDUs,
    and the keys of the DRBs that transmitted without completing."""
    backlogged = []
    for i, ue in enumerate(ues):
        standing = sum(q.standing_bytes for q in ue.queues)
        if standing > 0:
            cap = ue.trace.rate_at(now)
            if cap > 0:
                backlogged.append((i, cap, standing))
    completions, partial = [], []
    served = [0] * len(ues)
    if backlogged:
        needs = []
        weights = []
        for i, cap, standing in backlogged:
            needs.append(min(1.0, standing / (cap * slot_len_secs)))
            if policy is SchedulerPolicy.PROPORTIONAL_FAIR:
                weights.append(cap / max(ues[i].ewma_rate, _PF_RATE_FLOOR))
            else:
                weights.append(1.0)
        fractions = oracle_water_fill(needs, weights, 1.0)
        for (i, cap, _), fraction in zip(backlogged, fractions):
            budget = fraction * cap * slot_len_secs
            if budget < 1:
                continue
            queues = [q for q in ues[i].queues if q.standing_bytes > 0]
            q_alloc = oracle_queue_shares([float(q.standing_bytes) for q in queues], budget)
            for q, share in zip(queues, q_alloc):
                if share < 1:
                    continue
                completed, used = q.transmit(share)
                served[i] += used
                if completed:
                    completions.append((q.drb.key, completed))
                elif used > 0:
                    partial.append(q.drb.key)
    alpha = slot_len_secs / PF_EWMA_HORIZON_SECS
    for i, ue in enumerate(ues):
        ue.ewma_rate = (1.0 - alpha) * ue.ewma_rate + alpha * (served[i] / slot_len_secs)
    return completions, partial


def _pkt(i: int, size: int) -> Packet:
    ft = FiveTuple(src_addr=1, dst_addr=2, src_port=3, dst_port=4, proto=Proto.UDP)
    return Packet(pkt_id=i, five_tuple=ft, size_bytes=size, ecn=EcnCodepoint.ECT1,
                  created_at=0.0)


def _cell(channels, queue=RlcQueue, ue=UeContext):
    """One UE per channel description (segments, queue count)."""
    return [ue(ue_id=ue_id, trace=ChannelTrace(*zip(*segments)),
               queues=[queue(DrbConfig(ue_id=ue_id, drb_id=d)) for d in range(1, n_queues + 1)])
            for ue_id, (segments, n_queues) in enumerate(channels, start=1)]


def _oracle_cell(channels):
    return _cell(channels, OracleQueue,
                 lambda ue_id, trace, queues: _OracleUe(trace=trace, queues=queues))


def _segments():
    """A piecewise capacity over about a second, outages (0 B/s) included;
    or one whose breakpoints fall exactly on slot times."""
    cap = st.one_of(st.just(0.0), st.floats(2e4, 3e6))
    drifting = st.tuples(cap, st.lists(st.tuples(st.floats(0.001, 0.3), cap), max_size=4)).map(
        lambda drawn: _accumulate(*drawn))
    aligned = st.tuples(cap, st.dictionaries(st.integers(1, 2000), cap, max_size=4)).map(
        lambda drawn: [(0.0, drawn[0])] + [(n * SLOT, c) for n, c in sorted(drawn[1].items())])
    return st.one_of(drifting, aligned)


def _accumulate(first, rest):
    t, out = 0.0, [(0.0, first)]
    for gap, cap in rest:
        t += gap
        out.append((t, cap))
    return out


# a burst of packets of one size on (UE, queue), both taken modulo what the cell has
_burst = st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(40, 3000),
                   st.integers(1, 60))
# bursts, then this many slots passing the idle UEs the mask picks as well,
# then (maybe) every average brought up to date and compared
_phases = st.lists(
    st.tuples(st.lists(_burst, max_size=6), st.integers(1, 400), st.integers(0, 63),
              st.booleans()),
    min_size=1, max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(channels=st.lists(st.tuples(_segments(), st.integers(1, 3)), min_size=1, max_size=6),
       policy=st.sampled_from(list(SchedulerPolicy)), phases=_phases)
def test_scheduler_matches_eager_oracle(channels, policy, phases):
    _compare_with_oracle(channels, policy, phases)


# cell sizes: 16-64 one-queue UEs whose shares of a slot are tens to hundreds
# of bytes, so most transmits end inside a head SDU
_cell_burst = st.tuples(st.integers(0, 63), st.just(0), st.integers(500, 3000),
                        st.integers(1, 20))
_cell_phases = st.lists(
    st.tuples(st.lists(_cell_burst, max_size=40), st.integers(1, 200), st.integers(0, 2**64 - 1),
              st.booleans()),
    min_size=1, max_size=5,
)


@settings(max_examples=25, deadline=None)
@given(segments=st.lists(_segments(), min_size=16, max_size=64),
       policy=st.sampled_from(list(SchedulerPolicy)), phases=_cell_phases)
def test_scheduler_matches_eager_oracle_at_cell_sizes(segments, policy, phases):
    _compare_with_oracle([(seg, 1) for seg in segments], policy, phases)


def _compare_with_oracle(channels, policy, phases):
    oracle, lazy = _oracle_cell(channels), _cell(channels)
    n = 0
    pkt_id = 0

    def check():
        for o, u in zip(oracle, lazy):
            if policy is SchedulerPolicy.PROPORTIONAL_FAIR:
                pf_catch_up(u, n * SLOT, SLOT)
                assert u.ewma_rate == o.ewma_rate  # bit-equal, no tolerance
            else:
                assert u.ewma_rate == _PF_RATE_FLOOR  # round robin leaves it alone

    for bursts, slots, mask, compare in phases:
        for ue, q, size, count in bursts:
            ue %= len(lazy)
            q %= len(lazy[ue].queues)
            for _ in range(count):
                pkt_id += 1
                for cell in (oracle, lazy):
                    cell[ue].queues[q].enqueue(_pkt(pkt_id, size), pkt_id, n * SLOT)
        for _ in range(slots):
            now = n * SLOT
            passed = [u for i, u in enumerate(lazy) if u.standing_bytes() > 0 or mask >> i & 1]
            want = oracle_slot(oracle, policy, SLOT, now)
            completions, partial = scheduler_slot(passed, policy, SLOT, now)
            assert ([(r.queue.drb.key, [s.sn for s in r.completed]) for r in completions],
                    [q.drb.key for q in partial]) == want
            for o, u in zip(oracle, lazy):
                assert [(q.transmitted_bytes, q.standing_bytes, q.head_left) for q in u.queues] \
                    == [(q.transmitted_bytes, q.standing_bytes, q.head_left) for q in o.queues]
            n += 1
        if compare:
            check()
    check()


def test_a_breakpoint_on_a_slot_time_takes_effect_in_that_slot():
    # capacity changes exactly at slots 3, 7 and 40, dropping to 0 at slot 7
    segments = [(0.0, 2e6), (3 * SLOT, 5e5), (7 * SLOT, 0.0), (40 * SLOT, 3e6)]
    for policy in SchedulerPolicy:
        _compare_with_oracle([(segments, 1), ([(0.0, 1e6), (7 * SLOT, 4e6)], 2)], policy,
                             [([(0, 0, 1500, 60), (1, 0, 700, 30), (1, 1, 90, 40)], 200, 3, True)])


def test_a_lone_ue_takes_the_whole_slot():
    # share == need == 1.0: the first pass settles it
    for policy in SchedulerPolicy:
        _compare_with_oracle([([(0.0, 3e6)], 1)], policy, [([(0, 0, 1500, 60)], 200, 0, True)])
        ue = _cell([([(0.0, 3e6)], 1)])[0]
        ue.queue.enqueue(_pkt(1, 3000), 1, 0.0)
        assert scheduler_slot([ue], policy, SLOT, 0.0)[1] == [ue.queue]
        assert ue.queue.transmitted_bytes == int(1.0 * 3e6 * SLOT)


@settings(max_examples=300, deadline=None)
@given(needs=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1e-15, 1e-9),
                                st.just(1.0)), min_size=1, max_size=20),
       data=st.data(), total=st.one_of(st.just(1.0), st.floats(0.0, 2.0)))
@example(needs=[1.0], data=None, total=1.0)
# the two 1e-12 floors, which random draws rarely reach: a share within
# 1e-12 below its need counts as met, so no second pass runs; a pass that
# gives out at most 1e-12 ends the fill though slot is left and a need unmet
@example(needs=[0.5 + 1e-13, 0.3], data=None, total=1.0)
@example(needs=[1e-15] * 19 + [1.0], data=None, total=1.5e-11)
def test_water_fill_matches_its_oracle_bit_for_bit(needs, data, total):
    weights = ([1.0] * len(needs) if data is None else
               data.draw(st.lists(st.one_of(st.just(1.0), st.floats(1e-3, 1e4)),
                                  min_size=len(needs), max_size=len(needs))))
    assert [a.hex() for a in _water_fill(needs, weights, total)] \
        == [a.hex() for a in oracle_water_fill(needs, weights, total)]


@settings(max_examples=300, deadline=None)
@given(needs=st.lists(st.one_of(st.floats(0.0, 6000.0), st.integers(0, 6000).map(float)),
                      min_size=1, max_size=4),
       budget=st.one_of(st.floats(1.0, 12000.0), st.integers(1, 12000).map(float)))
@example(needs=[1500.0, 1500.0], budget=3000.0)
@example(needs=[700.0, 2000.0], budget=1400.0)
@example(needs=[3000.0, 4000.0], budget=1000.0)
def test_queue_shares_match_their_oracle_bit_for_bit(needs, budget):
    assert [a.hex() for a in _queue_shares(needs, budget)] \
        == [a.hex() for a in oracle_queue_shares(needs, budget)]


def test_idle_decay_is_one_multiplication_per_slot():
    ue = UeContext(ue_id=1, trace=ChannelTrace.static(1e6), ewma_rate=3.7e5)
    keep = 1.0 - SLOT / PF_EWMA_HORIZON_SECS
    expected = ue.ewma_rate
    for _ in range(700):
        expected = keep * expected
    pf_catch_up(ue, 700 * SLOT, SLOT)
    assert ue.ewma_rate == expected and ue.ewma_at == 700 * SLOT
    # catching up again at the same slot applies nothing
    pf_catch_up(ue, 700 * SLOT, SLOT)
    assert ue.ewma_rate == expected
