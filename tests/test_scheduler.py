"""The slot scheduler against a naive oracle.

The oracle is the eager scheduler: every UE of the cell is passed every
slot, and every UE's proportional-fair average is updated every slot.  The
scheduler under test sees only the UEs with standing bytes (plus any idle
ones a caller chooses to pass) and decays idle averages lazily; reports
and, once a UE catches up, its average must match the oracle bit for bit.
"""

from __future__ import annotations

from hypothesis import given, settings
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


def oracle_slot(ues, policy, slot_len_secs, now):
    """Serve one slot over every UE, updating every UE's PF average eagerly.

    Returns (queue, completed SNs, used bytes) per transmitting DRB."""
    backlogged = []
    for i, ue in enumerate(ues):
        standing = sum(q.standing_bytes for q in ue.queues)
        if standing > 0:
            cap = ue.trace.rate_at(now)
            if cap > 0:
                backlogged.append((i, cap, standing))
    reports = []
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
                    reports.append((q, [s.sn for s in completed], used))
    alpha = slot_len_secs / PF_EWMA_HORIZON_SECS
    for i, ue in enumerate(ues):
        ue.ewma_rate = (1.0 - alpha) * ue.ewma_rate + alpha * (served[i] / slot_len_secs)
    return reports


def _pkt(i: int, size: int) -> Packet:
    ft = FiveTuple(src_addr=1, dst_addr=2, src_port=3, dst_port=4, proto=Proto.UDP)
    return Packet(pkt_id=i, five_tuple=ft, size_bytes=size, ecn=EcnCodepoint.ECT1,
                  created_at=0.0)


def _cell(channels):
    """One UE per channel description (segments, queue count)."""
    ues = []
    for ue_id, (segments, n_queues) in enumerate(channels, start=1):
        ue = UeContext(ue_id=ue_id, trace=ChannelTrace(*zip(*segments)))
        ue.queues = [RlcQueue(DrbConfig(ue_id=ue_id, drb_id=d)) for d in range(1, n_queues + 1)]
        ues.append(ue)
    return ues


def _segments():
    """A piecewise capacity over about a second, outages (0 B/s) included."""
    cap = st.one_of(st.just(0.0), st.floats(2e4, 3e6))
    return st.tuples(cap, st.lists(st.tuples(st.floats(0.001, 0.3), cap), max_size=4)).map(
        lambda drawn: _accumulate(*drawn))


def _accumulate(first, rest):
    t, out = 0.0, [(0.0, first)]
    for gap, cap in rest:
        t += gap
        out.append((t, cap))
    return out


# a burst of packets of one size on (UE, queue), both taken modulo what the cell has
_burst = st.tuples(st.integers(0, 5), st.integers(0, 1), st.integers(40, 3000),
                   st.integers(1, 60))
# bursts, then this many slots passing the idle UEs the mask picks as well,
# then (maybe) every average brought up to date and compared
_phases = st.lists(
    st.tuples(st.lists(_burst, max_size=6), st.integers(1, 400), st.integers(0, 63),
              st.booleans()),
    min_size=1, max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(channels=st.lists(st.tuples(_segments(), st.integers(1, 2)), min_size=1, max_size=6),
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
    oracle, lazy = _cell(channels), _cell(channels)
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
            got = scheduler_slot(passed, policy, SLOT, now)
            assert [(r.queue.drb.key, [s.sn for s in r.completed], r.used_bytes)
                    for r in got] == [(q.drb.key, sns, used) for q, sns, used in want]
            n += 1
        if compare:
            check()
    check()


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
