import math
import pickle
import random
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from l4span.core import (
    SYN,
    DrbConfig,
    EcnCodepoint,
    FiveTuple,
    Packet,
    Proto,
    RlcMode,
    TcpFields,
)
from l4span.harness.scenario import BUILTIN_SCENARIOS, ChannelSpec, DrbSpec, FlowSpec
from l4span.marking import MarkParams, p_l4s
from l4span.profile import DEFAULT_WINDOW_SECS, KEEP_HORIZON_SECS, ProfileTable
from l4span.ransim import layer as layer_mod
from l4span.ransim.channel import ChannelTrace
from l4span.ransim.events import EventKind, EventLoop, SimEvent
from l4span.ransim.layer import DrbLayer
from l4span.ransim.rlc import EnqueueResult, RlcQueue
from l4span.ransim.scheduler import (
    SchedulerPolicy,
    UeContext,
    _water_fill,
    scheduler_slot,
)
from l4span.ransim.sim import Simulator, run
from l4span.senders import SENDERS, CubicState, PragueState, RenoState
from l4span.shortcircuit import FeedbackMode


# -- channel traces -----------------------------------------------------------


def test_trace_static_eval():
    tr = ChannelTrace.static(5e6)
    assert tr.rate_at(0.0) == 5e6
    assert tr.rate_at(1e9) == 5e6  # last segment extends


@given(
    gaps=st.lists(st.floats(1e-3, 10.0), max_size=12),
    caps=st.lists(st.floats(0.0, 1e8), min_size=13, max_size=13),
    picks=st.lists(
        st.one_of(
            st.integers(0, 12),                    # exactly on a breakpoint
            st.floats(0.0, 200.0),                 # anywhere, past the last one too
            st.just(math.inf),                     # the end of time
            st.floats(-5.0, -1e-9),                # before zero: must raise
        ),
        max_size=40,
    ),
)
def test_trace_lookup_matches_bisect_oracle(gaps, caps, picks):
    times = [0.0]
    for g in gaps:
        times.append(times[-1] + g)
    caps = caps[:len(times)]
    tr = ChannelTrace(times, caps)
    assert tr.breakpoints == list(zip(times, caps))
    ends = times[1:] + [math.inf]
    instants = []
    for pick in picks:
        t = times[pick % len(times)] if isinstance(pick, int) else pick
        if t < 0:
            with pytest.raises(ValueError):
                tr.rate_at(t)
        else:
            assert tr.rate_at(t) == caps[bisect_right(times, t) - 1]
            instants.append(t)
    # the integral sums each segment's share with the same arithmetic (repr:
    # a zero capacity up to t = inf gives NaN on both sides)
    for t0, t1 in zip(instants, instants[1:]):
        expected = 0.0
        for seg0, seg1, cap in zip(times, ends, caps):
            lo, hi = max(t0, seg0), min(t1, seg1)
            if hi > lo:
                expected += cap * (hi - lo)
        assert repr(tr.integral(t0, t1)) == repr(expected if t1 > t0 else 0.0)


@pytest.mark.parametrize("breakpoints", [
    [(0.0, 1.0), (0.0, 2.0)],
    [(0.0, -1.0)],
    [(1.0, 5.0)],
    [(0.0, math.nan)],
    [(0.0, math.inf)],
    [(math.nan, 1.0)],
    [],
], ids=["not-increasing", "negative", "late-start", "nan-capacity", "inf-capacity", "nan-time",
        "empty"])
def test_trace_validation(breakpoints):
    with pytest.raises(ValueError):
        ChannelTrace([t for t, _ in breakpoints], [c for _, c in breakpoints])


def _check_breakpoints_oracle(breakpoints):
    """The scalar per-breakpoint check: each breakpoint in turn must be
    finite, later than the one before and non-negative."""
    if not breakpoints:
        raise ValueError("channel trace needs at least one breakpoint")
    last = -math.inf
    for t, cap in breakpoints:
        if not (math.isfinite(t) and math.isfinite(cap)):
            raise ValueError(f"breakpoint ({t}, {cap}) must be finite")
        if t <= last:
            raise ValueError(f"breakpoints must be strictly increasing (at t={t})")
        if cap < 0:
            raise ValueError(f"capacity must be >= 0 (at t={t})")
        last = t
    if breakpoints[0][0] > 0:
        raise ValueError("first breakpoint must be at t=0")


def _outcome(build):
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


_edge_floats = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.nan, math.inf, -math.inf])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.one_of(_edge_floats, st.floats()),
                          st.one_of(_edge_floats, st.floats())), max_size=8))
@example([(0.0, 1.0), (1.0, -2.0), (1.0, math.nan)])   # negative before a repeat
@example([(0.0, 1.0), (0.0, math.nan)])                # not finite before not rising
@example([(0.0, 1.0), (-1.0, -1.0)])                   # not rising before negative
@example([(-0.0, 1.0), (0.0, 2.0)])                    # -0.0 and 0.0 are one instant
@example([(-1.0, 1.0), (0.5, 2.0)])                    # a start before zero is accepted
def test_trace_validation_names_the_first_bad_breakpoint(breakpoints):
    expected = _outcome(lambda: _check_breakpoints_oracle(breakpoints))
    got = _outcome(lambda: ChannelTrace([t for t, _ in breakpoints], [c for _, c in breakpoints]))
    assert got == expected


def test_trace_columns_must_match():
    with pytest.raises(ValueError, match="two columns of one length"):
        ChannelTrace([0.0, 1.0], [5.0])


def test_trace_integral():
    tr = ChannelTrace([0.0, 1.0], [10.0, 20.0])
    assert tr.integral(0.0, 2.0) == pytest.approx(30.0)
    assert tr.integral(0.5, 1.5) == pytest.approx(5.0 + 10.0)
    assert tr.integral(2.0, 1.0) == 0.0


def test_trace_integral_adds_segments_in_order():
    # 1e16 then sixteen 1 s segments of 1 byte/s: added left to right each 1
    # rounds away, while a pairwise (np.sum) or compensated sum keeps them
    tr = ChannelTrace(list(range(17)), [1e16] + [1.0] * 16)
    assert tr.integral(0.0, 17.0) == 1e16
    assert float(np.sum([1e16] + [1.0] * 16)) > 1e16
    # a zero-capacity trace carries +0.0 bytes, as a sum started at 0.0 does
    assert repr(ChannelTrace([0.0], [-0.0]).integral(0.0, 1.0)) == "0.0"


def _raised(call):
    """The type and message of what ``call()`` raises (None if it returns)."""
    try:
        call()
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    return None


def _zero_horizon_sinusoid(mean, amplitude, period, sample_secs, phase):
    """The sinusoid generator's parameter checks and a zero-horizon build's
    breakpoint checks, one scalar sample at a time."""
    if period <= 0 or sample_secs <= 0:
        raise ValueError("period and sample_secs must be positive")
    if abs(amplitude) > mean:
        raise ValueError("amplitude may not exceed mean (capacity must stay >= 0)")
    _check_breakpoints_oracle(_sinusoid_oracle(mean, amplitude, period, 0.0, sample_secs, phase))


def _zero_horizon_fading(mean, slow_amplitude, slow_period, fade_floor, fade_secs, fast_floor,
                         fast_secs, phase):
    if not 0.0 < fade_floor <= 1.0 or not 0.0 < fast_floor <= 1.0:
        raise ValueError("fade floors must be in (0, 1]")
    if fade_secs <= 0 or fast_secs <= 0:
        raise ValueError("fade hold times must be positive")
    if slow_period <= 0:
        raise ValueError("period must be positive")
    _check_breakpoints_oracle(_fading_oracle(mean, slow_amplitude, slow_period, 0.0, fade_floor,
                                             fade_secs, fast_floor, fast_secs, 1, phase))


_check_arg = st.one_of(_edge_floats, st.floats(), st.floats(1e-320, 1e-300),
                       st.sampled_from([0.5, 0.01, 0.1, 0.025, 5.0, 1e6]))


@settings(max_examples=400, deadline=None)
@given(st.tuples(*[_check_arg] * 5))
@example((1e6, 2e6, 5.0, 0.025, 0.0))          # amplitude past the mean
@example((math.inf, 0.0, 5.0, 0.025, 0.0))     # an infinite first sample
@example((1e6, 0.0, 5.0, math.nan, 0.0))       # no sample count
@example((1e6, 1e5, 1e-320, 0.025, 0.0))       # the second sample's phase overflows
def test_sinusoid_check_raises_what_a_zero_horizon_build_raises(args):
    assert _raised(lambda: ChannelTrace.check_sinusoid(*args)) \
        == _raised(lambda: _zero_horizon_sinusoid(*args))


@settings(max_examples=400, deadline=None)
@given(st.tuples(*[_check_arg] * 8))
@example((1e6, 4e5, 5.0, 0.5, 0.1, 0.75, 0.01, 0.0))
@example((math.nan, 4e5, 5.0, 0.5, 0.1, 0.75, 0.01, 0.0))   # a NaN slow mean
@example((-math.inf, 4e5, 5.0, 0.5, 0.1, 0.75, 0.01, 0.0))  # clamped to 0: finite
@example((1e6, 4e5, 5.0, 0.5, math.inf, 0.75, 0.01, 0.0))   # no whole shadowing hold
def test_fading_check_raises_what_a_zero_horizon_build_raises(args):
    assert _raised(lambda: ChannelTrace.check_fading(*args)) \
        == _raised(lambda: _zero_horizon_fading(*args))


# -- test-side oracles: the generators as one scalar sample at a time --------


def _sinusoid_oracle(mean, amplitude, period, horizon, sample_secs, phase):
    pts = []
    n = int(horizon / sample_secs) + 1
    for i in range(n + 1):
        t = i * sample_secs
        cap = mean + amplitude * math.sin(2 * math.pi * (t / period + phase))
        pts.append((t, cap))
    return pts


def _fading_oracle(mean, slow_amplitude, slow_period, horizon, fade_floor, fade_secs,
                   fast_floor, fast_secs, seed, phase):
    rng = random.Random(seed)
    fast_rng = random.Random(seed + 7919)
    pts = []
    shadow = 1.0
    n = int(horizon / fast_secs) + 2
    per_shadow = max(1, round(fade_secs / fast_secs))
    for i in range(n):
        t = i * fast_secs
        if i % per_shadow == 0:
            shadow = rng.uniform(fade_floor, 1.0)
        slow = mean + slow_amplitude * math.sin(2 * math.pi * (t / slow_period + phase))
        pts.append((t, max(slow, 0.0) * shadow * fast_rng.uniform(fast_floor, 1.0)))
    return pts


def _hex(pairs):
    return [(float(t).hex(), float(c).hex()) for t, c in pairs]


_rate = st.one_of(st.sampled_from([0.0, -0.0, 3.75e6, 1.25e6]), st.floats(-1e8, 1e8))
_horizon = st.one_of(st.sampled_from([0.0, 8.0, 14.0]), st.floats(0.0, 20.0))
_phase = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))


@settings(max_examples=200, deadline=None)
@given(mean=_rate, amplitude=_rate, period=st.floats(0.01, 30.0), horizon=_horizon,
       sample_secs=st.floats(0.005, 1.0), phase=_phase)
def test_sinusoid_matches_the_scalar_oracle_bit_for_bit(mean, amplitude, period, horizon,
                                                        sample_secs, phase):
    args = (mean, amplitude, period, horizon, sample_secs, phase)
    if abs(amplitude) > mean:
        with pytest.raises(ValueError, match="amplitude may not exceed mean"):
            ChannelTrace.sinusoid(*args)
        return
    assert _hex(ChannelTrace.sinusoid(*args).breakpoints) == _hex(_sinusoid_oracle(*args))


@settings(max_examples=200, deadline=None)
@given(mean=_rate, amplitude=_rate, period=st.floats(0.01, 30.0), horizon=_horizon,
       fade_floor=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
       per_shadow=st.integers(1, 40),
       fast_floor=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
       fast_secs=st.one_of(st.sampled_from([0.01, 0.0005]), st.floats(0.0005, 0.5)),
       seed=st.one_of(st.integers(-2**40, 2**40), st.integers(0, 64)),
       phase=_phase)
@example(mean=-0.0, amplitude=0.0, period=5.0, horizon=1.0, fade_floor=0.5, per_shadow=10,
         fast_floor=0.75, fast_secs=0.01, seed=1, phase=0.5)   # max(-0.0, 0.0) is -0.0
@example(mean=1e6, amplitude=4e6, period=5.0, horizon=10.0, fade_floor=0.5, per_shadow=10,
         fast_floor=0.75, fast_secs=0.01, seed=2**33 + 5, phase=0.0)  # clamped troughs
def test_fading_matches_the_scalar_oracle_bit_for_bit(mean, amplitude, period, horizon,
                                                      fade_floor, per_shadow, fast_floor,
                                                      fast_secs, seed, phase):
    args = (mean, amplitude, period, horizon, fade_floor, per_shadow * fast_secs, fast_floor,
            fast_secs, seed, phase)
    assert _hex(ChannelTrace.fading(*args).breakpoints) == _hex(_fading_oracle(*args))


def test_trace_sinusoid_bounds():
    tr = ChannelTrace.sinusoid(30e6, 10e6, 5.0, 20.0)
    rates = [tr.rate_at(t / 100) for t in range(2000)]
    assert min(rates) >= 20e6 - 1e-6
    assert max(rates) <= 40e6 + 1e-6


def test_trace_fading_bounds_and_determinism():
    a = ChannelTrace.fading(30e6, 10e6, 5.0, 10.0, seed=3)
    b = ChannelTrace.fading(30e6, 10e6, 5.0, 10.0, seed=3)
    assert a.breakpoints == b.breakpoints
    # the pairs are rebuilt from the lookup arrays, not kept beside them
    assert "breakpoints" not in vars(a)
    assert a.breakpoints == list(zip(a._times, a._caps))
    c = ChannelTrace.fading(30e6, 10e6, 5.0, 10.0, seed=4)
    assert a.breakpoints != c.breakpoints
    for t, cap in a.breakpoints:
        assert 0 <= cap <= 40e6 + 1e-6


def test_trace_from_file(tmp_path):
    p = tmp_path / "trace.csv"
    p.write_text("# capacity trace\n0.0,40e6\n2.5,20e6  # dip\n\n5.0,40e6\n")
    tr = ChannelTrace.from_file(str(p))
    assert tr.rate_at(0.0) == 5e6  # bits -> bytes
    assert tr.rate_at(3.0) == 2.5e6
    bad = tmp_path / "bad.csv"
    bad.write_text("0.0,40e6\n0.0,30e6\n")
    with pytest.raises(ValueError):
        ChannelTrace.from_file(str(bad))


# -- RLC queue ----------------------------------------------------------------


def _pkt(i, size=1500):
    ft = FiveTuple(1, 2, 10, 20, Proto.TCP)
    return Packet(pkt_id=i, five_tuple=ft, size_bytes=size, ecn=EcnCodepoint.ECT1,
                  created_at=0.0)


def test_enqueue_and_drop_tail():
    q = RlcQueue(DrbConfig(ue_id=1, drb_id=1, max_queue_sdus=256))
    assert q.enqueue(_pkt(1), 1, 0.0) is EnqueueResult.QUEUED
    for i in range(2, 257):
        assert q.enqueue(_pkt(i), i, 0.0) is EnqueueResult.QUEUED
    assert q.enqueue(_pkt(257), 257, 0.0) is EnqueueResult.DROPPED_TAIL
    assert q.dropped_sdus == 1


def test_fifo_order_and_partial_transmit():
    q = RlcQueue(DrbConfig(ue_id=1, drb_id=1))
    for i in (1, 2, 3):
        q.enqueue(_pkt(i), i, 0.0)
    done, used = q.transmit(2500, 1.0)
    assert [c.sn for c in done] == [1]
    assert used == 2500  # 1500 complete + 1000 of the next SDU
    done2, _ = q.transmit(2500, 2.0)
    assert [c.sn for c in done2] == [2, 3]
    assert q.highest_tx_sn == 3


def test_queue_byte_conservation():
    q = RlcQueue(DrbConfig(ue_id=1, drb_id=1, max_queue_sdus=4))
    for i in range(1, 8):
        q.enqueue(_pkt(i), i, 0.0)
    q.transmit(4000, 1.0)
    assert q.admitted_bytes == q.transmitted_bytes + q.standing_bytes
    assert q.dropped_bytes == 3 * 1500


class _NaiveRlc:
    """A byte-level model of an RLC queue: per queued SDU its SN, its unsent
    bytes and when it reached the head.  It shares no code with ``RlcQueue``."""

    def __init__(self, cap):
        self.cap = cap
        self.queued = []  # [sn, unsent bytes, head_at]
        self.done_at = {}  # sn -> (head_at, done_at)
        self.highest_tx_sn = None

    def enqueue(self, sn, size, now):
        if len(self.queued) < self.cap:
            self.queued.append([sn, size, now if not self.queued else None])

    def transmit(self, budget, now):
        left = int(budget)
        completed = []
        while left and self.queued:
            head = self.queued[0]
            step = head[1] if head[1] < left else left
            head[1] -= step
            left -= step
            if head[1] == 0:
                self.queued.pop(0)
                self.done_at[head[0]] = (head[2], now)
                completed.append(head[0])
                self.highest_tx_sn = head[0]
                if self.queued:
                    self.queued[0][2] = now
        return completed, int(budget) - left


@given(ops=st.lists(st.one_of(
    st.tuples(st.just("enqueue"), st.integers(40, 3000)),
    # large budgets complete SDUs; small ones mostly end inside the head
    st.tuples(st.just("transmit"), st.floats(0.0, 10_000.0)),
    st.tuples(st.just("transmit"), st.floats(0.0, 1500.0)),
    # a budget a byte short of, equal to or a byte past the head's unsent bytes
    st.tuples(st.just("head_end"), st.integers(-1, 1)),
), max_size=80), cap=st.integers(1, 12))
def test_rlc_conserves_bytes_under_partial_transmits(ops, cap):
    q = RlcQueue(DrbConfig(ue_id=1, drb_id=1, max_queue_sdus=cap))
    model = _NaiveRlc(cap)
    now, sn = 0.0, 0
    done = []
    for op, arg in ops:
        now += 0.0005
        if op == "enqueue":
            sn += 1
            q.enqueue(_pkt(sn, arg), sn, now)
            model.enqueue(sn, arg, now)
        else:
            if op == "head_end":
                arg = max(0, (model.queued[0][1] if model.queued else 0) + arg)
            completed, used = q.transmit(arg, now)
            assert used <= arg
            assert ([s.sn for s in completed], used) == model.transmit(arg, now)
            assert all((s.head_at, s.done_at) == model.done_at[s.sn] for s in completed)
            assert q.highest_tx_sn == model.highest_tx_sn
            done += completed
        assert q.admitted_bytes == q.transmitted_bytes + q.standing_bytes
        queued = list(q.sdus)
        # only the head may be partly sent: head_left holds its unsent bytes
        # (0 for an empty queue), and every later SDU is whole
        assert q.head_left == (model.queued[0][1] if model.queued else 0)
        assert q.standing_bytes == q.head_left + sum(s.pkt.size_bytes for s in queued[1:])
        assert [(s.sn, s.head_at, s.done_at) for s in queued] \
            == [(m_sn, head_at, None) for m_sn, _, head_at in model.queued]
        assert [s.pkt.size_bytes for s in queued[1:]] == [unsent for _, unsent, _ in model.queued[1:]]
        # the head knows when it got there
        assert not queued or (0 < q.head_left <= queued[0].pkt.size_bytes
                              and queued[0].enq_at <= queued[0].head_at <= now)
    sns = [s.sn for s in done]
    assert sns == sorted(sns) and len(set(sns)) == len(sns)
    assert all(s.enq_at <= s.head_at <= s.done_at for s in done)
    assert q.transmitted_bytes == sum(s.pkt.size_bytes for s in done) + (
        q.sdus[0].pkt.size_bytes - q.head_left if q.sdus else 0)


# -- scheduler ----------------------------------------------------------------


def _ue(ue_id, rate, queued_sdus):
    q = RlcQueue(DrbConfig(ue_id=ue_id, drb_id=1))
    for i in range(1, queued_sdus + 1):
        q.enqueue(_pkt(i), i, 0.0)
    return UeContext(ue_id=ue_id, trace=ChannelTrace.static(rate), queues=[q])


def _transmitting(slot):
    """The DRBs a slot served, in transmit order."""
    return [q for q, _ in slot]


def test_slot_capacity_arithmetic():
    # one UE at 5 MB/s over a 0.5 ms slot: 2500 B per slot within one SDU
    ue = _ue(1, 5e6, 100)
    assert _transmitting(scheduler_slot([ue], SchedulerPolicy.ROUND_ROBIN, 0.0005, 0.0)) \
        == [ue.queue]
    assert abs(ue.queue.transmitted_bytes - 2500) <= 1500


def test_round_robin_equal_split():
    ues = [_ue(1, 5e6, 100), _ue(2, 5e6, 100)]
    for n in range(20):
        scheduler_slot(ues, SchedulerPolicy.ROUND_ROBIN, 0.0005, n * 0.0005)
    served = {ue.ue_id: ue.queue.transmitted_bytes for ue in ues}
    assert abs(served[1] - served[2]) <= 1500


def test_unused_share_redistributed():
    # one of two UEs has an empty queue: the other gets the whole slot
    ues = [_ue(1, 5e6, 100), _ue(2, 5e6, 0)]
    assert _transmitting(scheduler_slot(ues, SchedulerPolicy.ROUND_ROBIN, 0.0005, 0.0)) \
        == [ues[0].queue]
    assert ues[1].queue.transmitted_bytes == 0
    assert abs(ues[0].queue.transmitted_bytes - 2500) <= 1500


def test_proportional_fair_serves_all_backlogged():
    ues = [_ue(1, 5e6, 200), _ue(2, 5e6, 200)]
    for n in range(100):
        scheduler_slot(ues, SchedulerPolicy.PROPORTIONAL_FAIR, 0.0005, n * 0.0005)
    served = {ue.ue_id: ue.queue.transmitted_bytes for ue in ues}
    assert served[1] > 0 and served[2] > 0
    # equal channels and full backlog: long-run shares converge
    assert abs(served[1] - served[2]) / (served[1] + served[2]) < 0.1


@given(data=st.data(), needs=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=8),
       total=st.floats(0.0, 2e6))
def test_water_fill_conserves_total_and_respects_caps(data, needs, total):
    weights = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=len(needs),
                                 max_size=len(needs)))
    alloc = _water_fill(needs, weights, total)
    tol = 1e-9 * max(total, sum(needs), 1.0)
    assert all(0.0 <= a <= n + tol for a, n in zip(alloc, needs))
    # everything is handed out, unless every queue is already capped
    assert math.isclose(sum(alloc), min(total, sum(needs)), rel_tol=1e-9, abs_tol=tol)


@given(need=st.floats(1e-3, 1e7), budget=st.floats(1.0, 1e7))
def test_one_queue_share_equals_water_fill(need, budget):
    # the share scheduler_slot gives a UE with one queue, without the water fill
    assert [budget if budget < need else need] == _water_fill([need], [1.0], budget)


# -- event loop ---------------------------------------------------------------


def test_event_ordering_and_ties():
    loop = EventLoop()
    seen = []

    def record(data, now):
        seen.append((data, now))

    loop.schedule(2.0, EventKind.SENDER_TIMER, record, "b")
    loop.schedule(1.0, EventKind.SENDER_TIMER, record, "a")
    loop.schedule(2.0, EventKind.SENDER_TIMER, record, "c")  # same time: insertion order
    types = []

    def dispatch(ev):
        types.append(type(ev))
        ev.handler(ev.data, ev.at)

    assert loop.run(10.0, dispatch) == 3
    assert seen == [("a", 1.0), ("b", 2.0), ("c", 2.0)] and types == [SimEvent] * 3


def test_causality_enforced():
    def noop(data, now):
        pass

    loop = EventLoop()
    loop.schedule(1.0, EventKind.SENDER_TIMER, noop)
    assert loop.run(1.0, lambda ev: ev.handler(ev.data, ev.at)) == 1
    with pytest.raises(ValueError):
        loop.schedule(0.5, EventKind.SENDER_TIMER, noop)


# -- end-to-end sim properties --------------------------------------------------


def _short_scenario(**kw):
    scn = BUILTIN_SCENARIOS["static-1ue"]()
    scn.horizon_secs = kw.pop("horizon", 6.0)
    scn.warmup_secs = 2.0
    for key, val in kw.items():
        setattr(scn, key, val)
    return scn


def test_simulator_builds_each_channel_trace_once(monkeypatch):
    scn = BUILTIN_SCENARIOS["mobile-16ue"]()
    built = []
    real = ChannelSpec.build

    def counted(spec, horizon):
        trace = real(spec, horizon)
        built.append((spec, horizon, trace))
        return trace

    monkeypatch.setattr(ChannelSpec, "build", counted)
    sim = Simulator(scn)
    # validate() checks each fading channel without building a trace; the
    # full traces are built once each
    full = [(spec, trace) for spec, horizon, trace in built if horizon == scn.horizon_secs]
    assert {ue.channel.kind for ue in scn.ues} == {"fading"}
    assert len(built) == len(scn.ues)
    assert [spec for spec, _ in full] == [ue.channel for ue in scn.ues]
    assert len(sim.ue_ctx) == len(full)
    assert all(ctx.trace is trace for ctx, (_, trace) in zip(sim.ue_ctx, full))


def test_only_a_lossy_bearer_seeds_a_loss_rng():
    scn = _short_scenario()
    scn.ues[0].drbs.append(DrbSpec(drb_id=2, loss_p=0.01))
    sim = Simulator(scn)
    assert sim.queues[(1, 1)].loss_rng is None   # loss_p 0: never drawn
    # the lossy bearer's stream is the one it always drew from
    seed = scn.seed * 1000003 + 1 * 1009 + 2 + 7777777
    assert sim.queues[(1, 2)].loss_rng.random() == random.Random(seed).random()


def test_zero_traffic_terminates():
    scn = _short_scenario()
    scn.ues[0].drbs[0].flows = []
    res = run(scn)
    assert res.events > 0  # slot ticks ran to the horizon
    assert len(res.collector.packets) == 0


def test_udp_flow_downlink_fallback_marking():
    # a UDP sender has no rewritable feedback: congestion shows up as CE
    # marks on the downlink packets the receiver counts
    scn = _short_scenario(horizon=8.0)
    scn.ues[0].channel.capacity_bps = 8e6
    scn.ues[0].drbs[0].flows = [
        FlowSpec(name="u1", kind="udp", feedback="none", udp_rate_bps=10e6),
    ]
    sim = Simulator(scn)
    res = sim.run()
    recs = [r for r in res.collector.packets if r.t >= 2.0]
    assert recs, "udp packets should be delivered"
    rate = sum(r.size_bytes for r in recs) * 8 / 6.0
    assert rate <= 8.6e6  # ceiling: the 8 Mbit/s channel
    recv = sim.flows[0].receiver
    assert recv.ce_bytes > 0, "overloaded queue should CE-mark udp packets"
    assert res.summary["flows"]["u1"]["marks"] > 0


# each valid (kind, feedback) pair: the data codepoint, feedback mode and
# initial congestion-control state the simulator gave it before one table
# declared them (payload MSS 1460 on the default 1500-byte bearer)
PAIRS = {
    ("prague", "accecn"): (EcnCodepoint.ECT1, FeedbackMode.ACC_ECN,
                           PragueState(mss=1460, cwnd=14600.0, round_end_total=14600.0)),
    ("cubic", "classic"): (EcnCodepoint.ECT0, FeedbackMode.CLASSIC_ECN,
                           CubicState(mss=1460, cwnd=14600.0)),
    ("cubic", "none"): (EcnCodepoint.NOT_ECT, FeedbackMode.DOWNLINK_FALLBACK,
                        CubicState(mss=1460, cwnd=14600.0)),
    ("reno", "classic"): (EcnCodepoint.ECT0, FeedbackMode.CLASSIC_ECN,
                          RenoState(mss=1460, cwnd=14600.0)),
    ("reno", "none"): (EcnCodepoint.NOT_ECT, FeedbackMode.DOWNLINK_FALLBACK,
                       RenoState(mss=1460, cwnd=14600.0)),
    ("udp", "none"): (EcnCodepoint.ECT1, FeedbackMode.DOWNLINK_FALLBACK, None),
}


def test_sender_table_keeps_each_pairs_codepoint_mode_and_controller():
    assert {(k, f) for k, s in SENDERS.items() for f in s.data_ecn} == set(PAIRS)
    scn = _short_scenario()
    scn.ues[0].drbs[0].flows = [FlowSpec(name=f"{k}-{f}", kind=k, feedback=f) for k, f in PAIRS]
    sim = Simulator(scn)
    for (kind, feedback), flow in zip(PAIRS, sim.flows):
        assert (flow.data_ecn, flow.feedback_mode, flow.endpoint.cc) == PAIRS[kind, feedback]
        assert flow.receiver.mode is flow.feedback_mode
        assert flow.ft.proto is (Proto.UDP if kind == "udp" else Proto.TCP)


def test_single_packet_delay_breakdown():
    # a lone 14 kB flow on an idle channel: first packet's one-way delay is
    # propagation + delivery delay + about one scheduling slot
    scn = _short_scenario()
    scn.ues[0].drbs[0].flows = [FlowSpec(name="one", kind="prague", size_bytes=1460,
                                         think_secs=0.0)]
    res = run(scn)
    recs = [r for r in res.collector.packets if r.size_bytes > 40]
    assert len(recs) == 1
    rec = recs[0]
    expected = scn.delays.dl_prop_secs + 0.008  # + at most one slot of scheduling
    assert expected - 1e-9 <= rec.one_way <= expected + 2 * scn.slot_secs
    assert rec.queuing >= 0 and rec.scheduling >= 0 and rec.retransmission >= 0


def test_same_seed_identical_metrics():
    from l4span.harness.metrics import record_lines

    a, b = run(_short_scenario()), run(_short_scenario())
    assert list(record_lines(a.collector.packets)) == list(record_lines(b.collector.packets))
    assert list(record_lines(a.collector.intervals)) == list(record_lines(b.collector.intervals))


def test_sim_byte_conservation_and_causality():
    scn = _short_scenario()
    sim = Simulator(scn)
    res = sim.run()
    for key, q in sim.queues.items():
        assert q.admitted_bytes == q.transmitted_bytes + q.standing_bytes
    # transmit times do not decrease in SN order, and untransmitted entries
    # come last (front-only eviction relies on both)
    entries = sim.layers[(1, 1)].profile.entries
    stamps = [e.t_transmit for e in entries if e.t_transmit is not None]
    assert stamps == sorted(stamps)
    assert all(e.t_transmit is None for e in list(entries)[len(stamps):])
    assert [e.pdcp_sn for e in entries] == sorted(e.pdcp_sn for e in entries)
    # the one-way delay equals the sum of its breakdown components exactly
    for r in res.collector.packets:
        total = r.propagation + r.queuing + r.scheduling + r.retransmission
        assert r.one_way == pytest.approx(total, abs=1e-9)
        assert min(r.propagation, r.queuing, r.scheduling, r.retransmission) >= 0


def test_profile_trims_itself_within_the_horizon(monkeypatch):
    # every status message that stamps anything evicts through gc_delivered,
    # so a wrapper on it (as the benchmark's entries_max uses) sees evictions
    removed = []
    real = ProfileTable.gc_delivered

    def checked(table, keep_horizon_secs, now):
        n = real(table, keep_horizon_secs, now)
        removed.append(n)
        assert keep_horizon_secs == KEEP_HORIZON_SECS
        head = table.entries[0].t_transmit if table.entries else None
        assert head is None or head >= now - KEEP_HORIZON_SECS
        return n

    monkeypatch.setattr(ProfileTable, "gc_delivered", checked)
    sim = Simulator(_short_scenario(horizon=3.0))
    sim.run()
    assert len(removed) > 1000 and sum(removed) > 0


def test_throughput_never_exceeds_capacity():
    scn = _short_scenario(horizon=8.0)
    res = run(scn)
    served = res.summary["ues"][1]["served_bytes_steady"]
    possible = res.summary["ues"][1]["capacity_bytes_steady"]
    assert served <= possible + 1500


def test_am_um_deliver_identical_bytes():
    def bytes_delivered(mode):
        scn = _short_scenario()
        scn.ues[0].drbs[0].rlc_mode = mode
        res = run(scn)
        return sum(r.size_bytes for r in res.collector.packets)

    am, um = bytes_delivered("am"), bytes_delivered("um")
    # same closed loop modulo the delivery delay's effect on the control
    # loop; both deliver every transmitted byte exactly once
    assert am > 0 and um > 0

    # stronger check without the closed loop: identical open-loop drains
    for mode in (RlcMode.AM, RlcMode.UM):
        q = RlcQueue(DrbConfig(ue_id=1, drb_id=1, rlc_mode=mode))
        for i in range(1, 11):
            q.enqueue(_pkt(i), i, 0.0)
        done, used = q.transmit(15000, 1.0)
        assert [c.sn for c in done] == list(range(1, 11))
        assert used == 15000


def test_um_mode_runs_and_has_no_retransmission_delay():
    scn = _short_scenario()
    scn.ues[0].drbs[0].rlc_mode = "um"
    res = run(scn)
    recs = [r for r in res.collector.packets if r.t >= 2.0]
    assert recs
    assert all(r.retransmission == 0.0 for r in recs)


def test_am_delivery_delay_applied():
    scn = _short_scenario()
    res = run(scn)
    recs = [r for r in res.collector.packets if r.t >= 2.0]
    assert recs
    assert all(abs(r.retransmission - 0.008) < 1e-9 for r in recs)


# -- marking layer --------------------------------------------------------------


def test_a_forgotten_flow_does_not_measure_its_handshake_again():
    # flow a idles past IDLE_FLOW_FORGET_SECS while b keeps the bearer busy,
    # so the layer forgets a; when a resumes it has no handshake RTT, rather
    # than one measured from its old SYN (12 s here)
    layer = DrbLayer(MarkParams(), DEFAULT_WINDOW_SECS)
    a, b = FiveTuple(1, 2, 10, 20, Proto.TCP), FiveTuple(1, 2, 11, 20, Proto.TCP)

    def send(ft, now, flags=0):
        pkt = Packet(pkt_id=0, five_tuple=ft, size_bytes=1500, ecn=EcnCodepoint.ECT0,
                     created_at=now, tcp=TcpFields(flags=flags))
        layer.on_dl_pkt(pkt, True, now)

    for ft in (a, b):
        send(ft, 0.0, SYN)
        send(ft, 0.05)
    state = layer.mark_state
    assert state.weighted_rtt_star() == pytest.approx(0.05)
    for t in range(1, 12):
        send(b, float(t))
    assert a not in state.flows
    send(a, 12.0)
    assert a in state.flows
    assert state.weighted_rtt_star() == pytest.approx(0.05)


def test_feedback_refreshes_only_on_new_input(monkeypatch):
    # a status message with new input makes a refresh due; the refresh runs at
    # the first read (the next downlink packet, or mark_state), and the reads
    # here count the refreshes
    calls = []
    real_refresh = layer_mod.refresh_probabilities

    def counting_refresh(state, params, est):
        calls.append(est)
        real_refresh(state, params, est)

    monkeypatch.setattr(layer_mod, "refresh_probabilities", counting_refresh)
    layer = DrbLayer(MarkParams(tau_thr=0.005, rng_seed=1), DEFAULT_WINDOW_SECS)
    now = 0.0
    # one packet in and one out per 0.5 ms, ten behind, with uneven sizes: the
    # estimate has a finite error width and the standing queue sits near the
    # threshold, so p_l4s is strictly between 0 and 1
    for i in range(1, 81):
        now += 0.0005
        layer.on_dl_pkt(_pkt(i, 600 + 300 * (i % 4)), True, now)
        if i > 10:
            layer.on_ran_feedback(i - 10, now)
    sn = 70
    # the next packet ran each message's refresh, and this read runs the last
    assert len(calls) == 69
    state = layer.mark_state
    assert len(calls) == 70 and 0.0 < state.p_l4s < 1.0
    before = (state.p_l4s, state.last_estimate)
    layer.mark_state
    assert len(calls) == 70  # a read with nothing due refreshes nothing

    # a repeat status with no new SN and no downlink packet: no refresh
    assert layer.on_ran_feedback(sn, now + 0.0001) is None
    assert (layer.mark_state.p_l4s, layer.mark_state.last_estimate) == before
    assert len(calls) == 70

    # a tail-dropped packet still counts as new input
    layer.on_dl_pkt(_pkt(100), False, now + 0.0002)
    layer.on_ran_feedback(sn, now + 0.0003)
    assert len(calls) == 70
    assert layer.mark_state.p_l4s == before[0]
    assert len(calls) == 71

    # an admitted packet: the next status makes a refresh due, and p_l4s follows the queue
    layer.on_dl_pkt(_pkt(101, 100), True, now + 0.0004)
    layer.on_ran_feedback(sn, now + 0.0005)
    state = layer.mark_state
    assert len(calls) == 72
    est = state.last_estimate
    assert est.n_queue == before[1].n_queue + 100 == layer.profile.queued_bytes
    assert state.p_l4s == p_l4s(est.n_queue, est.r_hat, est.e_hat, 0.005)
    assert before[0] < state.p_l4s < 1.0

    # two stamping messages before a read: the second supersedes the first's refresh
    layer.on_ran_feedback(sn + 2, now + 0.0006)
    layer.on_ran_feedback(sn + 4, now + 0.0007)
    assert layer.mark_state.last_estimate.n_queue == layer.profile.queued_bytes
    assert len(calls) == 73


def test_a_repeated_status_message_changes_no_state():
    # a bearer whose packets were all transmitted before t = 1 s; with no
    # downlink packet since, 1,024 repeats of the applied SN at t = 2 s
    # leave the layer and its profile as they were
    layer = DrbLayer(MarkParams(rng_seed=1), DEFAULT_WINDOW_SECS)
    now = 0.0
    for i in range(1, 41):
        now += 0.0005
        layer.on_dl_pkt(_pkt(i), True, now)
        layer.on_ran_feedback(i, now)
    layer.on_ran_feedback(40, 0.5)
    before = pickle.dumps(layer)
    for _ in range(1024):
        layer.on_ran_feedback(40, 2.0)
    assert pickle.dumps(layer) == before
    assert len(layer.profile.entries) == 40
