import math
from bisect import bisect_right

import pytest
from hypothesis import given
from hypothesis import strategies as st

from l4span.core import (
    Direction,
    DrbConfig,
    EcnCodepoint,
    FiveTuple,
    Packet,
    Proto,
    RlcMode,
)
from l4span.harness.scenario import BUILTIN_SCENARIOS, FlowSpec
from l4span.marking import MarkParams, p_l4s
from l4span.profile import DEFAULT_WINDOW_SECS
from l4span.ransim import layer as layer_mod
from l4span.ransim.channel import ChannelTrace
from l4span.ransim.events import EventKind, EventLoop
from l4span.ransim.layer import DrbLayer
from l4span.ransim.rlc import EnqueueResult, RlcQueue
from l4span.ransim.scheduler import (
    SchedulerPolicy,
    UeContext,
    _queue_shares,
    _water_fill,
    scheduler_slot,
)
from l4span.ransim.sim import Simulator, run


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
            st.floats(-5.0, -1e-9),                # before zero: must raise
        ),
        max_size=40,
    ),
)
def test_trace_cursor_matches_bisect_oracle(gaps, caps, picks):
    times = [0.0]
    for g in gaps:
        times.append(times[-1] + g)
    tr = ChannelTrace(list(zip(times, caps)))
    for pick in picks:
        t = times[pick % len(times)] if isinstance(pick, int) else pick
        if t < 0:
            with pytest.raises(ValueError):
                tr.rate_at(t)
        else:
            assert tr.rate_at(t) == caps[bisect_right(times, t) - 1]


def test_trace_validation():
    with pytest.raises(ValueError):
        ChannelTrace([(0.0, 1.0), (0.0, 2.0)])  # not strictly increasing
    with pytest.raises(ValueError):
        ChannelTrace([(0.0, -1.0)])
    with pytest.raises(ValueError):
        ChannelTrace([(1.0, 5.0)])  # must start at 0


def test_trace_integral():
    tr = ChannelTrace([(0.0, 10.0), (1.0, 20.0)])
    assert tr.integral(0.0, 2.0) == pytest.approx(30.0)
    assert tr.integral(0.5, 1.5) == pytest.approx(5.0 + 10.0)
    assert tr.integral(2.0, 1.0) == 0.0


def test_trace_sinusoid_bounds():
    tr = ChannelTrace.sinusoid(30e6, 10e6, 5.0, 20.0)
    rates = [tr.rate_at(t / 100) for t in range(2000)]
    assert min(rates) >= 20e6 - 1e-6
    assert max(rates) <= 40e6 + 1e-6


def test_trace_fading_bounds_and_determinism():
    a = ChannelTrace.fading(30e6, 10e6, 5.0, 10.0, seed=3)
    b = ChannelTrace.fading(30e6, 10e6, 5.0, 10.0, seed=3)
    assert a.breakpoints == b.breakpoints
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
                  direction=Direction.DOWNLINK, created_at=0.0)


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


def test_delivery_pointer_in_order():
    q = RlcQueue(DrbConfig(ue_id=1, drb_id=1))
    for i in (1, 2, 3):
        q.enqueue(_pkt(i), i, 0.0)
    q.transmit(4500, 1.0)
    q.mark_delivered(2)  # out of order: held back
    assert q.highest_dlv_sn is None
    q.mark_delivered(1)
    assert q.highest_dlv_sn == 2
    q.mark_delivered(3)
    assert q.highest_dlv_sn == 3


# -- scheduler ----------------------------------------------------------------


def _ue(ue_id, rate, queued_sdus):
    ctx = UeContext(ue_id=ue_id, trace=ChannelTrace.static(rate))
    q = RlcQueue(DrbConfig(ue_id=ue_id, drb_id=1))
    for i in range(1, queued_sdus + 1):
        q.enqueue(_pkt(i), i, 0.0)
    ctx.queues.append(q)
    return ctx


def test_slot_capacity_arithmetic():
    # one UE at 5 MB/s over a 0.5 ms slot: 2500 B per slot within one SDU
    ue = _ue(1, 5e6, 100)
    reports = scheduler_slot([ue], SchedulerPolicy.ROUND_ROBIN, 0.0005, 0.0)
    assert len(reports) == 1
    assert abs(reports[0].used_bytes - 2500) <= 1500


def test_round_robin_equal_split():
    ues = [_ue(1, 5e6, 100), _ue(2, 5e6, 100)]
    served = {1: 0, 2: 0}
    for n in range(20):
        for rep in scheduler_slot(ues, SchedulerPolicy.ROUND_ROBIN, 0.0005, n * 0.0005):
            served[rep.queue.drb.ue_id] += rep.used_bytes
    assert abs(served[1] - served[2]) <= 1500


def test_unused_share_redistributed():
    # one of two UEs has an empty queue: the other gets the whole slot
    ues = [_ue(1, 5e6, 100), _ue(2, 5e6, 0)]
    reports = scheduler_slot(ues, SchedulerPolicy.ROUND_ROBIN, 0.0005, 0.0)
    assert len(reports) == 1
    assert reports[0].queue.drb.ue_id == 1
    assert abs(reports[0].used_bytes - 2500) <= 1500


def test_proportional_fair_serves_all_backlogged():
    ues = [_ue(1, 5e6, 200), _ue(2, 5e6, 200)]
    served = {1: 0, 2: 0}
    for n in range(100):
        for rep in scheduler_slot(ues, SchedulerPolicy.PROPORTIONAL_FAIR, 0.0005, n * 0.0005):
            served[rep.queue.drb.ue_id] += rep.used_bytes
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
    assert _queue_shares([need], budget) == _water_fill([need], [1.0], budget)


# -- event loop ---------------------------------------------------------------


def test_event_ordering_and_ties():
    loop = EventLoop()
    seen = []
    loop.schedule(2.0, EventKind.SENDER_TIMER, "b")
    loop.schedule(1.0, EventKind.SENDER_TIMER, "a")
    loop.schedule(2.0, EventKind.SENDER_TIMER, "c")  # same time: insertion order
    loop.run(10.0, lambda ev: seen.append(ev.data))
    assert seen == ["a", "b", "c"]


def test_causality_enforced():
    loop = EventLoop()
    loop.schedule(1.0, EventKind.SENDER_TIMER, None)
    loop.pop()
    with pytest.raises(ValueError):
        loop.schedule(0.5, EventKind.SENDER_TIMER, None)


# -- end-to-end sim properties --------------------------------------------------


def _short_scenario(**kw):
    scn = BUILTIN_SCENARIOS["static-1ue"]()
    scn.horizon_secs = kw.pop("horizon", 6.0)
    scn.warmup_secs = 2.0
    for key, val in kw.items():
        setattr(scn, key, val)
    return scn


def test_zero_traffic_terminates():
    scn = _short_scenario()
    scn.ues[0].drbs[0].flows = []
    res = run(scn)
    assert res.events > 0  # slot ticks ran to the horizon
    assert res.collector.packets == []


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
    from l4span.harness.metrics import dumps_intervals, dumps_packets

    a, b = run(_short_scenario()), run(_short_scenario())
    assert dumps_packets(a.collector.packets) == dumps_packets(b.collector.packets)
    assert dumps_intervals(a.collector.intervals) == dumps_intervals(b.collector.intervals)


def test_sim_byte_conservation_and_causality():
    scn = _short_scenario()
    sim = Simulator(scn)
    res = sim.run()
    for key, q in sim.queues.items():
        assert q.admitted_bytes == q.transmitted_bytes + q.standing_bytes
    # profile timestamps are causal for every delivered entry
    layer = sim.layers[(1, 1)]
    for e in layer.profile.entries:
        if e.t_transmit is not None:
            assert e.t_ingress <= e.t_transmit
        if e.t_deliver is not None:
            assert e.t_transmit <= e.t_deliver
    # the one-way delay equals the sum of its breakdown components exactly
    for r in res.collector.packets:
        total = r.propagation + r.queuing + r.scheduling + r.retransmission
        assert r.one_way == pytest.approx(total, abs=1e-9)
        assert min(r.propagation, r.queuing, r.scheduling, r.retransmission) >= 0


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


def test_feedback_refreshes_only_on_new_input(monkeypatch):
    calls = []
    real_refresh = layer_mod.refresh_probabilities

    def counting_refresh(state, params, est):
        calls.append(est)
        real_refresh(state, params, est)

    monkeypatch.setattr(layer_mod, "refresh_probabilities", counting_refresh)
    layer = DrbLayer(DrbConfig(ue_id=1, drb_id=1), MarkParams(tau_thr=0.005, rng_seed=1),
                     DEFAULT_WINDOW_SECS)
    now = 0.0
    # one packet in and one out per 0.5 ms, ten behind, with uneven sizes: the
    # estimate has a finite error width and the standing queue sits near the
    # threshold, so p_l4s is strictly between 0 and 1
    for i in range(1, 81):
        now += 0.0005
        layer.on_dl_pkt(_pkt(i, 600 + 300 * (i % 4)), True, now)
        if i > 10:
            layer.on_ran_feedback(i - 10, None, now)
    sn = 70
    state = layer.mark_state
    assert len(calls) == 70 and 0.0 < state.p_l4s < 1.0
    before = (state.p_l4s, state.last_estimate)

    # a repeat status with no new SN and no downlink packet: no refresh
    assert layer.on_ran_feedback(sn, None, now + 0.0001) is before[1]
    assert len(calls) == 70 and (state.p_l4s, state.last_estimate) == before

    # a tail-dropped packet still counts as new input
    layer.on_dl_pkt(_pkt(100), False, now + 0.0002)
    layer.on_ran_feedback(sn, None, now + 0.0003)
    assert len(calls) == 71 and state.p_l4s == before[0]

    # an admitted packet: the next status refreshes and p_l4s follows the queue
    layer.on_dl_pkt(_pkt(101, 100), True, now + 0.0004)
    est = layer.on_ran_feedback(sn, None, now + 0.0005)
    assert len(calls) == 72
    assert est.n_queue == before[1].n_queue + 100 == layer.profile.queued_bytes
    assert state.p_l4s == p_l4s(est.n_queue, est.r_hat, est.e_hat, 0.005)
    assert before[0] < state.p_l4s < 1.0
