"""``Simulator`` against a reference that takes no shortcut on the slot path.

``ReferenceSimulator`` does the obvious thing in every slot.  Its scheduler,
``eager_slot``, serves every UE: it looks up each backlogged UE's capacity
on the trace, divides the slot and each UE's share with the water-fill
oracles of ``tests/test_scheduler.py``, sends every share through
``RlcQueue.transmit`` and updates every UE's proportional-fair average.
After the slot it gives every DRB that transmitted and has a transmitted SN
its status message, whose layer refreshes its estimate and probabilities at
once (``eager_on_ran_feedback``, whose rule is: refresh on a newly stamped
SN, or on a repeat that follows a downlink packet).  Like ``Simulator`` it
does a slot's work in one pass inside the tick, deliveries and messages in
transmit order.  Whatever ``Simulator`` skips, caches or defers instead (the
UEs it does not pass, the segment it keeps, the decays it applies late, the
head counters it moves itself, the refreshes it leaves to the first read),
its packets, intervals and summary streams must equal the reference's byte
for byte.

Random short scenarios cover every channel kind but ``file``, every sender,
AQM and RLC kind, both schedulers, air loss, zero-delay AM deliveries, and
path delays of zero and of one slot, which put an ACK's or a downlink
packet's arrival at a slot's own instant.  A fixed scenario forces such a
tie on the downlink and checks the packet sees the slot's status message.
"""

from __future__ import annotations

import json
import types
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from l4span.core import EstimateUnavailable
from l4span.harness.metrics import record_lines
from l4span.harness.scenario import (
    AqmSpec,
    ChannelSpec,
    DrbSpec,
    FlowSpec,
    PathDelays,
    Scenario,
    UeSpec,
)
from l4span.ransim.events import EventKind
from l4span.ransim.layer import refresh_probabilities
from l4span.ransim.scheduler import _PF_RATE_FLOOR, PF_EWMA_HORIZON_SECS, SchedulerPolicy
from l4span.ransim.sim import Simulator
from test_scheduler import oracle_queue_shares, oracle_water_fill

SLOT_SECS = 0.0005


def eager_on_ran_feedback(layer, highest_tx_sn: int, now: float) -> None:
    """Apply a status message and refresh at once when its inputs changed:
    a newly stamped SN, or a downlink packet since the last refresh."""
    stamped = 0
    if highest_tx_sn != layer._applied_tx_sn:
        stamped = layer.profile.on_f1u_feedback(highest_tx_sn, now)
        layer._applied_tx_sn = highest_tx_sn
    if not stamped and not layer.dl_since_refresh:
        return
    layer.dl_since_refresh = False
    try:
        est = layer.profile.egress_rate_smoothed()
    except EstimateUnavailable:
        return
    refresh_probabilities(layer.mark_state, layer.params, est)


def eager_slot(ues, policy, slot_len_secs, now):
    """Serve one slot over every UE, as ``scheduler_slot`` does with no
    shortcut: the capacity looked up every slot, the water-fill oracle for
    the UE split (one row too), the queue oracle for each UE's backlogged
    queues (one queue too), ``RlcQueue.transmit`` for every share of at
    least one byte, and every UE's PF average updated every slot.  Returns
    each DRB that moved bytes with the SDUs it completed, in transmit order."""
    pf = policy is SchedulerPolicy.PROPORTIONAL_FAIR
    rows = []
    needs = []
    weights = []
    for i, ue in enumerate(ues):
        standing = sum(q.standing_bytes for q in ue.queues)
        if standing > 0:
            cap = ue.trace.segment_at(now)[0]
            if cap > 0:
                rows.append((i, cap))
                needs.append(min(1.0, standing / (cap * slot_len_secs)))
                weights.append(cap / max(ue.ewma_rate, _PF_RATE_FLOOR) if pf else 1.0)
    sent = []
    served = [0] * len(ues)
    for (i, cap), fraction in zip(rows, oracle_water_fill(needs, weights, 1.0)):
        budget = fraction * cap * slot_len_secs
        if budget < 1:
            continue
        queues = [q for q in ues[i].queues if q.standing_bytes > 0]
        for q, share in zip(queues, oracle_queue_shares([float(q.standing_bytes) for q in queues],
                                                        budget)):
            if share < 1:
                continue
            completed, used = q.transmit(share, now)
            if used:
                sent.append((q, completed))
                served[i] += used
    alpha = slot_len_secs / PF_EWMA_HORIZON_SECS
    for i, ue in enumerate(ues):
        ue.ewma_rate = (1.0 - alpha) * ue.ewma_rate + alpha * (served[i] / slot_len_secs)
    return sent


class ReferenceSimulator(Simulator):
    """Every UE in every slot through ``eager_slot``, a status message to
    every DRB that transmitted, and eager refreshes."""

    def __init__(self, scenario):
        super().__init__(scenario)
        for layer in self.layers.values():
            layer.on_ran_feedback = types.MethodType(eager_on_ran_feedback, layer)

    def _slot_tick(self, n: int, now: float) -> None:
        sent = eager_slot(self.ue_ctx, self._policy, self.scn.slot_secs, now)
        if n > 0 and n % self._slots_per_interval == 0:
            self._close_interval(now)
        if self._warmup_from <= now < self._warmup_to:
            for ctx in self.ue_ctx:
                self._ue_served_at_warmup[ctx.ue_id] = sum(q.transmitted_bytes for q in ctx.queues)
        for b, completed in sent:
            drb = b.spec
            for sdu in completed:
                flow = self.flow_by_tuple[sdu.pkt.five_tuple]
                lost = drb.loss_p > 0 and b.loss_rng.random() < drb.loss_p
                if b.am:
                    delay = drb.delivery_delay_secs + (drb.arq_delay_secs if lost else 0.0)
                    if delay > 0:
                        self.loop.schedule(now + delay, EventKind.DELIVER_TO_UE, self._deliver,
                                           (flow, sdu))
                    else:
                        self._deliver((flow, sdu), now)
                elif not lost:
                    self._deliver((flow, sdu), now)
            if b.highest_tx_sn is not None:
                b.layer.on_ran_feedback(b.highest_tx_sn, now)
        nxt = (n + 1) * self.scn.slot_secs
        if nxt <= self.scn.horizon_secs:
            self.loop.schedule(nxt, EventKind.SLOT_TICK, self._slot_tick, n + 1)


def streams(result) -> tuple[list[str], list[str], str]:
    c = result.collector
    return (list(record_lines(c.packets)), list(record_lines(c.intervals)),
            json.dumps(result.summary, indent=2, sort_keys=True))


class WatchingSimulator(Simulator):
    """``Simulator`` that counts the events it dispatches by kind, and for
    each downlink packet handled at the instant of the tick that ran last,
    records whether that tick completed SDUs on the packet's bearer and
    whether the bearer's layer had applied its highest transmitted SN."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.dispatched = Counter()
        self.tick_at = None
        self.completed_in_tick = set()
        self.ties = []  # (bearer completed SDUs in the tick, layer applied its SN)

    def _dispatch(self, ev) -> None:
        self.dispatched[ev.kind] += 1
        super()._dispatch(ev)

    def _slot_tick(self, n: int, now: float) -> None:
        before = {key: q.highest_tx_sn for key, q in self.queues.items()}
        super()._slot_tick(n, now)
        self.tick_at = now
        self.completed_in_tick = {key for key, q in self.queues.items()
                                  if q.highest_tx_sn != before[key]}

    def _arrive_downlink(self, data, now: float) -> None:
        if now == self.tick_at:
            q = data[0].bearer
            self.ties.append((q.drb.key in self.completed_in_tick,
                              q.layer._applied_tx_sn == q.highest_tx_sn))
        super()._arrive_downlink(data, now)


def assert_same_streams(scn_factory) -> WatchingSimulator:
    sim = WatchingSimulator(scn_factory())
    got = streams(sim.run())
    want = streams(ReferenceSimulator(scn_factory()).run())
    assert got[2] == want[2]
    assert got[0] == want[0]
    assert got[1] == want[1]
    return sim


# -- random scenarios -----------------------------------------------------------

_CHANNELS = st.one_of(
    st.builds(ChannelSpec, kind=st.just("static"),
              capacity_bps=st.sampled_from([4e6, 10e6, 25e6])),
    st.builds(ChannelSpec, kind=st.just("step"), low_bps=st.sampled_from([3e6, 8e6]),
              high_bps=st.sampled_from([12e6, 20e6]), period_secs=st.sampled_from([0.3, 0.8])),
    st.builds(ChannelSpec, kind=st.just("sinusoid"), mean_bps=st.sampled_from([8e6, 15e6]),
              amplitude_bps=st.sampled_from([2e6, 6e6]), period_secs=st.sampled_from([0.5, 1.0]),
              phase=st.sampled_from([0.0, 0.3])),
    st.builds(ChannelSpec, kind=st.just("fading"), mean_bps=st.sampled_from([8e6, 15e6]),
              amplitude_bps=st.sampled_from([2e6, 6e6]), period_secs=st.sampled_from([0.5, 1.0]),
              fade_seed=st.integers(1, 5)),
)
# (sender kind, the feedback channels it reads)
_SENDERS = [("prague", ["accecn"]), ("cubic", ["classic", "none"]),
            ("reno", ["classic", "none"]), ("udp", ["none"])]


@st.composite
def _flow(draw, name: str, horizon: float) -> FlowSpec:
    kind, feedbacks = draw(st.sampled_from(_SENDERS))
    start = draw(st.sampled_from([0.0, 0.05, 0.2, 0.6]))
    stop = draw(st.sampled_from([None, start + 0.4]))
    return FlowSpec(
        name=name, kind=kind, feedback=draw(st.sampled_from(feedbacks)), start=start,
        stop=stop if stop is not None and stop < horizon else None,
        size_bytes=draw(st.sampled_from([None, None, 15_000, 60_000])),
        udp_rate_bps=draw(st.sampled_from([1e6, 4e6])),
    )


@st.composite
def scenarios(draw) -> Scenario:
    horizon = draw(st.sampled_from([1.0, 1.5, 2.0]))
    ues = []
    for u in range(1, draw(st.integers(1, 4)) + 1):
        drbs = []
        for d in range(1, draw(st.integers(1, 2)) + 1):
            drbs.append(DrbSpec(
                drb_id=d,
                rlc_mode=draw(st.sampled_from(["am", "um"])),
                loss_p=draw(st.sampled_from([0.0, 0.0, 0.01, 0.05])),
                delivery_delay_secs=draw(st.sampled_from([0.008, 0.0])),
                max_queue_sdus=draw(st.sampled_from([16384, 40])),
                flows=[draw(_flow(f"f{u}-{d}-{i}", horizon))
                       for i in range(draw(st.integers(1, 2)))],
            ))
        ues.append(UeSpec(ue_id=u, channel=draw(_CHANNELS), drbs=drbs))
    return Scenario(
        name="reference", horizon_secs=horizon, warmup_secs=0.25, seed=draw(st.integers(1, 99)),
        scheduler=draw(st.sampled_from(["round_robin", "proportional_fair"])), ues=ues,
        aqm=AqmSpec(kind=draw(st.sampled_from(["l4span", "dualpi2step", "none"])),
                    short_circuit=draw(st.booleans())),
        # each path delay at its default, one slot or none
        delays=PathDelays(**{name: draw(st.sampled_from([default, SLOT_SECS, 0.0]))
                             for name, default in vars(PathDelays()).items()}),
    )


@settings(max_examples=40, deadline=None)
@given(scn=scenarios())
def test_streams_equal_the_reference_simulators(scn):
    assert_same_streams(lambda: scn)


def test_a_packet_at_a_ticks_instant_sees_the_slots_status_message():
    # with no server->CU delay, a UDP sender's timer due at a slot's instant
    # runs before that slot's tick and its packet reaches the CU at the same
    # instant, after the tick; a Prague flow keeps the bearer backlogged, so
    # some of those ticks completed SDUs on it
    def tie() -> Scenario:
        return Scenario(
            name="downlink-tie", horizon_secs=1.0, warmup_secs=0.25, seed=3,
            ues=[UeSpec(ue_id=1, channel=ChannelSpec(kind="static", capacity_bps=10e6), drbs=[
                DrbSpec(rlc_mode="um", flows=[
                    FlowSpec(name="prague-1", kind="prague"),
                    FlowSpec(name="udp-1", kind="udp", feedback="none", udp_rate_bps=4e6),
                ]),
            ])],
            delays=PathDelays(dl_prop_secs=0.0),
        )

    sim = assert_same_streams(tie)
    assert sum(completed for completed, _ in sim.ties) >= 10
    assert all(applied for _, applied in sim.ties)
    assert sim.dispatched[EventKind.F1U_FEEDBACK] == 0
