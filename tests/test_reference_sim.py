"""``Simulator`` against a reference that takes no shortcut on the slot path.

``ReferenceSimulator`` does the obvious thing in every slot: it passes every
UE to the scheduler, schedules the slot's post-slot work as an
``F1U_FEEDBACK`` event whenever the slot transmitted, and lets each bearer's
layer refresh its estimate and probabilities at the status message itself
(``eager_on_ran_feedback``, whose rule is: refresh on a newly stamped SN, or
on a repeat that follows a downlink packet).  Whatever ``Simulator`` skips,
defers or runs inline instead, its packets, intervals and summary streams
must equal the reference's byte for byte.

Random short scenarios cover every channel kind but ``file``, every sender,
AQM and RLC kind, both schedulers, air loss, zero-delay AM deliveries and
uplink legs that put an ACK's arrival at a slot's own instant.  A fixed
scenario forces such a tie on a UM bearer.
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
from l4span.ransim.scheduler import scheduler_slot
from l4span.ransim.sim import Simulator

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


class ReferenceSimulator(Simulator):
    """Every UE in every slot, a post-slot event in every slot that
    transmitted, and eager refreshes."""

    def __init__(self, scenario):
        super().__init__(scenario)
        for layer in self.layers.values():
            layer.on_ran_feedback = types.MethodType(eager_on_ran_feedback, layer)

    def _slot_tick(self, n: int, now: float) -> None:
        completions, partial = scheduler_slot(self.ue_ctx, self._policy, self.scn.slot_secs, now)
        post = []
        for b, completed in completions:
            drb = b.spec
            deliveries = []
            for sdu in completed:
                flow = self.flow_by_tuple[sdu.pkt.five_tuple]
                if b.am:
                    delay = drb.delivery_delay_secs
                    if drb.loss_p > 0 and b.loss_rng.random() < drb.loss_p:
                        delay += drb.arq_delay_secs
                    if delay > 0:
                        self.loop.schedule(now + delay, EventKind.DELIVER_TO_UE, self._deliver,
                                           (flow, sdu))
                        continue
                elif drb.loss_p > 0 and b.loss_rng.random() < drb.loss_p:
                    continue
                deliveries.append((flow, sdu))
            post.append((b, deliveries))
        if post or partial:
            self.loop.schedule(now, EventKind.F1U_FEEDBACK, self._post_slot, (post, partial))
        if n > 0 and n % self._slots_per_interval == 0:
            self._close_interval(now)
        if self._warmup_from <= now < self._warmup_to:
            for ctx in self.ue_ctx:
                self._ue_served_at_warmup[ctx.ue_id] = sum(q.transmitted_bytes for q in ctx.queues)
        nxt = (n + 1) * self.scn.slot_secs
        if nxt <= self.scn.horizon_secs:
            self.loop.schedule(nxt, EventKind.SLOT_TICK, self._slot_tick, n + 1)

    def _post_slot(self, data, now: float) -> None:
        batch, partial = data
        for b, deliveries in batch:
            for item in deliveries:
                self._deliver(item, now)
            b.layer.on_ran_feedback(b.highest_tx_sn, now)
        for b in partial:
            if b.layer.dl_since_refresh and b.highest_tx_sn is not None:
                b.layer.on_ran_feedback(b.highest_tx_sn, now)


def streams(result) -> tuple[list[str], list[str], str]:
    c = result.collector
    return (list(record_lines(c.packets)), list(record_lines(c.intervals)),
            json.dumps(result.summary, indent=2, sort_keys=True))


class CountingSimulator(Simulator):
    """``Simulator`` that counts the events it dispatches by kind, and the
    handlers of its ``F1U_FEEDBACK`` events."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.dispatched = Counter()
        self.feedback_handlers = set()

    def _dispatch(self, ev) -> None:
        self.dispatched[ev.kind] += 1
        if ev.kind is EventKind.F1U_FEEDBACK:
            self.feedback_handlers.add(ev.handler.__func__)
        super()._dispatch(ev)


def assert_same_streams(scn_factory) -> CountingSimulator:
    sim = CountingSimulator(scn_factory())
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
        delays=PathDelays(ran_ul_secs=draw(st.sampled_from([0.002, SLOT_SECS, 0.0]))),
    )


@settings(max_examples=40, deadline=None)
@given(scn=scenarios())
def test_streams_equal_the_reference_simulators(scn):
    assert_same_streams(lambda: scn)


def test_an_event_due_at_the_ticks_instant_keeps_its_post_slot_event():
    # on a UM bearer a delivery runs in the post-slot work, and with a
    # one-slot uplink leg its ACK reaches the CU at a later slot's instant,
    # scheduled after that slot's tick: the tick ends with the ACK still due
    def tie() -> Scenario:
        return Scenario(
            name="uplink-tie", horizon_secs=1.0, warmup_secs=0.25, seed=3,
            ues=[UeSpec(ue_id=1, channel=ChannelSpec(kind="static", capacity_bps=10e6), drbs=[
                DrbSpec(rlc_mode="um", flows=[FlowSpec(name="prague-1", kind="prague")]),
            ])],
            delays=PathDelays(ran_ul_secs=SLOT_SECS),
        )

    sim = assert_same_streams(tie)
    assert sim.dispatched[EventKind.F1U_FEEDBACK] >= 1
    assert sim.feedback_handlers == {Simulator._post_slot}
