"""Closed-loop discrete-event simulation of the 5G bottleneck.

Wiring per downlink packet: sender emits -> (server->CU propagation) ->
marking layer ingress -> RLC queue -> slot scheduler transmits -> delivery
to the UE (AM adds the configured delivery delay) -> receiver ACK ->
(UE->CU uplink leg) -> marking layer rewrites feedback -> (CU->server
propagation) -> sender reacts.  The RAN status message, the DRB's highest
transmitted PDCP SN, reaches the marking layer once per DRB per slot in
which the DRB completes an SDU.  A DRB that transmits in a slot without
completing one would repeat the SN its layer last applied, which changes
state only when a downlink packet arrived since the layer's last refresh,
so its message is applied only then.  A message only stamps the profile
and marks the layer's refresh due; the refresh runs at its first read.

A slot is one pass inside its ``SLOT_TICK``: the scheduler serves it and
returns each DRB that transmitted, in transmit order, with the SDUs it
completed; the tick closes the interval and snapshots the warm-up as due;
then, DRB by DRB, it routes the completed SDUs (deliveries that take no
time run at once), applies the status message and drops a drained UE.  So
a slot's deliveries and status messages happen before any other event at
its instant, and the next tick is scheduled last.  The scheduler sees only
the UEs with queued data, kept in ``ue_ctx`` order: an admitted packet
inserts its UE into the active list, and a UE whose queues drained in a
slot leaves it.

Every event carries the handler it runs, called with the event's data and
time: a simulator method, or for a sender timer the endpoint method it
fires (the endpoint is the data).  An event's kind only labels it for
per-kind counts.

Deterministic for a fixed scenario seed: per-DRB RNGs, FIFO event
tie-breaking, and no iteration over unordered containers.

A scenario and the specs inside it are read by their fields alone; the
simulator imports no scenario type.
"""

from __future__ import annotations

import math
import platform
import random
import resource
import sys
import time
from bisect import bisect_left
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..core import (
    ACK,
    CWR,
    ECE,
    SYN,
    AccEcnFields,
    DrbConfig,
    EcnCodepoint,
    FiveTuple,
    Packet,
    Proto,
    RlcMode,
    TcpFields,
)
from ..harness.metrics import INTERVAL_SECS, MetricsCollector
from ..marking import MarkDecision, MarkParams, dualpi2_step_mark, map_mark_outcome
from ..senders import (
    SENDERS,
    PragueState,
    ReceiverState,
    classic_on_ack,
    prague_on_ack,
    prague_on_loss,
    receiver_on_data,
)
from ..shortcircuit import FeedbackMode
from .events import EventKind, EventLoop
from .layer import DrbLayer, MarkRule
from .rlc import RlcQueue
from .scheduler import SchedulerPolicy, UeContext, scheduler_slot

MIN_RTO_SECS = 0.2
MAX_RTO_SECS = 60.0
SERVER_ADDR_BASE = 1000


class TcpEndpoint:
    """Server-side TCP sender: sequence bookkeeping around a CC state machine."""

    def __init__(self, sim: "Simulator", flow: "_FlowRuntime"):
        self.sim = sim
        self.flow = flow
        spec = flow.spec
        self.payload_mss = flow.bearer.drb.mss_bytes - 40
        self.cc = SENDERS[spec.kind].cc(mss=self.payload_mss, cwnd=10.0 * self.payload_mss)
        self.is_prague = isinstance(self.cc, PragueState)
        self.established = False
        self.next_seq = 0
        self.snd_una = 0
        self.outstanding: "OrderedDict[int, list]" = OrderedDict()  # seq -> [size, sent_at, retx]
        self.inflight = 0
        self.pace_next = 0.0
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.min_rtt = math.inf
        self.rto = 1.0
        self.syn_sent_at: Optional[float] = None
        self.last_ce_bytes = 0
        self.pending_cwr = False
        self.size_limit = spec.size_bytes
        self.completed = False
        self._rto_pending = False
        self._hystart_hits = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self, now: float) -> None:
        self.syn_sent_at = now
        flags = SYN
        accecn = None
        if self.flow.feedback_mode is FeedbackMode.CLASSIC_ECN:
            flags |= ECE | CWR  # ECN-setup SYN
        elif self.flow.feedback_mode is FeedbackMode.ACC_ECN:
            accecn = AccEcnFields()
        syn = Packet(
            pkt_id=self.sim.next_pkt_id(),
            five_tuple=self.flow.ft,
            size_bytes=40,
            ecn=EcnCodepoint.NOT_ECT,
            created_at=now,
            tcp=TcpFields(seq=0, ack_no=0, flags=flags, accecn=accecn),
        )
        self.sim.emit_downlink(self.flow, syn, now)
        self._schedule_rto(now + self.rto)

    # -- ACK path ----------------------------------------------------------

    def on_ack(self, ack: Packet, now: float) -> None:
        t = ack.tcp
        if t is None:
            return
        if t.flags & SYN:
            if not self.established:
                self.established = True
                self._rtt_sample(now - self.syn_sent_at, now)
                think = self.flow.spec.think_secs
                if think > 0:
                    self.sim.loop.schedule(now + think, EventKind.SENDER_TIMER,
                                           TcpEndpoint.send_data, self)
                else:
                    self.send_data(now)
            return
        delta = t.ack_no - self.snd_una
        newly_sampled = None
        if delta > 0:
            self.snd_una = t.ack_no
            while self.outstanding:
                seq, rec = next(iter(self.outstanding.items()))
                if seq + rec[0] > t.ack_no:
                    break
                del self.outstanding[seq]
                self.inflight -= rec[0]
                if rec[2] == 0:
                    newly_sampled = now - rec[1]
            if newly_sampled is not None:
                self._rtt_sample(newly_sampled, now)

        if self.is_prague:
            ce_delta = 0
            if t.accecn is not None:
                raw = t.accecn.ce_bytes
                ce_delta = max(0, raw - self.last_ce_bytes)
                self.last_ce_bytes = max(raw, self.last_ce_bytes)
            prague_on_ack(self.cc, delta, ce_delta, now)
        else:
            ece = bool(t.flags & ECE)
            before = self.cc.last_cut_at
            classic_on_ack(self.cc, delta, ece, now)
            if self.cc.last_cut_at != before:
                self.pending_cwr = True

        if (
            self.size_limit is not None
            and not self.completed
            and self.snd_una >= self.size_limit
        ):
            self.completed = True
            self.sim.metrics.on_completion(self.flow.spec.name, now)
        self.send_data(now)

    def _rtt_sample(self, sample: float, now: float) -> None:
        if sample <= 0:
            return
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2
            self.min_rtt = sample
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
            self.min_rtt = min(self.min_rtt, sample)
        self.rto = max(MIN_RTO_SECS, self.srtt + 4 * self.rttvar)
        self.cc.srtt = self.srtt
        # classic senders leave slow start on sustained RTT inflation
        # (Hystart-style); the scalable sender's own marking ends its slow
        # start instead
        if not self.is_prague and self.cc.cwnd < self.cc.ssthresh:
            if (
                self.cc.cwnd >= 16 * self.payload_mss
                and sample > self.min_rtt + max(0.004, self.min_rtt / 8)
            ):
                self._hystart_hits += 1
                if self._hystart_hits >= 3:
                    self.cc.ssthresh = self.cc.cwnd
            else:
                self._hystart_hits = 0
        self.sim.metrics.on_rtt(now, self.flow.spec.name, sample)

    # -- sending -----------------------------------------------------------

    def send_data(self, now: float) -> None:
        if not self.established or now >= self.flow.stop_at:
            return
        window = min(self.cc.cwnd, self.flow.spec.rwnd_bytes)
        while True:
            if self.size_limit is not None and self.next_seq >= self.size_limit:
                break
            payload = self.payload_mss
            if self.size_limit is not None:
                payload = min(payload, self.size_limit - self.next_seq)
            if self.inflight + payload > window:
                break
            if self.is_prague:
                rate = self.cc.cwnd / max(self.srtt or 0.05, 1e-3)
                emit_at = max(now, self.pace_next)
                self.pace_next = emit_at + payload / rate
            elif self.cc.cwnd < self.cc.ssthresh:
                # classic slow start is paced at twice cwnd/srtt so the exit
                # check sees pipe-full inflation instead of burst self-queuing
                rate = 2.0 * self.cc.cwnd / max(self.srtt or 0.05, 1e-3)
                emit_at = max(now, self.pace_next)
                self.pace_next = emit_at + payload / rate
            else:
                emit_at = now
            self._emit(self.next_seq, payload, emit_at)
            self.next_seq += payload

    def _emit(self, seq: int, payload: int, emit_at: float) -> None:
        flags = ACK
        if self.pending_cwr:
            flags |= CWR
            self.pending_cwr = False
        pkt = Packet(
            pkt_id=self.sim.next_pkt_id(),
            five_tuple=self.flow.ft,
            size_bytes=payload + 40,
            ecn=self.flow.data_ecn,
            created_at=emit_at,
            tcp=TcpFields(seq=seq, ack_no=0, flags=flags),
        )
        rec = self.outstanding.get(seq)
        if rec is None:
            self.outstanding[seq] = [payload, emit_at, 0]
            self.inflight += payload
        else:
            rec[1] = emit_at
            rec[2] += 1
        self.sim.emit_downlink(self.flow, pkt, emit_at)
        self._schedule_rto(emit_at + self.rto)

    # -- loss detection ------------------------------------------------------

    def _schedule_rto(self, at: float) -> None:
        if not self._rto_pending:
            self._rto_pending = True
            self.sim.loop.schedule(max(at, self.sim.loop.now), EventKind.SENDER_TIMER,
                                   TcpEndpoint.on_rto_check, self)

    def on_rto_check(self, now: float) -> None:
        self._rto_pending = False
        if now >= self.flow.stop_at:
            return
        if not self.established:
            if now >= self.syn_sent_at + self.rto - 1e-12:
                self.rto = min(self.rto * 2, MAX_RTO_SECS)
                self.start(now)
            else:
                self._schedule_rto(self.syn_sent_at + self.rto)
            return
        if not self.outstanding:
            return
        seq, rec = next(iter(self.outstanding.items()))
        deadline = rec[1] + self.rto
        if now >= deadline - 1e-12:
            # one-RTT loss detection: retransmit the oldest packet, classic cut
            if self.is_prague:
                prague_on_loss(self.cc, now)
            else:
                before = self.cc.last_cut_at
                classic_on_ack(self.cc, 0, True, now)
                if self.cc.last_cut_at != before:
                    self.pending_cwr = False  # loss needs no CWR echo
            self.rto = min(self.rto * 2, MAX_RTO_SECS)
            self._emit(seq, rec[0], now)
        else:
            self._schedule_rto(deadline)


class UdpEndpoint:
    """Constant-rate sender; no feedback loop (downlink marking covers it)."""

    def __init__(self, sim: "Simulator", flow: "_FlowRuntime"):
        self.sim = sim
        self.flow = flow
        self.rate = flow.spec.udp_rate_bps / 8.0
        self.pkt_size = flow.bearer.drb.mss_bytes
        self.cc = None

    def start(self, now: float) -> None:
        self._tick(now)

    def _tick(self, now: float) -> None:
        if now >= self.flow.stop_at:
            return
        pkt = Packet(
            pkt_id=self.sim.next_pkt_id(),
            five_tuple=self.flow.ft,
            size_bytes=self.pkt_size,
            ecn=self.flow.data_ecn,
            created_at=now,
        )
        self.sim.emit_downlink(self.flow, pkt, now)
        self.sim.loop.schedule(now + self.pkt_size / self.rate, EventKind.SENDER_TIMER,
                               UdpEndpoint._tick, self)


def _pass_every_packet(state, params, pkt, flow_class, rng, now) -> MarkDecision:
    """The rule of ``aqm.kind: none``: no AQM marks anything."""
    return MarkDecision.PASS


class _Bearer(RlcQueue):
    """A bearer's RLC queue, linked at build time to what the slot path
    needs of it: its marking layer, its spec, its loss RNG (None on a
    lossless bearer) and its UE's index in ``Simulator.ue_ctx``."""

    layer: DrbLayer

    def __init__(self, cfg: DrbConfig, spec, loss_rng: Optional[random.Random], ue_index: int):
        super().__init__(cfg)
        self.spec = spec
        self.am = cfg.rlc_mode is RlcMode.AM
        self.loss_rng = loss_rng
        self.ue_index = ue_index

    def step_mark(self, state, params, pkt, flow_class, rng, now) -> MarkDecision:
        """The rule of ``aqm.kind: dualpi2step``: the wired fixed-step marker, applied
        to this queue's realized head (queued more than ``tau_thr`` before ``now``)."""
        marked = bool(self.sdus) and dualpi2_step_mark(self.sdus[0].enq_at, now, params.tau_thr)
        return map_mark_outcome(marked, pkt, flow_class, params)


@dataclass
class _FlowRuntime:
    spec: Any                       # the flow's scenario spec
    ft: FiveTuple
    bearer: _Bearer
    data_ecn: EcnCodepoint
    feedback_mode: FeedbackMode
    stop_at: float                  # the sender sends nothing from here on
    endpoint: object = None
    receiver: ReceiverState = None
    pending_marks: deque = field(default_factory=deque)


@dataclass
class SimResult:
    meta: dict
    collector: MetricsCollector
    summary: dict
    events: int


class Simulator:
    """Builds the topology from a scenario and runs the event loop to horizon.
    Each bearer's marking rule is chosen once, by ``aqm.kind``: ``mark_rule``
    (None: ``decide_mark``), ``_Bearer.step_mark`` or ``_pass_every_packet``."""

    def __init__(self, scenario, mark_rule: Optional[MarkRule] = None):
        scenario.validate()
        self.scn = scenario
        self.loop = EventLoop()
        self._pkt_id = 0
        aqm = scenario.aqm

        self.ue_ctx: list[UeContext] = []
        self.queues: dict[tuple, _Bearer] = {}
        self.layers: dict[tuple, DrbLayer] = {}
        # the UEs with standing bytes, in ue_ctx order: their indices into
        # ue_ctx, and their contexts (the list the scheduler is passed)
        self._active_idx: list[int] = []
        self._active_ctx: list[UeContext] = []
        self.flows: list[_FlowRuntime] = []
        self.flow_by_tuple: dict[FiveTuple, _FlowRuntime] = {}

        for ue in scenario.ues:
            trace = ue.channel.build(scenario.horizon_secs)
            bearers = []
            for drb in ue.drbs:
                cfg = DrbConfig(ue_id=ue.ue_id, drb_id=drb.drb_id,
                                rlc_mode=RlcMode(drb.rlc_mode),
                                max_queue_sdus=drb.max_queue_sdus, mss_bytes=drb.mss_bytes)
                key = cfg.key
                seed = scenario.seed * 1000003 + ue.ue_id * 1009 + drb.drb_id
                params = MarkParams(
                    tau_thr=aqm.tau_thr,
                    mss_bytes=drb.mss_bytes,
                    beta=aqm.beta,
                    rng_seed=seed,
                    short_circuit=aqm.short_circuit and aqm.kind != "none",
                    drop_fallback=aqm.drop_fallback,
                    freshness_secs=2 * scenario.window_secs,
                    force_zero_error=aqm.force_zero_error or aqm.kind == "dualpi2step",
                    shared_policy=aqm.shared_policy,
                )
                # a lossless bearer never draws, so it gets no RNG to seed
                loss_rng = random.Random(seed + 7777777) if drb.loss_p > 0 else None
                bearer = _Bearer(cfg, drb, loss_rng, len(self.ue_ctx))
                rule = (mark_rule if aqm.kind == "l4span" else
                        bearer.step_mark if aqm.kind == "dualpi2step" else _pass_every_packet)
                bearer.layer = DrbLayer(params, scenario.window_secs, rule)
                bearers.append(bearer)
                self.queues[key] = bearer
                self.layers[key] = bearer.layer
                for fspec in drb.flows:
                    sender = SENDERS[fspec.kind]
                    ft = FiveTuple(
                        src_addr=SERVER_ADDR_BASE + len(self.flows),
                        dst_addr=ue.ue_id,
                        src_port=5000 + len(self.flows),
                        dst_port=443,
                        proto=Proto.UDP if sender.cc is None else Proto.TCP,
                    )
                    stop = fspec.stop
                    stop_at = stop if stop is not None and stop < scenario.horizon_secs else math.inf
                    flow = _FlowRuntime(
                        spec=fspec,
                        ft=ft,
                        bearer=bearer,
                        data_ecn=sender.data_ecn[fspec.feedback],
                        feedback_mode=FeedbackMode(fspec.feedback),
                        stop_at=stop_at,
                    )
                    flow.endpoint = (UdpEndpoint if sender.cc is None else TcpEndpoint)(self, flow)
                    flow.receiver = ReceiverState(flow=ft, mode=flow.feedback_mode)
                    self.flows.append(flow)
                    self.flow_by_tuple[ft] = flow
            # PF averages are current up to the first slot, which run() puts at 0.0
            self.ue_ctx.append(UeContext(ue_id=ue.ue_id, trace=trace, queues=bearers,
                                         ewma_at=0.0))

        self.metrics = MetricsCollector(
            flow_names=[f.spec.name for f in self.flows],
            drb_of_flow={f.spec.name: f.bearer.drb.key for f in self.flows},
            warmup_secs=scenario.warmup_secs,
            flow_starts={f.spec.name: f.spec.start for f in self.flows},
        )
        self._policy = SchedulerPolicy(scenario.scheduler)
        self._slots_per_interval = max(1, round(INTERVAL_SECS / scenario.slot_secs))
        self._ue_served_at_warmup: dict[int, int] = {}
        # the slot that snapshots the served bytes is the one within half a
        # slot of the warm-up's end
        self._warmup_from = scenario.warmup_secs - scenario.slot_secs / 2
        self._warmup_to = scenario.warmup_secs + scenario.slot_secs / 2

    # -- helpers -----------------------------------------------------------

    def next_pkt_id(self) -> int:
        self._pkt_id += 1
        return self._pkt_id

    def emit_downlink(self, flow: _FlowRuntime, pkt: Packet, at: float) -> None:
        self.loop.schedule(at + self.scn.delays.dl_prop_secs, EventKind.ARRIVE_DOWNLINK,
                           self._arrive_downlink, (flow, pkt))

    # -- handlers: each takes its event's data and time ---------------------

    def _arrive_downlink(self, data, now: float) -> None:
        flow, pkt = data
        q = flow.bearer
        outcome = q.layer.on_dl_pkt(pkt, q.has_room(), now)
        if outcome.decision is MarkDecision.DROP:
            self.metrics.on_aqm_drop(now, flow.spec.name)
            return
        if outcome.sn is None:
            q.enqueue(pkt, -1, now)  # counts the tail drop
            self.metrics.on_tail_drop(now, q.drb.key, flow.spec.name)
            return
        pkt.pred_sojourn = outcome.predicted_sojourn
        q.enqueue(pkt, outcome.sn, now)
        ue = q.ue_index
        idx = self._active_idx
        i = bisect_left(idx, ue)
        if i == len(idx) or idx[i] != ue:
            idx.insert(i, ue)
            self._active_ctx.insert(i, self.ue_ctx[ue])
        if outcome.decision in (MarkDecision.TENTATIVE_MARK, MarkDecision.MARK_CE):
            flow.pending_marks.append(now)
            self.metrics.on_mark(now, flow.spec.name)

    def _slot_tick(self, n: int, now: float) -> None:
        ue_ctx = self.ue_ctx
        sent = scheduler_slot(self._active_ctx, self._policy, self.scn.slot_secs, now)
        if n > 0 and n % self._slots_per_interval == 0:
            self._close_interval(now)
        if self._warmup_from <= now < self._warmup_to:
            for ctx in ue_ctx:
                self._ue_served_at_warmup[ctx.ue_id] = sum(q.transmitted_bytes for q in ctx.queues)
        deliver = self._deliver
        for b, completed in sent:
            if completed:
                drb = b.spec
                for sdu in completed:
                    flow = self.flow_by_tuple[sdu.pkt.five_tuple]
                    if b.am:
                        delay = drb.delivery_delay_secs
                        if drb.loss_p > 0 and b.loss_rng.random() < drb.loss_p:
                            delay += drb.arq_delay_secs
                        if delay > 0:
                            self.loop.schedule(now + delay, EventKind.DELIVER_TO_UE, deliver,
                                               (flow, sdu))
                            continue
                    elif drb.loss_p > 0 and b.loss_rng.random() < drb.loss_p:
                        continue  # UM: lost in the air, transport recovers
                    deliver((flow, sdu), now)
                b.layer.on_ran_feedback(b.highest_tx_sn, now)
                if not b.standing_bytes and not ue_ctx[b.ue_index].standing_bytes():
                    self._deactivate(b.ue_index)
            elif b.layer.dl_since_refresh and b.highest_tx_sn is not None:
                b.layer.on_ran_feedback(b.highest_tx_sn, now)
        nxt = (n + 1) * self.scn.slot_secs
        if nxt <= self.scn.horizon_secs:
            self.loop.schedule(nxt, EventKind.SLOT_TICK, self._slot_tick, n + 1)

    def _deactivate(self, ue: int) -> None:
        """Drop a drained UE from the active list; a UE whose bearers all
        drained in one slot is dropped at the first and found gone after."""
        idx = self._active_idx
        i = bisect_left(idx, ue)
        if i < len(idx) and idx[i] == ue:
            del idx[i]
            del self._active_ctx[i]

    def _deliver(self, item, now: float) -> None:
        flow, sdu = item
        pkt = sdu.pkt
        # the PacketRecord fields in order, then the payload
        self.metrics.on_delivery(now, flow.spec.name, now - pkt.created_at,
                                 self.scn.delays.dl_prop_secs, sdu.head_at - sdu.enq_at,
                                 sdu.done_at - sdu.head_at, now - sdu.done_at,
                                 pkt.pred_sojourn, pkt.size_bytes, pkt.payload_bytes)
        ack = receiver_on_data(flow.receiver, pkt, now, self.next_pkt_id())
        if ack is not None:
            self.loop.schedule(now + self.scn.delays.ran_ul_secs, EventKind.ARRIVE_UPLINK,
                               self._uplink_at_cu, (flow, ack))

    def _uplink_at_cu(self, data, now: float) -> None:
        flow, ack = data
        out = flow.bearer.layer.on_ul_packet(ack, now)
        self.loop.schedule(now + self.scn.delays.ul_prop_secs, EventKind.ARRIVE_UPLINK,
                           self._uplink_at_server, (flow, out))

    def _uplink_at_server(self, data, now: float) -> None:
        flow, pkt = data
        if pkt.fb_cutoff is not None:
            pend = flow.pending_marks
            while pend and pend[0] <= pkt.fb_cutoff:
                t_mark = pend.popleft()
                self.metrics.on_feedback_latency(now, flow.spec.name, now - t_mark)
        flow.endpoint.on_ack(pkt, now)

    def _close_interval(self, now: float) -> None:
        cwnd = [float(f.endpoint.cc.cwnd) if f.endpoint.cc is not None else 0.0
                for f in self.flows]
        bearer_gauges = {}
        for key, b in self.queues.items():
            st = b.layer.mark_state
            est = st.last_estimate
            bearer_gauges[key] = (b.standing_bytes, st.p_l4s, st.p_classic,
                                  est.r_hat if est else None, est.e_hat if est else None)
        self.metrics.close_interval(now, cwnd, bearer_gauges)

    # -- run -----------------------------------------------------------------

    def run(self) -> SimResult:
        scn = self.scn
        t0 = time.perf_counter()
        self.loop.schedule(0.0, EventKind.SLOT_TICK, self._slot_tick, 0)
        for flow in self.flows:
            ep = flow.endpoint
            self.loop.schedule(flow.spec.start, EventKind.SENDER_TIMER, type(ep).start, ep)
        events = self.loop.run(scn.horizon_secs, self._dispatch)

        utilization = {}
        for ctx in self.ue_ctx:
            served = sum(q.transmitted_bytes for q in ctx.queues)
            served_steady = served - self._ue_served_at_warmup.get(ctx.ue_id, 0)
            possible = ctx.trace.integral(scn.warmup_secs, scn.horizon_secs)
            utilization[ctx.ue_id] = {
                "served_bytes_steady": served_steady,
                "capacity_bytes_steady": possible,
                "utilization": served_steady / possible if possible > 0 else 0.0,
            }
        summary = self.metrics.summarize(scn.horizon_secs, utilization)
        wall = time.perf_counter() - t0
        meta = {
            "scenario": {
                "name": scn.name,
                "horizon_secs": scn.horizon_secs,
                "seed": scn.seed,
                "aqm": {
                    "kind": scn.aqm.kind,
                    "tau_thr": scn.aqm.tau_thr,
                    "short_circuit": scn.aqm.short_circuit,
                    "shared_policy": scn.aqm.shared_policy,
                    "force_zero_error": scn.aqm.force_zero_error,
                },
                "scheduler": scn.scheduler,
                "warmup_secs": scn.warmup_secs,
            },
            # host-side figures that vary from run to run; no stream carries them
            "telemetry": {
                "wall_secs": wall,
                "sim_secs_per_wall_sec": scn.horizon_secs / wall,
                "events": events,
                "peak_rss_mb": _peak_rss_mb(),
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
        }
        return SimResult(meta=meta, collector=self.metrics, summary=summary, events=events)

    def _dispatch(self, ev) -> None:
        ev.handler(ev.data, ev.at)


def _peak_rss_mb() -> float:
    """The process's resident-set high-water mark so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def run(scenario, mark_rule: Optional[MarkRule] = None) -> SimResult:
    """Validate and execute a scenario; deterministic given its seed.
    ``mark_rule`` replaces ``decide_mark`` on ``l4span`` bearers."""
    return Simulator(scenario, mark_rule).run()
