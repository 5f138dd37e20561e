"""Closed-loop discrete-event simulation of the 5G bottleneck.

Wiring per downlink packet: sender emits -> (server->CU propagation) ->
marking layer ingress -> RLC queue -> slot scheduler transmits -> delivery
to the UE (AM adds the configured delivery delay) -> receiver ACK ->
(UE->CU uplink leg) -> marking layer rewrites feedback -> (CU->server
propagation) -> sender reacts.  RAN transmit/delivery status reaches the
marking layer once per DRB per slot with transmissions.  A slot's
zero-delay work (the deliveries that take no time and those per-DRB
feedbacks) runs as one post-slot event at the slot's time, in transmit
order, after every same-time event queued before it.  The scheduler sees
only the UEs with queued data: an admitted packet adds its UE to the
active set, and a UE whose queues drained in a slot leaves it.

Deterministic for a fixed scenario seed: per-DRB RNGs, FIFO event
tie-breaking, and no iteration over unordered containers.
"""

from __future__ import annotations

import math
import platform
import random
import resource
import sys
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core import (
    AccEcnFields,
    Direction,
    DrbConfig,
    EcnCodepoint,
    FiveTuple,
    Packet,
    Proto,
    TcpFields,
    TcpFlags,
)
from ..harness.metrics import INTERVAL_SECS, MetricsCollector, PacketRecord
from ..harness.scenario import DrbSpec, FlowSpec, Scenario
from ..marking import MarkDecision, MarkParams
from ..senders import (
    CubicState,
    PragueState,
    ReceiverState,
    RenoState,
    classic_on_ack,
    prague_on_ack,
    prague_on_loss,
    receiver_on_data,
)
from ..shortcircuit import FeedbackMode
from .events import EventKind, EventLoop
from .layer import DrbLayer
from .rlc import RlcQueue
from .scheduler import UeContext, scheduler_slot

MIN_RTO_SECS = 0.2
MAX_RTO_SECS = 60.0
SERVER_ADDR_BASE = 1000


def _feedback_mode(spec: FlowSpec) -> FeedbackMode:
    if spec.feedback == "accecn":
        return FeedbackMode.ACC_ECN
    if spec.feedback == "classic":
        return FeedbackMode.CLASSIC_ECN
    return FeedbackMode.DOWNLINK_FALLBACK


def _data_codepoint(spec: FlowSpec) -> EcnCodepoint:
    if spec.kind == "prague" or (spec.kind == "udp" and spec.feedback == "none"):
        return EcnCodepoint.ECT1
    if spec.feedback == "classic":
        return EcnCodepoint.ECT0
    if spec.feedback == "accecn":
        return EcnCodepoint.ECT1
    return EcnCodepoint.NOT_ECT


class TcpEndpoint:
    """Server-side TCP sender: sequence bookkeeping around a CC state machine."""

    def __init__(self, sim: "Simulator", flow: "_FlowRuntime"):
        self.sim = sim
        self.flow = flow
        spec = flow.spec
        self.payload_mss = flow.mss_bytes - 40
        if spec.kind == "prague":
            self.cc = PragueState(mss=self.payload_mss, cwnd=10.0 * self.payload_mss,
                                  round_end_total=10.0 * self.payload_mss)
        elif spec.kind == "cubic":
            self.cc = CubicState(mss=self.payload_mss, cwnd=10.0 * self.payload_mss)
        else:
            self.cc = RenoState(mss=self.payload_mss, cwnd=10.0 * self.payload_mss)
        self.is_prague = spec.kind == "prague"
        self.established = False
        self.stopped = False
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
        flags = TcpFlags.SYN
        accecn = None
        if self.flow.feedback_mode is FeedbackMode.CLASSIC_ECN:
            flags |= TcpFlags.ECE | TcpFlags.CWR  # ECN-setup SYN
        elif self.flow.feedback_mode is FeedbackMode.ACC_ECN:
            accecn = AccEcnFields()
        syn = Packet(
            pkt_id=self.sim.next_pkt_id(),
            five_tuple=self.flow.ft,
            size_bytes=40,
            ecn=EcnCodepoint.NOT_ECT,
            direction=Direction.DOWNLINK,
            created_at=now,
            tcp=TcpFields(seq=0, ack_no=0, flags=flags, accecn=accecn),
        )
        self.sim.emit_downlink(self.flow, syn, now)
        self._schedule_rto(now + self.rto)

    def stop(self) -> None:
        self.stopped = True

    # -- ACK path ----------------------------------------------------------

    def on_ack(self, ack: Packet, now: float) -> None:
        t = ack.tcp
        if t is None:
            return
        if t.flags & TcpFlags.SYN:
            if not self.established:
                self.established = True
                self._rtt_sample(now - self.syn_sent_at, now)
                think = self.flow.spec.think_secs
                if think > 0:
                    self.sim.loop.schedule(now + think, EventKind.SENDER_TIMER,
                                           (self.flow, "start_data"))
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
            ece = bool(t.flags & TcpFlags.ECE)
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
        if not self.established or self.stopped:
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
        flags = TcpFlags.ACK
        if self.pending_cwr:
            flags |= TcpFlags.CWR
            self.pending_cwr = False
        pkt = Packet(
            pkt_id=self.sim.next_pkt_id(),
            five_tuple=self.flow.ft,
            size_bytes=payload + 40,
            ecn=self.flow.data_ecn,
            direction=Direction.DOWNLINK,
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
                                   (self.flow, "rto"))

    def on_rto_check(self, now: float) -> None:
        self._rto_pending = False
        if self.stopped:
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
        self.pkt_size = flow.mss_bytes
        self.stopped = False
        self.established = True
        self.cc = None
        self.srtt = None

    def start(self, now: float) -> None:
        self._tick(now)

    def stop(self) -> None:
        self.stopped = True

    def _tick(self, now: float) -> None:
        if self.stopped or now >= self.flow.stop_at:
            return
        pkt = Packet(
            pkt_id=self.sim.next_pkt_id(),
            five_tuple=self.flow.ft,
            size_bytes=self.pkt_size,
            ecn=self.flow.data_ecn,
            direction=Direction.DOWNLINK,
            created_at=now,
        )
        self.sim.emit_downlink(self.flow, pkt, now)
        self.sim.loop.schedule(now + self.pkt_size / self.rate, EventKind.SENDER_TIMER,
                               (self.flow, "udp_tick"))

    def on_ack(self, ack: Packet, now: float) -> None:
        pass

    def on_rto_check(self, now: float) -> None:
        pass


class _Bearer(RlcQueue):
    """A bearer's RLC queue, linked at build time to what the slot path
    needs of it: its marking layer, its spec, its loss RNG and its UE's
    index in ``Simulator.ue_ctx``."""

    def __init__(self, cfg: DrbConfig, spec: DrbSpec, layer: DrbLayer, loss_rng: random.Random,
                 ue_index: int):
        super().__init__(cfg)
        self.spec = spec
        self.layer = layer
        self.am = spec.rlc_mode == "am"
        self.loss_rng = loss_rng
        self.ue_index = ue_index


@dataclass
class _FlowRuntime:
    spec: FlowSpec
    ft: FiveTuple
    ue_id: int
    bearer: _Bearer
    mss_bytes: int
    data_ecn: EcnCodepoint
    feedback_mode: FeedbackMode
    stop_at: float
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
    """Builds the topology from a scenario and runs the event loop to horizon."""

    def __init__(self, scenario: Scenario):
        scenario.validate()
        self.scn = scenario
        self.loop = EventLoop()
        self._pkt_id = 0
        aqm = scenario.aqm

        self.ue_ctx: list[UeContext] = []
        self.queues: dict[tuple, _Bearer] = {}
        self.layers: dict[tuple, DrbLayer] = {}
        # indices into ue_ctx of the UEs with standing bytes
        self._active: set[int] = set()
        self.flows: list[_FlowRuntime] = []
        self.flow_by_tuple: dict[FiveTuple, _FlowRuntime] = {}

        for ue in scenario.ues:
            trace = ue.channel.build(scenario.horizon_secs)
            # PF averages are current up to the first slot, which run() puts at 0.0
            ctx = UeContext(ue_id=ue.ue_id, trace=trace, ewma_at=0.0)
            for drb in ue.drbs:
                cfg = scenario.drb_config(ue, drb)
                key = cfg.key
                seed = scenario.seed * 1000003 + ue.ue_id * 1009 + drb.drb_id
                params = MarkParams(
                    tau_thr=aqm.tau_thr,
                    mss_bytes=drb.mss_bytes,
                    beta=aqm.beta,
                    rng_seed=seed,
                    short_circuit=aqm.short_circuit,
                    drop_fallback=aqm.drop_fallback,
                    freshness_secs=2 * scenario.window_secs,
                    force_zero_error=aqm.force_zero_error or aqm.kind == "dualpi2step",
                    shared_policy=aqm.shared_policy,
                )
                layer = DrbLayer(
                    cfg, params, scenario.window_secs,
                    enabled=aqm.kind != "none",
                    realized_step=aqm.kind == "dualpi2step",
                )
                bearer = _Bearer(cfg, drb, layer, random.Random(seed + 7777777),
                                 len(self.ue_ctx))
                ctx.queues.append(bearer)
                self.queues[key] = bearer
                self.layers[key] = layer
                for i, fspec in enumerate(drb.flows):
                    ft = FiveTuple(
                        src_addr=SERVER_ADDR_BASE + len(self.flows),
                        dst_addr=ue.ue_id,
                        src_port=5000 + len(self.flows),
                        dst_port=443,
                        proto=Proto.UDP if fspec.kind == "udp" else Proto.TCP,
                    )
                    stop_at = fspec.stop if fspec.stop is not None else scenario.horizon_secs
                    flow = _FlowRuntime(
                        spec=fspec,
                        ft=ft,
                        ue_id=ue.ue_id,
                        bearer=bearer,
                        mss_bytes=drb.mss_bytes,
                        data_ecn=_data_codepoint(fspec),
                        feedback_mode=_feedback_mode(fspec),
                        stop_at=stop_at,
                    )
                    flow.endpoint = (
                        UdpEndpoint(self, flow) if fspec.kind == "udp" else TcpEndpoint(self, flow)
                    )
                    flow.receiver = ReceiverState(flow=ft, mode=flow.feedback_mode,
                                                  mss=drb.mss_bytes)
                    self.flows.append(flow)
                    self.flow_by_tuple[ft] = flow
            self.ue_ctx.append(ctx)

        self.metrics = MetricsCollector(
            flow_names=[f.spec.name for f in self.flows],
            drb_of_flow={f.spec.name: f.bearer.drb.key for f in self.flows},
            warmup_secs=scenario.warmup_secs,
        )
        self._policy = scenario.scheduler_policy()
        self._slots_per_interval = max(1, round(INTERVAL_SECS / scenario.slot_secs))
        self._ue_served_at_warmup: dict[int, int] = {}
        self._handlers = {
            EventKind.ARRIVE_DOWNLINK: self._h_arrive_downlink,
            EventKind.SLOT_TICK: self._h_slot_tick,
            EventKind.F1U_FEEDBACK: self._h_post_slot,
            EventKind.DELIVER_TO_UE: self._h_deliver,
            EventKind.ARRIVE_UPLINK: self._h_arrive_uplink,
            EventKind.SENDER_TIMER: self._h_sender_timer,
        }

    # -- helpers -----------------------------------------------------------

    def next_pkt_id(self) -> int:
        self._pkt_id += 1
        return self._pkt_id

    def emit_downlink(self, flow: _FlowRuntime, pkt: Packet, at: float) -> None:
        self.loop.schedule(at + self.scn.delays.dl_prop_secs, EventKind.ARRIVE_DOWNLINK,
                           (flow, pkt))

    # -- handlers ----------------------------------------------------------

    def _h_arrive_downlink(self, ev) -> None:
        flow, pkt = ev.data
        now = ev.at
        q = flow.bearer
        head_ingress = q.sdus[0].enq_at if q.sdus else None
        outcome = q.layer.on_dl_pkt(pkt, q.has_room(), now, head_ingress=head_ingress)
        if outcome.decision is MarkDecision.DROP:
            self.metrics.on_aqm_drop(now, flow.spec.name)
            return
        if outcome.sn is None:
            q.enqueue(pkt, -1, now)  # counts the tail drop
            self.metrics.on_tail_drop(now, q.drb.key, flow.spec.name)
            return
        pkt.pred_sojourn = outcome.predicted_sojourn
        q.enqueue(pkt, outcome.sn, now)
        self._active.add(q.ue_index)
        if outcome.decision in (MarkDecision.TENTATIVE_MARK, MarkDecision.MARK_CE):
            flow.pending_marks.append(now)
            self.metrics.on_mark(now, flow.spec.name)

    def _h_slot_tick(self, ev) -> None:
        n = ev.data
        now = ev.at
        ue_ctx = self.ue_ctx
        active = self._active
        reports = scheduler_slot([ue_ctx[i] for i in sorted(active)], self._policy,
                                 self.scn.slot_secs, now)
        # the slot's zero-delay work in transmit order: (flow, sdu) deliveries
        # and (None, bearer) feedbacks, run by one post-slot event
        post = []
        for rep in reports:
            b = rep.queue
            drb = b.spec
            for sdu in rep.completed:
                flow = self.flow_by_tuple.get(sdu.pkt.five_tuple)
                if flow is None:
                    continue
                if b.am:
                    delay = drb.delivery_delay_secs
                    if drb.loss_p > 0 and b.loss_rng.random() < drb.loss_p:
                        delay += drb.arq_delay_secs
                    if delay > 0:
                        self.loop.schedule(now + delay, EventKind.DELIVER_TO_UE, (flow, sdu))
                        continue
                elif drb.loss_p > 0 and b.loss_rng.random() < drb.loss_p:
                    continue  # UM: lost in the air, transport recovers
                post.append((flow, sdu))
            post.append((None, b))
            if not b.standing_bytes and not ue_ctx[b.ue_index].standing_bytes():
                active.discard(b.ue_index)
        if post:
            self.loop.schedule(now, EventKind.F1U_FEEDBACK, post)
        if n > 0 and n % self._slots_per_interval == 0:
            self._collect_gauges()
            self.metrics.close_interval(now)
        if self.scn.warmup_secs - self.scn.slot_secs / 2 <= now < self.scn.warmup_secs + self.scn.slot_secs / 2:
            for ctx in self.ue_ctx:
                self._ue_served_at_warmup[ctx.ue_id] = sum(q.transmitted_bytes for q in ctx.queues)
        nxt = (n + 1) * self.scn.slot_secs
        if nxt <= self.scn.horizon_secs:
            self.loop.schedule(nxt, EventKind.SLOT_TICK, n + 1)

    def _h_post_slot(self, ev) -> None:
        now = ev.at
        for flow, item in ev.data:
            if flow is None:
                self._feedback(item, now)
            else:
                self._deliver(flow, item, now)

    def _feedback(self, b: _Bearer, now: float) -> None:
        if b.highest_tx_sn is None:
            return
        b.layer.on_ran_feedback(b.highest_tx_sn, b.highest_dlv_sn if b.am else None, now)

    def _h_deliver(self, ev) -> None:
        flow, sdu = ev.data
        self._deliver(flow, sdu, ev.at)

    def _deliver(self, flow: _FlowRuntime, sdu, now: float) -> None:
        pkt = sdu.pkt
        if flow.bearer.am:
            flow.bearer.mark_delivered(sdu.sn)
        rec = PacketRecord(
            t=now,
            flow=flow.spec.name,
            one_way=now - pkt.created_at,
            propagation=self.scn.delays.dl_prop_secs,
            queuing=sdu.head_at - sdu.enq_at,
            scheduling=sdu.done_at - sdu.head_at,
            retransmission=now - sdu.done_at,
            predicted_sojourn=pkt.pred_sojourn,
            size_bytes=pkt.size_bytes,
        )
        self.metrics.on_delivery(rec, pkt.payload_bytes)
        ack = receiver_on_data(flow.receiver, pkt, now, self.next_pkt_id())
        if ack is not None:
            self.loop.schedule(now + self.scn.delays.ran_ul_secs, EventKind.ARRIVE_UPLINK,
                               (flow, ack, "cu"))

    def _h_arrive_uplink(self, ev) -> None:
        flow, pkt, stage = ev.data
        now = ev.at
        if stage == "cu":
            out = flow.bearer.layer.on_ul_packet(pkt, now)
            self.loop.schedule(now + self.scn.delays.ul_prop_secs, EventKind.ARRIVE_UPLINK,
                               (flow, out, "server"))
            return
        # at the server
        if pkt.fb_cutoff is not None:
            pend = flow.pending_marks
            while pend and pend[0] <= pkt.fb_cutoff:
                t_mark = pend.popleft()
                self.metrics.on_feedback_latency(now, flow.spec.name, now - t_mark)
        flow.endpoint.on_ack(pkt, now)

    def _h_sender_timer(self, ev) -> None:
        flow, kind = ev.data
        now = ev.at
        if kind == "start":
            flow.endpoint.start(now)
        elif kind == "start_data":
            flow.endpoint.send_data(now)
        elif kind == "stop":
            flow.endpoint.stop()
        elif kind == "rto":
            flow.endpoint.on_rto_check(now)
        elif kind == "udp_tick":
            flow.endpoint._tick(now)

    def _collect_gauges(self) -> None:
        for flow in self.flows:
            ep = flow.endpoint
            cwnd = float(ep.cc.cwnd) if ep.cc is not None else 0.0
            self.metrics.set_flow_gauge(flow.spec.name, cwnd, ep.srtt)
        for key, layer in self.layers.items():
            st = layer.mark_state
            est = st.last_estimate
            self.metrics.set_drb_gauge(
                key,
                queue_bytes=self.queues[key].standing_bytes,
                p_l4s=st.p_l4s,
                p_classic=st.p_classic,
                r_hat=est.r_hat if est else None,
                e_hat=est.e_hat if est else None,
            )

    # -- run -----------------------------------------------------------------

    def run(self) -> SimResult:
        scn = self.scn
        t0 = time.perf_counter()
        self.loop.schedule(0.0, EventKind.SLOT_TICK, 0)
        for flow in self.flows:
            self.loop.schedule(flow.spec.start, EventKind.SENDER_TIMER, (flow, "start"))
            if flow.spec.stop is not None and flow.spec.stop < scn.horizon_secs:
                self.loop.schedule(flow.spec.stop, EventKind.SENDER_TIMER, (flow, "stop"))
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
        summary = self.metrics.summarize(
            scn.horizon_secs,
            utilization,
            flow_starts={f.spec.name: f.spec.start for f in self.flows},
        )
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
        self._handlers[ev.kind](ev)


def _peak_rss_mb() -> float:
    """The process's resident-set high-water mark so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def run(scenario: Scenario) -> SimResult:
    """Validate and execute a scenario; deterministic given its seed."""
    return Simulator(scenario).run()
