"""The marking layer instance living at the CU, one per DRB.

Three entry points mirror the three trigger events: a downlink datagram
arriving from the core, a RAN transmit/delivery status message, and an
uplink packet on its way back to the server.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..core import (
    DrbConfig,
    EstimateUnavailable,
    FiveTuple,
    Packet,
    Proto,
    TcpFlags,
    classify_flow,
    reverse_tuple,
)
from ..marking import (
    DrbMarkState,
    MarkDecision,
    MarkParams,
    decide_mark,
    dualpi2_step_mark,
    map_mark_outcome,
    refresh_probabilities,
)
from ..profile import EgressEstimate, ProfileTable
from ..shortcircuit import (
    FeedbackMode,
    FlowFeedbackState,
    classify_feedback_mode,
    fallback_mark_downlink,
    record_tentative_mark,
    rewrite_ack,
)

GC_FEEDBACK_PERIOD = 512
GC_KEEP_HORIZON_SECS = 1.0


@dataclass
class DownlinkOutcome:
    pkt: Optional[Packet]       # None when the packet was dropped by the AQM
    decision: MarkDecision
    predicted_sojourn: Optional[float]
    sn: Optional[int]


class DrbLayer:
    """Marking, profiling, and feedback state for one bearer."""

    def __init__(
        self,
        drb: DrbConfig,
        params: MarkParams,
        window_secs: float,
        enabled: bool = True,
        realized_step: bool = False,
    ):
        self.drb = drb
        self.params = params
        self.enabled = enabled
        # wired-baseline mode: mark everything while the realized head/tail
        # ingress spread of the queue exceeds the threshold, no estimator
        self.realized_step = realized_step
        self.profile = ProfileTable(drb, window_secs=window_secs)
        self.mark_state = DrbMarkState()
        self.rng = random.Random(params.rng_seed)
        self.flow_feedback: dict[FiveTuple, FlowFeedbackState] = {}
        self._syn_seen: dict[FiveTuple, float] = {}
        self._next_sn = 1
        self._feedbacks = 0
        # a downlink packet since the last refresh may have changed the
        # pending bytes, the flow mix or the handshake RTTs
        self._dl_since_refresh = True

    # -- downlink ----------------------------------------------------------

    def on_dl_pkt(
        self, pkt: Packet, has_room: bool, now: float, head_ingress: Optional[float] = None
    ) -> DownlinkOutcome:
        self._dl_since_refresh = True
        ft = pkt.five_tuple
        flow_class = classify_flow(pkt.ecn)
        self.mark_state.observe_flow(ft, flow_class, pkt.size_bytes, now)

        # handshake RTT: interval between the first two forward TCP packets
        if pkt.tcp is not None:
            if pkt.tcp.flags & TcpFlags.SYN:
                self._syn_seen[ft] = now
            elif ft in self._syn_seen and ft not in self.mark_state.rtt_star:
                self.mark_state.rtt_star[ft] = now - self._syn_seen[ft]

        if not has_room:
            return DownlinkOutcome(pkt=None, decision=MarkDecision.PASS, predicted_sojourn=None, sn=None)

        est = self.mark_state.last_estimate
        predicted = None
        if est is not None and est.r_hat > 0 and now - est.at <= self.params.freshness_secs:
            predicted = self.profile.queued_bytes / est.r_hat

        decision = MarkDecision.PASS
        if self.enabled and self.realized_step:
            marked = head_ingress is not None and dualpi2_step_mark(
                head_ingress, now, self.params.tau_thr
            )
            decision = map_mark_outcome(marked, pkt, flow_class, self.params)
        elif self.enabled:
            decision = decide_mark(self.mark_state, self.params, pkt, flow_class, self.rng, now)
        if decision is MarkDecision.DROP:
            # never entered the RLC, so it never enters the profile either
            return DownlinkOutcome(pkt=None, decision=decision, predicted_sojourn=predicted, sn=None)

        sn = self._next_sn
        self._next_sn += 1
        self.profile.record_ingress(sn, pkt.size_bytes, now)

        fb = self.flow_feedback.get(ft)
        short_circuitable = (
            ft.proto is Proto.TCP
            and self.params.short_circuit
            and fb is not None
            and fb.mode is not FeedbackMode.DOWNLINK_FALLBACK
        )
        if short_circuitable:
            record_tentative_mark(fb, pkt, decision)
            return DownlinkOutcome(pkt=pkt, decision=decision, predicted_sojourn=predicted, sn=sn)
        if decision is MarkDecision.TENTATIVE_MARK:
            # no rewritable feedback channel yet (handshake in flight): cannot signal
            decision = MarkDecision.PASS
        if decision is MarkDecision.MARK_CE:
            pkt.fb_cutoff = now  # mark-time annotation for the feedback-latency ledger
            fallback_mark_downlink(pkt, decision)
        return DownlinkOutcome(pkt=pkt, decision=decision, predicted_sojourn=predicted, sn=sn)

    # -- RAN feedback --------------------------------------------------------

    def on_ran_feedback(
        self, highest_tx_sn: int, highest_dlv_sn: Optional[int], now: float
    ) -> Optional[EgressEstimate]:
        """Apply a status message; refresh the estimate and probabilities
        only when their inputs changed (a newly transmitted SN, or a downlink
        packet since the last refresh), otherwise keep the last ones."""
        newly = self.profile.on_f1u_feedback(highest_tx_sn, highest_dlv_sn, now)
        self._feedbacks += 1
        if self._feedbacks % GC_FEEDBACK_PERIOD == 0:
            self.profile.gc_delivered(GC_KEEP_HORIZON_SECS, now)
        if not newly and not self._dl_since_refresh:
            return self.mark_state.last_estimate
        self._dl_since_refresh = False
        try:
            est = self.profile.egress_rate_smoothed()
        except EstimateUnavailable:
            return None
        refresh_probabilities(self.mark_state, self.params, est)
        return est

    # -- uplink --------------------------------------------------------------

    def on_ul_packet(self, pkt: Packet, now: float) -> Packet:
        if pkt.five_tuple.proto is not Proto.TCP or pkt.tcp is None:
            return pkt
        ft = reverse_tuple(pkt.five_tuple)  # the downlink flow this ACK belongs to
        fb = self.flow_feedback.get(ft)
        if fb is None:
            fb = FlowFeedbackState(mode=classify_feedback_mode(pkt))
            self.flow_feedback[ft] = fb
        if not self.enabled or not self.params.short_circuit:
            return pkt
        if fb.mode is FeedbackMode.DOWNLINK_FALLBACK:
            return pkt
        rewritten = rewrite_ack(fb, pkt)
        rewritten.fb_cutoff = now  # cumulative counters cover every mark up to now
        return rewritten
