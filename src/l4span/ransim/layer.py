"""The marking layer instance living at the CU, one per DRB.

Three entry points mirror the three trigger events: a downlink datagram
arriving from the core, a RAN status message carrying the highest
transmitted PDCP SN, and an uplink packet on its way back to the server.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from ..core import (
    FLOW_CLASS_OF_ECN,
    SYN,
    EstimateUnavailable,
    FiveTuple,
    Packet,
    Proto,
    reverse_tuple,
)
from ..marking import (
    DrbMarkState,
    MarkDecision,
    MarkParams,
    decide_mark,
    refresh_probabilities,
)
from ..profile import ProfileTable
from ..shortcircuit import (
    FeedbackMode,
    FlowFeedbackState,
    classify_feedback_mode,
    fallback_mark_downlink,
    record_tentative_mark,
    rewrite_ack,
)

# a marking rule is called as decide_mark is: (state, params, pkt, flow_class, rng, now)
MarkRule = Callable[..., MarkDecision]


@dataclass
class DownlinkOutcome:
    decision: MarkDecision
    predicted_sojourn: Optional[float]
    sn: Optional[int]


class DrbLayer:
    """Marking, profiling, and feedback state for one bearer.  Its marking
    rule is fixed at construction: ``mark_rule``, or else this module's
    ``decide_mark`` as it is bound then (a wrapper put there first sees every call).

    A status message stamps the profile at once but only marks the estimate
    and probabilities due for a refresh; the refresh runs at their first
    read (the next downlink packet, or ``mark_state``), through this
    module's ``refresh_probabilities`` as it is bound then.  So a message
    whose refresh a later one supersedes before any read computes nothing."""

    def __init__(
        self,
        params: MarkParams,
        window_secs: float,
        mark_rule: Optional[MarkRule] = None,
    ):
        self.params = params
        self.mark_rule = decide_mark if mark_rule is None else mark_rule
        self.profile = ProfileTable(window_secs=window_secs)
        self._mark_state = DrbMarkState()
        self.rng = random.Random(params.rng_seed)
        self.flow_feedback: dict[FiveTuple, FlowFeedbackState] = {}
        # the same states keyed by the uplink tuple their ACKs carry
        self._feedback_of_ack: dict[FiveTuple, FlowFeedbackState] = {}
        self._next_sn = 1
        # a downlink packet since the last refresh may have changed the
        # pending bytes, the flow mix or the handshake RTTs; while it is
        # False, a status message that repeats the applied SN is a no-op, and
        # the simulator sends none to a DRB whose slot completed no SDU
        self.dl_since_refresh = True
        # a status message found new input, and nothing has read the state since
        self._refresh_due = False
        # the transmitted SN of the last status message applied to the profile
        self._applied_tx_sn: Optional[int] = None

    @property
    def mark_state(self) -> DrbMarkState:
        """The marking state, with the refresh a status message made due applied."""
        if self._refresh_due:
            self._refresh()
        return self._mark_state

    def _refresh(self) -> None:
        """Recompute the estimate and probabilities from the profile window,
        the pending bytes and the flow records; keep the last ones while the
        window is empty."""
        self._refresh_due = False
        try:
            est = self.profile.egress_rate_smoothed()
        except EstimateUnavailable:
            return
        refresh_probabilities(self._mark_state, self.params, est)

    # -- downlink ----------------------------------------------------------

    def on_dl_pkt(self, pkt: Packet, has_room: bool, now: float) -> DownlinkOutcome:
        """Mark an admitted packet by the rule fixed at construction and give it an SN.
        ``predicted_sojourn`` covers only the bytes queued ahead of the packet; the
        ``queuing + scheduling`` C9 compares it with includes the packet's own service.
        A refresh that a status message made due runs first, before the packet
        touches the flow records or the pending bytes."""
        if self._refresh_due:
            self._refresh()
        self.dl_since_refresh = True
        ft = pkt.five_tuple
        flow_class = FLOW_CLASS_OF_ECN[pkt.ecn]
        state = self._mark_state
        rec = state.observe_flow(ft, flow_class, pkt.size_bytes, now)

        # handshake RTT: interval between the first two forward TCP packets
        if pkt.tcp is not None:
            if pkt.tcp.flags & SYN:
                rec.syn_at = now
            elif rec.syn_at is not None and rec.rtt_star is None:
                rec.rtt_star = now - rec.syn_at

        if not has_room:
            return DownlinkOutcome(decision=MarkDecision.PASS, predicted_sojourn=None, sn=None)

        est = state.last_estimate
        predicted = None
        if est is not None and est.r_hat > 0 and now - est.at <= self.params.freshness_secs:
            predicted = self.profile.queued_bytes / est.r_hat

        decision = self.mark_rule(state, self.params, pkt, flow_class, self.rng, now)
        if decision is MarkDecision.DROP:
            # never entered the RLC, so it never enters the profile either
            return DownlinkOutcome(decision=decision, predicted_sojourn=predicted, sn=None)

        sn = self._next_sn
        self._next_sn += 1
        self.profile.record_ingress(sn, pkt.size_bytes)

        fb = self.flow_feedback.get(ft)
        short_circuitable = (
            ft.proto is Proto.TCP
            and self.params.short_circuit
            and fb is not None
            and fb.mode is not FeedbackMode.DOWNLINK_FALLBACK
        )
        if short_circuitable:
            record_tentative_mark(fb, pkt, decision)
            return DownlinkOutcome(decision=decision, predicted_sojourn=predicted, sn=sn)
        if decision is MarkDecision.TENTATIVE_MARK:
            # no rewritable feedback channel yet (handshake in flight): cannot signal
            decision = MarkDecision.PASS
        if decision is MarkDecision.MARK_CE:
            pkt.fb_cutoff = now  # mark-time annotation for the feedback-latency ledger
            fallback_mark_downlink(pkt, decision)
        return DownlinkOutcome(decision=decision, predicted_sojourn=predicted, sn=sn)

    # -- RAN feedback --------------------------------------------------------

    def on_ran_feedback(self, highest_tx_sn: int, now: float) -> None:
        """Apply a status message, the DRB's highest transmitted PDCP SN.

        A newly transmitted SN is stamped on the profile at once, with the
        message's time.  The estimate and probabilities are due for a
        refresh when their inputs changed (a newly stamped SN, or a downlink
        packet since the last refresh); the refresh runs at the next read,
        the start of ``on_dl_pkt`` or ``mark_state``.  That is exact: only
        those two events change the refresh's inputs, and a stamping message
        that finds a refresh still due supersedes it.  A message that
        repeats the last applied SN stamps nothing, so the profile does not
        see it; with no downlink packet since the last refresh it changes
        no state at all."""
        stamped = 0
        if highest_tx_sn != self._applied_tx_sn:
            stamped = self.profile.on_f1u_feedback(highest_tx_sn, now)
            self._applied_tx_sn = highest_tx_sn
        if stamped or self.dl_since_refresh:
            self.dl_since_refresh = False
            self._refresh_due = True

    # -- uplink --------------------------------------------------------------

    def on_ul_packet(self, pkt: Packet, now: float) -> Packet:
        if pkt.five_tuple.proto is not Proto.TCP or pkt.tcp is None:
            return pkt
        fb = self._feedback_of_ack.get(pkt.five_tuple)
        if fb is None:
            ft = reverse_tuple(pkt.five_tuple)  # the downlink flow this ACK belongs to
            fb = self.flow_feedback.get(ft)
            if fb is None:
                fb = FlowFeedbackState(mode=classify_feedback_mode(pkt))
                self.flow_feedback[ft] = fb
            self._feedback_of_ack[pkt.five_tuple] = fb
        if not self.params.short_circuit:
            return pkt
        if fb.mode is FeedbackMode.DOWNLINK_FALLBACK:
            return pkt
        rewritten = rewrite_ack(fb, pkt)
        rewritten.fb_cutoff = now  # cumulative counters cover every mark up to now
        return rewritten
