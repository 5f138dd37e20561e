"""Uplink feedback short-circuiting.

Mark decisions for TCP flows are recorded as *tentative* marks against the
flow instead of rewriting the downlink packet; the next uplink ACK passing
through the middlebox is rewritten to carry the congestion signal, so the
sender learns of the decision one uplink leg later instead of after the
marked packet has crossed the whole radio segment.  Flows whose feedback
cannot be rewritten (UDP, encrypted transports) fall back to marking the
downlink IP ECN field, or to selective drops for non-ECN traffic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .core import CWR, ECE, AccEcnFields, EcnCodepoint, Packet, Proto
from .marking import MarkDecision


class FeedbackMode(enum.Enum):
    ACC_ECN = "accecn"
    CLASSIC_ECN = "classic"
    DOWNLINK_FALLBACK = "none"


class InvalidMarkOperation(ValueError):
    """CE cannot be applied to a Not-ECT packet; the caller had to choose drop or pass."""


def classify_feedback_mode(first_ack: Packet) -> FeedbackMode:
    """Decide the feedback channel from the first uplink packet of a flow."""
    if first_ack.five_tuple.proto is not Proto.TCP or first_ack.tcp is None:
        return FeedbackMode.DOWNLINK_FALLBACK
    if first_ack.tcp.accecn is not None:
        return FeedbackMode.ACC_ECN
    if first_ack.tcp.flags & ECE:
        return FeedbackMode.CLASSIC_ECN
    return FeedbackMode.DOWNLINK_FALLBACK


@dataclass
class FlowFeedbackState:
    """Per-flow short-circuit bookkeeping.

    ce/ect0/ect1 byte counters account every downlink payload byte the flow
    pushed through the middlebox (tentative accounting, conservation-exact).
    The reported_* counters are what ACK rewriting exposes to the sender:
    they advance at ACK time by splitting newly acknowledged bytes with the
    latest tentative-mark ratio, which keeps per-ACK CE growth bounded by
    acknowledged bytes.
    """

    mode: FeedbackMode
    ce_pkts: int = 0
    ce_bytes: int = 0
    ect0_bytes: int = 0
    ect1_bytes: int = 0
    ece_latched: bool = False
    last_split_ratio: float = 0.0
    highest_acked: int = 0
    reported_ce_bytes: int = 0
    reported_ect0_bytes: int = 0
    reported_ect1_bytes: int = 0
    _marked_since_ack: int = 0
    _total_since_ack: int = 0
    _ce_pkts_latched: int = 0

    @property
    def accounted_bytes(self) -> int:
        return self.ce_bytes + self.ect0_bytes + self.ect1_bytes


def record_tentative_mark(state: FlowFeedbackState, pkt: Packet, decision: MarkDecision) -> None:
    """Account a downlink packet against the flow; the packet is forwarded unmodified."""
    if pkt.tcp is not None and pkt.tcp.flags & CWR:
        state.ece_latched = False
    payload = pkt.payload_bytes
    if payload <= 0:
        return
    if decision is MarkDecision.TENTATIVE_MARK or pkt.ecn is EcnCodepoint.CE:
        # upstream CE counts the same as our own tentative mark
        state.ce_pkts += 1
        state.ce_bytes += payload
        state._marked_since_ack += payload
    elif pkt.ecn is EcnCodepoint.ECT0:
        state.ect0_bytes += payload
    else:
        state.ect1_bytes += payload
    state._total_since_ack += payload
    if state._total_since_ack > 0:
        state.last_split_ratio = state._marked_since_ack / state._total_since_ack


def rewrite_ack(state: FlowFeedbackState, ack: Packet) -> Packet:
    """Rewrite an uplink ACK to carry the flow's congestion signal.

    AccECN: split the newly acknowledged bytes by the latest mark ratio and
    stamp the cumulative reported counters plus the 3-bit CE packet count.
    Classic ECN: latch ECN-Echo when tentative marks occurred and keep it on
    every ACK until a downlink packet with CWR clears the latch.  Header
    integrity fields are modeled as always recomputed.
    """
    if ack.tcp is None:
        return ack
    ack_no = ack.tcp.ack_no
    if ack_no < state.highest_acked:
        return ack  # stale duplicate, pass through unmodified

    if state.mode is FeedbackMode.ACC_ECN:
        delta = ack_no - state.highest_acked
        if delta > 0:
            marked = min(delta, round(delta * state.last_split_ratio))
            state.reported_ce_bytes += marked
            remainder = delta - marked
            # unmarked bytes are attributed to the codepoint the flow carries
            if state.ect0_bytes >= state.ect1_bytes:
                state.reported_ect0_bytes += remainder
            else:
                state.reported_ect1_bytes += remainder
            state.highest_acked = ack_no
            state._marked_since_ack = 0
            state._total_since_ack = 0
        if ack.tcp.accecn is None:
            ack.tcp.accecn = AccEcnFields()
        acc = ack.tcp.accecn
        acc.ace_counter = state.ce_pkts % 8
        acc.ce_bytes = state.reported_ce_bytes
        acc.ect0_bytes = state.reported_ect0_bytes
        acc.ect1_bytes = state.reported_ect1_bytes
    elif state.mode is FeedbackMode.CLASSIC_ECN:
        if state.ce_pkts > state._ce_pkts_latched:
            state.ece_latched = True
            state._ce_pkts_latched = state.ce_pkts
        if ack_no > state.highest_acked:
            state.highest_acked = ack_no
            state._marked_since_ack = 0
            state._total_since_ack = 0
        if state.ece_latched:
            ack.tcp.flags |= ECE
        else:
            ack.tcp.flags &= ~ECE
    return ack


def fallback_mark_downlink(pkt: Packet, decision: MarkDecision) -> Optional[Packet]:
    """Apply a decision directly to a downlink packet (no uplink rewriting).

    Returns the (possibly CE-rewritten) packet, or None when the decision
    discards it.
    """
    if decision is MarkDecision.MARK_CE:
        if pkt.ecn not in (EcnCodepoint.ECT0, EcnCodepoint.ECT1, EcnCodepoint.CE):
            raise InvalidMarkOperation("cannot CE-mark a Not-ECT packet")
        pkt.ecn = EcnCodepoint.CE
        return pkt
    if decision is MarkDecision.DROP:
        return None
    return pkt
