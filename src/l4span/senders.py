"""Closed-loop endpoint models.

The sender state machines are pure: they are driven entirely by
``*_on_ack`` / ``*_on_loss`` calls and never touch the event loop, so they
can be unit-tested against throughput models without a simulator.

* Prague-like scalable sender: DCTCP-style window logic.  An EWMA of the
  per-RTT CE byte fraction drives a proportional multiplicative decrease
  (ssthresh <- (1 - alpha/2) * cwnd), additive increase resumes immediately
  on non-CE ACKs, and slow start doubles per RTT until the first CE mark or
  ssthresh.
* CUBIC / Reno classic senders: congestion feedback is handled like loss,
  with at most one window cut per RTT.

``SENDERS`` declares each sender kind's congestion-control state and, per
feedback channel it reads (a ``FeedbackMode`` value), its data's ECN
codepoint; a sender never hears the marks of a channel it cannot read.
Prague reads AccECN byte counts, which RFC 9331 makes a prerequisite of
ECT(1); CUBIC and Reno read the ECE echo on ECT(0) data, or nothing on
Not-ECT; the UDP sender reads nothing, and its ECT(1) data is marked on
the downlink.

cwnd and all byte counters are payload bytes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .core import (
    ACK,
    CWR,
    ECE,
    SYN,
    AccEcnFields,
    EcnCodepoint,
    FiveTuple,
    Packet,
    Proto,
    TcpFields,
    reverse_tuple,
)
from .shortcircuit import FeedbackMode

DCTCP_EWMA_GAIN = 1.0 / 16.0
MIN_CWND_MSS = 2


class SenderPhase(enum.Enum):
    SLOW_START = "slow_start"
    AI = "additive_increase"


@dataclass
class PragueState:
    mss: int = 1500
    cwnd: float = 10 * 1500.0
    ssthresh: float = math.inf
    dctcp_alpha: float = 1.0
    ewma_gain: float = DCTCP_EWMA_GAIN
    srtt: float = 0.05
    phase: SenderPhase = SenderPhase.SLOW_START
    ce_bytes_this_rtt: int = 0
    acked_bytes_this_rtt: int = 0
    bytes_acked_total: int = 0
    round_end_total: Optional[float] = None   # None: the first round ends after one window
    cut_this_round: bool = False

    def __post_init__(self) -> None:
        if self.round_end_total is None:
            self.round_end_total = self.cwnd

    @property
    def floor(self) -> float:
        return MIN_CWND_MSS * self.mss


def _prague_close_round(state: PragueState) -> None:
    acked = state.acked_bytes_this_rtt
    frac = min(1.0, state.ce_bytes_this_rtt / acked) if acked > 0 else 0.0
    g = state.ewma_gain
    state.dctcp_alpha = (1.0 - g) * state.dctcp_alpha + g * frac
    if frac > 0.0 and not state.cut_this_round:
        state.ssthresh = max(state.floor, (1.0 - state.dctcp_alpha / 2.0) * state.cwnd)
        state.cwnd = state.ssthresh
        state.phase = SenderPhase.AI
    state.ce_bytes_this_rtt = 0
    state.acked_bytes_this_rtt = 0
    state.cut_this_round = False
    state.round_end_total = state.bytes_acked_total + state.cwnd


def prague_on_ack(state: PragueState, acked_bytes: int, ce_bytes: int, now: float) -> PragueState:
    """Advance the scalable sender by one ACK carrying ``ce_bytes`` marked bytes."""
    ce_bytes = max(0, ce_bytes)
    state.acked_bytes_this_rtt += acked_bytes
    state.ce_bytes_this_rtt += ce_bytes
    state.bytes_acked_total += acked_bytes
    if state.phase is SenderPhase.SLOW_START:
        state.cwnd += acked_bytes
        if state.cwnd >= state.ssthresh:
            state.phase = SenderPhase.AI
        if state.ce_bytes_this_rtt > 0:
            # first congestion signal ends slow start and closes the round early
            state.phase = SenderPhase.AI
            _prague_close_round(state)
            return state
    else:
        if state.cwnd > 0:
            state.cwnd += state.mss * acked_bytes / state.cwnd
    if state.bytes_acked_total >= state.round_end_total:
        _prague_close_round(state)
    return state


def prague_on_loss(state: PragueState, now: float) -> PragueState:
    """Loss is a classic signal: halve once per RTT."""
    if not state.cut_this_round:
        state.ssthresh = max(state.floor, state.cwnd / 2.0)
        state.cwnd = state.ssthresh
        state.phase = SenderPhase.AI
        state.cut_this_round = True
    return state


@dataclass
class CubicState:
    mss: int = 1500
    cwnd: float = 10 * 1500.0
    ssthresh: float = math.inf
    w_max: float = 0.0              # bytes
    epoch_start: Optional[float] = None
    cubic_c: float = 0.4            # MSS/s^3 scaling
    beta_cubic: float = 0.7
    srtt: float = 0.05
    last_cut_at: float = -math.inf

    @property
    def floor(self) -> float:
        return MIN_CWND_MSS * self.mss


@dataclass
class RenoState:
    mss: int = 1500
    cwnd: float = 10 * 1500.0
    ssthresh: float = math.inf
    md_ratio: float = 0.5
    srtt: float = 0.05
    last_cut_at: float = -math.inf

    @property
    def floor(self) -> float:
        return MIN_CWND_MSS * self.mss


def cubic_k(w_max_mss: float, beta: float, c: float) -> float:
    """Time to return to w_max after a cut: cuberoot(w_max*(1-beta)/c)."""
    return (w_max_mss * (1.0 - beta) / c) ** (1.0 / 3.0)


def classic_on_ack(state, acked_bytes: int, ce_or_loss: bool, now: float):
    """Advance a classic sender; CE feedback is treated exactly like loss."""
    if ce_or_loss:
        if now - state.last_cut_at >= state.srtt:
            if isinstance(state, CubicState):
                state.w_max = state.cwnd
                state.cwnd = max(state.floor, state.beta_cubic * state.cwnd)
                state.ssthresh = state.cwnd
                state.epoch_start = now
            else:
                state.ssthresh = max(state.floor, state.cwnd * state.md_ratio)
                state.cwnd = state.ssthresh
            state.last_cut_at = now
        return state
    if state.cwnd < state.ssthresh:
        state.cwnd += acked_bytes
        return state
    if isinstance(state, CubicState):
        if state.epoch_start is None:
            state.epoch_start = now
            state.w_max = state.cwnd
        t = now - state.epoch_start
        w_max_mss = state.w_max / state.mss
        k = cubic_k(w_max_mss, state.beta_cubic, state.cubic_c)
        target_mss = state.cubic_c * (t - k) ** 3 + w_max_mss
        state.cwnd = max(state.floor, target_mss * state.mss)
    else:
        if state.cwnd > 0:
            state.cwnd += state.mss * acked_bytes / state.cwnd
    return state


class SenderKind(NamedTuple):
    cc: Optional[type]                 # None: the constant-rate UDP sender
    data_ecn: dict[str, EcnCodepoint]  # by the name of each feedback channel it reads


_CLASSIC_FEEDBACK = {"classic": EcnCodepoint.ECT0, "none": EcnCodepoint.NOT_ECT}
SENDERS: dict[str, SenderKind] = {
    "prague": SenderKind(PragueState, {"accecn": EcnCodepoint.ECT1}),
    "cubic": SenderKind(CubicState, _CLASSIC_FEEDBACK),
    "reno": SenderKind(RenoState, _CLASSIC_FEEDBACK),
    "udp": SenderKind(None, {"none": EcnCodepoint.ECT1}),
}


@dataclass(slots=True)
class ReceiverState:
    """UE-side receiver: reassembles the byte stream and produces feedback."""

    flow: FiveTuple                 # downlink tuple (server -> client)
    mode: FeedbackMode
    recv_next: int = 0
    ce_pkts: int = 0
    ce_bytes: int = 0
    ect0_bytes: int = 0
    ect1_bytes: int = 0
    ece_latched: bool = False
    latest_ce_mark_time: Optional[float] = None
    _ooo: dict[int, int] = field(default_factory=dict)
    ack_tuple: FiveTuple = field(init=False, repr=False, compare=False)  # uplink tuple

    def __post_init__(self) -> None:
        self.ack_tuple = reverse_tuple(self.flow)

    def received_counters(self) -> AccEcnFields:
        return AccEcnFields(self.ce_pkts % 8, self.ce_bytes, self.ect0_bytes, self.ect1_bytes)


def receiver_on_data(
    state: ReceiverState, pkt: Packet, now: float, ack_pkt_id: int
) -> Optional[Packet]:
    """Process a delivered downlink packet; return the ACK to send, if any.

    The middlebox may overwrite the feedback fields in flight when
    short-circuiting is active; the receiver stays oblivious.
    """
    payload = pkt.payload_bytes
    if pkt.ecn is EcnCodepoint.CE:
        state.ce_pkts += 1
        state.ce_bytes += payload
        if state.mode is FeedbackMode.CLASSIC_ECN:
            state.ece_latched = True
        if pkt.fb_cutoff is not None:
            if state.latest_ce_mark_time is None or pkt.fb_cutoff > state.latest_ce_mark_time:
                state.latest_ce_mark_time = pkt.fb_cutoff
    elif pkt.ecn is EcnCodepoint.ECT0:
        state.ect0_bytes += payload
    elif pkt.ecn is EcnCodepoint.ECT1:
        state.ect1_bytes += payload

    tcp = pkt.tcp
    is_syn = tcp is not None and tcp.flags & SYN
    if tcp is not None and tcp.flags & CWR:
        state.ece_latched = False

    if tcp is not None and payload > 0:
        seq = tcp.seq
        if seq == state.recv_next:
            state.recv_next += payload
            while state.recv_next in state._ooo:
                state.recv_next += state._ooo.pop(state.recv_next)
        elif seq > state.recv_next and seq not in state._ooo:
            state._ooo[seq] = payload

    if pkt.five_tuple.proto is not Proto.TCP:
        return None  # UDP feedback is out of band or absent; downlink marking covers it

    flags = ACK | SYN if is_syn else ACK
    # on the SYN-ACK, ECE is the ECN capability echo
    if state.mode is FeedbackMode.CLASSIC_ECN and (is_syn or state.ece_latched):
        flags |= ECE
    accecn = state.received_counters() if state.mode is FeedbackMode.ACC_ECN else None
    # positional, in field order (see ``core``): the ACK's feedback cutoff is
    # the latest CE mark time it covers
    return Packet(ack_pkt_id, state.ack_tuple, 40, EcnCodepoint.NOT_ECT, now,
                  TcpFields(0, state.recv_next, flags, accecn), state.latest_ce_mark_time)
