"""Per-DRB marking decisions.

Three regimes, selected by the mix of flow classes observed on the bearer:

* low-latency only: mark with the probability that the actual egress rate
  fails to drain the standing queue within the sojourn threshold, using a
  Gaussian model of the egress-rate estimation error.  With zero error
  width this degenerates to a hard step at predicted-sojourn == threshold.
* classic only: mark with the probability that makes the classic TCP
  throughput model (MSS * K / (RTT * sqrt(p))) match the estimated egress
  rate, so the ingress rate balances the drain instead of collapsing.
* shared bearer: keep the classic probability and mark low-latency packets
  with the coupled probability (2/K) * sqrt(p_classic), which equalizes the
  two throughput models at equal RTT.

The wired fixed-step baseline (``dualpi2_step_mark``) needs no estimator: it
estimates sojourn by subtracting the ingress timestamps of the queue head
and tail packets and marks everything while that exceeds a threshold.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field
from typing import Optional

from .core import EstimateUnavailable, FiveTuple, FlowClass, Packet, Proto
from .profile import DEFAULT_WINDOW_SECS, EgressEstimate

_SQRT2 = math.sqrt(2.0)

DEFAULT_BETA = 0.5
IDLE_FLOW_FORGET_SECS = 10.0


def k_constant(beta: float) -> float:
    """Throughput-model constant K = ((1+beta)/2) * sqrt(2/(1-beta^2))."""
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    return (1.0 + beta) / 2.0 * math.sqrt(2.0 / (1.0 - beta * beta))


def p_l4s(n_queue: float, r_hat: float, e_hat: float, tau_thr: float) -> float:
    """Marking probability for a low-latency flow.

    Phi((n_queue/tau_thr - r_hat) / e_hat) with Phi the standard normal CDF;
    at e_hat == 0 this is the step: mark iff predicted sojourn >= threshold.
    """
    x = n_queue / tau_thr - r_hat
    if e_hat <= 0.0:
        return 1.0 if x >= 0.0 else 0.0
    return 0.5 * math.erfc(-x / (e_hat * _SQRT2))


def dualpi2_step_mark(head_ingress: float, tail_ingress: float, threshold_secs: float) -> bool:
    """Step-mark predicate on the realized head/tail ingress spread.

    True marks every packet while the oldest queued packet is more than
    ``threshold_secs`` older than the newest.
    """
    if tail_ingress < head_ingress:
        raise ValueError("tail packet cannot predate the head packet")
    return (tail_ingress - head_ingress) > threshold_secs


def p_classic(mss: float, k: float, rtt_hat: float, r_hat: float) -> float:
    """Marking probability matching the classic throughput model to the egress rate."""
    if rtt_hat <= 0.0 or r_hat <= 0.0:
        raise EstimateUnavailable("need positive RTT and egress-rate estimates")
    v = (mss * k / (rtt_hat * r_hat)) ** 2
    return min(1.0, v)


def coupled_probabilities(p_cl: float, k: float = k_constant(DEFAULT_BETA)) -> tuple[float, float]:
    """Shared-bearer probabilities (p_l4s_shared, p_classic).

    The coupling coefficient 2/K solves r_l4s == r_classic for the two
    throughput models 2*MSS/(RTT*p) and MSS*K/(RTT*sqrt(p)) at equal RTT.
    """
    p_shared = min(1.0, (2.0 / k) * math.sqrt(p_cl))
    return p_shared, p_cl


# below one MAC slot of predicted sojourn the 2x fallback would fabricate a
# sub-millisecond RTT and saturate the classic marking probability
MIN_FALLBACK_SOJOURN_SECS = 0.001


def rtt_estimate(rtt_star: Optional[float], sojourn_hat: float) -> float:
    """RTT estimate for the classic model.

    With a handshake-measured base RTT, add the predicted sojourn; without
    one (UDP, unmeasured), fall back to twice the predicted sojourn.
    """
    if rtt_star is not None:
        return rtt_star + sojourn_hat
    if sojourn_hat >= MIN_FALLBACK_SOJOURN_SECS:
        return 2.0 * sojourn_hat
    raise EstimateUnavailable("no handshake RTT and no measurable sojourn")


def error_cost_bounds(
    r_e_true: float, r_hat: float, rt_p: float, tau_s: float
) -> tuple[float, float]:
    """Diagnostic cost of an egress-rate estimation error under step marking.

    Overestimating the rate under-marks and inflates the RTT by
    rt_p*(r_hat-r_e)/r_e; underestimating over-marks and costs
    (rt_p+tau_s)*(r_e-r_hat)/rt_p of throughput.  Never fed back into
    control decisions.
    """
    if r_e_true <= 0.0 or rt_p <= 0.0:
        raise ValueError("r_e_true and rt_p must be positive")
    if r_hat > r_e_true:
        return rt_p * (r_hat - r_e_true) / r_e_true, 0.0
    if r_hat < r_e_true:
        return 0.0, (rt_p + tau_s) * (r_e_true - r_hat) / rt_p
    return 0.0, 0.0


class DrbMode(enum.Enum):
    L4S_ONLY = "l4s_only"
    CLASSIC_ONLY = "classic_only"
    SHARED = "shared"


class MarkDecision(enum.Enum):
    PASS = "pass"
    MARK_CE = "mark_ce"
    TENTATIVE_MARK = "tentative_mark"
    DROP = "drop"


@dataclass
class MarkParams:
    tau_thr: float = 0.010
    mss_bytes: int = 1500
    beta: float = DEFAULT_BETA
    rng_seed: int = 0
    short_circuit: bool = True
    drop_fallback: bool = False
    # estimates older than this are treated as unavailable (2x estimation window)
    freshness_secs: float = 2 * DEFAULT_WINDOW_SECS
    # baseline switch: zero the error width so marking is a hard sojourn step
    force_zero_error: bool = False
    # shared-bearer strategy: coupled | l4s | classic | original
    shared_policy: str = "coupled"
    # throughput-model constant K, derived from beta at construction
    k: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.tau_thr <= 0:
            raise ValueError("tau_thr must be positive")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must be in (0, 1)")
        if self.shared_policy not in ("coupled", "l4s", "classic", "original"):
            raise ValueError(f"unknown shared_policy {self.shared_policy!r}")
        self.k = k_constant(self.beta)


@dataclass
class _FlowRecord:
    flow_class: FlowClass
    last_seen: float
    bytes_seen: int = 0


@dataclass
class DrbMarkState:
    """Marking-side state of one bearer: flow mix, RTT bases, probabilities."""

    mode: DrbMode = DrbMode.L4S_ONLY
    last_estimate: Optional[EgressEstimate] = None
    p_classic: Optional[float] = None
    p_l4s: float = 0.0
    p_l4s_shared: float = 0.0
    n_l: float = 0.0
    rtt_star: dict[FiveTuple, float] = field(default_factory=dict)
    flows: dict[FiveTuple, _FlowRecord] = field(default_factory=dict)
    _next_idle_scan: float = 0.0

    def observe_flow(self, ft: FiveTuple, flow_class: FlowClass, size_bytes: int, now: float) -> None:
        """Track the flow mix; the latest downlink packet decides a flow's class.

        Mode transitions happen exactly when a packet of a missing class
        arrives; idle flows are scanned out on a coarse cadence.
        """
        rec = self.flows.get(ft)
        changed = False
        if rec is None:
            self.flows[ft] = _FlowRecord(flow_class, now, size_bytes)
            changed = True
        else:
            if rec.flow_class is not flow_class:
                changed = True
            rec.flow_class = flow_class
            rec.last_seen = now
            rec.bytes_seen += size_bytes
        if now >= self._next_idle_scan:
            self._next_idle_scan = now + 0.5
            stale = [f for f, r in self.flows.items() if now - r.last_seen > IDLE_FLOW_FORGET_SECS]
            for f in stale:
                del self.flows[f]
                self.rtt_star.pop(f, None)
                changed = True
        if changed:
            self._refresh_mode()

    def _refresh_mode(self) -> None:
        has_l4s = any(r.flow_class is FlowClass.L4S for r in self.flows.values())
        has_classic = any(r.flow_class is not FlowClass.L4S for r in self.flows.values())
        if has_l4s and has_classic:
            self.mode = DrbMode.SHARED
        elif has_classic:
            self.mode = DrbMode.CLASSIC_ONLY
        else:
            self.mode = DrbMode.L4S_ONLY

    def weighted_rtt_star(self) -> Optional[float]:
        """Byte-weighted mean handshake RTT over the bearer's classic flows."""
        total = 0
        acc = 0.0
        for ft, rec in self.flows.items():
            if rec.flow_class is FlowClass.L4S:
                continue
            base = self.rtt_star.get(ft)
            if base is None:
                continue
            w = max(rec.bytes_seen, 1)
            acc += base * w
            total += w
        if total == 0:
            return None
        return acc / total


def refresh_probabilities(state: DrbMarkState, params: MarkParams, estimate: EgressEstimate) -> None:
    """Recompute the bearer's marking probabilities from a fresh estimate.

    Called on RAN feedback whenever the estimate's inputs changed;
    per-packet decisions then draw against the stored values.
    """
    state.last_estimate = estimate
    e_hat = 0.0 if params.force_zero_error else estimate.e_hat
    state.n_l = estimate.r_hat * params.tau_thr
    state.p_l4s = p_l4s(estimate.n_queue, estimate.r_hat, e_hat, params.tau_thr)
    try:
        # with no measurable standing queue the estimator sees the arrival
        # rate rather than the attainable drain rate, so the classic model's
        # r_hat premise does not hold: treat the estimate as unavailable
        if estimate.sojourn_hat < MIN_FALLBACK_SOJOURN_SECS:
            raise EstimateUnavailable("no standing queue to balance against")
        rtt_hat = rtt_estimate(state.weighted_rtt_star(), estimate.sojourn_hat)
        state.p_classic = p_classic(params.mss_bytes, params.k, rtt_hat, estimate.r_hat)
        state.p_l4s_shared, _ = coupled_probabilities(state.p_classic, params.k)
    except EstimateUnavailable:
        state.p_classic = None
        state.p_l4s_shared = 0.0


def map_mark_outcome(marked: bool, pkt: Packet, flow_class: FlowClass, params: MarkParams) -> MarkDecision:
    """Map a Bernoulli outcome to the wire action for this flow's capabilities."""
    if not marked:
        return MarkDecision.PASS
    if flow_class is FlowClass.NON_ECN:
        return MarkDecision.DROP if params.drop_fallback else MarkDecision.PASS
    if pkt.five_tuple.proto is Proto.TCP and params.short_circuit:
        return MarkDecision.TENTATIVE_MARK
    return MarkDecision.MARK_CE


def decide_mark(
    state: DrbMarkState,
    params: MarkParams,
    pkt: Packet,
    flow_class: FlowClass,
    rng: random.Random,
    now: float,
) -> MarkDecision:
    """Per-packet marking decision using the bearer's latest probabilities.

    A stale or missing estimate always passes.  The Bernoulli outcome maps
    to a tentative mark for short-circuit-capable TCP flows, a CE rewrite
    for the downlink-mark fallback, or a drop for non-ECN flows when the
    drop fallback is enabled.
    """
    est = state.last_estimate
    if est is None or now - est.at > params.freshness_secs:
        return MarkDecision.PASS

    if state.mode is DrbMode.L4S_ONLY:
        p = state.p_l4s if flow_class is FlowClass.L4S else state.p_classic
    elif state.mode is DrbMode.CLASSIC_ONLY:
        p = state.p_classic
    else:  # shared bearer
        policy = params.shared_policy
        if policy == "coupled":
            p = state.p_l4s_shared if flow_class is FlowClass.L4S else state.p_classic
        elif policy == "l4s":
            p = state.p_l4s
        elif policy == "classic":
            p = state.p_classic
        else:  # original: each class keeps its single-class strategy
            p = state.p_l4s if flow_class is FlowClass.L4S else state.p_classic
    if p is None:
        return MarkDecision.PASS

    if p >= 1.0:
        marked = True
    elif p <= 0.0:
        marked = False
    else:
        marked = rng.random() < p
    return map_mark_outcome(marked, pkt, flow_class, params)
