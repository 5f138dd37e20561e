"""Queue-occupancy prediction and probabilistic ECN marking for a simulated
5G RAN bottleneck, with closed-loop congestion-controlled senders."""

from .core import (
    FLOW_CLASS_OF_ECN,
    DrbConfig,
    EcnCodepoint,
    EstimateUnavailable,
    FiveTuple,
    FlowClass,
    Packet,
    Proto,
    ProtocolError,
    RlcMode,
    reverse_tuple,
)
from .marking import (
    DrbMarkState,
    MarkDecision,
    MarkParams,
    coupled_probabilities,
    decide_mark,
    error_cost_bounds,
    k_constant,
    p_classic,
    p_l4s,
    rtt_estimate,
)
from .profile import EgressEstimate, ProfileEntry, ProfileTable
from .shortcircuit import (
    FeedbackMode,
    FlowFeedbackState,
    classify_feedback_mode,
    fallback_mark_downlink,
    record_tentative_mark,
    rewrite_ack,
)

__version__ = "0.1.0"

__all__ = [
    "FLOW_CLASS_OF_ECN",
    "DrbConfig",
    "DrbMarkState",
    "EcnCodepoint",
    "EgressEstimate",
    "EstimateUnavailable",
    "FeedbackMode",
    "FiveTuple",
    "FlowClass",
    "FlowFeedbackState",
    "MarkDecision",
    "MarkParams",
    "Packet",
    "ProfileEntry",
    "ProfileTable",
    "Proto",
    "ProtocolError",
    "RlcMode",
    "classify_feedback_mode",
    "coupled_probabilities",
    "decide_mark",
    "error_cost_bounds",
    "fallback_mark_downlink",
    "k_constant",
    "p_classic",
    "p_l4s",
    "record_tentative_mark",
    "reverse_tuple",
    "rewrite_ack",
    "rtt_estimate",
]
