"""Shared domain vocabulary: packets, ECN codepoints, flows, DRB configuration.

Everything here is a plain value type; nothing mutates shared state, so these
objects can be copied or shared freely.

The per-packet path hashes and tests only C-level values: a ``FiveTuple``
is a ``NamedTuple`` whose ``Proto`` hashes as its ``str`` value, and
``TcpFields.flags`` is a plain ``int`` tested with the ``SYN``/``ACK``/
``ECE``/``CWR`` masks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

TCP_HEADER_BYTES = 40
UDP_HEADER_BYTES = 28


class ProtocolError(Exception):
    """A feedback or sequencing rule was violated (non-monotone SN, regressing feedback)."""


class EstimateUnavailable(Exception):
    """No usable estimate exists yet (empty window, missing RTT, zero rate)."""


class EcnCodepoint(enum.IntEnum):
    """2-bit IP ECN field."""

    NOT_ECT = 0b00
    ECT1 = 0b01
    ECT0 = 0b10
    CE = 0b11


class FlowClass(enum.Enum):
    L4S = "l4s"
    CLASSIC_ECN = "classic_ecn"
    NON_ECN = "non_ecn"


class Proto(str, enum.Enum):
    TCP = "tcp"
    UDP = "udp"


class RlcMode(enum.Enum):
    AM = "am"
    UM = "um"


# TCP flag bits as plain int masks, for ``TcpFields.flags``
SYN = 0x1
ACK = 0x2
ECE = 0x4
CWR = 0x8


# indexed by the 2-bit codepoint: ECT(1) identifies scalable low-latency
# flows, ECT(0) classic ECN flows, and Not-ECT flows cannot receive ECN
# feedback at all.  CE on arrival is treated as low-latency (the dual-queue
# convention of routing CE traffic to the low-latency queue).
FLOW_CLASS_OF_ECN = (FlowClass.NON_ECN, FlowClass.L4S, FlowClass.CLASSIC_ECN, FlowClass.L4S)


class FiveTuple(NamedTuple):
    """Flow identity. Addresses are abstract host ids; nothing here is routed."""

    src_addr: int
    dst_addr: int
    src_port: int
    dst_port: int
    proto: Proto


def reverse_tuple(ft: FiveTuple) -> FiveTuple:
    """Swap the endpoints; applying it twice returns the original tuple."""
    return FiveTuple(ft.dst_addr, ft.src_addr, ft.dst_port, ft.src_port, ft.proto)


@dataclass
class AccEcnFields:
    """Accurate-ECN feedback counters carried in a TCP header (field semantics only)."""

    ace_counter: int = 0  # 3-bit wrapping CE packet count
    ce_bytes: int = 0
    ect0_bytes: int = 0
    ect1_bytes: int = 0


@dataclass
class TcpFields:
    seq: int = 0
    ack_no: int = 0
    flags: int = 0                  # SYN | ACK | ECE | CWR bits
    accecn: Optional[AccEcnFields] = None


@dataclass
class Packet:
    """A simulated datagram.

    size_bytes includes the header floor (40 B TCP / 28 B UDP); sequence and
    byte counters elsewhere operate on payload bytes.
    """

    pkt_id: int
    five_tuple: FiveTuple
    size_bytes: int
    ecn: EcnCodepoint
    created_at: float
    tcp: Optional[TcpFields] = None
    # simulation-only diagnostics, never wire fields: the timestamp up to
    # which this packet's feedback covers tentative marks (feedback-latency
    # ledger), and the sojourn predicted for it at middlebox ingress
    fb_cutoff: Optional[float] = field(default=None, repr=False)
    pred_sojourn: Optional[float] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        floor = TCP_HEADER_BYTES if self.five_tuple.proto is Proto.TCP else UDP_HEADER_BYTES
        if self.size_bytes < floor:
            raise ValueError(
                f"size_bytes={self.size_bytes} below header floor {floor} for {self.five_tuple.proto}"
            )
        if self.tcp is not None and self.tcp.accecn is not None and self.five_tuple.proto is not Proto.TCP:
            raise ValueError("accecn fields only valid on TCP packets")

    @property
    def payload_bytes(self) -> int:
        floor = TCP_HEADER_BYTES if self.five_tuple.proto is Proto.TCP else UDP_HEADER_BYTES
        return self.size_bytes - floor


@dataclass
class DrbConfig:
    """Per data-radio-bearer configuration."""

    ue_id: int
    drb_id: int
    rlc_mode: RlcMode = RlcMode.AM
    max_queue_sdus: int = 16384
    mss_bytes: int = 1500

    def __post_init__(self) -> None:
        if self.max_queue_sdus <= 0:
            raise ValueError("max_queue_sdus must be positive")
        if self.mss_bytes <= 0:
            raise ValueError("mss_bytes must be positive")

    @property
    def key(self) -> tuple:
        return (self.ue_id, self.drb_id)
