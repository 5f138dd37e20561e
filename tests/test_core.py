import dataclasses
import random

import pytest

from l4span.core import (
    ACK,
    CWR,
    ECE,
    FLOW_CLASS_OF_ECN,
    SYN,
    EcnCodepoint,
    FiveTuple,
    FlowClass,
    Packet,
    Proto,
    reverse_tuple,
)
from l4span.harness.scenario import AqmSpec, ChannelSpec, DrbSpec, FlowSpec, Scenario, UeSpec
from l4span.ransim import sim as sim_mod


def test_ecn_codepoint_bit_values():
    assert EcnCodepoint.NOT_ECT == 0b00
    assert EcnCodepoint.ECT1 == 0b01
    assert EcnCodepoint.ECT0 == 0b10
    assert EcnCodepoint.CE == 0b11


def test_ecn_encode_decode_roundtrip():
    for cp in EcnCodepoint:
        assert EcnCodepoint(int(cp)) is cp
    # bijective over the 2-bit space
    assert {int(cp) for cp in EcnCodepoint} == {0, 1, 2, 3}


def test_classify_flow():
    assert FLOW_CLASS_OF_ECN[EcnCodepoint.ECT1] is FlowClass.L4S
    assert FLOW_CLASS_OF_ECN[EcnCodepoint.ECT0] is FlowClass.CLASSIC_ECN
    assert FLOW_CLASS_OF_ECN[EcnCodepoint.NOT_ECT] is FlowClass.NON_ECN
    # CE on arrival goes to the low-latency class
    assert FLOW_CLASS_OF_ECN[EcnCodepoint.CE] is FlowClass.L4S


def test_classify_flow_total():
    for cp in EcnCodepoint:
        assert FLOW_CLASS_OF_ECN[cp] in (FlowClass.L4S, FlowClass.CLASSIC_ECN, FlowClass.NON_ECN)


def test_reverse_tuple():
    ft = FiveTuple(src_addr=10, dst_addr=20, src_port=1000, dst_port=443, proto=Proto.TCP)
    rev = reverse_tuple(ft)
    assert rev == FiveTuple(src_addr=20, dst_addr=10, src_port=443, dst_port=1000, proto=Proto.TCP)


def test_reverse_tuple_symmetric_ports():
    ft = FiveTuple(src_addr=1, dst_addr=2, src_port=53, dst_port=53, proto=Proto.UDP)
    rev = reverse_tuple(ft)
    assert rev.src_addr == 2 and rev.dst_addr == 1
    assert rev.src_port == rev.dst_port == 53
    assert rev.proto is Proto.UDP


def test_reverse_tuple_involution():
    rng = random.Random(42)
    for _ in range(200):
        ft = FiveTuple(
            src_addr=rng.randrange(1 << 16),
            dst_addr=rng.randrange(1 << 16),
            src_port=rng.randrange(1 << 16),
            dst_port=rng.randrange(1 << 16),
            proto=rng.choice([Proto.TCP, Proto.UDP]),
        )
        assert reverse_tuple(reverse_tuple(ft)) == ft


def _pkt(proto, size):
    ft = FiveTuple(1, 2, 10, 20, proto)
    return Packet(
        pkt_id=1, five_tuple=ft, size_bytes=size, ecn=EcnCodepoint.ECT1,
        created_at=0.0,
    )


def test_packet_header_floor():
    assert _pkt(Proto.TCP, 40).payload_bytes == 0
    assert _pkt(Proto.UDP, 28).payload_bytes == 0
    assert _pkt(Proto.TCP, 1500).payload_bytes == 1460
    with pytest.raises(ValueError):
        _pkt(Proto.TCP, 39)
    with pytest.raises(ValueError):
        _pkt(Proto.UDP, 27)


# -- the API edge: named types outside, C-level values on the per-packet path --------


def test_five_tuple_is_an_immutable_hashable_value():
    ft = FiveTuple(src_addr=1, dst_addr=2, src_port=10, dst_port=20, proto=Proto.TCP)
    assert ft == FiveTuple(1, 2, 10, 20, Proto.TCP)
    assert ft != FiveTuple(1, 2, 10, 20, Proto.UDP)
    assert hash(ft) == hash(FiveTuple(1, 2, 10, 20, Proto.TCP))
    assert {ft: "flow"}[FiveTuple(1, 2, 10, 20, Proto.TCP)] == "flow"
    assert ft._fields == ("src_addr", "dst_addr", "src_port", "dst_port", "proto")
    with pytest.raises(AttributeError):
        ft.src_port = 11
    assert reverse_tuple(reverse_tuple(ft)) == ft and reverse_tuple(ft) != ft


def test_proto_keeps_its_value_and_identity():
    assert Proto.TCP.value == "tcp" and Proto.UDP.value == "udp"
    assert Proto("tcp") is Proto.TCP
    assert FiveTuple(1, 2, 10, 20, Proto.UDP).proto is Proto.UDP


def test_flag_masks_are_the_named_flag_bits():
    assert [SYN, ACK, ECE, CWR] == [1, 2, 4, 8]
    flags = ACK | ECE
    assert flags & ECE and not flags & CWR
    flags &= ~ECE
    assert flags == ACK and not flags & ECE


def test_simulated_tcp_packets_carry_int_flags(monkeypatch):
    # both feedback modes on one bearer: SYNs, data with CWR, ACKs with ECE
    seen = []
    real = sim_mod.receiver_on_data

    def spy(state, pkt, now, ack_pkt_id):
        ack = real(state, pkt, now, ack_pkt_id)
        seen.extend(p for p in (pkt, ack) if p is not None and p.tcp is not None)
        return ack

    monkeypatch.setattr(sim_mod, "receiver_on_data", spy)
    scn = Scenario(name="flags", horizon_secs=2.0, warmup_secs=0.2, aqm=AqmSpec(tau_thr=0.002),
                   ues=[UeSpec(ue_id=1, channel=ChannelSpec(kind="static", capacity_bps=5e6),
                               drbs=[DrbSpec(flows=[
                                   FlowSpec(name="prague", kind="prague"),
                                   FlowSpec(name="cubic", kind="cubic", feedback="classic"),
                               ])])])
    sim_mod.run(scn)
    assert {type(p.tcp.flags) for p in seen} == {int}
    assert any(p.tcp.flags & SYN for p in seen)
    assert any(p.tcp.flags & ECE and not p.tcp.flags & SYN for p in seen)
