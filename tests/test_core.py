import random

import pytest

from l4span.core import (
    EcnCodepoint,
    FiveTuple,
    FlowClass,
    Packet,
    Proto,
    classify_flow,
    reverse_tuple,
)


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
    assert classify_flow(EcnCodepoint.ECT1) is FlowClass.L4S
    assert classify_flow(EcnCodepoint.ECT0) is FlowClass.CLASSIC_ECN
    assert classify_flow(EcnCodepoint.NOT_ECT) is FlowClass.NON_ECN
    # CE on arrival goes to the low-latency class
    assert classify_flow(EcnCodepoint.CE) is FlowClass.L4S


def test_classify_flow_total():
    for cp in EcnCodepoint:
        assert classify_flow(cp) in (FlowClass.L4S, FlowClass.CLASSIC_ECN, FlowClass.NON_ECN)


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
