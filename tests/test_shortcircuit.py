import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l4span.core import (
    ACK,
    CWR,
    ECE,
    AccEcnFields,
    EcnCodepoint,
    FiveTuple,
    Packet,
    Proto,
    TcpFields,
)
from l4span.marking import MarkDecision
from l4span.shortcircuit import (
    FeedbackMode,
    FlowFeedbackState,
    InvalidMarkOperation,
    classify_feedback_mode,
    fallback_mark_downlink,
    record_tentative_mark,
    rewrite_ack,
)

FT = FiveTuple(1, 2, 10, 20, Proto.TCP)
FT_UDP = FiveTuple(1, 2, 10, 20, Proto.UDP)


def _data(ecn=EcnCodepoint.ECT1, payload=1500, flags=ACK):
    return Packet(
        pkt_id=1, five_tuple=FT, size_bytes=payload + 40, ecn=ecn,
        created_at=0.0,
        tcp=TcpFields(seq=0, ack_no=0, flags=flags),
    )


def _ack(ack_no, flags=ACK, accecn=None):
    return Packet(
        pkt_id=2, five_tuple=FiveTuple(2, 1, 20, 10, Proto.TCP), size_bytes=40,
        ecn=EcnCodepoint.NOT_ECT, created_at=0.0,
        tcp=TcpFields(seq=0, ack_no=ack_no, flags=flags, accecn=accecn),
    )


def test_classify_feedback_mode():
    assert classify_feedback_mode(_ack(0, accecn=AccEcnFields())) is FeedbackMode.ACC_ECN
    assert classify_feedback_mode(_ack(0, flags=ACK | ECE)) is FeedbackMode.CLASSIC_ECN
    udp = Packet(
        pkt_id=3, five_tuple=FT_UDP, size_bytes=28, ecn=EcnCodepoint.NOT_ECT,
        created_at=0.0,
    )
    assert classify_feedback_mode(udp) is FeedbackMode.DOWNLINK_FALLBACK


def test_record_tentative_mark_counters():
    st = FlowFeedbackState(mode=FeedbackMode.ACC_ECN)
    record_tentative_mark(st, _data(payload=1500), MarkDecision.TENTATIVE_MARK)
    assert st.ce_pkts == 1 and st.ce_bytes == 1500
    record_tentative_mark(st, _data(payload=1500), MarkDecision.PASS)
    assert st.ect1_bytes == 1500
    assert st.last_split_ratio == pytest.approx(0.5)


def test_record_pass_accounts_by_codepoint():
    st = FlowFeedbackState(mode=FeedbackMode.ACC_ECN)
    record_tentative_mark(st, _data(ecn=EcnCodepoint.ECT0, payload=700), MarkDecision.PASS)
    assert st.ect0_bytes == 700 and st.ect1_bytes == 0
    # upstream CE counts like a tentative mark
    record_tentative_mark(st, _data(ecn=EcnCodepoint.CE, payload=700), MarkDecision.PASS)
    assert st.ce_pkts == 1 and st.ce_bytes == 700


def test_counter_conservation():
    rng = random.Random(17)
    st = FlowFeedbackState(mode=FeedbackMode.ACC_ECN)
    total = 0
    for _ in range(500):
        payload = rng.randrange(1, 1461)
        ecn = rng.choice([EcnCodepoint.ECT0, EcnCodepoint.ECT1])
        dec = rng.choice([MarkDecision.TENTATIVE_MARK, MarkDecision.PASS])
        record_tentative_mark(st, _data(ecn=ecn, payload=payload), dec)
        total += payload
        assert st.accounted_bytes == total


def test_rewrite_accecn_counters_and_ace():
    st = FlowFeedbackState(mode=FeedbackMode.ACC_ECN)
    for _ in range(9):
        record_tentative_mark(st, _data(payload=1000), MarkDecision.TENTATIVE_MARK)
    ack = rewrite_ack(st, _ack(9000))
    acc = ack.tcp.accecn
    assert st.ce_pkts == 9
    assert acc.ace_counter == 9 % 8 == 1
    assert acc.ce_bytes == 9000  # ratio 1.0, all acked bytes split to CE
    assert st.highest_acked == 9000


def test_rewrite_accecn_ratio_zero():
    st = FlowFeedbackState(mode=FeedbackMode.ACC_ECN)
    for _ in range(4):
        record_tentative_mark(st, _data(payload=1000), MarkDecision.PASS)
    ack = rewrite_ack(st, _ack(4000))
    acc = ack.tcp.accecn
    assert acc.ce_bytes == 0
    assert acc.ect1_bytes == 4000
    assert ack.tcp.flags & ECE == 0


def test_rewrite_accecn_split_ratio():
    st = FlowFeedbackState(mode=FeedbackMode.ACC_ECN)
    record_tentative_mark(st, _data(payload=1000), MarkDecision.TENTATIVE_MARK)
    record_tentative_mark(st, _data(payload=3000), MarkDecision.PASS)
    ack = rewrite_ack(st, _ack(4000))
    assert ack.tcp.accecn.ce_bytes == 1000  # ratio 0.25 of 4000
    assert ack.tcp.accecn.ect1_bytes == 3000


def test_rewrite_idempotent():
    st = FlowFeedbackState(mode=FeedbackMode.ACC_ECN)
    record_tentative_mark(st, _data(payload=1000), MarkDecision.TENTATIVE_MARK)
    ack = rewrite_ack(st, _ack(1000))
    first = (ack.tcp.accecn.ce_bytes, ack.tcp.accecn.ect0_bytes,
             ack.tcp.accecn.ect1_bytes, ack.tcp.accecn.ace_counter, ack.tcp.flags)
    again = rewrite_ack(st, ack)
    second = (again.tcp.accecn.ce_bytes, again.tcp.accecn.ect0_bytes,
              again.tcp.accecn.ect1_bytes, again.tcp.accecn.ace_counter, again.tcp.flags)
    assert first == second


def test_rewrite_regressed_ack_passthrough():
    st = FlowFeedbackState(mode=FeedbackMode.ACC_ECN)
    record_tentative_mark(st, _data(payload=1000), MarkDecision.TENTATIVE_MARK)
    rewrite_ack(st, _ack(1000))
    old = _ack(500)
    out = rewrite_ack(st, old)
    assert out.tcp.accecn is None  # untouched duplicate


def test_classic_latch_protocol():
    # between a latch and the first CWR downlink packet every ACK carries
    # ECN-Echo; after CWR none do until the next mark
    st = FlowFeedbackState(mode=FeedbackMode.CLASSIC_ECN)
    record_tentative_mark(st, _data(ecn=EcnCodepoint.ECT0), MarkDecision.TENTATIVE_MARK)
    acked = 1500
    for _ in range(5):
        ack = rewrite_ack(st, _ack(acked))
        assert ack.tcp.flags & ECE
        acked += 1500
    record_tentative_mark(st, _data(ecn=EcnCodepoint.ECT0, flags=ACK | CWR),
                          MarkDecision.PASS)
    for _ in range(5):
        ack = rewrite_ack(st, _ack(acked))
        assert not (ack.tcp.flags & ECE)
        acked += 1500
    record_tentative_mark(st, _data(ecn=EcnCodepoint.ECT0), MarkDecision.TENTATIVE_MARK)
    ack = rewrite_ack(st, _ack(acked))
    assert ack.tcp.flags & ECE
    assert st.ece_latched


def test_fallback_mark_downlink():
    pkt = _data(ecn=EcnCodepoint.ECT1)
    out = fallback_mark_downlink(pkt, MarkDecision.MARK_CE)
    assert out.ecn is EcnCodepoint.CE
    pkt2 = _data(ecn=EcnCodepoint.ECT0)
    assert fallback_mark_downlink(pkt2, MarkDecision.PASS).ecn is EcnCodepoint.ECT0
    pkt3 = _data(ecn=EcnCodepoint.NOT_ECT)
    assert fallback_mark_downlink(pkt3, MarkDecision.DROP) is None
    with pytest.raises(InvalidMarkOperation):
        fallback_mark_downlink(_data(ecn=EcnCodepoint.NOT_ECT), MarkDecision.MARK_CE)


# -- rewrite_ack against a naive counter oracle ---------------------------------------

# a downlink data packet (payload, codepoint, tentative mark?, CWR?) or an ACK
# for a percentage of the bytes sent so far; percentages below the highest
# ACK so far make stale duplicates, equal ones make repeats; payloads come
# from a few sizes so that the ECT(0) and ECT(1) byte counts often tie
_DATA = st.tuples(st.just("data"), st.sampled_from([0, 1, 500, 1460]),
                  st.sampled_from([EcnCodepoint.ECT0, EcnCodepoint.ECT1, EcnCodepoint.CE]),
                  st.booleans(), st.booleans())
_ACK = st.tuples(st.just("ack"), st.just(100) | st.integers(0, 100))
_OPS = st.lists(st.one_of(_DATA, _ACK), max_size=60)


class _CounterOracle:
    """Counts bytes with plain integers, as the AccECN and classic ECN rules read."""

    def __init__(self):
        self.sent = self.ce = self.ect0 = self.ect1 = self.ce_pkts = 0
        self.window = []  # (payload, marked) since the last advancing ACK
        self.ratio = 0.0
        self.highest = 0
        self.reported = {"ce": 0, "ect0": 0, "ect1": 0}
        self.latched = False
        self.ce_pkts_echoed = 0

    def data(self, payload, ecn, mark, cwr):
        if cwr:
            self.latched = False
        if payload <= 0:
            return
        self.sent += payload
        marked = mark or ecn is EcnCodepoint.CE
        if marked:
            self.ce += payload
            self.ce_pkts += 1
        elif ecn is EcnCodepoint.ECT0:
            self.ect0 += payload
        else:
            self.ect1 += payload
        self.window.append((payload, marked))
        self.ratio = sum(p for p, m in self.window if m) / sum(p for p, _ in self.window)

    def ack(self, ack_no, mode):
        """False when the ACK is stale and must pass unmodified."""
        if ack_no < self.highest:
            return False
        delta = ack_no - self.highest
        if mode is FeedbackMode.CLASSIC_ECN and self.ce_pkts > self.ce_pkts_echoed:
            self.latched, self.ce_pkts_echoed = True, self.ce_pkts
        if delta > 0:
            if mode is FeedbackMode.ACC_ECN:
                marked = min(delta, round(delta * self.ratio))
                self.reported["ce"] += marked
                self.reported["ect0" if self.ect0 >= self.ect1 else "ect1"] += delta - marked
            self.highest = ack_no
            self.window = []
        return True


def _fields(ack):
    acc = ack.tcp.accecn
    counters = None if acc is None else (acc.ace_counter, acc.ce_bytes, acc.ect0_bytes,
                                         acc.ect1_bytes)
    return counters, int(ack.tcp.flags)


@pytest.mark.parametrize("mode", [FeedbackMode.ACC_ECN, FeedbackMode.CLASSIC_ECN])
@settings(max_examples=300, deadline=None)
@given(ops=_OPS)
def test_rewrite_ack_matches_counter_oracle(mode, ops):
    state = FlowFeedbackState(mode=mode)
    oracle = _CounterOracle()
    last = (0, 0, 0)
    for op in ops:
        if op[0] == "data":
            _, payload, ecn, mark, cwr = op
            flags = ACK | (CWR if cwr else 0)
            decision = MarkDecision.TENTATIVE_MARK if mark else MarkDecision.PASS
            record_tentative_mark(state, _data(ecn=ecn, payload=payload, flags=flags), decision)
            oracle.data(payload, ecn, mark, cwr)
            assert (state.ce_bytes, state.ect0_bytes, state.ect1_bytes) == (
                oracle.ce, oracle.ect0, oracle.ect1)
            assert state.accounted_bytes == oracle.sent
            continue
        ack_no = oracle.sent * op[1] // 100
        ack = _ack(ack_no)
        before_ack, before_state = _fields(ack), copy.deepcopy(state)
        out = rewrite_ack(state, ack)
        if not oracle.ack(ack_no, mode):
            # a stale duplicate passes unmodified and changes nothing
            assert _fields(out) == before_ack and state == before_state
            continue
        reported = (state.reported_ce_bytes, state.reported_ect0_bytes, state.reported_ect1_bytes)
        assert all(now >= was for now, was in zip(reported, last))
        last = reported
        assert state.reported_ce_bytes <= state.accounted_bytes
        assert state.highest_acked == oracle.highest
        if mode is FeedbackMode.ACC_ECN:
            assert reported == (oracle.reported["ce"], oracle.reported["ect0"],
                                oracle.reported["ect1"])
            assert sum(reported) == oracle.highest
            acc = out.tcp.accecn
            assert (acc.ace_counter, acc.ce_bytes, acc.ect0_bytes, acc.ect1_bytes) == (
                oracle.ce_pkts % 8, *reported)
        else:
            assert out.tcp.accecn is None
            assert bool(out.tcp.flags & ECE) == oracle.latched
        # the same ACK again is a repeat: same fields, same state
        rewritten, after_state = _fields(out), copy.deepcopy(state)
        again = rewrite_ack(state, out)
        assert _fields(again) == rewritten and state == after_state
