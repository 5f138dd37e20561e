import math
import random

import pytest

from l4span.core import (
    ACK,
    CWR,
    ECE,
    EcnCodepoint,
    FiveTuple,
    Packet,
    Proto,
    TcpFields,
)
from l4span.marking import k_constant
from l4span.senders import (
    CubicState,
    PragueState,
    ReceiverState,
    RenoState,
    SenderPhase,
    classic_on_ack,
    cubic_k,
    prague_on_ack,
    prague_on_loss,
    receiver_on_data,
)
from l4span.shortcircuit import FeedbackMode

MSS = 1460


def _prague(**kw):
    defaults = dict(mss=MSS, cwnd=100 * MSS, ssthresh=50 * MSS,
                    phase=SenderPhase.AI, dctcp_alpha=0.0,
                    round_end_total=100 * MSS)
    defaults.update(kw)
    return PragueState(**defaults)


def test_prague_full_ce_round_halves():
    # alpha pinned at 1 (all bytes CE): cut factor is 1/2
    st = _prague(dctcp_alpha=1.0, ewma_gain=0.0)
    cwnd0 = st.cwnd
    for _ in range(100):
        prague_on_ack(st, MSS, MSS, 0.0)
    assert st.cwnd == pytest.approx(cwnd0 / 2, rel=0.05)


def test_prague_single_ewma_step():
    # one fully-marked round from alpha=0 with gain 1/16
    st = _prague()
    cwnd0 = st.cwnd
    for _ in range(100):
        prague_on_ack(st, MSS, MSS, 0.0)
    assert st.dctcp_alpha == pytest.approx(0.0625)
    # the cut uses the freshly updated alpha: factor 1 - 0.0625/2
    assert st.cwnd == pytest.approx(0.96875 * (cwnd0 + 1.0 * MSS), rel=0.02)


def test_prague_alpha_decays_geometrically():
    st = _prague(dctcp_alpha=1.0)
    rounds = 0
    boundary = st.round_end_total
    while rounds < 10:
        prague_on_ack(st, MSS, 0, 0.0)
        if st.round_end_total != boundary:
            boundary = st.round_end_total
            rounds += 1
    # ten CE-free rounds: alpha = (15/16)^10 exactly
    assert st.dctcp_alpha == pytest.approx((15 / 16) ** 10, rel=1e-12)


def test_prague_slow_start_doubles_until_ce():
    st = PragueState(mss=MSS, cwnd=10 * MSS, round_end_total=10 * MSS)
    for _ in range(10):
        prague_on_ack(st, MSS, 0, 0.0)
    assert st.phase is SenderPhase.SLOW_START
    assert st.cwnd == pytest.approx(20 * MSS)
    prague_on_ack(st, MSS, MSS, 0.0)  # first CE ends slow start
    assert st.phase is SenderPhase.AI


def test_prague_floor():
    st = _prague(cwnd=2 * MSS, dctcp_alpha=1.0)
    for _ in range(300):
        prague_on_ack(st, MSS, MSS, 0.0)
    assert st.cwnd >= 2 * MSS
    assert st.ssthresh >= 2 * MSS


def test_prague_one_cut_per_round():
    st = _prague(dctcp_alpha=1.0, ewma_gain=0.0)
    cuts = 0
    rounds = 0
    last = st.cwnd
    boundary = st.round_end_total
    # everything marked: cuts may only happen at round boundaries
    for _ in range(1000):
        prague_on_ack(st, MSS, MSS, 0.0)
        if st.round_end_total != boundary:
            boundary = st.round_end_total
            rounds += 1
        if st.cwnd < last:
            cuts += 1
        last = st.cwnd
    assert cuts <= rounds


def test_prague_loss_halves_once():
    st = _prague(cwnd=100 * MSS)
    prague_on_loss(st, 1.0)
    assert st.cwnd == pytest.approx(50 * MSS)
    prague_on_loss(st, 1.001)  # same round: no second cut
    assert st.cwnd == pytest.approx(50 * MSS)


def test_reno_halves_on_ce():
    st = RenoState(mss=MSS, cwnd=100 * MSS, ssthresh=100 * MSS)
    classic_on_ack(st, MSS, True, 1.0)
    assert st.cwnd == pytest.approx(50 * MSS)
    assert st.ssthresh == pytest.approx(50 * MSS)


def test_reno_growth_about_one_mss_per_rtt():
    st = RenoState(mss=MSS, cwnd=100 * MSS, ssthresh=MSS)  # congestion avoidance
    for _ in range(100):  # one cwnd's worth of ACKs
        classic_on_ack(st, MSS, False, 0.0)
    assert st.cwnd == pytest.approx(101 * MSS, rel=0.01)


def test_cubic_plateau_at_k():
    # w(K) == w_max: the cubic function returns to the pre-cut window at t=K
    st = CubicState(mss=MSS, cwnd=100 * MSS, ssthresh=MSS, srtt=0.05)
    classic_on_ack(st, MSS, True, 10.0)  # cut at t=10
    assert st.cwnd == pytest.approx(70 * MSS)
    k = cubic_k(100, 0.7, 0.4)
    classic_on_ack(st, MSS, False, 10.0 + k)
    assert st.cwnd == pytest.approx(100 * MSS, rel=1e-6)


def test_cubic_growth_matches_scalar_oracle():
    st = CubicState(mss=MSS, cwnd=100 * MSS, ssthresh=MSS, srtt=0.05)
    classic_on_ack(st, MSS, True, 0.0)
    t = 10.0
    classic_on_ack(st, MSS, False, t)
    k = (100 * 0.3 / 0.4) ** (1 / 3)
    expected_mss = 0.4 * (t - k) ** 3 + 100
    assert st.cwnd == pytest.approx(expected_mss * MSS, rel=1e-9)


def test_cubic_one_cut_per_rtt():
    st = CubicState(mss=MSS, cwnd=100 * MSS, ssthresh=MSS, srtt=0.05)
    classic_on_ack(st, MSS, True, 1.0)
    w = st.cwnd
    classic_on_ack(st, MSS, True, 1.01)  # within one srtt: ignored
    assert st.cwnd == w
    classic_on_ack(st, MSS, True, 1.06)
    assert st.cwnd < w


def test_classic_floor():
    for st in (RenoState(mss=MSS, cwnd=2 * MSS), CubicState(mss=MSS, cwnd=2 * MSS)):
        t = 0.0
        for _ in range(50):
            t += 1.0
            classic_on_ack(st, MSS, True, t)
            assert st.cwnd >= 2 * MSS


def test_reno_matches_throughput_model():
    # a Reno sender behind a constant Bernoulli marker with probability p
    # lands within +/-25% of MSS*K/(RTT*sqrt(p))
    k = k_constant(0.5)
    rtt = 0.05
    for p in (1e-5, 1e-4, 1e-3):
        rng = random.Random(4242)
        st = RenoState(mss=MSS, cwnd=50 * MSS, ssthresh=MSS, srtt=rtt)
        now = 0.0
        sent_bytes = 0.0
        horizon = 3000.0  # many sawtooth cycles even at p=1e-5
        while now < horizon:
            pkts = max(2, int(st.cwnd / MSS))
            marked = any(rng.random() < p for _ in range(pkts))
            sent_bytes += pkts * MSS
            classic_on_ack(st, pkts * MSS, marked, now)
            now += rtt
        rate = sent_bytes / horizon
        model = MSS * k / (rtt * math.sqrt(p))
        assert 0.75 * model <= rate <= 1.25 * model, f"p={p}: {rate} vs {model}"


FT = FiveTuple(1, 2, 10, 20, Proto.TCP)


def _data(seq, payload=1460, ecn=EcnCodepoint.ECT1, flags=ACK):
    return Packet(
        pkt_id=1, five_tuple=FT, size_bytes=payload + 40, ecn=ecn,
        created_at=0.0,
        tcp=TcpFields(seq=seq, ack_no=0, flags=flags),
    )


def test_receiver_classic_ce_sets_ece():
    st = ReceiverState(flow=FT, mode=FeedbackMode.CLASSIC_ECN)
    ack = receiver_on_data(st, _data(0, ecn=EcnCodepoint.CE), 1.0, 100)
    assert ack.tcp.flags & ECE
    assert ack.tcp.ack_no == 1460
    # stays latched until CWR
    ack2 = receiver_on_data(st, _data(1460, ecn=EcnCodepoint.ECT0), 1.1, 101)
    assert ack2.tcp.flags & ECE
    ack3 = receiver_on_data(st, _data(2920, ecn=EcnCodepoint.ECT0,
                                      flags=ACK | CWR), 1.2, 102)
    assert not (ack3.tcp.flags & ECE)


def test_receiver_counts_by_codepoint():
    st = ReceiverState(flow=FT, mode=FeedbackMode.ACC_ECN)
    receiver_on_data(st, _data(0, ecn=EcnCodepoint.ECT1), 1.0, 100)
    assert st.ect1_bytes == 1460 and st.ce_bytes == 0
    assert not st.ece_latched


def test_receiver_accecn_ace_counts_ce_packets():
    st = ReceiverState(flow=FT, mode=FeedbackMode.ACC_ECN)
    ack = None
    for i in range(3):
        ack = receiver_on_data(st, _data(i * 1460, ecn=EcnCodepoint.CE), 1.0, 100 + i)
    assert ack.tcp.accecn.ace_counter == 3
    assert ack.tcp.accecn.ce_bytes == 3 * 1460


def test_receiver_cumulative_ack_with_gap():
    st = ReceiverState(flow=FT, mode=FeedbackMode.ACC_ECN)
    receiver_on_data(st, _data(0), 1.0, 100)
    ack = receiver_on_data(st, _data(2920), 1.1, 101)  # gap at 1460
    assert ack.tcp.ack_no == 1460
    ack2 = receiver_on_data(st, _data(1460), 1.2, 102)  # fills the gap
    assert ack2.tcp.ack_no == 4380


def test_receiver_counters_non_decreasing():
    rng = random.Random(6)
    st = ReceiverState(flow=FT, mode=FeedbackMode.ACC_ECN)
    prev = (0, 0, 0, 0)
    seq = 0
    for _ in range(200):
        ecn = rng.choice([EcnCodepoint.CE, EcnCodepoint.ECT0, EcnCodepoint.ECT1])
        receiver_on_data(st, _data(seq, ecn=ecn), 1.0, 1)
        seq += 1460
        cur = (st.ce_pkts, st.ce_bytes, st.ect0_bytes, st.ect1_bytes)
        assert all(c >= p for c, p in zip(cur, prev))
        prev = cur


def test_prague_sawtooth_small_amplitude(acc):
    # steady state on a static channel behind the adaptive marker: cwnd
    # oscillates in a small sawtooth, relative amplitude under 15% of mean
    res = acc.result("static-1ue")
    cwnds = [r["cwnd"] for r in res.collector.intervals
             if r["flow"] == "prague-1" and r["t"] >= 5.0]
    mean = sum(cwnds) / len(cwnds)
    amplitude = (max(cwnds) - min(cwnds)) / 2
    assert amplitude / mean < 0.15, f"amplitude {amplitude/mean:.3f} of mean"
