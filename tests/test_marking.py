import math
import random

import pytest

from l4span.core import (
    EcnCodepoint,
    EstimateUnavailable,
    FiveTuple,
    FlowClass,
    Packet,
    Proto,
)
from l4span.marking import (
    DrbMarkState,
    DrbMode,
    MarkDecision,
    MarkParams,
    coupled_probabilities,
    decide_mark,
    dualpi2_step_mark,
    error_cost_bounds,
    k_constant,
    p_classic,
    p_l4s,
    refresh_probabilities,
    rtt_estimate,
)
from l4span.profile import EgressEstimate

K_HALF = 1.224744871391589


def test_k_constant_values():
    assert k_constant(0.5) == pytest.approx(K_HALF, rel=1e-12)
    # limit beta -> 0+ is sqrt(2)/2
    assert k_constant(1e-9) == pytest.approx(0.5 * math.sqrt(2), rel=1e-6)
    assert k_constant(0.7) == pytest.approx(1.6832508230603462, rel=1e-12)


def test_k_constant_domain():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            k_constant(bad)


def test_p_l4s_step_above_threshold():
    # zero error width, predicted sojourn 15 ms >= 10 ms threshold
    assert p_l4s(150_000, 10e6, 0.0, 0.010) == 1.0


def test_p_l4s_half_at_mean():
    # queue exactly at the byte threshold: Gaussian symmetry gives 1/2
    assert p_l4s(50_000, 5e6, 1e5, 0.010) == pytest.approx(0.5)


def test_p_l4s_empty_queue():
    p = p_l4s(0, 5e6, 2e6, 0.010)
    assert p == pytest.approx(0.5 * math.erfc(5e6 / (2e6 * math.sqrt(2))))
    assert p < 0.5
    # sharper edge as e_hat -> 0, vanishing in the limit
    assert p_l4s(0, 5e6, 1e6, 0.010) < p
    assert p_l4s(0, 5e6, 0.0, 0.010) == 0.0


def test_p_l4s_monotonicity():
    rng = random.Random(5)
    for _ in range(300):
        r = rng.uniform(1e5, 1e7)
        e = rng.uniform(0, 1e6)
        tau = rng.uniform(1e-3, 0.05)
        n1 = rng.uniform(0, 1e6)
        n2 = n1 + rng.uniform(0, 1e6)
        assert p_l4s(n2, r, e, tau) >= p_l4s(n1, r, e, tau)
        r2 = r + rng.uniform(0, 1e6)
        assert p_l4s(n1, r2, e, tau) <= p_l4s(n1, r, e, tau)


def test_p_l4s_degenerate_step_grid():
    tau = 0.010
    r = 5e6
    for n in range(0, 200_000, 5_000):
        expect = 1.0 if n / tau >= r else 0.0
        assert p_l4s(n, r, 0.0, tau) == expect


def test_dualpi2_step_mark_examples():
    assert dualpi2_step_mark(1.0, 1.0, 0.001) is False  # head == tail
    assert dualpi2_step_mark(1.0, 1.002, 0.001) is True  # 2 ms spread over 1 ms
    assert dualpi2_step_mark(1.0, 1.002, 0.010) is False  # 10 ms variant
    with pytest.raises(ValueError):
        dualpi2_step_mark(2.0, 1.0, 0.001)


def test_step_proxy_agrees_with_predicted_sojourn_on_constant_drain():
    # on a constant-rate drain the head/tail ingress spread and the
    # predicted sojourn (queued/rate) select the same marking state
    rate = 5e6
    threshold = 0.010
    t = 0.0
    agree = 0
    total = 0
    queue = []
    for i in range(4000):
        t += 1500 / (rate * 1.2)  # 20% overload builds the queue
        queue.append((t, 1500))
        # drain
        drained = rate * (1500 / (rate * 1.2))
        while queue and drained >= queue[0][1]:
            drained -= queue.pop(0)[1]
        if not queue:
            continue
        n_queue = sum(b for _, b in queue)
        proxy = dualpi2_step_mark(queue[0][0], queue[-1][0], threshold)
        predicted = n_queue / rate >= threshold
        total += 1
        agree += proxy == predicted
    assert total > 1000
    assert agree / total >= 0.95


def test_p_classic_value():
    p = p_classic(1500, K_HALF, 0.050, 5e6)
    assert p == pytest.approx(5.4e-5, rel=1e-3)
    assert p == pytest.approx((1500 * K_HALF / (0.050 * 5e6)) ** 2, rel=1e-12)


def test_p_classic_clamp():
    assert p_classic(1500, K_HALF, 0.001, 1000.0) == 1.0


def test_p_classic_rtt_scaling():
    p1 = p_classic(1500, K_HALF, 0.05, 5e6)
    p2 = p_classic(1500, K_HALF, 0.10, 5e6)
    assert p2 == pytest.approx(p1 / 4, rel=1e-12)


def test_p_classic_errors():
    with pytest.raises(EstimateUnavailable):
        p_classic(1500, K_HALF, 0.0, 5e6)
    with pytest.raises(EstimateUnavailable):
        p_classic(1500, K_HALF, 0.05, 0.0)


def test_rtt_estimate():
    assert rtt_estimate(0.040, 0.010) == pytest.approx(0.050)
    assert rtt_estimate(None, 0.015) == pytest.approx(0.030)
    assert rtt_estimate(0.040, 0.0) == pytest.approx(0.040)
    with pytest.raises(EstimateUnavailable):
        rtt_estimate(None, 0.0)


def test_coupled_probabilities():
    assert coupled_probabilities(0.0)[0] == 0.0
    p_shared, p_cl = coupled_probabilities(1e-4)
    assert p_cl == 1e-4
    assert p_shared == pytest.approx(0.016329931618554522, rel=1e-9)
    assert coupled_probabilities(1.0)[0] == 1.0


def test_coupling_equalizes_throughput_models():
    # substituting both probabilities into the two throughput models gives
    # equal rates (before clamping) for any classic probability
    rng = random.Random(11)
    mss, rtt = 1500.0, 0.05
    k = k_constant(0.5)
    for _ in range(300):
        p_cl = 10 ** rng.uniform(-8, 0)
        p_shared_unclamped = (2.0 / k) * math.sqrt(p_cl)
        r_l4s = 2 * mss / (rtt * p_shared_unclamped)
        r_classic = mss * k / (rtt * math.sqrt(p_cl))
        assert abs(r_l4s - r_classic) / r_classic < 1e-9


def test_error_cost_bounds():
    assert error_cost_bounds(1e7, 1e7, 0.040, 0.010) == (0.0, 0.0)
    infl, loss = error_cost_bounds(1e7, 1.2e7, 0.040, 0.010)
    assert infl == pytest.approx(0.008) and loss == 0.0
    infl, loss = error_cost_bounds(1e7, 0.8e7, 0.040, 0.010)
    assert infl == 0.0 and loss == pytest.approx(2.5e6)


def test_probabilities_bounded():
    rng = random.Random(23)
    for _ in range(500):
        p1 = p_l4s(rng.uniform(0, 1e7), rng.uniform(0, 1e7), rng.uniform(0, 1e6), rng.uniform(1e-3, 0.1))
        assert 0.0 <= p1 <= 1.0
        p2 = p_classic(rng.uniform(40, 9000), rng.uniform(0.7, 2.0),
                       rng.uniform(1e-3, 1.0), rng.uniform(1e3, 1e8))
        assert 0.0 <= p2 <= 1.0


def _estimate(n_queue, r_hat, e_hat, at=1.0):
    sojourn = n_queue / r_hat if r_hat > 0 else math.inf
    return EgressEstimate(r_hat=r_hat, e_hat=e_hat, n_queue=n_queue,
                          sojourn_hat=sojourn, at=at, sample_count=10)


def _pkt(proto=Proto.TCP, ecn=EcnCodepoint.ECT1):
    return Packet(
        pkt_id=1, five_tuple=FiveTuple(1, 2, 10, 20, proto), size_bytes=1500,
        ecn=ecn, created_at=1.0,
    )


def test_decide_mark_step_below_threshold_passes():
    state = DrbMarkState(mode=DrbMode.L4S_ONLY)
    params = MarkParams(force_zero_error=True)
    refresh_probabilities(state, params, _estimate(25_000, 5e6, 1e5))  # 5 ms < 10 ms
    rng = random.Random(1)
    for _ in range(200):
        assert decide_mark(state, params, _pkt(), FlowClass.L4S, rng, 1.0) is MarkDecision.PASS


def test_decide_mark_certain_marking():
    state = DrbMarkState(mode=DrbMode.CLASSIC_ONLY)
    params = MarkParams(short_circuit=False)
    state.last_estimate = _estimate(100_000, 5e6, 0.0)
    state.p_classic = 1.0
    rng = random.Random(1)
    d = decide_mark(state, params, _pkt(ecn=EcnCodepoint.ECT0), FlowClass.CLASSIC_ECN, rng, 1.0)
    assert d is MarkDecision.MARK_CE
    # non-ECN flow with the drop fallback enabled
    params2 = MarkParams(short_circuit=False, drop_fallback=True)
    d2 = decide_mark(state, params2, _pkt(ecn=EcnCodepoint.NOT_ECT), FlowClass.NON_ECN, rng, 1.0)
    assert d2 is MarkDecision.DROP
    # without it, non-ECN flows pass
    d3 = decide_mark(state, params, _pkt(ecn=EcnCodepoint.NOT_ECT), FlowClass.NON_ECN, rng, 1.0)
    assert d3 is MarkDecision.PASS


def test_decide_mark_tcp_short_circuit_tentative():
    state = DrbMarkState(mode=DrbMode.L4S_ONLY)
    params = MarkParams(short_circuit=True)
    state.last_estimate = _estimate(100_000, 5e6, 0.0)
    state.p_l4s = 1.0
    rng = random.Random(1)
    d = decide_mark(state, params, _pkt(), FlowClass.L4S, rng, 1.0)
    assert d is MarkDecision.TENTATIVE_MARK
    d2 = decide_mark(state, params, _pkt(proto=Proto.UDP), FlowClass.L4S, rng, 1.0)
    assert d2 is MarkDecision.MARK_CE


def test_decide_mark_stale_estimate_passes():
    state = DrbMarkState(mode=DrbMode.L4S_ONLY)
    params = MarkParams()
    state.last_estimate = _estimate(1_000_000, 5e6, 0.0, at=1.0)
    state.p_l4s = 1.0
    rng = random.Random(1)
    assert decide_mark(state, params, _pkt(), FlowClass.L4S, rng, 10.0) is MarkDecision.PASS


def test_decide_mark_bernoulli_frequency():
    # a million seeded draws at p = 0.25 land within +/- 0.005
    state = DrbMarkState(mode=DrbMode.SHARED)
    params = MarkParams()
    state.last_estimate = _estimate(50_000, 5e6, 1e5)
    state.p_l4s_shared = 0.25
    state.p_classic = 0.25
    rng = random.Random(99)
    pkt = _pkt()
    n = 1_000_000
    marked = 0
    for _ in range(n):
        if decide_mark(state, params, pkt, FlowClass.L4S, rng, 1.0) is not MarkDecision.PASS:
            marked += 1
    assert abs(marked / n - 0.25) <= 0.005


def test_decide_mark_deterministic_given_seed():
    def stream(seed):
        state = DrbMarkState(mode=DrbMode.L4S_ONLY)
        params = MarkParams()
        state.last_estimate = _estimate(50_000, 5e6, 1e5)
        state.p_l4s = 0.5
        rng = random.Random(seed)
        pkt = _pkt()
        return [decide_mark(state, params, pkt, FlowClass.L4S, rng, 1.0) for _ in range(500)]

    assert stream(7) == stream(7)
    assert stream(7) != stream(8)


def test_refresh_probabilities_updates_byte_threshold():
    # the byte threshold r_hat * tau_thr is where p_l4s crosses 1/2
    state = DrbMarkState(mode=DrbMode.L4S_ONLY)
    params = MarkParams(tau_thr=0.010)
    refresh_probabilities(state, params, _estimate(5e6 * 0.010, 5e6, 1e4))
    assert state.p_l4s == pytest.approx(0.5)
    refresh_probabilities(state, params, _estimate(5e6 * 0.010, 6e6, 1e4))
    assert state.p_l4s < 0.5


def test_mode_transitions():
    state = DrbMarkState()
    ft1 = FiveTuple(1, 2, 10, 20, Proto.TCP)
    ft2 = FiveTuple(1, 2, 11, 20, Proto.TCP)
    state.observe_flow(ft1, FlowClass.L4S, 1500, 0.0)
    assert state.mode is DrbMode.L4S_ONLY
    state.observe_flow(ft2, FlowClass.CLASSIC_ECN, 1500, 1.0)
    assert state.mode is DrbMode.SHARED
    # idle flows are forgotten after 10 s
    state.observe_flow(ft2, FlowClass.CLASSIC_ECN, 1500, 5.0)
    state.observe_flow(ft1, FlowClass.L4S, 1500, 16.0)
    assert state.mode is DrbMode.L4S_ONLY
