import math
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l4span.core import EstimateUnavailable, ProtocolError
from l4span.profile import DEFAULT_WINDOW_SECS, KEEP_HORIZON_SECS, ProfileTable

W = DEFAULT_WINDOW_SECS


def test_window_default():
    assert W == pytest.approx(0.01245)


def test_record_ingress_first_insert():
    t = ProfileTable()
    t.record_ingress(1, 1500)
    assert len(t.entries) == 1
    e = t.entries[0]
    assert e.t_transmit is None
    assert t.queued_bytes == 1500


def test_record_ingress_monotonicity():
    t = ProfileTable()
    t.record_ingress(1, 1500)
    with pytest.raises(ProtocolError):
        t.record_ingress(1, 1500)


def test_queued_bytes_additivity():
    t = ProfileTable()
    for sn, size in enumerate([1500, 700, 40], start=1):
        t.record_ingress(sn, size)
    assert t.queued_bytes == 2240


def test_feedback_stamps_transmit_times():
    # three packets queued; status tx=2 at t=5 stamps 1 and 2; a later
    # repeat at t=9 stamps nothing and leaves the transmit times
    t = ProfileTable()
    for sn in (1, 2, 3):
        t.record_ingress(sn, 1500)
    assert t.on_f1u_feedback(2, 5.0) == 2
    assert [e.t_transmit for e in t.entries] == [5.0, 5.0, None]
    assert t.highest_tx_sn == 2
    assert t.on_f1u_feedback(2, 9.0) == 0
    assert [e.t_transmit for e in t.entries] == [5.0, 5.0, None]


def test_feedback_regression_rejected():
    t = ProfileTable()
    t.record_ingress(1, 1500)
    t.record_ingress(2, 1500)
    t.on_f1u_feedback(2, 1.0)
    with pytest.raises(ProtocolError):
        t.on_f1u_feedback(1, 2.0)


def test_egress_rate_smoothed_single_packet():
    t = ProfileTable()
    t.record_ingress(1, 1500)
    t.on_f1u_feedback(1, 0.005)
    est = t.egress_rate_smoothed()
    assert est.sample_count == 1
    assert est.r_hat == pytest.approx(1500 / W)
    assert est.r_hat == pytest.approx(120481.92771084337)


def test_egress_rate_smoothed_additivity():
    # the second sample's rate counts both packets in its window
    t = ProfileTable()
    t.record_ingress(1, 1500)
    t.record_ingress(2, 1500)
    t.on_f1u_feedback(1, 0.004)
    t.on_f1u_feedback(2, 0.0045)
    est = t.egress_rate_smoothed()
    assert est.r_hat == pytest.approx((1500 / W + 2 * 1500 / W) / 2)
    assert est.e_hat == pytest.approx(750 / W)


def test_smoothed_requires_transmissions():
    t = ProfileTable()
    with pytest.raises(EstimateUnavailable):
        t.egress_rate_smoothed()


def test_smoothed_constant_drain_zero_error():
    # identical instantaneous rates -> zero standard deviation
    t = ProfileTable()
    for sn in range(1, 40):
        t.record_ingress(sn, 1500)
    now = 0.05
    for sn in range(1, 40):
        t.on_f1u_feedback(sn, now)
        now += W  # each transmit alone in its window: identical rates
    est = t.egress_rate_smoothed()
    assert est.sample_count == 1  # window holds only the newest sample
    assert est.e_hat == 0.0

    # denser: several same-rate samples inside one window
    t2 = ProfileTable()
    for sn in range(1, 60):
        t2.record_ingress(sn, 1500)
    now = 0.05
    step = W / 4
    for sn in range(1, 60):
        t2.on_f1u_feedback(sn, now)
        now += step
    est2 = t2.egress_rate_smoothed()
    assert est2.sample_count >= 2
    assert est2.e_hat == pytest.approx(0.0, abs=1e-6)


def test_sojourn_prediction_direct_division():
    t = ProfileTable(window_secs=0.01)
    # one transmitted packet establishes the rate; queued bytes predict sojourn
    t.record_ingress(1, 100000)
    t.on_f1u_feedback(1, 0.01)
    t.record_ingress(2, 60000)
    t.record_ingress(3, 40000)
    est = t.egress_rate_smoothed()
    assert est.r_hat == pytest.approx(100000 / 0.01)  # 10 MB/s
    assert est.n_queue == 100000
    assert est.sojourn_hat == pytest.approx(0.010)  # 10 ms


def test_sojourn_empty_queue_zero():
    t = ProfileTable()
    t.record_ingress(1, 1500)
    t.on_f1u_feedback(1, 0.002)
    est = t.egress_rate_smoothed()
    assert est.n_queue == 0
    assert est.sojourn_hat == 0.0


def _brute_force_smoothed(events):
    """Independent re-implementation: events = [(sn, size, t_tx)] transmitted."""
    if not events:
        return None
    t_k = max(t for _, _, t in events)
    low = t_k - W

    def instant(t_i):
        return sum(size for _, size, t in events if t_i - W < t <= t_i) / W

    rates = [instant(t) for _, _, t in events if low < t <= t_k]
    mean = sum(rates) / len(rates)
    if len(rates) >= 2:
        var = sum((r - mean) ** 2 for r in rates) / len(rates)
    else:
        var = 0.0
    return mean, math.sqrt(var)


def test_smoothed_matches_brute_force_oracle():
    rng = random.Random(7)
    t = ProfileTable()
    events = []
    now = 0.0
    sn = 0
    for _ in range(400):
        sn += 1
        size = rng.choice([40, 700, 1500])
        t.record_ingress(sn, size)
        now += rng.random() * 2e-3
        t.on_f1u_feedback(sn, now)
        events.append((sn, size, now))
    est = t.egress_rate_smoothed()
    mean, std = _brute_force_smoothed(events)
    assert est.r_hat == pytest.approx(mean, rel=1e-9)
    assert est.e_hat == pytest.approx(std, rel=1e-6, abs=1e-6)


def test_byte_conservation_invariant():
    rng = random.Random(13)
    t = ProfileTable()
    sizes = []
    ingressed = 0
    transmitted = 0
    sn = 0
    tx_sn = 0
    now = 0.0
    for _ in range(500):
        now += rng.random() * 1e-3
        if rng.random() < 0.6:
            sn += 1
            size = rng.randrange(40, 1501)
            t.record_ingress(sn, size)
            sizes.append(size)
            ingressed += size
        elif tx_sn < sn:
            first = tx_sn
            tx_sn += rng.randrange(1, sn - tx_sn + 1)
            assert t.on_f1u_feedback(tx_sn, now) == tx_sn - first
            transmitted += sum(sizes[first:tx_sn])
        assert t.queued_bytes == ingressed - transmitted


def test_synthetic_drain_within_five_percent():
    # steady drain at R bytes/s for >= 2 windows: r_hat within [0.95R, 1.05R]
    R = 5e6
    slot = 0.0005
    per_slot = R * slot
    t = ProfileTable()
    sn = 0
    now = 0.0
    carry = 0.0
    for _ in range(int(0.2 / slot)):  # 0.2 s >> 2 windows
        now += slot
        carry += per_slot
        while carry >= 1500:
            sn += 1
            t.record_ingress(sn, 1500)
            carry -= 1500
        t.on_f1u_feedback(sn, now)
    est = t.egress_rate_smoothed()
    assert 0.95 * R <= est.r_hat <= 1.05 * R


def test_gaussian_premise_near_zero_mean_error():
    # stationary random drain: mean of (r_hat - true) within 5% of true
    rng = random.Random(3)
    R = 4e6
    slot = 0.0005
    t = ProfileTable()
    sn = 0
    now = 0.0
    carry = 0.0
    errs = []
    for i in range(int(1.0 / slot)):
        now += slot
        carry += R * slot * (0.5 + rng.random())  # mean R per slot
        while carry >= 1500:
            sn += 1
            t.record_ingress(sn, 1500)
            carry -= 1500
        t.on_f1u_feedback(sn, now)
        if i > 100:
            errs.append(t.egress_rate_smoothed().r_hat - R)
    assert abs(sum(errs) / len(errs)) <= 0.05 * R


def test_gc_keeps_fresh_entries():
    t = ProfileTable()
    t.record_ingress(1, 1500)
    t.on_f1u_feedback(1, 0.001)
    assert t.gc_delivered(1.0, 0.5) == 0
    assert len(t.entries) == 1


def test_gc_evicts_by_transmit_time_alone():
    # transmitted before the cutoff is the whole rule
    t = ProfileTable()
    for sn in (1, 2, 3):
        t.record_ingress(sn, 1500)
    t.on_f1u_feedback(2, 0.001)
    assert t.gc_delivered(1.0, 0.5) == 0
    assert t.gc_delivered(1.0, 2.0) == 2  # entry 3 was never transmitted
    assert [e.pdcp_sn for e in t.entries] == [3]


def test_stamping_message_evicts_past_the_horizon():
    t = ProfileTable()
    for sn in (1, 2, 3):
        t.record_ingress(sn, 1500)
    t.on_f1u_feedback(1, 0.5)
    t.on_f1u_feedback(2, 1.0)
    # a message that stamps nothing evicts nothing, however late
    assert t.on_f1u_feedback(2, 5.0) == 0
    assert [e.pdcp_sn for e in t.entries] == [1, 2, 3]
    # one that stamps evicts what was transmitted before now - horizon
    assert t.on_f1u_feedback(3, 0.75 + KEEP_HORIZON_SECS) == 1
    assert [e.pdcp_sn for e in t.entries] == [2, 3]


def test_gc_preserves_estimate():
    t = ProfileTable()
    now = 0.0
    for sn in range(1, 200):
        t.record_ingress(sn, 1500)
        now += 4e-4
        t.on_f1u_feedback(sn, now)
    before = t.egress_rate_smoothed()
    removed = t.gc_delivered(2 * W, now)
    assert removed > 0
    after = t.egress_rate_smoothed()
    assert after == before


# slot and window are powers of two, so transmit times and window edges are
# exact and packets land right on the (t - W, t] boundary
SLOT = 2.0 ** -11
GRID_W = 16 * SLOT


def _naive_smoothed(sent, window):
    """Naive recomputation over [(size, t_tx)] in SN order: each packet's
    instantaneous rate counts the bytes of packets up to and including it
    transmitted in (t_k - W, t_k]; the estimate is the mean and population
    std of those rates over the window ending at the newest transmit."""
    rates = []
    for k, (_, t_k) in enumerate(sent):
        low = t_k - window
        total = 0
        j = k
        while j >= 0 and sent[j][1] > low:
            total += sent[j][0]
            j -= 1
        rates.append((t_k, total / window))
    low = sent[-1][1] - window
    in_window = [r for t, r in rates if t > low]
    mean = sum(in_window) / len(in_window)
    return mean, math.sqrt(sum((r - mean) ** 2 for r in in_window) / len(in_window))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 8),                     # arrivals in this slot
            st.sampled_from([40, 700, 1500]),      # their size
            st.integers(0, 8),                     # packets the slot transmits
            st.integers(0, 24),                    # slots to the next one
        ),
        min_size=1, max_size=100,
    ),
    st.integers(1, 20),  # repeats of the pattern: long runs cross the moment refresh
)
def test_smoothed_matches_naive_oracle(slots, repeats):
    t = ProfileTable(window_secs=GRID_W)
    pending = deque()
    sent = []
    sn = tx_sn = slot = 0
    for arrivals, size, n_tx, gap in slots * repeats:
        now = slot * SLOT
        for _ in range(arrivals):
            sn += 1
            t.record_ingress(sn, size)
            pending.append(size)
        for _ in range(min(n_tx, len(pending))):
            tx_sn += 1
            sent.append((pending.popleft(), now))
        if sent:
            t.on_f1u_feedback(tx_sn, now)
        slot += gap
    if not sent:
        with pytest.raises(EstimateUnavailable):
            t.egress_rate_smoothed()
        return
    est = t.egress_rate_smoothed()
    mean, std = _naive_smoothed(sent, GRID_W)
    assert est.r_hat == pytest.approx(mean, rel=1e-9)
    # the running moments lose ~sqrt(eps) * r_hat to cancellation
    assert est.e_hat == pytest.approx(std, rel=1e-6, abs=1e-5 * mean)
    assert est.n_queue == sum(pending)
