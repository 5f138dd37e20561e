"""Seeded workload generators for the benchmark.

Each generator turns a seed into a plain ``Scenario``; the simulator sees
nothing else.  Why each workload exists:

* ``bulk-1ue`` -- one UE on a static 40 Mbit/s channel with one long-lived
  Prague/AccECN flow under round-robin (the bundled ``static-1ue`` shape).
  The per-packet path (downlink handler, RLC, feedback, delivery, ACK
  rewrite, sender) does almost all the work and the scheduler sees one UE.
* ``cell-16ue`` -- 16 UEs on seeded fading channels under proportional-fair
  scheduling, one long Prague flow each with staggered starts.  Every slot
  pays the scheduler and rate lookups across 16 UEs plus 16 per-bearer
  feedbacks, so scheduler and marking-refresh costs show here.
* ``short-flows`` -- 32 UEs on fading channels under proportional-fair
  scheduling with an open-loop Poisson schedule of finite flows, Prague and
  CUBIC mixed on one AM bearer per UE, plus a low-rate UDP ECT(1) flow on a
  UM bearer of every 8th UE.  It exercises coupled/classic marking, the
  classic ECE latch, the downlink CE fallback, per-connection set-up and
  flow completion times at about half the cell's capacity.

The two long-flow workloads also carry a stream of fixed-size probe flows
on the long flows' bearers (the short-flow-beside-long-flow experiment), so
that flow completion time is defined on every workload.

``short-flows`` draws its exponential inter-arrival gaps and log-uniform
sizes by stratified sampling and spreads flows evenly over UEs and over the
two congestion controllers, and its fading channels are fixed per UE as in
the bundled scenarios: the seed changes which flows arrive when and where,
not the offered bytes.  Runs of ``cell-16ue`` and ``short-flows`` pool
several independently seeded cells (``subruns``), because the delay tail
and completion times of one cell hang on a few episodes.
"""

from __future__ import annotations

import math
import random

from l4span.harness.scenario import (
    AqmSpec,
    ChannelSpec,
    DrbSpec,
    FlowSpec,
    Scenario,
    UeSpec,
)

# simulated seconds, and probe/short-flow shapes; every value lands in the
# run's provenance record
PARAMS = {
    "bulk-1ue": {
        "subruns": 1,
        "horizon_secs": 10.0,
        "warmup_secs": 2.0,
        "capacity_bps": 40e6,
        "scheduler": "round_robin",
        "probe_bytes": 14_000,
        "probe_period_secs": 0.07,
        "probe_tail_secs": 1.0,
    },
    "cell-16ue": {
        "subruns": 3,
        "horizon_secs": 8.0,
        "warmup_secs": 2.0,
        "ues": 16,
        "scheduler": "proportional_fair",
        "stagger_secs": 0.1,
        "probe_bytes": 14_000,
        "probe_period_secs": 0.05,
        "probe_tail_secs": 1.0,
    },
    "short-flows": {
        "subruns": 6,
        "horizon_secs": 14.0,
        "warmup_secs": 1.0,
        "ues": 32,
        "scheduler": "proportional_fair",
        "flows": 460,
        "arrivals_from_secs": 0.5,
        "drain_secs": 2.0,
        "size_min_bytes": 10_000,
        "size_max_bytes": 50_000,
        "udp_every_nth_ue": 8,
        # enough to queue on the UM bearer in fades, so the downlink CE
        # fallback runs; at 4 Mbit/s the UM backlog grows without bound
        "udp_rate_bps": 1e6,
    },
}

WORKLOADS = tuple(PARAMS)


def _fading(fade_seed: int, ue: int, n: int) -> ChannelSpec:
    return ChannelSpec(
        kind="fading", mean_bps=30e6, amplitude_bps=10e6, period_secs=5.0,
        phase=ue / n, fade_seed=fade_seed,
    )


def _probes(rng: random.Random, p: dict, ue_ids: list[int]) -> dict[int, list[FlowSpec]]:
    """Fixed-size Prague probes, one per period with seeded jitter, round-robin over UEs."""
    out: dict[int, list[FlowSpec]] = {u: [] for u in ue_ids}
    period = p["probe_period_secs"]
    last = p["horizon_secs"] - p["probe_tail_secs"]
    k = 0
    while True:
        start = p["warmup_secs"] + k * period + rng.uniform(0.0, period)
        if start >= last:
            break
        ue = ue_ids[k % len(ue_ids)]
        out[ue].append(FlowSpec(name=f"probe-{k}", kind="prague", start=round(start, 6),
                                size_bytes=p["probe_bytes"]))
        k += 1
    return out


def bulk_1ue(seed: int) -> Scenario:
    p = PARAMS["bulk-1ue"]
    rng = random.Random(seed)
    flows = [FlowSpec(name="bulk-1", kind="prague")] + _probes(rng, p, [1])[1]
    return Scenario(
        name="bulk-1ue",
        horizon_secs=p["horizon_secs"],
        warmup_secs=p["warmup_secs"],
        seed=seed,
        scheduler=p["scheduler"],
        ues=[UeSpec(ue_id=1, channel=ChannelSpec(kind="static", capacity_bps=p["capacity_bps"]),
                    drbs=[DrbSpec(flows=flows)])],
        aqm=AqmSpec(),
    )


def cell_16ue(seed: int) -> Scenario:
    p = PARAMS["cell-16ue"]
    n = p["ues"]
    rng = random.Random(seed)
    probes = _probes(rng, p, list(range(1, n + 1)))
    ues = []
    for i in range(1, n + 1):
        long_flow = FlowSpec(name=f"prague-{i}", kind="prague", start=(i - 1) * p["stagger_secs"])
        # fade seeds derive from the workload seed: each seed is a new cell
        ues.append(UeSpec(ue_id=i, channel=_fading(seed * 1009 + i, i, n),
                          drbs=[DrbSpec(flows=[long_flow] + probes[i])]))
    return Scenario(
        name="cell-16ue",
        horizon_secs=p["horizon_secs"],
        warmup_secs=p["warmup_secs"],
        seed=seed,
        scheduler=p["scheduler"],
        ues=ues,
        aqm=AqmSpec(),
    )


def short_flows(seed: int) -> Scenario:
    p = PARAMS["short-flows"]
    n = p["ues"]
    rng = random.Random(seed)
    count = p["flows"]
    t0 = p["arrivals_from_secs"]
    t1 = p["horizon_secs"] - p["drain_secs"]
    # Poisson arrivals: exponential gaps drawn by stratified sampling (one
    # per stratum of the distribution, in seeded order), scaled to the window
    gaps = [-math.log(1.0 - (k + rng.random()) / count) for k in range(count)]
    rng.shuffle(gaps)
    scale = (t1 - t0) / sum(gaps)
    starts, t = [], t0
    for g in gaps:
        starts.append(t)
        t += g * scale
    lo, hi = p["size_min_bytes"], p["size_max_bytes"]
    # stratified log-uniform sizes, one per stratum; each pair of adjacent
    # strata holds one Prague and one CUBIC flow, so the seed cannot hand
    # the largest flows all to one congestion controller
    sizes = [round(lo * (hi / lo) ** ((k + rng.random()) / count)) for k in range(count)]
    prague = [rng.random() < 0.5 for _ in range(0, count, 2)]
    kinds = []
    for first in prague:
        kinds += [first, not first]
    jobs = list(zip(sizes, kinds[:count]))
    rng.shuffle(jobs)
    # each run of n consecutive arrivals visits every UE once, in seeded order
    owners = []
    while len(owners) < count:
        block = list(range(1, n + 1))
        rng.shuffle(block)
        owners += block
    per_ue: dict[int, list[FlowSpec]] = {i: [] for i in range(1, n + 1)}
    for k, (start, (size, is_prague), ue) in enumerate(zip(starts, jobs, owners)):
        if is_prague:
            spec = FlowSpec(name=f"short-{k}", kind="prague", feedback="accecn",
                            start=round(start, 6), size_bytes=size)
        else:
            spec = FlowSpec(name=f"short-{k}", kind="cubic", feedback="classic",
                            start=round(start, 6), size_bytes=size)
        per_ue[ue].append(spec)
    ues = []
    for i in range(1, n + 1):
        drbs = [DrbSpec(drb_id=1, rlc_mode="am", flows=per_ue[i])]
        if i % p["udp_every_nth_ue"] == 0:
            drbs.append(DrbSpec(drb_id=2, rlc_mode="um", flows=[
                FlowSpec(name=f"udp-{i}", kind="udp", feedback="none",
                         udp_rate_bps=p["udp_rate_bps"]),
            ]))
        ues.append(UeSpec(ue_id=i, channel=_fading(i, i, n), drbs=drbs))
    return Scenario(
        name="short-flows",
        horizon_secs=p["horizon_secs"],
        warmup_secs=p["warmup_secs"],
        seed=seed,
        scheduler=p["scheduler"],
        ues=ues,
        aqm=AqmSpec(),
    )


GENERATORS = {
    "bulk-1ue": bulk_1ue,
    "cell-16ue": cell_16ue,
    "short-flows": short_flows,
}


def generate(workload: str, seed: int) -> Scenario:
    """The workload's scenario for ``seed``; equal seeds give equal scenarios."""
    scn = GENERATORS[workload](seed)
    scn.validate()
    return scn


def subrun_seeds(workload: str, seed: int) -> list[int]:
    """Scenario seeds of the independently seeded cells one run pools."""
    return [seed * 64 + j for j in range(PARAMS[workload]["subruns"])]


def shortened(workload: str, seed: int, horizon_secs: float) -> Scenario:
    """The workload's scenario cut to ``horizon_secs``, for the traced
    layer-separation check; flows that would start after the cut are dropped."""
    scn = generate(workload, seed)
    scn.horizon_secs = horizon_secs
    scn.warmup_secs = min(scn.warmup_secs, horizon_secs / 2)
    for ue in scn.ues:
        for drb in ue.drbs:
            drb.flows = [f for f in drb.flows if f.start < horizon_secs]
    scn.validate()
    return scn

