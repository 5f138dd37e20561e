"""Output checks the benchmark applies to a finished run, from outside.

Each check returns a list of human-readable problems; an empty list means
the run passed.  They read only public state of the simulator's objects
and the metric streams it produced.
"""

from __future__ import annotations

import math

from l4span.ransim.sim import TcpEndpoint
from l4span.shortcircuit import FeedbackMode

# a bearer backlog counts as growing without bound when its mean standing
# bytes rise through every quarter of the steady window, end at least twice
# as high as they started, and end above this floor (20 full-size packets)
BACKLOG_FLOOR_BYTES = 30_000


def conservation(sim) -> list[str]:
    """Cross-layer byte and counter invariants at run end."""
    problems = []
    for key, q in sim.queues.items():
        if q.admitted_bytes != q.transmitted_bytes + q.standing_bytes:
            problems.append(
                f"rlc {key}: admitted {q.admitted_bytes} != transmitted "
                f"{q.transmitted_bytes} + standing {q.standing_bytes}")
        layer = sim.layers[key]
        in_queue = sum(sdu.pkt.size_bytes for sdu in q.sdus)
        if layer.profile.queued_bytes != in_queue:
            problems.append(
                f"drb {key}: profile queued {layer.profile.queued_bytes} != "
                f"{in_queue} bytes of SDUs in the RLC queue")
        for ft, fb in layer.flow_feedback.items():
            if fb.mode is FeedbackMode.ACC_ECN and fb.reported_ce_bytes > fb.accounted_bytes:
                problems.append(
                    f"flow {ft}: reported CE {fb.reported_ce_bytes} > accounted "
                    f"{fb.accounted_bytes} bytes")
    for flow in sim.flows:
        ep = flow.endpoint
        if isinstance(ep, TcpEndpoint):
            outstanding = sum(rec[0] for rec in ep.outstanding.values())
            if ep.inflight != outstanding:
                problems.append(
                    f"flow {flow.spec.name}: inflight {ep.inflight} != outstanding {outstanding}")
    return problems


def non_finite(value, path: str = "summary") -> list[str]:
    """Paths of summary numbers that are NaN or infinite (None is allowed)."""
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in non_finite(v, f"{path}.{k}")]
    if isinstance(value, (list, tuple)):
        return [p for i, v in enumerate(value) for p in non_finite(v, f"{path}[{i}]")]
    if isinstance(value, float) and not math.isfinite(value):
        return [path]
    return []


def bearer_backlogs(intervals: list[dict], drb_of_flow: dict, warmup_secs: float) -> dict:
    """Standing bytes per bearer per interval after warm-up, from the interval stream."""
    series: dict[tuple, dict[float, int]] = {}
    for rec in intervals:
        if rec["t"] >= warmup_secs:
            series.setdefault(tuple(drb_of_flow[rec["flow"]]), {})[rec["t"]] = rec["queue_bytes"]
    return {key: [v for _, v in sorted(by_t.items())] for key, by_t in series.items()}


def growing_backlog(series: list[int]) -> bool:
    """True when a backlog keeps growing to the end of the series."""
    n = len(series) // 4
    if n == 0:
        return False
    means = [sum(series[i * n:(i + 1) * n]) / n for i in range(3)]
    means.append(sum(series[3 * n:]) / len(series[3 * n:]))
    rising = all(a < b for a, b in zip(means, means[1:]))
    return rising and means[-1] >= 2 * means[0] and means[-1] >= BACKLOG_FLOOR_BYTES
