"""Metric streams and summaries.

Three outputs per run, all recomputable from each other's inputs:

* packets.jsonl: one record per delivered packet (one-way delay breakdown
  plus the sojourn predicted for it at ingress);
* intervals.jsonl: per-flow records every 100 ms (throughput, rtt, cwnd,
  queue depth, marking gauges, mark/drop counts);
* summary.json: per-flow and per-UE aggregates over the steady-state
  window.

Streams are line-delimited JSON with sorted keys so identical runs are
byte-identical.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

INTERVAL_SECS = 0.1


@dataclass
class PacketRecord:
    t: float
    flow: str
    one_way: float
    propagation: float
    queuing: float
    scheduling: float
    retransmission: float
    predicted_sojourn: Optional[float]
    size_bytes: int


@dataclass
class _IntervalAcc:
    delivered_payload: int = 0
    marks: int = 0
    drops: int = 0
    rtt_sum: float = 0.0
    rtt_n: int = 0


class MetricsCollector:
    def __init__(self, flow_names: list[str], drb_of_flow: dict[str, tuple], warmup_secs: float):
        self.flow_names = list(flow_names)
        self.drb_of_flow = dict(drb_of_flow)
        self.warmup_secs = warmup_secs
        self.packets: list[PacketRecord] = []
        self.intervals: list[dict] = []
        self.rtt_samples: dict[str, list[tuple[float, float]]] = {f: [] for f in flow_names}
        self.feedback_latency: dict[str, list[tuple[float, float]]] = {f: [] for f in flow_names}
        self.completion: dict[str, float] = {}
        self.delivered_payload: dict[str, int] = defaultdict(int)
        self.delivered_payload_steady: dict[str, int] = defaultdict(int)
        self.mark_counts: dict[str, int] = defaultdict(int)
        self.tail_drops: dict[tuple, int] = defaultdict(int)
        self.aqm_drops: dict[str, int] = defaultdict(int)
        self._acc: dict[str, _IntervalAcc] = {f: _IntervalAcc() for f in flow_names}
        self.flow_gauges: dict[str, dict] = {f: {"cwnd": 0.0, "srtt": None} for f in flow_names}
        self.drb_gauges: dict[tuple, dict] = {}

    # -- event hooks --------------------------------------------------------

    def on_delivery(self, rec: PacketRecord, payload_bytes: int) -> None:
        self.packets.append(rec)
        self.delivered_payload[rec.flow] += payload_bytes
        if rec.t >= self.warmup_secs:
            self.delivered_payload_steady[rec.flow] += payload_bytes
        acc = self._acc[rec.flow]
        acc.delivered_payload += payload_bytes

    def on_rtt(self, t: float, flow: str, rtt: float) -> None:
        self.rtt_samples[flow].append((t, rtt))
        acc = self._acc[flow]
        acc.rtt_sum += rtt
        acc.rtt_n += 1

    def on_mark(self, t: float, flow: str) -> None:
        self.mark_counts[flow] += 1
        self._acc[flow].marks += 1

    def on_tail_drop(self, t: float, drb_key: tuple, flow: str) -> None:
        self.tail_drops[drb_key] += 1
        self._acc[flow].drops += 1

    def on_aqm_drop(self, t: float, flow: str) -> None:
        self.aqm_drops[flow] += 1
        self._acc[flow].drops += 1

    def on_feedback_latency(self, t: float, flow: str, latency: float) -> None:
        self.feedback_latency[flow].append((t, latency))

    def on_completion(self, flow: str, t: float) -> None:
        self.completion.setdefault(flow, t)

    def set_flow_gauge(self, flow: str, cwnd: float, srtt: Optional[float]) -> None:
        self.flow_gauges[flow] = {"cwnd": cwnd, "srtt": srtt}

    def set_drb_gauge(self, drb_key: tuple, **gauges) -> None:
        self.drb_gauges[drb_key] = gauges

    def close_interval(self, t_end: float) -> None:
        for flow in self.flow_names:
            acc = self._acc[flow]
            g = self.flow_gauges[flow]
            dg = self.drb_gauges.get(self.drb_of_flow[flow], {})
            self.intervals.append(
                {
                    "t": round(t_end, 6),
                    "flow": flow,
                    "throughput_bps": acc.delivered_payload * 8.0 / INTERVAL_SECS,
                    "rtt": (acc.rtt_sum / acc.rtt_n) if acc.rtt_n else None,
                    "cwnd": g["cwnd"],
                    "queue_bytes": dg.get("queue_bytes", 0),
                    "p_l4s": dg.get("p_l4s"),
                    "p_classic": dg.get("p_classic"),
                    "r_hat": dg.get("r_hat"),
                    "e_hat": dg.get("e_hat"),
                    "marks": acc.marks,
                    "drops": acc.drops,
                }
            )
            self._acc[flow] = _IntervalAcc()

    # -- aggregation --------------------------------------------------------

    def _steady(self, pairs: list[tuple[float, float]]) -> np.ndarray:
        return np.array([v for t, v in pairs if t >= self.warmup_secs], dtype=float)

    def summarize(
        self,
        horizon: float,
        utilization: dict[int, dict],
        flow_starts: dict[str, float],
    ) -> dict:
        # steady-state delays and queuing by flow, in delivery order, in one pass
        delays_of: dict[str, list[float]] = {f: [] for f in self.flow_names}
        queuing_of: dict[str, list[float]] = {f: [] for f in self.flow_names}
        for r in self.packets:
            if r.t >= self.warmup_secs:
                delays_of[r.flow].append(r.one_way)
                queuing_of[r.flow].append(r.queuing)
        flows = {}
        span = max(horizon - self.warmup_secs, 1e-9)
        for flow in self.flow_names:
            delays = np.array(delays_of[flow], dtype=float)
            queuing = np.array(queuing_of[flow], dtype=float)
            rtts = self._steady(self.rtt_samples[flow])
            lats = self._steady(self.feedback_latency[flow])
            completion = self.completion.get(flow)
            flows[flow] = {
                "delivered_bytes": self.delivered_payload[flow],
                "throughput_bps": self.delivered_payload_steady[flow] * 8.0 / span,
                "completion_secs": (
                    completion - flow_starts[flow] if completion is not None else None
                ),
                "marks": self.mark_counts[flow],
                "aqm_drops": self.aqm_drops[flow],
                "delay": _dist_stats(delays),
                "queuing": _dist_stats(queuing),
                "rtt": _dist_stats(rtts, p999=True),
                "feedback_latency": {
                    "mean": float(np.mean(lats)) if lats.size else None,
                    "count": int(lats.size),
                },
            }
        return {
            "flows": flows,
            "ues": utilization,
            "drbs": {f"{k[0]}:{k[1]}": {"tail_drops": v} for k, v in sorted(self.tail_drops.items())},
        }


def _dist_stats(values: np.ndarray, p999: bool = False) -> dict:
    if values.size == 0:
        return {"count": 0}
    pct = np.percentile(values, [50, 90, 99, 99.9] if p999 else [50, 90, 99])
    out = {
        "count": int(values.size),
        "mean": float(np.mean(values)),
        "p50": float(pct[0]),
        "p90": float(pct[1]),
        "p99": float(pct[2]),
    }
    if p999:
        out["p999"] = float(pct[3])
    return out


# -- writers ------------------------------------------------------------------


def packet_record_to_dict(r: PacketRecord) -> dict:
    return {
        "t": r.t,
        "flow": r.flow,
        "one_way": r.one_way,
        "propagation": r.propagation,
        "queuing": r.queuing,
        "scheduling": r.scheduling,
        "retransmission": r.retransmission,
        "predicted_sojourn": r.predicted_sojourn,
        "size_bytes": r.size_bytes,
    }


def dumps_packets(packets: list[PacketRecord]) -> str:
    return "".join(json.dumps(packet_record_to_dict(r), sort_keys=True) + "\n" for r in packets)


def dumps_intervals(intervals: list[dict]) -> str:
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in intervals)


def write_run(result, outdir: str | Path, csv: bool = False) -> None:
    """Write meta.json, packets.jsonl, intervals.jsonl, summary.json (+ CSVs)."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "meta.json").write_text(json.dumps(result.meta, indent=2, sort_keys=True) + "\n")
    (out / "packets.jsonl").write_text(dumps_packets(result.collector.packets))
    (out / "intervals.jsonl").write_text(dumps_intervals(result.collector.intervals))
    (out / "summary.json").write_text(json.dumps(result.summary, indent=2, sort_keys=True) + "\n")
    (out / "summary.txt").write_text(render_summary_text(result))
    if csv:
        _write_csvs(result, out)


def _write_csvs(result, out: Path) -> None:
    import csv as _csv

    with open(out / "packets.csv", "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(
            ["t", "flow", "one_way", "propagation", "queuing", "scheduling",
             "retransmission", "predicted_sojourn", "size_bytes"]
        )
        for r in result.collector.packets:
            w.writerow(
                [r.t, r.flow, r.one_way, r.propagation, r.queuing, r.scheduling,
                 r.retransmission, r.predicted_sojourn, r.size_bytes]
            )
    with open(out / "intervals.csv", "w", newline="") as fh:
        keys = ["t", "flow", "throughput_bps", "rtt", "cwnd", "queue_bytes",
                "p_l4s", "p_classic", "r_hat", "e_hat", "marks", "drops"]
        w = _csv.writer(fh)
        w.writerow(keys)
        for rec in result.collector.intervals:
            w.writerow([rec[k] for k in keys])


def render_summary_text(result) -> str:
    lines = [f"scenario: {result.meta['scenario']['name']}"]
    lines.append(f"horizon: {result.meta['scenario']['horizon_secs']} s, seed {result.meta['scenario']['seed']}")
    for name, f in result.summary["flows"].items():
        d = f["delay"]
        delay = f"median delay {d['p50'] * 1e3:.2f} ms" if d.get("count") else "no deliveries"
        comp = f", completed in {f['completion_secs']:.3f} s" if f["completion_secs"] else ""
        lines.append(
            f"  flow {name}: {f['throughput_bps'] / 1e6:.2f} Mbit/s, {delay}, "
            f"{f['marks']} marks{comp}"
        )
    for ue, u in result.summary["ues"].items():
        lines.append(f"  ue {ue}: utilization {u['utilization'] * 100:.1f}%")
    return "\n".join(lines) + "\n"
