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
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import Optional

import numpy as np

INTERVAL_SECS = 0.1


@dataclass(slots=True)
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


@dataclass(slots=True)
class IntervalRecord:
    """One flow's gauges and counts over one interval; readable by key like a dict."""

    t: float
    flow: str
    throughput_bps: float
    rtt: Optional[float]
    cwnd: float
    queue_bytes: int
    p_l4s: Optional[float]
    p_classic: Optional[float]
    r_hat: Optional[float]
    e_hat: Optional[float]
    marks: int
    drops: int

    def __getitem__(self, key: str):
        try:
            return getattr(self, key)
        except AttributeError:
            raise KeyError(key) from None


@dataclass(slots=True)
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
        self.intervals: list[IntervalRecord] = []
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
        t = round(t_end, 6)
        for flow in self.flow_names:
            acc = self._acc[flow]
            g = self.flow_gauges[flow]
            dg = self.drb_gauges.get(self.drb_of_flow[flow], {})
            # positional, in field order: keywords cost twice as much per record
            self.intervals.append(
                IntervalRecord(
                    t,
                    flow,
                    acc.delivered_payload * 8.0 / INTERVAL_SECS,
                    (acc.rtt_sum / acc.rtt_n) if acc.rtt_n else None,
                    g["cwnd"],
                    dg.get("queue_bytes", 0),
                    dg.get("p_l4s"),
                    dg.get("p_classic"),
                    dg.get("r_hat"),
                    dg.get("e_hat"),
                    acc.marks,
                    acc.drops,
                )
            )
            acc.delivered_payload = acc.marks = acc.drops = acc.rtt_n = 0
            acc.rtt_sum = 0.0

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

PACKET_FIELDS = tuple(f.name for f in fields(PacketRecord))
INTERVAL_FIELDS = tuple(f.name for f in fields(IntervalRecord))
_packet_values = attrgetter(*PACKET_FIELDS)
_interval_values = attrgetter(*INTERVAL_FIELDS)
# the same encoder json.dumps(obj, sort_keys=True) builds for every call
_ENCODER = json.JSONEncoder(sort_keys=True)


def packet_lines(packets: Iterable[PacketRecord]) -> Iterator[str]:
    """One sorted-key JSON line per packet record."""
    encode = _ENCODER.encode
    for r in packets:
        yield encode(dict(zip(PACKET_FIELDS, _packet_values(r)))) + "\n"


def interval_lines(intervals: Iterable[IntervalRecord]) -> Iterator[str]:
    """One sorted-key JSON line per interval record."""
    encode = _ENCODER.encode
    for r in intervals:
        yield encode(dict(zip(INTERVAL_FIELDS, _interval_values(r)))) + "\n"


def dumps_packets(packets: Iterable[PacketRecord]) -> str:
    return "".join(packet_lines(packets))


def dumps_intervals(intervals: Iterable[IntervalRecord]) -> str:
    return "".join(interval_lines(intervals))


def write_run(result, outdir: str | Path, csv: bool = False) -> None:
    """Write meta.json, packets.jsonl, intervals.jsonl, summary.json (+ CSVs).

    The two record streams are written line by line as they are formatted,
    so writing holds no more than one line of stream text at a time.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "meta.json").write_text(json.dumps(result.meta, indent=2, sort_keys=True) + "\n")
    with open(out / "packets.jsonl", "w") as fh:
        fh.writelines(packet_lines(result.collector.packets))
    with open(out / "intervals.jsonl", "w") as fh:
        fh.writelines(interval_lines(result.collector.intervals))
    (out / "summary.json").write_text(json.dumps(result.summary, indent=2, sort_keys=True) + "\n")
    (out / "summary.txt").write_text(render_summary_text(result))
    if csv:
        _write_csvs(result, out)


def _write_csvs(result, out: Path) -> None:
    import csv as _csv

    with open(out / "packets.csv", "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(PACKET_FIELDS)
        w.writerows(map(_packet_values, result.collector.packets))
    with open(out / "intervals.csv", "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(INTERVAL_FIELDS)
        w.writerows(map(_interval_values, result.collector.intervals))


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
