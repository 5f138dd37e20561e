"""Metric streams and summaries.

Three outputs per run, all recomputable from each other's inputs:

* packets.jsonl: one record per delivered packet (one-way delay breakdown
  plus the sojourn predicted for it at ingress).  In memory the collector
  stores delivered packets by column, one flat ``array`` per field, and
  ``collector.packets`` builds a ``PacketRecord`` on each access;
* intervals.jsonl: per-flow records every 100 ms (throughput, rtt, cwnd,
  the flow's bearer gauges: queue depth, marking probabilities, r_hat and
  e_hat; mark/drop counts).  The stream is sparse: a flow has a record for
  an interval when it is its bearer's anchor (the bearer's first flow in
  ``flow_names`` order, so every bearer has one gauge row per interval),
  when it started before the interval ended and had not completed before
  the interval began, or when any of its interval counts (delivered bytes,
  RTT samples, marks, drops) is non-zero;
* summary.json: per-flow and per-UE aggregates over the steady-state
  window.

Streams are line-delimited JSON with sorted keys so identical runs are
byte-identical.
"""

from __future__ import annotations

import json
import math
from array import array
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, fields
from itertools import starmap
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


class PacketColumns(Sequence):
    """Delivered packets by column, in delivery order.

    One ``array('d')`` per float field, ``array('q')`` for ``size_bytes``
    and an unsigned index into ``flow_names`` for the flow: about 70 B a
    packet, against about 290 B for a ``PacketRecord``, its boxed floats
    and its list slot.  ``MetricsCollector.on_delivery`` fills the columns;
    readers see a read-only sequence that builds a ``PacketRecord`` per
    access.
    """

    def __init__(self, flow_names: list[str]):
        self.flow_names = flow_names
        self.t = array("d")
        self.flow_index = array("I")
        self.one_way = array("d")
        self.propagation = array("d")
        self.queuing = array("d")
        self.scheduling = array("d")
        self.retransmission = array("d")
        # None is stored as NaN: the profile predicts a sojourn only by
        # dividing by r_hat > 0 (inf otherwise), so it never yields NaN
        self.predicted_sojourn = array("d")
        self.size_bytes = array("q")

    def rows(self) -> Iterator[tuple]:
        """Each packet's field values, in ``PACKET_FIELDS`` order."""
        names = self.flow_names
        for t, f, one_way, prop, queuing, sched, retx, pred, size in zip(
                self.t, self.flow_index, self.one_way, self.propagation, self.queuing,
                self.scheduling, self.retransmission, self.predicted_sojourn, self.size_bytes):
            yield (t, names[f], one_way, prop, queuing, sched, retx,
                   None if pred != pred else pred, size)

    def __len__(self) -> int:
        return len(self.t)

    def __iter__(self) -> Iterator[PacketRecord]:
        return starmap(PacketRecord, self.rows())

    def __getitem__(self, i: int) -> PacketRecord:
        pred = self.predicted_sojourn[i]
        return PacketRecord(self.t[i], self.flow_names[self.flow_index[i]], self.one_way[i],
                            self.propagation[i], self.queuing[i], self.scheduling[i],
                            self.retransmission[i], None if pred != pred else pred,
                            self.size_bytes[i])


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
    def __init__(self, flow_names: list[str], drb_of_flow: dict[str, tuple], warmup_secs: float,
                 flow_starts: dict[str, float]):
        self.flow_names = list(flow_names)
        self.drb_of_flow = dict(drb_of_flow)
        self.warmup_secs = warmup_secs
        self.flow_starts = dict(flow_starts)
        self._flow_index = {f: i for i, f in enumerate(self.flow_names)}
        self.packets = PacketColumns(self.flow_names)
        self.intervals: list[IntervalRecord] = []
        # RTT samples per flow in time order, and how many of them precede warm-up
        self.rtt_samples: dict[str, array] = {f: array("d") for f in flow_names}
        self._rtt_warmup_n: dict[str, int] = dict.fromkeys(flow_names, 0)
        self.feedback_latency: dict[str, list[tuple[float, float]]] = {f: [] for f in flow_names}
        self.completion: dict[str, float] = {}
        self.delivered_payload: dict[str, int] = defaultdict(int)
        self.delivered_payload_steady: dict[str, int] = defaultdict(int)
        self.mark_counts: dict[str, int] = defaultdict(int)
        self.tail_drops: dict[tuple, int] = defaultdict(int)
        self.aqm_drops: dict[str, int] = defaultdict(int)
        self._acc: dict[str, _IntervalAcc] = {f: _IntervalAcc() for f in flow_names}
        # per flow, in flow_names order: (name, accumulator, start, DRB key, is anchor)
        anchored = set()
        self._rows = []
        for f in self.flow_names:
            key = self.drb_of_flow[f]
            self._rows.append((f, self._acc[f], self.flow_starts[f], key, key not in anchored))
            anchored.add(key)

    # -- event hooks --------------------------------------------------------

    def on_delivery(self, t: float, flow: str, one_way: float, propagation: float,
                    queuing: float, scheduling: float, retransmission: float,
                    predicted_sojourn: Optional[float], size_bytes: int,
                    payload_bytes: int) -> None:
        """One delivered packet: its ``PacketRecord`` fields in order, then its payload."""
        p = self.packets
        p.t.append(t)
        p.flow_index.append(self._flow_index[flow])
        p.one_way.append(one_way)
        p.propagation.append(propagation)
        p.queuing.append(queuing)
        p.scheduling.append(scheduling)
        p.retransmission.append(retransmission)
        p.predicted_sojourn.append(math.nan if predicted_sojourn is None else predicted_sojourn)
        p.size_bytes.append(size_bytes)
        self.delivered_payload[flow] += payload_bytes
        if t >= self.warmup_secs:
            self.delivered_payload_steady[flow] += payload_bytes
        self._acc[flow].delivered_payload += payload_bytes

    def on_rtt(self, t: float, flow: str, rtt: float) -> None:
        """One RTT sample; samples arrive in time order, as every hook's do."""
        self.rtt_samples[flow].append(rtt)
        if t < self.warmup_secs:
            self._rtt_warmup_n[flow] += 1
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

    def close_interval(self, t_end: float, cwnd: list[float],
                       bearer_gauges: dict[tuple, tuple]) -> None:
        """Close the interval ``[t_end - INTERVAL_SECS, t_end)``.

        ``cwnd`` holds each flow's window in ``flow_names`` order;
        ``bearer_gauges`` maps each flow's DRB key to the bearer's
        ``(queue_bytes, p_l4s, p_classic, r_hat, e_hat)``.  A flow gets a
        record when it is its bearer's anchor (first flow in ``flow_names``
        order), when it started before ``t_end`` and had not completed
        before the interval began, or when any of its interval counts is
        non-zero; the others' counts are all zero, so skipping them drops
        no delivery, RTT sample, mark or drop.
        """
        t = round(t_end, 6)
        began = t_end - INTERVAL_SECS
        completion = self.completion
        for (flow, acc, start, key, anchor), window in zip(self._rows, cwnd):
            if not (anchor or acc.delivered_payload or acc.rtt_n or acc.marks or acc.drops
                    or (start < t_end and completion.get(flow, math.inf) >= began)):
                continue
            queue_bytes, p_l4s, p_classic, r_hat, e_hat = bearer_gauges[key]
            # positional, in field order: keywords cost twice as much per record
            self.intervals.append(
                IntervalRecord(
                    t,
                    flow,
                    acc.delivered_payload * 8.0 / INTERVAL_SECS,
                    (acc.rtt_sum / acc.rtt_n) if acc.rtt_n else None,
                    window,
                    queue_bytes,
                    p_l4s,
                    p_classic,
                    r_hat,
                    e_hat,
                    acc.marks,
                    acc.drops,
                )
            )
            acc.delivered_payload = acc.marks = acc.drops = acc.rtt_n = 0
            acc.rtt_sum = 0.0

    # -- aggregation --------------------------------------------------------

    def _steady(self, pairs: list[tuple[float, float]]) -> np.ndarray:
        return np.array([v for t, v in pairs if t >= self.warmup_secs], dtype=float)

    def steady_rtts(self, flow: str) -> np.ndarray:
        """The flow's RTT samples taken from warm-up on."""
        return np.array(self.rtt_samples[flow][self._rtt_warmup_n[flow]:], dtype=float)

    def summarize(self, horizon: float, utilization: dict[int, dict]) -> dict:
        # steady-state packets grouped by flow, each flow's in delivery order
        p = self.packets
        flow_index = np.frombuffer(p.flow_index, dtype=np.uint32)
        steady = np.flatnonzero(np.frombuffer(p.t) >= self.warmup_secs)
        steady = steady[np.argsort(flow_index[steady], kind="stable")]
        bounds = np.cumsum(np.bincount(flow_index[steady], minlength=len(self.flow_names)))[:-1]
        delays_of = np.split(np.frombuffer(p.one_way)[steady], bounds)
        queuing_of = np.split(np.frombuffer(p.queuing)[steady], bounds)
        flows = {}
        span = max(horizon - self.warmup_secs, 1e-9)
        for flow, delays, queuing in zip(self.flow_names, delays_of, queuing_of):
            rtts = self.steady_rtts(flow)
            lats = self._steady(self.feedback_latency[flow])
            completion = self.completion.get(flow)
            flows[flow] = {
                "delivered_bytes": self.delivered_payload[flow],
                "throughput_bps": self.delivered_payload_steady[flow] * 8.0 / span,
                "completion_secs": (
                    completion - self.flow_starts[flow] if completion is not None else None
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


def _packet_rows(packets: Iterable[PacketRecord]) -> Iterator[tuple]:
    """Each packet's field values, read straight from the columns when it has them."""
    if isinstance(packets, PacketColumns):
        return packets.rows()
    return map(_packet_values, packets)


def packet_lines(packets: Iterable[PacketRecord]) -> Iterator[str]:
    """One sorted-key JSON line per packet record."""
    encode = _ENCODER.encode
    for row in _packet_rows(packets):
        yield encode(dict(zip(PACKET_FIELDS, row))) + "\n"


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
        w.writerows(_packet_rows(result.collector.packets))
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
