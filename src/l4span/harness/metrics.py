"""Metric streams and summaries.

Three outputs per run, all recomputable from each other's inputs:

* packets.jsonl: one record per delivered packet (one-way delay breakdown
  plus the sojourn predicted for it at ingress);
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

In memory the collector keeps what grows with a run in ``RecordColumns``:
one flat ``array`` per record field.  ``collector.packets`` and
``collector.intervals`` are read-only sequences over those columns that
build a ``PacketRecord`` or an ``IntervalRecord`` on each access, and the
feedback-latency samples are columns too, read per flow through
``collector.feedback_latency``.  A store's record type is its stream's only
schema: ``record_lines(store)`` yields one line per record, its keys the
record's field names, and the CSVs take their header from the same names.
``write_run`` writes every output as it is encoded: the record streams line
by line from the columns, and ``meta.json`` and ``summary.json`` chunk by
chunk, so no output is held whole in memory.
"""

from __future__ import annotations

import json
import math
from array import array
from collections import defaultdict, deque
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, fields
from functools import cache
from itertools import islice, repeat, starmap
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

INTERVAL_SECS = 0.1


@dataclass(slots=True)
class PacketRecord:
    """One delivered packet's delay breakdown.  ``predicted_sojourn`` (made
    at ingress, None without a fresh estimate) covers only the bytes queued
    ahead of the packet; C9 compares it with ``queuing + scheduling``, which
    includes the packet's own service."""

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
class FeedbackLatency:
    """One feedback-latency sample: a mark's delay until its flow's sender learns of it."""

    t: float
    flow: str
    latency: float


_TYPECODES = {float: "d", int: "q", str: "I", Optional[float]: "d"}


@cache
def _layout(record: type) -> tuple[tuple[str, ...], tuple[str, ...], int,
                                   tuple[tuple[int, int], ...]]:
    """The column names and typecodes of ``record``'s fields in field order,
    the position of its ``str`` field, and each optional field's position
    with its bit in the ``none`` column.  Worked out once per record type."""
    names, typecodes, optional = [], [], []
    flow_at = None
    for i, (name, hint) in enumerate(get_type_hints(record).items()):
        if hint is str:
            flow_at, name = i, f"{name}_index"
        elif hint is not float and hint is not int:
            optional.append((i, 1 << len(optional)))
        names.append(name)
        typecodes.append(_TYPECODES[hint])
    return tuple(names), tuple(typecodes), flow_at, tuple(optional)


# runs an iterator to its end, keeping nothing: appends every value in C
_consume = deque(maxlen=0).extend


def _none_where(value, none: int, bit: int):
    return None if none & bit else value


class RecordColumns(Sequence):
    """Records of one slotted dataclass by column, in the order they were appended.

    Each field has one flat ``array``, an attribute of the same name: ``'d'``
    for a float, ``'q'`` for an int and, for the ``str`` field, an unsigned
    index into ``flow_names`` named ``<field>_index``.  An ``Optional[float]``
    field may hold any float, NaN included, so its ``None`` is a set bit in
    the ``none`` column (one byte per record, a bit per optional field in
    field order, so up to eight of them); its value column holds NaN there.
    A float field takes 8 B a record, against 32 B for a boxed float and its
    slot in a record.

    ``append`` stores one record from its field values in field order, and
    stores nothing when a value does not fit its column (an int outside
    64 bits raises ``OverflowError``, a ``None`` in a field that is not
    optional ``TypeError``).  Readers see a read-only sequence (``len``,
    iteration, integer indexing) that builds a record on each access;
    ``rows`` yields the field values without building records.
    """

    def __init__(self, record: type, flow_names: list[str], flow_index: dict[str, int]):
        self.record = record
        self.flow_names = flow_names
        self._flow_index = flow_index
        self.none = array("B")
        names, typecodes, self._flow_at, self._optional = _layout(record)
        self._columns = [array(typecode) for typecode in typecodes]
        for name, column in zip(names, self._columns):
            setattr(self, name, column)

    def append(self, *values) -> None:
        """Store one record, its field values given in field order."""
        values = list(values)
        none = 0
        for i, bit in self._optional:
            if values[i] is None:
                values[i] = math.nan
                none |= bit
        try:
            values[self._flow_at] = self._flow_index[values[self._flow_at]]
            _consume(map(array.append, self._columns, values))
        except (OverflowError, TypeError, KeyError):
            n = len(self.none)
            for column in self._columns:
                del column[n:]
            raise
        self.none.append(none)

    def rows(self) -> Iterator[tuple]:
        """Each record's field values, in field order."""
        columns = list(self._columns)
        columns[self._flow_at] = map(self.flow_names.__getitem__, columns[self._flow_at])
        for i, bit in self._optional:
            columns[i] = map(_none_where, columns[i], self.none, repeat(bit))
        return zip(*columns)

    def __len__(self) -> int:
        return len(self.none)

    def __iter__(self) -> Iterator:
        return starmap(self.record, self.rows())

    def __getitem__(self, i: int):
        none = self.none[i]
        values = [column[i] for column in self._columns]
        values[self._flow_at] = self.flow_names[values[self._flow_at]]
        for j, bit in self._optional:
            if none & bit:
                values[j] = None
        return self.record(*values)


class _LatenciesByFlow(Mapping):
    """Feedback-latency columns read as a mapping from each flow name, in
    ``flow_names`` order, to that flow's ``(t, latency)`` pairs in time order,
    built on each access."""

    def __init__(self, samples: RecordColumns):
        self._samples = samples

    def __getitem__(self, flow: str) -> list[tuple[float, float]]:
        s = self._samples
        mine = np.frombuffer(s.flow_index, dtype=np.uint32) == s._flow_index[flow]
        return list(zip(np.frombuffer(s.t)[mine].tolist(),
                        np.frombuffer(s.latency)[mine].tolist()))

    def __iter__(self) -> Iterator[str]:
        return iter(self._samples.flow_names)

    def __len__(self) -> int:
        return len(self._samples.flow_names)


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
        self.packets = RecordColumns(PacketRecord, self.flow_names, self._flow_index)
        self.intervals = RecordColumns(IntervalRecord, self.flow_names, self._flow_index)
        # RTT samples per flow in time order, and how many of them precede warm-up
        self.rtt_samples: dict[str, array] = {f: array("d") for f in flow_names}
        self._rtt_warmup_n: dict[str, int] = dict.fromkeys(flow_names, 0)
        self._feedback = RecordColumns(FeedbackLatency, self.flow_names, self._flow_index)
        self.feedback_latency: Mapping[str, list[tuple[float, float]]] = _LatenciesByFlow(
            self._feedback)
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
        self.packets.append(t, flow, one_way, propagation, queuing, scheduling, retransmission,
                            predicted_sojourn, size_bytes)
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
        self._feedback.append(t, flow, latency)

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
        append = self.intervals.append
        for (flow, acc, start, key, anchor), window in zip(self._rows, cwnd):
            if not (anchor or acc.delivered_payload or acc.rtt_n or acc.marks or acc.drops
                    or (start < t_end and completion.get(flow, math.inf) >= began)):
                continue
            queue_bytes, p_l4s, p_classic, r_hat, e_hat = bearer_gauges[key]
            append(t, flow, acc.delivered_payload * 8.0 / INTERVAL_SECS,
                   (acc.rtt_sum / acc.rtt_n) if acc.rtt_n else None, window, queue_bytes,
                   p_l4s, p_classic, r_hat, e_hat, acc.marks, acc.drops)
            acc.delivered_payload = acc.marks = acc.drops = acc.rtt_n = 0
            acc.rtt_sum = 0.0

    # -- aggregation --------------------------------------------------------

    def _steady_by_flow(self, records: RecordColumns, *names: str) -> list[list[np.ndarray]]:
        """Per float column named, each flow's values from warm-up on, in append order."""
        flow_index = np.frombuffer(records.flow_index, dtype=np.uint32)
        steady = np.flatnonzero(np.frombuffer(records.t) >= self.warmup_secs)
        steady = steady[np.argsort(flow_index[steady], kind="stable")]
        bounds = np.cumsum(np.bincount(flow_index[steady], minlength=len(self.flow_names)))[:-1]
        return [np.split(np.frombuffer(getattr(records, name))[steady], bounds) for name in names]

    def steady_rtts(self, flow: str) -> np.ndarray:
        """The flow's RTT samples taken from warm-up on."""
        return np.array(self.rtt_samples[flow][self._rtt_warmup_n[flow]:], dtype=float)

    def summarize(self, horizon: float, utilization: dict[int, dict]) -> dict:
        delays_of, queuing_of = self._steady_by_flow(self.packets, "one_way", "queuing")
        [latencies_of] = self._steady_by_flow(self._feedback, "latency")
        flows = {}
        span = max(horizon - self.warmup_secs, 1e-9)
        for flow, delays, queuing, lats in zip(self.flow_names, delays_of, queuing_of,
                                               latencies_of):
            rtts = self.steady_rtts(flow)
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

# the same encoders json.dumps(obj, sort_keys=True) and json.dumps(obj, indent=2,
# sort_keys=True) build for every call
_ENCODER = json.JSONEncoder(sort_keys=True)
_DOCUMENT_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)
# An indented document comes out in chunks of a few characters, and a text
# file keeps up to 8 KB of pending writes as separate strings (about 90 KB
# for a summary), so chunks are joined this many at a time before writing.
_DOCUMENT_BATCH_CHUNKS = 256


def record_lines(store: RecordColumns) -> Iterator[str]:
    """One sorted-key JSON line per record in ``store``, in append order."""
    keys = [f.name for f in fields(store.record)]
    encode = _ENCODER.encode
    for row in store.rows():
        yield encode(dict(zip(keys, row))) + "\n"


def write_run(result, outdir: str | Path, csv: bool = False) -> None:
    """Write meta.json, packets.jsonl, intervals.jsonl, summary.json (+ CSVs).

    Every output is written as it is encoded: the record streams line by
    line, the JSON documents chunk by chunk, so writing holds no output
    whole in memory.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    _dump_document(result.meta, out / "meta.json")
    with open(out / "packets.jsonl", "w") as fh:
        fh.writelines(record_lines(result.collector.packets))
    with open(out / "intervals.jsonl", "w") as fh:
        fh.writelines(record_lines(result.collector.intervals))
    _dump_document(result.summary, out / "summary.json")
    with open(out / "summary.txt", "w") as fh:
        fh.writelines(summary_text_lines(result))
    if csv:
        _write_csvs(result, out)


def _dump_document(obj, path: Path) -> None:
    """Write ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"`` as it is encoded."""
    chunks = _DOCUMENT_ENCODER.iterencode(obj)
    with open(path, "w") as fh:
        while batch := "".join(islice(chunks, _DOCUMENT_BATCH_CHUNKS)):
            fh.write(batch)
        fh.write("\n")


def _write_csvs(result, out: Path) -> None:
    import csv as _csv

    for name, store in (("packets.csv", result.collector.packets),
                        ("intervals.csv", result.collector.intervals)):
        with open(out / name, "w", newline="") as fh:
            w = _csv.writer(fh)
            w.writerow(f.name for f in fields(store.record))
            w.writerows(store.rows())


def summary_text_lines(result) -> Iterator[str]:
    """The lines of ``summary.txt``: the scenario, then one per flow and one per UE."""
    scn = result.meta["scenario"]
    yield f"scenario: {scn['name']}\n"
    yield f"horizon: {scn['horizon_secs']} s, seed {scn['seed']}\n"
    for name, f in result.summary["flows"].items():
        d = f["delay"]
        delay = f"median delay {d['p50'] * 1e3:.2f} ms" if d.get("count") else "no deliveries"
        comp = f", completed in {f['completion_secs']:.3f} s" if f["completion_secs"] else ""
        yield (f"  flow {name}: {f['throughput_bps'] / 1e6:.2f} Mbit/s, {delay}, "
               f"{f['marks']} marks{comp}\n")
    for ue, u in result.summary["ues"].items():
        yield f"  ue {ue}: utilization {u['utilization'] * 100:.1f}%\n"
