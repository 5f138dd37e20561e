"""One simulation in a fresh interpreter, the way ``l4span run`` does it.

    python3 -I perfbench/child.py run   SCENARIO.json OUTDIR
    python3 -I perfbench/child.py trace SCENARIO.json OUTDIR

``run`` builds the simulator, runs it and writes the metric streams, timing
each step; it then checks the outputs and leaves ``result.json`` and the
simulated samples (``samples.npz``) in OUTDIR.  ``trace`` does the same run
with every layer's public functions wrapped in spans, writes the spans to
``OUTDIR/spans.npz`` and the per-layer figures to ``result.json``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
from l4span.harness import metrics as metrics_mod  # noqa: E402
from l4span.harness import scenario as scenario_mod  # noqa: E402
from l4span.harness.metrics import write_run  # noqa: E402
from l4span.harness.scenario import Scenario, scenario_from_dict  # noqa: E402
from l4span.marking import MarkDecision  # noqa: E402
from l4span.profile import ProfileTable  # noqa: E402
from l4span.ransim import channel, events, layer, rlc, sim  # noqa: E402
from l4span.ransim.sim import Simulator  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

STREAMS = ("summary.json", "packets.jsonl", "intervals.jsonl")
# set-up is timed this many times at least, and until this much host time
SETUP_MIN_BUILDS = 3
SETUP_MAX_BUILDS = 40
SETUP_MIN_SECS = 0.25

clock = time.perf_counter


def load(path: str) -> Scenario:
    return scenario_from_dict(json.loads(Path(path).read_text()))


def _digest_and_size(streams: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    for name in STREAMS:
        h.update((streams / name).read_bytes())
    size = sum(p.stat().st_size for p in streams.iterdir())
    return h.hexdigest(), size


def _setup_times(scn: Scenario, first: float) -> list[float]:
    times = [first]
    while len(times) < SETUP_MAX_BUILDS and (
        len(times) < SETUP_MIN_BUILDS or sum(times) < SETUP_MIN_SECS
    ):
        t0 = clock()
        Simulator(scn)
        times.append(clock() - t0)
    return times


def simulated_samples(scn: Scenario, result) -> dict:
    """The raw samples behind the simulated end-to-end metrics."""
    c = result.collector
    warm = scn.warmup_secs
    sizes = {f.name: f.size_bytes for ue in scn.ues for d in ue.drbs for f in d.flows}
    fct = [result.summary["flows"][name]["completion_secs"]
           for name, size in sizes.items() if size is not None]
    return {
        "delay_ms": np.array([r.one_way * 1e3 for r in c.packets if r.t >= warm]),
        "feedback_latency_ms": np.array(
            [lat * 1e3 for name in c.flow_names for t, lat in c.feedback_latency[name] if t >= warm]),
        "fct_s": np.array([v for v in fct if v is not None]),
        "finite_flows": np.array(len(fct)),
        "goodput_bytes": np.array(sum(c.delivered_payload_steady.values())),
        "steady_secs": np.array(scn.horizon_secs - warm),
        "utilization": np.array(sum(u["utilization"] for u in result.summary["ues"].values())),
    }


def run(scn: Scenario, out: Path) -> dict:
    streams = out / "streams"
    t0 = clock()
    simulator = Simulator(scn)
    t1 = clock()
    result = simulator.run()
    t2 = clock()
    write_run(result, streams)
    t3 = clock()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    digest, bytes_written = _digest_and_size(streams)
    shutil.rmtree(streams)

    problems = checks.conservation(simulator) + [
        f"non-finite {p}" for p in checks.non_finite(result.summary)]
    backlogs = checks.bearer_backlogs(
        result.collector.intervals, result.collector.drb_of_flow, scn.warmup_secs)
    growing = sorted(f"{k[0]}:{k[1]}" for k, s in backlogs.items() if checks.growing_backlog(s))
    np.savez(out / "samples.npz", **simulated_samples(scn, result))
    final_backlog = max((s[-1] for s in backlogs.values() if s), default=0)
    events_run = result.events
    del simulator, result

    setup = _setup_times(scn, t1 - t0)
    return {
        "setup_s": statistics.median(setup),
        "setup_builds": len(setup),
        "run_s": t2 - t1,
        "write_s": t3 - t2,
        "wall_s": t3 - t0,
        "sim_s_per_s": scn.horizon_secs / (t2 - t1),
        "peak_rss_mb": peak_rss_mb,
        "events": events_run,
        "bytes_written": bytes_written,
        "digest": digest,
        "problems": problems,
        "growing_backlogs": growing,
        "final_backlog_bytes_max": final_backlog,
    }


# -- traced run ---------------------------------------------------------------

# (span name, owner, attribute, argument holding the packet); owners are
# the modules and classes the callers look the names up in
TARGETS = [
    ("ransim.sim.run", sim.Simulator, "run", None),
    ("ransim.events.loop", events.EventLoop, "run", None),
    ("ransim.layer.on_dl_pkt", layer.DrbLayer, "on_dl_pkt", 1),
    ("ransim.layer.on_ran_feedback", layer.DrbLayer, "on_ran_feedback", None),
    ("ransim.layer.on_ul_packet", layer.DrbLayer, "on_ul_packet", 1),
    ("profile.record_ingress", ProfileTable, "record_ingress", None),
    ("profile.on_f1u_feedback", ProfileTable, "on_f1u_feedback", None),
    ("profile.egress_rate_smoothed", ProfileTable, "egress_rate_smoothed", None),
    ("profile.gc_delivered", ProfileTable, "gc_delivered", None),
    ("marking.decide_mark", layer, "decide_mark", 2),
    ("marking.refresh_probabilities", layer, "refresh_probabilities", None),
    ("shortcircuit.record_tentative_mark", layer, "record_tentative_mark", 1),
    ("shortcircuit.rewrite_ack", layer, "rewrite_ack", 1),
    ("shortcircuit.fallback_mark_downlink", layer, "fallback_mark_downlink", 0),
    ("senders.prague_on_ack", sim, "prague_on_ack", None),
    ("senders.classic_on_ack", sim, "classic_on_ack", None),
    ("senders.receiver_on_data", sim, "receiver_on_data", 1),
    ("ransim.scheduler.scheduler_slot", sim, "scheduler_slot", None),
    ("ransim.channel.rate_at", channel.ChannelTrace, "rate_at", None),
    ("ransim.rlc.enqueue", rlc.RlcQueue, "enqueue", 1),
    ("ransim.rlc.transmit", rlc.RlcQueue, "transmit", None),
    ("harness.metrics.on_delivery", metrics_mod.MetricsCollector, "on_delivery", None),
    ("harness.metrics.close_interval", metrics_mod.MetricsCollector, "close_interval", None),
    ("harness.metrics.summarize", metrics_mod.MetricsCollector, "summarize", None),
    ("harness.scenario.validate", scenario_mod.Scenario, "validate", None),
    ("harness.scenario.channel_build", scenario_mod.ChannelSpec, "build", None),
]
KINDS = [k.value for k in events.EventKind]

# the statistics each traced function reports, by layer
STATS = {
    "ransim.layer": ("calls", "ns_p50", "ns_p99", "self_s"),
    "ransim.scheduler": ("calls", "ns_p50", "ns_p99", "self_s"),
    "profile": ("calls", "ns_p50", "self_s"),
    "marking": ("calls", "ns_p50", "self_s"),
    "ransim.rlc": ("calls", "ns_p50", "self_s"),
    "shortcircuit": ("calls", "self_s"),
    "senders": ("calls", "self_s"),
    "ransim.channel": ("calls", "self_s"),
    "harness.metrics": ("calls", "self_s"),
}
FUNCTION_STATS = {name: STATS[name.rsplit(".", 1)[0]] for name, *_ in TARGETS
                  if name.rsplit(".", 1)[0] in STATS}
# figures that are not per-function statistics
OBSERVED = (
    "marking.mark_ratio", "profile.entries_max", "ransim.rlc.tail_drops",
    "ransim.rlc.standing_bytes_max", "ransim.scheduler.backlogged_ues_mean",
    "harness.metrics.summarize_s", "harness.metrics.write_s", "harness.metrics.bytes_written",
    "harness.scenario.validate_s", "harness.scenario.channel_build_s",
    "tracing.wrapper_ns", "tracing.noop_span_ns", "tracing.spans",
)
# per-packet handlers and the scheduler, for the layer-separation check
HANDLER_LAYERS = ("ransim.layer", "profile", "shortcircuit", "senders")
SCHEDULER_LAYERS = ("ransim.scheduler",)


def figure_names() -> list[str]:
    """Every per-layer figure a traced run reports, in a fixed order."""
    names = ["ransim.events.dispatched", "ransim.events.loop.self_s"]
    names += [f"ransim.events.{k}.{s}" for k in KINDS for s in ("dispatched", "self_s")]
    names += [f"{fn}.{s}" for fn, stats in FUNCTION_STATS.items() for s in stats]
    return names + list(OBSERVED)


def layer_of(span_name: str) -> str:
    """The layer a span's self time belongs to (event handlers are ``ransim.sim``)."""
    if span_name == "ransim.events.loop":
        return "ransim.events"
    if span_name.startswith("ransim.events."):
        return "ransim.sim"
    head = span_name.split(".")
    return ".".join(head[:2]) if head[0] in ("ransim", "harness", "trace") else head[0]


def instrument(tracer: Tracer, obs: dict) -> None:
    """Patch every traced name; ``tracer.restore()`` undoes it."""
    def count_marks(args, result):
        if result is MarkDecision.TENTATIVE_MARK or result is MarkDecision.MARK_CE:
            obs["marks"] += 1

    def entries_before_gc(args, removed):
        obs["entries_max"] = max(obs["entries_max"], len(args[0].entries) + removed)

    def after_enqueue(args, result):
        if result is rlc.EnqueueResult.DROPPED_TAIL:
            obs["tail_drops"] += 1
        obs["standing_bytes_max"] = max(obs["standing_bytes_max"], args[0].standing_bytes)

    def backlogged(args):
        obs["backlogged_ue_slots"] += sum(1 for ue in args[0] if ue.standing_bytes() > 0)

    hooks = {
        "marking.decide_mark": {"observe": count_marks},
        "profile.gc_delivered": {"observe": entries_before_gc},
        "ransim.rlc.enqueue": {"observe": after_enqueue},
        "ransim.scheduler.scheduler_slot": {"before": backlogged},
    }
    kinds = {k: tracer.name_id(f"ransim.events.{k.value}") for k in events.EventKind}
    tracer.patch(sim.Simulator, "_dispatch", lambda args: kinds[args[1].kind])
    for name, owner, attr, pkt_arg in TARGETS:
        tracer.patch(owner, attr, name, pkt_arg=pkt_arg, **hooks.get(name, {}))


def per_layer(tracer: Tracer, obs: dict) -> tuple[dict, dict]:
    """(per-layer figures, self-time share of each layer in the traced run)."""
    a = tracer.arrays()
    idx = {n: i for i, n in enumerate(tracer.names)}
    dur = (a["end"] - a["start"]).astype(np.float64)
    own = self_times(a["start"], a["end"], a["parent"])
    calls = np.bincount(a["name"], minlength=len(idx))
    self_ns = np.bincount(a["name"], weights=own, minlength=len(idx))
    total_ns = np.bincount(a["name"], weights=dur, minlength=len(idx))

    out: dict[str, float] = {}
    for name, stats in FUNCTION_STATS.items():
        i = idx[name]
        for stat in stats:
            if stat == "calls":
                out[f"{name}.calls"] = int(calls[i])
            elif stat == "self_s":
                out[f"{name}.self_s"] = self_ns[i] / 1e9
            else:
                d = dur[a["name"] == i]
                pct = 50 if stat == "ns_p50" else 99
                out[f"{name}.{stat}"] = float(np.percentile(d, pct)) if d.size else 0.0
    for k in KINDS:
        i = idx[f"ransim.events.{k}"]
        out[f"ransim.events.{k}.dispatched"] = int(calls[i])
        out[f"ransim.events.{k}.self_s"] = self_ns[i] / 1e9
    out["ransim.events.dispatched"] = sum(out[f"ransim.events.{k}.dispatched"] for k in KINDS)
    out["ransim.events.loop.self_s"] = self_ns[idx["ransim.events.loop"]] / 1e9

    decisions = out["marking.decide_mark.calls"]
    out["marking.mark_ratio"] = obs["marks"] / decisions if decisions else 0.0
    out["profile.entries_max"] = obs["entries_max"]
    out["ransim.rlc.tail_drops"] = obs["tail_drops"]
    out["ransim.rlc.standing_bytes_max"] = obs["standing_bytes_max"]
    slots = out["ransim.scheduler.scheduler_slot.calls"]
    out["ransim.scheduler.backlogged_ues_mean"] = obs["backlogged_ue_slots"] / slots if slots else 0.0
    out["harness.metrics.summarize_s"] = total_ns[idx["harness.metrics.summarize"]] / 1e9
    out["harness.scenario.validate_s"] = total_ns[idx["harness.scenario.validate"]] / 1e9
    out["harness.scenario.channel_build_s"] = total_ns[idx["harness.scenario.channel_build"]] / 1e9
    out["tracing.spans"] = int(len(dur))

    # shares of the run's time: set-up spans lie outside the run's span
    run = np.flatnonzero(a["name"] == idx["ransim.sim.run"])[0]
    inside = (a["start"] >= a["start"][run]) & (a["end"] <= a["end"][run])
    run_self = np.bincount(a["name"][inside], weights=own[inside], minlength=len(idx))
    layer_self: dict[str, float] = {}
    for name, i in idx.items():
        layer_self[layer_of(name)] = layer_self.get(layer_of(name), 0.0) + run_self[i]
    return out, {k: v / dur[run] for k, v in sorted(layer_self.items()) if v > 0}


def wrapper_cost(n: int = 100_000, rounds: int = 3) -> tuple[float, float]:
    """(ns a wrapped call adds for its caller, median ns of a no-op's span)."""
    def noop():
        return None

    added, inside = [], []
    for _ in range(rounds):
        tracer = Tracer()
        wrapped = tracer.wrapped(noop, "noop")
        t0 = time.perf_counter_ns()
        for _ in range(n):
            noop()
        t1 = time.perf_counter_ns()
        for _ in range(n):
            wrapped()
        t2 = time.perf_counter_ns()
        a = tracer.arrays()
        added.append(((t2 - t1) - (t1 - t0)) / n)
        inside.append(float(np.median(a["end"] - a["start"])))
    return statistics.median(added), statistics.median(inside)


def trace(scn: Scenario, out: Path) -> dict:
    obs = {"marks": 0, "entries_max": 0, "tail_drops": 0, "standing_bytes_max": 0,
           "backlogged_ue_slots": 0}
    tracer = Tracer()
    instrument(tracer, obs)
    try:
        simulator = Simulator(scn)
        t0 = clock()
        result = simulator.run()
        run_s = clock() - t0
    finally:
        tracer.restore()
    obs["entries_max"] = max([obs["entries_max"]] +
                             [len(lay.profile.entries) for lay in simulator.layers.values()])
    t0 = clock()
    write_run(result, out / "streams")
    write_s = clock() - t0
    _, bytes_written = _digest_and_size(out / "streams")
    shutil.rmtree(out / "streams")
    figures, shares = per_layer(tracer, obs)
    figures["harness.metrics.write_s"] = write_s
    figures["harness.metrics.bytes_written"] = bytes_written
    tracer.save(out / "spans.npz")
    del tracer
    wrapper_ns, noop_span_ns = wrapper_cost()
    figures["tracing.wrapper_ns"] = wrapper_ns
    figures["tracing.noop_span_ns"] = noop_span_ns
    return {
        "run_s": run_s,
        "figures": figures,
        "shares": shares,
        "handler_share": sum(shares.get(k, 0.0) for k in HANDLER_LAYERS),
        "scheduler_share": sum(shares.get(k, 0.0) for k in SCHEDULER_LAYERS),
    }


def main(argv: list[str]) -> int:
    mode, scenario_path, outdir = argv
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    scn = load(scenario_path)
    result = run(scn, out) if mode == "run" else trace(scn, out)
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
