"""Golden-stream pins: the exact bytes of two small mixed runs.

The first has four UEs under proportional fair, AM and UM bearers (with
air loss on both), Prague/AccECN, CUBIC/classic-ECN, a finite Prague flow
and UDP ECT(1) flows.  The second has six UEs that go idle and come back:
finite flows separated by gaps of hundreds of slots, and one UE whose AM
bearer stays backlogged while its UM bearer drains, so the scheduler's
active-UE list and lazily decayed PF averages are on the path.  Two SHA-256
digests of each run are pinned: one of its packets and summary streams,
one of its intervals stream, so any change to event order or arithmetic
anywhere on the slot path shows here, and a change to which interval
records are kept shows apart from one to what the run computed.  A change
that reorders events on purpose updates the digests and says so in
CHANGES.md.  Both runs are pinned under each marking rule a bearer can
run: L4Span's (``aqm.kind: l4span``), the wired fixed-step marker on the
realized RLC head (``dualpi2step``) and no AQM (``none``).  The interval stream is sparse, and each bearer still reports
its gauges once per interval; that contract is checked here too.  The
events dispatched per kind, and the handlers each kind runs, are pinned
too: the benchmark's per-kind figures count events by that label.  A
profiled golden run guards the per-packet path against Python-level enum
code and hashing.  The pinned values were recorded with CPython 3.11 on
x86-64 Linux (glibc); a libm that rounds ``sin`` or ``erfc`` differently
gives other stream bytes.  So would a float ``sum`` on the stream path:
CPython 3.12 compensates the builtin ``sum`` over floats, so the stream
path adds floats in order instead, and the pins are checked again with
``builtins.sum`` replaced by an emulation of the compensated sum.
"""

from __future__ import annotations

import builtins
import cProfile
import enum
import functools
import hashlib
import json
import math
import pstats
from collections import Counter, defaultdict

from l4span.harness.metrics import record_lines
from l4span.harness.scenario import (
    AqmSpec,
    ChannelSpec,
    DrbSpec,
    FlowSpec,
    Scenario,
    UeSpec,
)
import pytest

from l4span.core import Packet
from l4span.ransim import layer as layer_mod
from l4span.ransim import sim as sim_mod
from l4span.ransim.events import EventKind
from l4span.ransim.sim import Simulator, run

GOLDEN_PACKETS_SUMMARY_SHA256 = "b094545b7792d90d0b3273d1b945c1c306b3e58f24afdd75bf30a2a347a4bae3"
GOLDEN_INTERVALS_SHA256 = "84d4693a1bb2e25599022abe4a417e75aae669292041c0787de21b7a0bac2428"
IDLE_GOLDEN_PACKETS_SUMMARY_SHA256 = "39f800ffad671a2f8da9c1ac2fd1173ef27e7d80e1ed10d51a67425f903059f5"
IDLE_GOLDEN_INTERVALS_SHA256 = "1f7d43c2b2e0cb885bbb312a94680c429dedff2d74ee5abc74c1e0ec698122b5"


def golden_scenario() -> Scenario:
    def fading(ue: int) -> ChannelSpec:
        return ChannelSpec(kind="fading", mean_bps=10e6, amplitude_bps=4e6,
                           period_secs=2.0, phase=ue / 4, fade_seed=ue)

    ues = [
        UeSpec(ue_id=1, channel=fading(1), drbs=[
            DrbSpec(drb_id=1, rlc_mode="am", flows=[
                FlowSpec(name="prague-1", kind="prague"),
                FlowSpec(name="cubic-1", kind="cubic", feedback="classic", start=0.05),
            ]),
            DrbSpec(drb_id=2, rlc_mode="um", loss_p=0.01, flows=[
                FlowSpec(name="udp-1", kind="udp", feedback="none", udp_rate_bps=2e6),
            ]),
        ]),
        UeSpec(ue_id=2, channel=fading(2), drbs=[
            DrbSpec(drb_id=1, rlc_mode="am", loss_p=0.02, flows=[
                FlowSpec(name="prague-2", kind="prague", start=0.1),
                FlowSpec(name="short-2", kind="prague", start=0.6, size_bytes=60_000),
            ]),
        ]),
        UeSpec(ue_id=3, channel=ChannelSpec(kind="sinusoid", mean_bps=8e6,
                                            amplitude_bps=3e6, period_secs=1.0), drbs=[
            DrbSpec(drb_id=1, rlc_mode="am", max_queue_sdus=40, flows=[
                FlowSpec(name="cubic-3", kind="cubic", feedback="classic", start=0.2),
            ]),
        ]),
        UeSpec(ue_id=4, channel=ChannelSpec(kind="static", capacity_bps=8e6), drbs=[
            DrbSpec(drb_id=1, rlc_mode="um", loss_p=0.005, max_queue_sdus=48, flows=[
                FlowSpec(name="prague-4", kind="prague", start=0.15),
                FlowSpec(name="udp-4", kind="udp", feedback="none", udp_rate_bps=3e6,
                         start=0.3, stop=1.6),
            ]),
        ]),
    ]
    return Scenario(name="golden-4ue", horizon_secs=2.0, warmup_secs=0.5, seed=7,
                    scheduler="proportional_fair", ues=ues, aqm=AqmSpec())


def idle_return_scenario() -> Scenario:
    def fading(ue: int) -> ChannelSpec:
        return ChannelSpec(kind="fading", mean_bps=12e6, amplitude_bps=4e6,
                           period_secs=1.5, phase=ue / 6, fade_seed=ue)

    def burst(prefix: str, kind: str, starts: list[float], size: int, **kw) -> list[FlowSpec]:
        return [FlowSpec(name=f"{prefix}-{i}", kind=kind, start=s, size_bytes=size, **kw)
                for i, s in enumerate(starts)]

    ues = [
        UeSpec(ue_id=1, channel=fading(1), drbs=[
            DrbSpec(drb_id=1, rlc_mode="am", flows=[
                FlowSpec(name="bulk-1", kind="prague", start=0.02),
            ]),
            DrbSpec(drb_id=2, rlc_mode="um", loss_p=0.01, flows=[
                FlowSpec(name="udp-1", kind="udp", feedback="none", udp_rate_bps=1e6,
                         start=0.25, stop=0.7),
                *burst("um-1", "prague", [0.9, 1.45], 20_000),
            ]),
        ]),
        UeSpec(ue_id=2, channel=fading(2), drbs=[
            DrbSpec(drb_id=1, rlc_mode="am", flows=burst("p-2", "prague", [0.1, 0.55, 1.2], 30_000)),
        ]),
        UeSpec(ue_id=3, channel=fading(3), drbs=[
            DrbSpec(drb_id=1, rlc_mode="am", loss_p=0.02,
                    flows=burst("c-3", "cubic", [0.2, 0.95], 40_000, feedback="classic")),
        ]),
        UeSpec(ue_id=4, channel=ChannelSpec(kind="sinusoid", mean_bps=9e6, amplitude_bps=3e6,
                                            period_secs=1.0), drbs=[
            DrbSpec(drb_id=1, rlc_mode="um", flows=burst("u-4", "prague", [0.05, 0.7, 1.5], 25_000)),
        ]),
        UeSpec(ue_id=5, channel=fading(5), drbs=[
            DrbSpec(drb_id=1, rlc_mode="am", flows=burst("p-5", "prague", [0.3, 1.05], 15_000)),
        ]),
        UeSpec(ue_id=6, channel=ChannelSpec(kind="static", capacity_bps=10e6), drbs=[
            DrbSpec(drb_id=1, rlc_mode="am", flows=[
                FlowSpec(name="cubic-6", kind="cubic", feedback="classic", start=0.4, stop=0.9),
                *burst("p-6", "prague", [1.6], 30_000),
            ]),
        ]),
    ]
    return Scenario(name="golden-idle-6ue", horizon_secs=2.0, warmup_secs=0.5, seed=11,
                    scheduler="proportional_fair", ues=ues, aqm=AqmSpec())


@functools.cache
def cached_run(make):
    """One run per scenario builder, shared by the tests that only read it."""
    return run(make())


def packets_summary_digest(result) -> str:
    h = hashlib.sha256()
    for line in record_lines(result.collector.packets):
        h.update(line.encode())
    h.update((json.dumps(result.summary, indent=2, sort_keys=True) + "\n").encode())
    return h.hexdigest()


def intervals_digest(result) -> str:
    h = hashlib.sha256()
    for line in record_lines(result.collector.intervals):
        h.update(line.encode())
    return h.hexdigest()


def test_golden_streams_are_pinned():
    result = cached_run(golden_scenario)
    # the run exercises every path the pin is meant to cover
    flows = result.summary["flows"]
    assert all(flows[name]["delivered_bytes"] > 0 for name in flows)
    assert flows["short-2"]["completion_secs"] is not None
    assert sum(f["marks"] for f in flows.values()) > 0
    assert result.summary["drbs"]["4:1"]["tail_drops"] > 0
    assert packets_summary_digest(result) == GOLDEN_PACKETS_SUMMARY_SHA256
    assert intervals_digest(result) == GOLDEN_INTERVALS_SHA256


def test_idle_return_streams_are_pinned():
    result = cached_run(idle_return_scenario)
    flows = result.summary["flows"]
    assert all(flows[name]["delivered_bytes"] > 0 for name in flows)
    finite = [f for f in flows.values() if f["completion_secs"] is not None]
    assert len(finite) == 13
    assert packets_summary_digest(result) == IDLE_GOLDEN_PACKETS_SUMMARY_SHA256
    assert intervals_digest(result) == IDLE_GOLDEN_INTERVALS_SHA256


def compensated_sum(iterable, /, start=0):
    """``builtins.sum`` as CPython 3.12 computes it: exact ints, then exact
    floats (and ints) with Neumaier's compensation, then plain ``+``."""
    it = iter(iterable)
    result = start
    if type(result) is int:
        for item in it:
            result = result + item
            if type(result) is not int:
                break
        else:
            return result
    if type(result) is float:
        f, c = result, 0.0
        for item in it:
            if type(item) is float:
                t = f + item
                if abs(f) >= abs(item):
                    c += (f - t) + item
                else:
                    c += (item - t) + f
                f = t
            elif type(item) is int:
                f += float(item)
            else:
                if c and math.isfinite(c):
                    f += c
                result = f + item
                break
        else:
            return f + c if c and math.isfinite(c) else f
    for item in it:
        result = result + item
    return result


def test_compensated_sum_emulates_a_correctly_rounded_float_sum():
    xs = [0.1] * 10
    in_order = 0.0
    for x in xs:
        in_order += x
    assert compensated_sum(xs) == 1.0 != in_order
    assert compensated_sum([1e100, 1.0, -1e100, 1.0]) == 2.0
    assert compensated_sum([1, 2, 3]) == 6 and type(compensated_sum([1, 2])) is int
    assert compensated_sum([[1], [2]], []) == [1, 2]


@pytest.mark.parametrize("make", [golden_scenario, idle_return_scenario])
def test_streams_do_not_depend_on_the_interpreters_float_sum(make, monkeypatch):
    # the pins above, from a run whose builtin sum compensates as 3.12's does
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    result = run(make())
    monkeypatch.undo()
    pins = {golden_scenario: (GOLDEN_PACKETS_SUMMARY_SHA256, GOLDEN_INTERVALS_SHA256),
            idle_return_scenario: (IDLE_GOLDEN_PACKETS_SUMMARY_SHA256,
                                   IDLE_GOLDEN_INTERVALS_SHA256)}
    assert (packets_summary_digest(result), intervals_digest(result)) == pins[make]


def with_aqm_kind(make, kind: str) -> Scenario:
    scn = make()
    scn.aqm = AqmSpec(kind=kind)
    return scn


@functools.cache
def cached_rule_run(make, kind: str):
    return run(with_aqm_kind(make, kind))


# (packets+summary, intervals) digests of each run under the other two rules
RULE_PINS = {
    (golden_scenario, "dualpi2step"): (
        "c8df31dfa7557ad670207316c415af9355cdf561f57d8513f39ee09dbeffb82b",
        "2323176afc043fe860eff1d7394465ea6926ec192e01dd51d0222697795a9510"),
    (golden_scenario, "none"): (
        "aa0f7d4bc0a7262b1b72f147ddd2036a5d3e2d78c64df5c064c26d5d9920b070",
        "4fea2db4a2f0932df51ec0af826f431679dfce3a0c8fe945d07b0813a9fc39be"),
    (idle_return_scenario, "dualpi2step"): (
        "c1edbd43e936c248b96d6b6eb4a373728103ae8b2b205a1c09a496bafb7dc722",
        "84940a59b46f66ff61a4be799dfcaa01760a0eb0f2b53ca8b2a35fbcdc5131d6"),
    (idle_return_scenario, "none"): (
        "cf9344edd74bc3ce374e465037883f07f8a3975b2aa53b94f6b3313882ae846e",
        "759fb09c284d634c3a616371ecd69a99901d42b8aec0f67e131008fa288567fc"),
}


@pytest.mark.parametrize("make, kind", list(RULE_PINS),
                         ids=[f"{make.__name__}-{kind}" for make, kind in RULE_PINS])
def test_streams_under_the_step_and_no_aqm_rules_are_pinned(make, kind):
    result = cached_rule_run(make, kind)
    marks = sum(f["marks"] for f in result.summary["flows"].values())
    latencies = sum(len(v) for v in result.collector.feedback_latency.values())
    # each run exercises its rule: the step marks (818 and 139 marks), and
    # with no AQM nothing is marked and no mark is fed back
    if kind == "dualpi2step":
        assert marks > 0 and latencies > 0
    else:
        assert marks == 0 and latencies == 0
    assert (packets_summary_digest(result), intervals_digest(result)) == RULE_PINS[make, kind]


# per aqm.kind, the golden run's calls to l4span.ransim.layer's decide_mark
# and rewrite_ack: only l4span decides by decide_mark, and no AQM rewrites no ACK
LAYER_CALLS = {"l4span": (1377, 716), "dualpi2step": (0, 592), "none": (0, 0)}


@pytest.mark.parametrize("kind", list(LAYER_CALLS))
def test_a_decide_mark_wrapped_before_the_build_sees_every_call(kind, monkeypatch):
    # the benchmark's traced run wraps the layer module's functions before it
    # builds the simulator, counts each call and reads decide_mark's packet
    # from its third argument
    calls = {"decide_mark": [], "rewrite_ack": []}
    for name, seen in calls.items():
        def counted(*args, real=getattr(layer_mod, name), seen=seen):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(layer_mod, name, counted)
    Simulator(with_aqm_kind(golden_scenario, kind)).run()
    assert (len(calls["decide_mark"]), len(calls["rewrite_ack"])) == LAYER_CALLS[kind]
    assert all(isinstance(args[2], Packet) for args in calls["decide_mark"])


@pytest.mark.parametrize("make", [golden_scenario, idle_return_scenario])
def test_every_bearer_reports_its_gauges_once_per_interval(make):
    scn = make()
    c = cached_run(make).collector
    starts = {f.name: f.start for ue in scn.ues for d in ue.drbs for f in d.flows}
    anchors = {d.flows[0].name for ue in scn.ues for d in ue.drbs}
    gauges = defaultdict(set)
    for r in c.intervals:
        gauges[c.drb_of_flow[r.flow], r.t].add((r.queue_bytes, r.p_l4s, r.p_classic,
                                                r.r_hat, r.e_hat))
        # only a bearer's anchor reports before it starts
        assert r.flow in anchors or r.t >= starts[r.flow], (r.flow, r.t)
    times = [round(0.1 * k, 6) for k in range(1, 21)]
    assert sorted({r.t for r in c.intervals}) == times
    for key in set(c.drb_of_flow.values()):
        for t in times:
            assert len(gauges[key, t]) == 1, (key, t)
    # the stream is sparse: some flow is missing from some interval
    assert len(c.intervals) < len(times) * len(c.flow_names)


# events dispatched per kind; the benchmark's per-kind figures count these labels.
# A flow's stop time schedules no event: its sender checks the clock, so each
# flow that stops before the horizon has no timer of its own (one here, two in
# the idle-return run).  A slot's deliveries and status messages run inside
# its tick, so no f1u_feedback event is dispatched.
DISPATCH_COUNTS = {
    golden_scenario: {"arrive_downlink": 1424, "arrive_uplink": 1426, "deliver_to_ue": 685,
                      "f1u_feedback": 0, "sender_timer": 696, "slot_tick": 4001},
    idle_return_scenario: {"arrive_downlink": 1045, "arrive_uplink": 1986, "deliver_to_ue": 910,
                           "f1u_feedback": 0, "sender_timer": 85, "slot_tick": 4001},
}


@pytest.mark.parametrize("make", [golden_scenario, idle_return_scenario])
def test_dispatch_counts_and_handlers_per_kind_are_pinned(make, monkeypatch):
    counts = Counter()
    handlers = defaultdict(set)
    real = Simulator._dispatch

    def counted(self, ev):
        counts[ev.kind.value] += 1
        handlers[ev.kind.value].add(getattr(ev.handler, "__func__", ev.handler))
        real(self, ev)

    monkeypatch.setattr(Simulator, "_dispatch", counted)
    result = run(make())
    assert {kind.value: counts[kind.value] for kind in EventKind} == DISPATCH_COUNTS[make]
    assert result.events == sum(counts.values())
    # one handler per kind, but the uplink's two legs and the senders' timers
    assert handlers.pop("arrive_uplink") == {Simulator._uplink_at_cu, Simulator._uplink_at_server}
    timers = handlers.pop("sender_timer")
    assert all(h.__qualname__.split(".")[0] in ("TcpEndpoint", "UdpEndpoint") for h in timers)
    assert {k: len(h) for k, h in handlers.items()} == {
        "arrive_downlink": 1, "deliver_to_ue": 1, "slot_tick": 1}


@pytest.mark.parametrize("make", [golden_scenario, idle_return_scenario])
def test_scheduler_sees_every_backlogged_ue_in_order(make, monkeypatch):
    sim = Simulator(make())
    position = {id(ue): i for i, ue in enumerate(sim.ue_ctx)}
    real = sim_mod.scheduler_slot
    seen = {"slots": 0, "idle_passed": 0}

    def checked(ues, *args):
        order = [position[id(ue)] for ue in ues]
        assert order == sorted(set(order))  # ue_ctx order, each UE once
        backlogged = [i for i, ue in enumerate(sim.ue_ctx) if ue.standing_bytes() > 0]
        assert set(backlogged) <= set(order)
        seen["slots"] += 1
        seen["idle_passed"] += len(order) - len(backlogged)
        return real(ues, *args)

    monkeypatch.setattr(sim_mod, "scheduler_slot", checked)
    sim.run()
    assert seen["slots"] == 4001
    # the list drops drained UEs: nobody idle is passed
    assert seen["idle_passed"] == 0


def test_per_packet_path_runs_no_python_level_enum_code_or_hashing():
    # flags are int masks, FiveTuple is a tuple and Proto hashes as its str:
    # a run's calls into enum.py stay O(flows) and no __hash__ runs in
    # Python.  An IntFlag test or a dataclass flow key on the per-packet
    # path shows up here as thousands of calls.  The cached run does the
    # first-use imports outside the profile.
    cached_run(golden_scenario)
    sim = Simulator(golden_scenario())
    prof = cProfile.Profile()
    prof.runcall(sim.run)
    calls = {key: nc for key, (_, nc, *_) in pstats.Stats(prof).stats.items()}
    enum_calls = sum(nc for (path, _, _), nc in calls.items() if path == enum.__file__)
    assert enum_calls <= 4 * len(sim.flows)
    assert [key for key in calls if key[2] == "__hash__"] == []
