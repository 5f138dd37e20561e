import csv
import functools
import gc
import importlib.util
import json
import math
import re
import tracemalloc
from collections import defaultdict
from dataclasses import asdict, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from l4span.harness import cli
from l4span.harness.cli import _sweep_jobs, build_parser
from l4span.harness.cli import main as cli_main
from l4span.harness.metrics import (
    FeedbackLatency,
    IntervalRecord,
    MetricsCollector,
    PacketRecord,
    record_lines,
    write_run,
)
from l4span.harness.scenario import (
    BUILTIN_SCENARIOS,
    AqmSpec,
    ChannelSpec,
    ConfigError,
    DrbSpec,
    FlowSpec,
    Scenario,
    UeSpec,
    load_scenario,
    resolve_scenario,
    override,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from l4span.harness.acceptance import VARIANTS, AcceptanceRunner, variant_scenario
from l4span.ransim.sim import Simulator, run
from test_golden import cached_run, golden_scenario, idle_return_scenario

MINIMAL_YAML = """
name: mini
horizon_secs: 4.0
warmup_secs: 1.0
seed: 3
ues:
  - ue_id: 1
    drbs:
      - flows:
          - name: f1
            kind: prague
"""


def test_load_minimal_scenario_fills_defaults(tmp_path):
    p = tmp_path / "mini.yaml"
    p.write_text(MINIMAL_YAML)
    scn = load_scenario(p)
    assert scn.name == "mini"
    assert scn.aqm.kind == "l4span"
    assert scn.aqm.tau_thr == 0.010
    assert scn.slot_secs == 0.0005
    assert scn.window_secs == pytest.approx(0.01245)
    drb = scn.ues[0].drbs[0]
    assert drb.max_queue_sdus == 16384
    assert drb.mss_bytes == 1500
    assert scn.ues[0].channel.capacity_bps == 40e6


def _readme_yaml() -> str:
    """The minimal scenario example from the README, verbatim."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("Minimal example:", 1)[1]
    return block.split("```yaml\n", 1)[1].split("```", 1)[0]


def _validate_yaml(tmp_path, capsys, text: str) -> tuple[int, str]:
    p = tmp_path / "scn.yaml"
    p.write_text(text)
    rc = cli_main(["validate", str(p)])
    return rc, capsys.readouterr().err


def test_readme_example_loads_and_runs(tmp_path, capsys):
    rc, err = _validate_yaml(tmp_path, capsys, _readme_yaml())
    assert rc == 0, err
    scn = load_scenario(tmp_path / "scn.yaml")
    assert scn.ues[0].channel.capacity_bps == 40e6  # YAML reads 40e6 as a string
    scn.horizon_secs, scn.warmup_secs = 2.0, 0.5
    assert run(scn).summary["ues"][1]["utilization"] > 0


def test_non_numeric_float_field_is_named(tmp_path, capsys):
    text = _readme_yaml().replace("capacity_bps: 40e6", "capacity_bps: fast")
    rc, err = _validate_yaml(tmp_path, capsys, text)
    assert rc == 1
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert "ues[0].channel.capacity_bps" in err


# the next two use integer rates, which every version parses, so each test
# isolates its own defect


def test_channel_builder_error_is_named(tmp_path, capsys):
    text = _readme_yaml().replace(
        "{kind: static, capacity_bps: 40e6}",
        "{kind: sinusoid, mean_bps: 10000000, amplitude_bps: 20000000}")
    rc, err = _validate_yaml(tmp_path, capsys, text)
    assert rc == 1
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert "ues[0].channel" in err and "amplitude" in err


def test_warmup_not_shorter_than_horizon_rejected(tmp_path, capsys):
    text = _readme_yaml().replace("40e6", "40000000") + "warmup_secs: 30.0\n"
    rc, err = _validate_yaml(tmp_path, capsys, text)
    assert rc == 1
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert "warmup_secs" in err


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="no_such_knob"):
        scenario_from_dict({
            "name": "x", "no_such_knob": 1,
            "ues": [{"ue_id": 1, "drbs": [{"flows": [{"name": "f"}]}]}],
        })


def test_bad_flow_is_named():
    with pytest.raises(ConfigError, match="f1"):
        scenario_from_dict({
            "name": "x",
            "ues": [{"ue_id": 1, "drbs": [{"flows": [{"name": "f1", "kind": "bbr9"}]}]}],
        })


def test_flow_window_validated():
    with pytest.raises(ConfigError, match="start < stop"):
        scenario_from_dict({
            "name": "x", "horizon_secs": 10.0,
            "ues": [{"ue_id": 1, "drbs": [{"flows": [{"name": "f1", "start": 5.0, "stop": 2.0}]}]}],
        })


def test_negative_delivery_delay_rejected():
    with pytest.raises(ConfigError, match="drb 1: delays must be >= 0"):
        scenario_from_dict({
            "name": "x",
            "ues": [{"ue_id": 1, "drbs": [{"delivery_delay_secs": -0.001,
                                           "flows": [{"name": "f1"}]}]}],
        })


def test_duplicate_ue_rejected():
    with pytest.raises(ConfigError, match="duplicate ue_id"):
        scenario_from_dict({
            "name": "x",
            "ues": [
                {"ue_id": 1, "drbs": [{"flows": [{"name": "a"}]}]},
                {"ue_id": 1, "drbs": [{"flows": [{"name": "b"}]}]},
            ],
        })


def test_rlc_256_override_accepted():
    scn = scenario_from_dict({
        "name": "x",
        "ues": [{"ue_id": 1, "drbs": [{"max_queue_sdus": 256, "flows": [{"name": "f"}]}]}],
    })
    assert scn.ues[0].drbs[0].max_queue_sdus == 256


def test_builtin_scenarios_all_validate():
    for name, factory in BUILTIN_SCENARIOS.items():
        factory().validate()


def test_scenario_roundtrip(tmp_path):
    scn = BUILTIN_SCENARIOS["static-1ue"]()
    p = tmp_path / "s.yaml"
    save_scenario(scn, p)
    again = load_scenario(p)
    assert again.name == scn.name
    assert again.aqm.tau_thr == scn.aqm.tau_thr
    assert len(again.ues) == len(scn.ues)


def test_resolve_scenario_unknown():
    with pytest.raises(ConfigError, match="no such scenario"):
        resolve_scenario("does-not-exist")


def _count_builds(monkeypatch) -> list:
    """Every ``ChannelSpec.build`` call from here on, as (spec, horizon, trace)."""
    built = []
    real = ChannelSpec.build

    def counted(self, horizon):
        trace = real(self, horizon)
        built.append((self, horizon, trace))
        return trace

    monkeypatch.setattr(ChannelSpec, "build", counted)
    return built


def _assert_each_trace_built_once(make_scenarios, monkeypatch) -> None:
    """From ``make_scenarios()`` to a built ``Simulator`` for each scenario
    it returns, each UE's full-horizon trace is built exactly once, and it
    is the trace the simulator runs on; everything else is a zero-horizon
    check."""
    built = _count_builds(monkeypatch)
    scenarios = make_scenarios()
    assert built and {horizon for _, horizon, _ in built} == {0.0}
    for scn in scenarios:
        built.clear()
        sim = Simulator(scn)
        full = [(spec, trace) for spec, horizon, trace in built if horizon == scn.horizon_secs]
        assert len(full) + sum(horizon == 0.0 for _, horizon, _ in built) == len(built)
        assert [spec for spec, _ in full] == [ue.channel for ue in scn.ues]
        assert all(ctx.trace is trace for ctx, (_, trace) in zip(sim.ue_ctx, full, strict=True))


def test_validate_checks_each_channel_over_a_zero_horizon(monkeypatch):
    scn = BUILTIN_SCENARIOS["mobile-16ue"]()
    built = _count_builds(monkeypatch)
    assert scn.validate() is None
    assert [(spec, horizon) for spec, horizon, _ in built] == [(ue.channel, 0.0) for ue in scn.ues]


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_resolve_scenario_builds_each_channel_trace_once(name, monkeypatch):
    # resolving only checks (a derived builtin twice: in its override and
    # in resolve_scenario), so the Simulator's build is the only full one
    _assert_each_trace_built_once(lambda: [resolve_scenario(name)], monkeypatch)


def _from_file(tmp_path: Path) -> list:
    path = tmp_path / "mobile-16ue.yaml"
    save_scenario(BUILTIN_SCENARIOS["mobile-16ue"](), path)
    return [load_scenario(path)]


def _sweep_points(tmp_path: Path) -> list:
    args = build_parser().parse_args(["sweep", "mobile-16ue", "--param", "aqm.kind=l4span,none",
                                      "--seeds", "1,2", "--out", str(tmp_path / "out")])
    return [scn for scn, _ in _sweep_jobs(args)]


# the other ways to a runnable scenario; each gets a scratch directory
ENTRY_POINTS = {
    **{f"variant:{k}": lambda tmp_path, k=k: [variant_scenario(k)] for k in VARIANTS},
    "file:mobile-16ue": _from_file,
    "sweep:mobile-16ue": _sweep_points,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_each_channel_trace_is_built_once_from_entry_point_to_simulator(entry, tmp_path,
                                                                        monkeypatch):
    _assert_each_trace_built_once(lambda: ENTRY_POINTS[entry](tmp_path), monkeypatch)


# -- the typed loader and overrides --------------------------------------------------


def _probe_base() -> dict:
    return {
        "name": "probe", "horizon_secs": 2.0, "warmup_secs": 0.5, "seed": 1,
        "delays": {}, "aqm": {},
        "ues": [{"ue_id": 1, "drbs": [{"flows": [
            {"name": "f1"},
            {"name": "u1", "kind": "udp", "feedback": "none"},
        ]}]}],
    }


DRB = ("ues", 0, "drbs", 0)
FLOW = DRB + ("flows", 0)

# (path into the scenario data, value, what the error must name): each one
# crashed or ran to a meaningless result before the loader and validate()
# checked it
PROBES = [
    (DRB + ("mss_bytes",), 0, "mss_bytes"),
    (DRB + ("mss_bytes",), 30, "mss_bytes"),
    (DRB + ("flows", 1, "udp_rate_bps"), 0, "udp_rate_bps"),
    (FLOW + ("start",), -1.0, "start"),
    (("delays", "dl_prop_secs"), -0.01, "dl_prop_secs"),
    (("delays", "ran_ul_secs"), -0.01, "ran_ul_secs"),
    (FLOW + ("think_secs",), -1, "think_secs"),
    (FLOW + ("rwnd_bytes",), 1000, "rwnd_bytes"),
    # rejected before too, but without naming the delay
    (DRB + ("delivery_delay_secs",), -0.001, "delivery_delay_secs"),
    (DRB + ("arq_delay_secs",), -0.001, "arq_delay_secs"),
    # a sender that cannot read its flow's feedback never hears a mark
    (FLOW + ("feedback",), "classic", "'f1'"),
    (FLOW + ("feedback",), "none", "'f1'"),
    (FLOW + ("kind",), "cubic", "'f1'"),  # with FlowSpec's default accecn
    ({FLOW + ("kind",): "reno", FLOW + ("feedback",): "accecn"}, None, "'f1'"),
    (DRB + ("flows", 1, "feedback"), "accecn", "'u1'"),
    (DRB + ("flows", 1, "feedback"), "classic", "'u1'"),
    (("warmup_secs",), -1, "warmup_secs"),
    (("slot_secs",), 10.0, "slot_secs"),
    # an estimation window (coherence_secs / 2) shorter than the 0.5 ms slot
    (("coherence_secs",), 0.0005, "coherence_secs"),
    (("coherence_secs",), 0.0, "coherence_secs"),
    (DRB + ("max_queue_sdus",), "x", "scenario.ues[0].drbs[0].max_queue_sdus"),
    (("seed",), "abc", "scenario.seed"),
    (("ues", 0, "ue_id"), "1", "scenario.ues[0].ue_id"),
    (("aqm", "short_circuit"), "no", "scenario.aqm.short_circuit"),
    (("name",), 5, "scenario.name"),
    (FLOW + ("size_bytes",), 1.5, "scenario.ues[0].drbs[0].flows[0].size_bytes"),
    (FLOW + ("name",), None, "scenario.ues[0].drbs[0].flows[0].name"),
    # a zero period divided by zero; a half-period or hold below the 0.5 ms
    # slot adds breakpoints no slot reads, without bound as it shrinks
    (("ues", 0, "channel"), {"kind": "fading", "period_secs": 0}, "ues[0].channel.period_secs"),
    (("ues", 0, "channel"), {"kind": "step", "period_secs": 0.0004}, "ues[0].channel.period_secs"),
    (("ues", 0, "channel"), {"kind": "fading", "fast_secs": 0.0004}, "ues[0].channel.fast_secs"),
    # the shadowing hold runs as a whole number of jitter holds, at least one
    (("ues", 0, "channel"), {"kind": "fading", "fade_secs": 0.005}, "ues[0].channel.fade_secs"),
    (("ues", 0, "channel"), {"kind": "fading", "fade_secs": 0.014}, "ues[0].channel.fade_secs"),
    # a full build rejected these two; the zero-horizon check must still see
    # a negative capacity that the trace reaches only after t = 0
    (("ues", 0, "channel"), {"kind": "step", "low_bps": -1}, "capacities must be >= 0"),
    (("ues", 0, "channel"), {"kind": "sinusoid", "mean_bps": 10_000_000, "amplitude_bps": -20_000_000},
     "amplitude may not exceed mean"),
    # a horizon whose trace cannot be built (Simulator raised MemoryError)
    *[({("horizon_secs",): 1e12, ("ues", 0, "channel"): {"kind": kind}}, None,
       "ues[0].channel: horizon_secs") for kind in ("step", "sinusoid", "fading")],
]


def _probe_changes(path, value) -> list:
    """A row's (path, value) pairs: a row whose path is a mapping sets each of its paths."""
    return list(path.items()) if isinstance(path, dict) else [(path, value)]


def _probe_id(probe) -> str:
    return "+".join(f"{'.'.join(map(str, p))}={v!r}" for p, v in _probe_changes(*probe[:2]))


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("path, value, named", PROBES, ids=list(map(_probe_id, PROBES)))
def test_malformed_scenario_is_one_named_config_error(tmp_path, capsys, command, path, value,
                                                      named):
    data = _probe_base()
    for p, v in _probe_changes(path, value):
        node = data
        for key in p[:-1]:
            node = node[key]
        node[p[-1]] = v
    sfile = tmp_path / "probe.json"
    sfile.write_text(json.dumps(data))
    argv = [command, str(sfile)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:") and captured.err.count("\n") == 1
    assert named in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_probe_base_itself_is_valid():
    scn = scenario_from_dict(_probe_base())
    assert scn.ues[0].drbs[0].flows[1].stop is None  # Optional fields keep their None default
    # an estimation window of exactly one slot is the shortest valid one
    assert scenario_from_dict({**_probe_base(), "coherence_secs": 2 * scn.slot_secs}).window_secs \
        == scn.slot_secs


def _workload_first_scenarios() -> dict:
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return {w: functools.partial(mod.generate, w, mod.subrun_seeds(w, 1)[0])
            for w in mod.WORKLOADS}


ROUND_TRIP = {
    **{f"builtin:{k}": f for k, f in BUILTIN_SCENARIOS.items()},
    **{f"variant:{k}": functools.partial(variant_scenario, k) for k in VARIANTS},
    **{f"workload:{k}": f for k, f in _workload_first_scenarios().items()},
}


@pytest.mark.parametrize("key", sorted(ROUND_TRIP))
def test_loader_round_trips_every_scenario(key):
    data = scenario_to_dict(ROUND_TRIP[key]())
    assert scenario_to_dict(scenario_from_dict(data)) == data
    # through JSON text too, the way the benchmark hands a scenario to its runs
    assert scenario_to_dict(scenario_from_dict(json.loads(json.dumps(data)))) == data


def test_override_sets_paths_on_a_copy():
    base = BUILTIN_SCENARIOS["shared-drb"]()
    before = scenario_to_dict(base)
    scn = override(base, {"aqm.kind": "none", "ues.0.drbs.0.flows.1.rwnd_bytes": 100_000,
                          "ues.0.channel.capacity_bps": "20e6"})
    assert (scn.aqm.kind, scn.ues[0].drbs[0].flows[1].rwnd_bytes) == ("none", 100_000)
    assert scn.ues[0].channel.capacity_bps == 20e6
    assert scenario_to_dict(base) == before


# the sweep tests below cover a missing field, an index out of range and a
# value of the wrong type
@pytest.mark.parametrize("changes, named", [
    ({"ues.x.ue_id": 2}, "ues.x.ue_id"),
    ({"aqm.kind.x": 1}, "aqm.kind.x"),
    ({"aqm.kind": "fq_codel"}, "aqm.kind"),
])
def test_override_names_a_bad_path_or_value(changes, named):
    with pytest.raises(ConfigError, match=re.escape(named)):
        override(BUILTIN_SCENARIOS["static-1ue"](), changes)


# -- metrics recompute property ---------------------------------------------------


def test_summary_recomputable_from_streams():
    scn = BUILTIN_SCENARIOS["static-1ue"]()
    scn.horizon_secs = 8.0
    scn.warmup_secs = 3.0
    res = run(scn)
    summary = res.summary["flows"]["prague-1"]

    # re-derive from the packet stream with an independent percentile route
    delays = sorted(r.one_way for r in res.collector.packets
                    if r.flow == "prague-1" and r.t >= 3.0)
    def pct(vals, q):
        # linear interpolation, matching numpy's default
        idx = (len(vals) - 1) * q
        lo, hi = int(idx), min(int(idx) + 1, len(vals) - 1)
        frac = idx - lo
        return vals[lo] * (1 - frac) + vals[hi] * frac

    assert summary["delay"]["count"] == len(delays)
    assert summary["delay"]["p50"] == pytest.approx(pct(delays, 0.50), rel=1e-9)
    assert summary["delay"]["p99"] == pytest.approx(pct(delays, 0.99), rel=1e-9)
    assert summary["delay"]["mean"] == pytest.approx(sum(delays) / len(delays), rel=1e-9)

    # delivered bytes equal the interval accumulation
    per_interval = sum(r["throughput_bps"] for r in res.collector.intervals
                       if r["flow"] == "prague-1") * 0.1 / 8.0
    assert per_interval == pytest.approx(res.collector.delivered_payload["prague-1"], rel=1e-9)


def late_delivery_scenario() -> Scenario:
    """A one-packet flow with a copy of its packet delivered after it completed.

    A UDP burst leaves about a second of standing queue ahead of the flow's
    data packet; its retransmission timer fires while the packet waits, and
    the copy queues behind the same backlog, so it arrives some 0.7 s after
    the original's ACK completed the flow.
    """
    ues = [UeSpec(ue_id=1, channel=ChannelSpec(kind="static", capacity_bps=4e6), drbs=[
        DrbSpec(drb_id=1, rlc_mode="am", max_queue_sdus=1000, flows=[
            FlowSpec(name="udp-hold", kind="udp", feedback="none", udp_rate_bps=3.8e6,
                     start=0.05, stop=1.5),
            FlowSpec(name="udp-burst", kind="udp", feedback="none", udp_rate_bps=40e6,
                     start=0.05, stop=0.15),
            FlowSpec(name="short", kind="prague", size_bytes=1000, think_secs=0.2),
        ])])]
    return Scenario(name="late-delivery", horizon_secs=2.0, warmup_secs=0.5, seed=1,
                    ues=ues, aqm=AqmSpec(kind="none"))


@pytest.mark.parametrize("make", [golden_scenario, idle_return_scenario, late_delivery_scenario])
def test_interval_counts_add_up_to_run_totals_for_every_flow(make):
    # every flow, finite and UDP ones and deliveries after completion
    # included: the sparse interval stream drops no delivery, mark or drop
    c = cached_run(make).collector
    delivered, marks = defaultdict(float), defaultdict(int)
    drops_of_bearer = defaultdict(int)
    for r in c.intervals:
        delivered[r["flow"]] += r["throughput_bps"] * 0.1 / 8.0
        marks[r["flow"]] += r["marks"]
        drops_of_bearer[c.drb_of_flow[r["flow"]]] += r["drops"]
    expected_drops = defaultdict(int, c.tail_drops)
    for flow in c.flow_names:
        assert c.delivered_payload[flow] > 0
        assert delivered[flow] == pytest.approx(c.delivered_payload[flow], rel=1e-9), flow
        assert marks[flow] == c.mark_counts[flow], flow
        expected_drops[c.drb_of_flow[flow]] += c.aqm_drops[flow]
    assert dict(drops_of_bearer) == dict(expected_drops)
    if make is late_delivery_scenario:
        done = c.completion["short"]
        assert any(r.flow == "short" and r.t - 0.1 > done and r.throughput_bps > 0
                   for r in c.intervals)


# -- CLI --------------------------------------------------------------------------


def test_cli_validate_builtin(capsys):
    assert cli_main(["validate", "static-1ue"]) == 0
    assert "static-1ue" in capsys.readouterr().out


def test_cli_validate_bad_file(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text("name: x\nues: []\n")
    assert cli_main(["validate", str(p)]) == 1
    assert "configuration error" in capsys.readouterr().err


def _one_config_error_line(capsys, named: str) -> None:
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:") and captured.err.count("\n") == 1
    assert named in captured.err
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("name, content", [
    ("bad.json", b'{"name": '),                 # invalid JSON
    ("bad.yaml", b"name: [1, 2\nues: : :\n"),   # invalid YAML
    ("bad.yaml", b"name: \xff\xfe\n"),          # not UTF-8
    ("dir.json", None),                         # a directory
], ids=["json", "yaml", "not-utf8", "directory"])
def test_cli_unreadable_scenario_file_is_one_config_error(tmp_path, capsys, name, content):
    p = tmp_path / name
    if content is None:
        p.mkdir()
    else:
        p.write_bytes(content)
    assert cli_main(["validate", str(p)]) == 1
    _one_config_error_line(capsys, str(p))


@pytest.mark.parametrize("trace", ["0,nan\n", "0,inf\n"], ids=["nan", "inf"])
def test_cli_non_finite_file_channel_is_one_config_error(tmp_path, capsys, trace):
    (tmp_path / "trace.csv").write_text(trace)
    data = scenario_to_dict(BUILTIN_SCENARIOS["static-1ue"]())
    data["ues"][0]["channel"].update(kind="file", path=str(tmp_path / "trace.csv"))
    p = tmp_path / "scn.json"
    p.write_text(json.dumps(data))
    assert cli_main(["validate", str(p)]) == 1
    _one_config_error_line(capsys, "ues[0].channel")


@pytest.mark.parametrize("cwd, ref", [(".", "rel/scn.json"), ("rel", "scn.json"),
                                      ("elsewhere", "../rel/scn.json")])
def test_file_channel_path_is_relative_to_the_scenario_file(tmp_path, monkeypatch, capsys,
                                                           cwd, ref):
    (tmp_path / "rel").mkdir()
    (tmp_path / "elsewhere").mkdir()
    (tmp_path / "rel" / "trace.csv").write_text("0.0,40e6\n1.0,20e6\n")
    data = scenario_to_dict(BUILTIN_SCENARIOS["static-1ue"]())
    data["ues"][0]["channel"].update(kind="file", path="trace.csv")
    (tmp_path / "rel" / "scn.json").write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path / cwd)
    assert cli_main(["validate", ref]) == 0
    assert capsys.readouterr().out.startswith("ok:")
    spec = load_scenario(ref).ues[0].channel
    # resolved once, on load: a derived scenario finds the file from anywhere
    assert Path(spec.path).is_absolute() and Path(spec.path).samefile(tmp_path / "rel" / "trace.csv")
    assert spec.build(2.0).breakpoints == [(0.0, 5e6), (1.0, 2.5e6)]


def test_file_channel_absolute_path_is_kept(tmp_path, monkeypatch):
    (tmp_path / "trace.csv").write_text("0.0,40e6\n")
    data = scenario_to_dict(BUILTIN_SCENARIOS["static-1ue"]())
    data["ues"][0]["channel"].update(kind="file", path=str(tmp_path / "trace.csv"))
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "scn.json").write_text(json.dumps(data))
    assert load_scenario(tmp_path / "sub" / "scn.json").ues[0].channel.path == str(
        tmp_path / "trace.csv")


def _never(*args, **kwargs):
    raise AssertionError("ran before the output location was checked")


@pytest.mark.parametrize("argv", [
    ["run", "static-1ue", "--out"],
    ["sweep", "static-1ue", "--out"],
    ["report"],
], ids=["run", "sweep", "report"])
def test_cli_output_directory_that_is_a_file_fails_before_any_run(tmp_path, capsys,
                                                                 monkeypatch, argv):
    monkeypatch.setattr("l4span.ransim.sim.run", _never)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _never)
    monkeypatch.setattr(AcceptanceRunner, "run_all", _never)
    out = tmp_path / "taken"
    out.write_text("")
    assert cli_main([*argv, str(out)]) == 1
    _one_config_error_line(capsys, str(out))


def test_cli_export_into_a_missing_directory_is_one_config_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert cli_main(["export-scenario", "static-1ue", "--out", str(out)]) == 1
    _one_config_error_line(capsys, str(out))


def test_cli_run_writes_streams_and_is_deterministic(tmp_path):
    scn = BUILTIN_SCENARIOS["static-1ue"]()
    scn.horizon_secs = 4.0
    scn.warmup_secs = 1.0
    scn.name = "tiny"
    sfile = tmp_path / "tiny.yaml"
    save_scenario(scn, sfile)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["run", str(sfile), "--out", str(out1)]) == 0
    assert cli_main(["run", str(sfile), "--out", str(out2)]) == 0
    for name in ("meta.json", "packets.jsonl", "intervals.jsonl", "summary.json", "summary.txt"):
        assert (out1 / name).exists()
    assert (out1 / "packets.jsonl").read_bytes() == (out2 / "packets.jsonl").read_bytes()
    assert (out1 / "intervals.jsonl").read_bytes() == (out2 / "intervals.jsonl").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_meta_json_has_finite_telemetry(tmp_path):
    scn = BUILTIN_SCENARIOS["static-1ue"]()
    scn.horizon_secs = 2.0
    scn.warmup_secs = 0.5
    sfile = tmp_path / "tiny.yaml"
    save_scenario(scn, sfile)
    assert cli_main(["run", str(sfile), "--out", str(tmp_path / "run")]) == 0
    tel = json.loads((tmp_path / "run" / "meta.json").read_text())["telemetry"]
    numbers = ("wall_secs", "sim_secs_per_wall_sec", "events", "peak_rss_mb")
    assert set(tel) == set(numbers) | {"python", "numpy"}
    for key in numbers:
        assert isinstance(tel[key], (int, float)) and math.isfinite(tel[key]) and tel[key] > 0, key
    assert tel["sim_secs_per_wall_sec"] == pytest.approx(2.0 / tel["wall_secs"])
    assert all(isinstance(tel[k], str) and tel[k] for k in ("python", "numpy"))


def test_cli_run_csv_export(tmp_path):
    scn = BUILTIN_SCENARIOS["static-1ue"]()
    scn.horizon_secs = 3.0
    scn.warmup_secs = 1.0
    scn.name = "tiny"
    sfile = tmp_path / "tiny.yaml"
    save_scenario(scn, sfile)
    out = tmp_path / "runcsv"
    assert cli_main(["run", str(sfile), "--out", str(out), "--csv"]) == 0
    stored = run(load_scenario(sfile)).collector
    # the run has packets with no prediction and intervals with no gauge
    assert any(r.predicted_sojourn is None for r in stored.packets)
    assert any(r.p_classic is None for r in stored.intervals)
    for name, store in (("packets.csv", stored.packets), ("intervals.csv", stored.intervals)):
        with open(out / name, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == [f.name for f in fields(store.record)]
        assert rows == [["" if v is None else str(v) for v in _values(r)] for r in store]


def test_cli_sweep(tmp_path, monkeypatch):
    monkeypatch.delenv("L4SPAN_WORKERS", raising=False)  # one worker per CPU
    scn = BUILTIN_SCENARIOS["static-1ue"]()
    scn.horizon_secs = 2.0
    scn.warmup_secs = 0.5
    scn.name = "tiny"
    sfile = tmp_path / "tiny.yaml"
    save_scenario(scn, sfile)
    out = tmp_path / "sweep"
    rc = cli_main(["sweep", str(sfile), "--param", "aqm.tau_thr=0.005,0.01",
                   "--seeds", "1,2", "--out", str(out)])
    assert rc == 0
    dirs = sorted(d.name for d in out.iterdir())
    assert len(dirs) == 4
    assert any("tau_thr=0.005" in d and "seed=1" in d for d in dirs)
    for d in out.iterdir():
        assert (d / "summary.json").exists()


def test_cli_sweep_bad_param(tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = cli_main(["sweep", "static-1ue", "--param", "aqm.not_a_knob=1", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert "aqm.not_a_knob" in err


def _tiny_scenario_file(tmp_path) -> Path:
    scn = override(BUILTIN_SCENARIOS["static-1ue"](),
                   {"name": "tiny", "horizon_secs": 2.0, "warmup_secs": 0.5})
    sfile = tmp_path / "tiny.yaml"
    save_scenario(scn, sfile)
    return sfile


def test_cli_sweep_takes_bare_words_for_string_fields(tmp_path, monkeypatch):
    monkeypatch.setenv("L4SPAN_WORKERS", "1")  # one worker runs both points in turn
    out = tmp_path / "sweep"
    rc = cli_main(["sweep", str(_tiny_scenario_file(tmp_path)), "--param", "aqm.kind=none,l4span",
                   "--out", str(out)])
    assert rc == 0
    assert sorted(d.name for d in out.iterdir()) == ["kind=l4span_seed=1", "kind=none_seed=1"]
    kinds = {json.loads((d / "meta.json").read_text())["scenario"]["aqm"]["kind"]
             for d in out.iterdir()}
    assert kinds == {"none", "l4span"}


@pytest.mark.parametrize("option, named", [
    (["--param", "ues.5.channel.capacity_bps=1e6"], "ues.5.channel.capacity_bps"),
    (["--param", "aqm.tau_thr=abc"], "aqm.tau_thr"),
    (["--seeds", "1,x"], "seed"),
])
def test_cli_sweep_bad_point_is_one_named_config_error(tmp_path, capsys, option, named):
    out = tmp_path / "sweep"
    rc = cli_main(["sweep", str(_tiny_scenario_file(tmp_path)), *option, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert named in err
    assert not out.exists()  # every point is checked before any runs


@pytest.mark.parametrize("option", [
    ["--seeds", "1,1"],
    ["--param", "aqm.tau_thr=0.01,1e-2"],
])
def test_cli_sweep_points_sharing_a_directory_are_one_config_error(tmp_path, capsys, option):
    out = tmp_path / "sweep"
    rc = cli_main(["sweep", str(_tiny_scenario_file(tmp_path)), *option, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert str(out / ("seed=1" if option[0] == "--seeds" else "tau_thr=0.01_seed=1")) in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["abc", "-1", "1.5", ""])
def test_cli_sweep_malformed_worker_count_is_one_config_error(tmp_path, capsys, monkeypatch,
                                                              value):
    monkeypatch.setenv("L4SPAN_WORKERS", value)
    out = tmp_path / "sweep"
    rc = cli_main(["sweep", str(_tiny_scenario_file(tmp_path)), "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:") and captured.err.count("\n") == 1
    assert "L4SPAN_WORKERS" in captured.err
    assert "Traceback" not in captured.err + captured.out
    assert not out.exists()


def test_cli_export_scenario(tmp_path):
    out = tmp_path / "exported.yaml"
    assert cli_main(["export-scenario", "shared-drb", "--out", str(out)]) == 0
    scn = load_scenario(out)
    assert len(scn.ues[0].drbs[0].flows) == 2


# -- metric records and stream writers ----------------------------------------------

# values the JSON encoder spells specially, and a flow name it must escape
EDGE_FLOAT = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308]
EDGE_INT = [0, -(2**63), 2**64 + 1, 10**30]
EDGE_NAME = "flöw-✓ 流 \"q\""


def _edge_packets(ints: list[int] = EDGE_INT) -> list[PacketRecord]:
    return [
        PacketRecord(t=x, flow=EDGE_NAME, one_way=-x, propagation=0.0, queuing=x,
                     scheduling=1e-9, retransmission=math.inf,
                     predicted_sojourn=None if i % 2 else x, size_bytes=n)
        for i, (x, n) in enumerate(zip(EDGE_FLOAT, ints * 2))
    ]


def _edge_intervals(ints: list[int] = EDGE_INT) -> list[IntervalRecord]:
    return [
        IntervalRecord(t=x, flow=EDGE_NAME, throughput_bps=x, rtt=None if i % 2 else x,
                       cwnd=-x, queue_bytes=n, p_l4s=None, p_classic=x, r_hat=math.nan,
                       e_hat=None, marks=n, drops=-n)
        for i, (x, n) in enumerate(zip(EDGE_FLOAT, ints * 2))
    ]


def test_interval_record_reads_like_the_dict_it_replaced():
    c = MetricsCollector(["a", "b"], {"a": (1, 1), "b": (1, 2)}, warmup_secs=0.0,
                         flow_starts={"a": 0.0, "b": 0.0})
    c.on_delivery(0.01, "a", 0.02, 0.01, 0.005, 0.005, 0.0, 0.004, 1540, 1500)
    c.on_delivery(0.02, "a", 0.02, 0.01, 0.005, 0.005, 0.0, None, 1540, 1500)
    c.on_rtt(0.05, "a", 0.02)
    c.on_rtt(0.06, "a", 0.05)
    c.on_mark(0.07, "a")
    c.on_tail_drop(0.08, (1, 1), "a")
    c.on_aqm_drop(0.09, "a")
    gauges = {(1, 1): (4500, 0.25, 0.0625, 2.5e6, 1e5), (1, 2): (0, None, None, None, None)}
    c.close_interval(0.1 + 0.2, [14_600.0, 0.0], gauges)
    c.close_interval(0.4000000001, [14_600.0, 0.0], gauges)
    # the dicts close_interval built for the same hooks before it made records
    a_gauges = {"cwnd": 14_600.0, "queue_bytes": 4500, "p_l4s": 0.25, "p_classic": 0.0625,
                "r_hat": 2.5e6, "e_hat": 1e5}
    b_gauges = {"cwnd": 0.0, "queue_bytes": 0, "p_l4s": None, "p_classic": None,
                "r_hat": None, "e_hat": None}
    expected = [
        {"t": 0.3, "flow": "a", "throughput_bps": 3000 * 8.0 / 0.1, "rtt": (0.02 + 0.05) / 2,
         "marks": 1, "drops": 2, **a_gauges},
        {"t": 0.3, "flow": "b", "throughput_bps": 0.0, "rtt": None, "marks": 0, "drops": 0,
         **b_gauges},
        {"t": 0.4, "flow": "a", "throughput_bps": 0.0, "rtt": None, "marks": 0, "drops": 0,
         **a_gauges},
        {"t": 0.4, "flow": "b", "throughput_bps": 0.0, "rtt": None, "marks": 0, "drops": 0,
         **b_gauges},
    ]
    assert len(c.intervals) == len(expected)
    for rec, old in zip(c.intervals, expected):
        assert {f.name for f in fields(IntervalRecord)} == set(old) and len(old) == 12
        for key, value in old.items():
            assert rec[key] == value and type(rec[key]) is type(value), key
    with pytest.raises(KeyError):
        c.intervals[0]["nope"]


def test_close_interval_keeps_anchor_live_and_counting_flows():
    # one bearer: "a" is its anchor and starts only at 0.5, "b" starts at
    # 0.25, "c" completes at 0.12 and has a late delivery in the fourth interval
    c = MetricsCollector(["a", "b", "c"], dict.fromkeys("abc", (1, 1)), warmup_secs=0.0,
                         flow_starts={"a": 0.5, "b": 0.25, "c": 0.0})
    gauges = {(1, 1): (0, None, None, None, None)}
    c.close_interval(0.1, [0.0] * 3, gauges)
    c.on_completion("c", 0.12)
    c.close_interval(0.2, [0.0] * 3, gauges)
    c.close_interval(0.3, [0.0] * 3, gauges)
    c.on_delivery(0.35, "c", 0.02, 0.01, 0.005, 0.005, 0.0, None, 1540, 1500)
    c.close_interval(0.4, [0.0] * 3, gauges)
    c.close_interval(0.5, [0.0] * 3, gauges)
    assert [(r.t, r.flow) for r in c.intervals] == [
        (0.1, "a"), (0.1, "c"),
        (0.2, "a"), (0.2, "c"),  # completed inside the interval
        (0.3, "a"), (0.3, "b"),
        (0.4, "a"), (0.4, "b"), (0.4, "c"),  # the late delivery
        (0.5, "a"), (0.5, "b"),
    ]
    assert c.intervals[8].throughput_bps == 1500 * 8.0 / 0.1


def test_metric_records_have_no_instance_dict():
    for rec in (_edge_packets()[0], _edge_intervals()[0]):
        assert not hasattr(rec, "__dict__")
        with pytest.raises(AttributeError):
            rec.extra = 1


def test_write_run_holds_no_whole_stream_in_memory(tmp_path):
    flows = [f"flow-{i}" for i in range(500)]
    c = MetricsCollector(flows, {f: (i, 1) for i, f in enumerate(flows)}, warmup_secs=0.0,
                         flow_starts=dict.fromkeys(flows, 0.0))
    cwnd = [1500.0 * (i + 1) for i in range(len(flows))]
    gauges = {(i, 1): (i, i / 500, None, 1e6 + i, None) for i in range(len(flows))}
    for k in range(100):
        for f, flow in enumerate(flows[5 * k:5 * k + 5]):
            c.on_delivery(k * 0.1, flow, 0.02 + f * 1e-3, 0.01, 0.005, 0.005, 0.0, None,
                          1540, 1500)
            c.on_rtt(k * 0.1, flow, 0.03 + f * 1e-3)
            c.on_feedback_latency(k * 0.1, flow, 0.015)
        c.close_interval((k + 1) * 0.1, cwnd, gauges)
    assert len(c.intervals) == 50_000
    # every flow's summary has its full delay, queuing, RTT and feedback statistics
    result = SimpleNamespace(
        meta={"scenario": {"name": "synthetic", "horizon_secs": 10.0, "seed": 0}},
        summary=c.summarize(10.0, {}), collector=c)

    tracemalloc.start()
    try:
        write_run(result, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = (tmp_path / "intervals.jsonl").stat().st_size
    assert size > 5_000_000
    assert peak < size / 4, f"traced peak {peak} B for a {size} B stream"
    summary = (tmp_path / "summary.json").read_text()
    assert summary == json.dumps(result.summary, indent=2, sort_keys=True) + "\n"
    assert len(summary) > 200_000
    assert peak < len(summary) / 4, f"traced peak {peak} B for a {len(summary)} B summary"


# -- the collector's record columns against the records they replaced -----------

ORACLE_FLOWS = ["a", "b", EDGE_NAME]
ORACLE_WARMUP = 1.0
_delay = st.floats(-1e3, 1e3)
_t = st.just(ORACLE_WARMUP) | st.floats(0.0, 2 * ORACLE_WARMUP)
_flow = st.sampled_from(ORACLE_FLOWS)
# any float (NaN, infinities, -0.0 and subnormals too), and ints on both
# sides of the 64-bit range the int columns hold
_any_float = st.floats()
_count = st.integers(-(2**64), 2**64)
_OPTIONAL = st.none() | _any_float


@st.composite
def _packet_record(draw) -> PacketRecord:
    return PacketRecord(
        t=draw(_t), flow=draw(_flow),
        one_way=draw(_delay), propagation=draw(_delay), queuing=draw(_delay),
        scheduling=draw(_delay), retransmission=draw(_delay),
        predicted_sojourn=draw(st.none() | st.floats(0.0, allow_infinity=True)),
        size_bytes=draw(st.integers(0, 2**63 - 1)),
    )


@st.composite
def _interval_record(draw) -> IntervalRecord:
    return IntervalRecord(
        t=draw(_any_float), flow=draw(_flow), throughput_bps=draw(_any_float),
        rtt=draw(_OPTIONAL), cwnd=draw(_any_float), queue_bytes=draw(_count),
        p_l4s=draw(_OPTIONAL), p_classic=draw(_OPTIONAL), r_hat=draw(_OPTIONAL),
        e_hat=draw(_OPTIONAL), marks=draw(_count), drops=draw(_count),
    )


@st.composite
def _feedback_sample(draw) -> FeedbackLatency:
    return FeedbackLatency(t=draw(_t), flow=draw(_flow), latency=draw(_any_float))


def _oracle_stats(values: list[float]) -> dict:
    if not values:
        return {"count": 0}
    a = np.array(values)
    p50, p90, p99 = np.percentile(a, [50, 90, 99])
    return {"count": len(values), "mean": float(np.mean(a)),
            "p50": float(p50), "p90": float(p90), "p99": float(p99)}


# one steady packet exactly at warm-up, and enough packets per flow, each
# delay of its own magnitude, that the mean depends on their order
_MANY = [PacketRecord(ORACLE_WARMUP + (k % 7) * 0.1, ORACLE_FLOWS[k % 3], 10.0 ** (k % 9 - 4) * k,
                      0.014, (k * 0.37) % 1.3, 1e-4, 0.0, None if k % 4 else k * 1e-3, 1500)
         for k in range(120)]
# the edge interval records with ints that n and -n both fit in 64 bits
EDGE_INT64 = [0, -(2**63) + 1, 2**63 - 1, 1]


def _values(rec) -> tuple:
    return tuple(getattr(rec, f.name) for f in fields(rec))


def _spelled(rec) -> tuple:
    """Each field's type and repr: tells -0.0 from 0.0, NaN equals NaN."""
    return tuple((type(v), repr(v)) for v in _values(rec))


def _fits_columns(rec) -> bool:
    return all(-(2**63) <= v < 2**63 for v in _values(rec) if type(v) is int)


# per record kind: how the collector is handed one
_STORE = {
    PacketRecord: lambda c, r: c.on_delivery(*_values(r), 100),
    IntervalRecord: lambda c, r: c.intervals.append(*_values(r)),
    FeedbackLatency: lambda c, r: c.on_feedback_latency(*_values(r)),
}


@pytest.mark.parametrize("kind", list(_STORE), ids=lambda k: k.__name__)
@settings(max_examples=200, deadline=None)
@example(_MANY)
@example(_edge_packets())
@example(_edge_intervals())
@example(_edge_intervals(EDGE_INT64))
@given(st.lists(_packet_record(), max_size=60) | st.lists(_interval_record(), max_size=60)
       | st.lists(_feedback_sample(), max_size=60))
def test_packet_columns_match_the_records_they_store(kind, records):
    assume(all(type(r) is kind for r in records))
    c = MetricsCollector(ORACLE_FLOWS, {f: (1, i) for i, f in enumerate(ORACLE_FLOWS)},
                         warmup_secs=ORACLE_WARMUP, flow_starts=dict.fromkeys(ORACLE_FLOWS, 0.0))
    kept = []
    for r in records:
        if _fits_columns(r):
            _STORE[kind](c, r)
            kept.append(r)
        else:  # an int past 64 bits is refused whole, and the earlier records stay
            with pytest.raises(OverflowError):
                _STORE[kind](c, r)
    flows = c.summarize(2 * ORACLE_WARMUP, {})["flows"]

    if kind is FeedbackLatency:
        assert list(c.feedback_latency) == ORACLE_FLOWS
        for flow in ORACLE_FLOWS:
            mine = [r for r in kept if r.flow == flow]
            assert [(type(t), repr(t), type(v), repr(v)) for t, v in c.feedback_latency[flow]] \
                == [(float, repr(r.t), float, repr(r.latency)) for r in mine]
            lats = np.array([r.latency for r in mine if r.t >= ORACLE_WARMUP])
            assert json.dumps(flows[flow]["feedback_latency"]) == json.dumps(
                {"mean": float(np.mean(lats)) if lats.size else None, "count": lats.size})
        return

    store = c.packets if kind is PacketRecord else c.intervals
    assert len(store) == len(kept)
    assert [_spelled(r) for r in store] == [_spelled(r) for r in kept]
    assert [_spelled(store[i]) for i in range(len(kept))] == [_spelled(r) for r in kept]
    if kept:
        assert _spelled(store[-1]) == _spelled(kept[-1])
    lines = list(record_lines(store))
    assert lines == [json.dumps(asdict(r), sort_keys=True) + "\n" for r in kept]
    assert all(line.isascii() and line.count("\n") == 1 for line in lines)
    if kind is PacketRecord:
        for flow in ORACLE_FLOWS:
            steady = [r for r in kept if r.flow == flow and r.t >= ORACLE_WARMUP]
            for key in ("one_way", "queuing"):
                stats = _oracle_stats([getattr(r, key) for r in steady])
                name = "delay" if key == "one_way" else key
                assert json.dumps(flows[flow][name]) == json.dumps(stats)


@pytest.mark.parametrize("records", [_edge_packets, _edge_intervals], ids=lambda f: f.__name__)
def test_stream_lines_match_per_record_json_dumps(records):
    recs = records(EDGE_INT64)
    c = MetricsCollector([EDGE_NAME], {EDGE_NAME: (1, 1)}, warmup_secs=0.0,
                         flow_starts={EDGE_NAME: 0.0})
    store = c.packets if type(recs[0]) is PacketRecord else c.intervals
    assert list(record_lines(store)) == []
    for r in recs:
        _STORE[type(r)](c, r)
    expected = [json.dumps(asdict(r), sort_keys=True) + "\n" for r in recs]
    assert list(record_lines(store)) == expected
    assert list(record_lines(store)) == expected  # each call streams the store afresh
    assert all(line.isascii() and line.count("\n") == 1 for line in expected)
    assert list(json.loads(expected[0])) == sorted(f.name for f in fields(store.record))


def test_collector_keeps_under_100_bytes_per_delivered_packet():
    # 8 columns of 8 B and a 4-B flow index, plus the arrays' spare growth room;
    # a slotted PacketRecord, its boxed floats and its list slot took 288 B
    scn = override(BUILTIN_SCENARIOS["static-1ue"](), {"horizon_secs": 2.0, "warmup_secs": 1.0})
    tracemalloc.start()
    try:
        res = run(scn)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        n = len(res.collector.packets)
        res.collector.packets = None
        gc.collect()
        per_packet = (held - tracemalloc.get_traced_memory()[0]) / n
    finally:
        tracemalloc.stop()
    assert n > 1000
    assert per_packet <= 100, f"{per_packet:.1f} B per delivered packet"

    # 11 columns of 8 B, a 4-B flow index and a 1-B none mask per interval
    # record; a slotted IntervalRecord, its boxed values and its list slot took 290 B
    flows = [f"flow-{i}" for i in range(500)]
    tracemalloc.start()
    try:
        c = MetricsCollector(flows, {f: (i, 1) for i, f in enumerate(flows)}, warmup_secs=0.0,
                             flow_starts=dict.fromkeys(flows, 0.0))
        for k in range(20):
            cwnd = [1500.0 * (i + k) for i in range(len(flows))]
            gauges = {(i, 1): (1000 + i * k, i / 500, None if i % 2 else 0.5, 1e6 + i + k,
                               1e5 + k) for i in range(len(flows))}
            for f in flows[k::20]:
                c.on_rtt(k * 0.1, f, 0.03)
            c.close_interval((k + 1) * 0.1, cwnd, gauges)
            del cwnd, gauges
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        n = len(c.intervals)
        c.intervals = None
        gc.collect()
        per_interval = (held - tracemalloc.get_traced_memory()[0]) / n
    finally:
        tracemalloc.stop()
    assert n == 10_000
    assert per_interval <= 110, f"{per_interval:.1f} B per interval record"
