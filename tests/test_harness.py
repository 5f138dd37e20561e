import json
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

from l4span.harness.cli import main as cli_main
from l4span.harness.metrics import (
    INTERVAL_FIELDS,
    PACKET_FIELDS,
    IntervalRecord,
    MetricsCollector,
    PacketRecord,
    dumps_intervals,
    dumps_packets,
    interval_lines,
    packet_lines,
    write_run,
)
from l4span.harness.scenario import (
    BUILTIN_SCENARIOS,
    ConfigError,
    load_scenario,
    resolve_scenario,
    save_scenario,
    scenario_from_dict,
)
from l4span.ransim.sim import run

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


# -- CLI --------------------------------------------------------------------------


def test_cli_validate_builtin(capsys):
    assert cli_main(["validate", "static-1ue"]) == 0
    assert "static-1ue" in capsys.readouterr().out


def test_cli_validate_bad_file(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text("name: x\nues: []\n")
    assert cli_main(["validate", str(p)]) == 1
    assert "configuration error" in capsys.readouterr().err


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
    assert (out / "packets.csv").exists()
    assert (out / "intervals.csv").exists()


def test_cli_sweep(tmp_path, monkeypatch):
    monkeypatch.setenv("L4SPAN_WORKERS", "1")
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


def test_cli_sweep_bad_param(tmp_path):
    out = tmp_path / "sweep"
    rc = cli_main(["sweep", "static-1ue", "--param", "aqm.not_a_knob=1", "--out", str(out)])
    assert rc == 1


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


def _edge_packets() -> list[PacketRecord]:
    return [
        PacketRecord(t=x, flow=EDGE_NAME, one_way=-x, propagation=0.0, queuing=x,
                     scheduling=1e-9, retransmission=math.inf,
                     predicted_sojourn=None if i % 2 else x, size_bytes=n)
        for i, (x, n) in enumerate(zip(EDGE_FLOAT, EDGE_INT * 2))
    ]


def _edge_intervals() -> list[IntervalRecord]:
    return [
        IntervalRecord(t=x, flow=EDGE_NAME, throughput_bps=x, rtt=None if i % 2 else x,
                       cwnd=-x, queue_bytes=n, p_l4s=None, p_classic=x, r_hat=math.nan,
                       e_hat=None, marks=n, drops=-n)
        for i, (x, n) in enumerate(zip(EDGE_FLOAT, EDGE_INT * 2))
    ]


def _as_dict(rec, keys) -> dict:
    return {k: getattr(rec, k) for k in keys}


@pytest.mark.parametrize("records, lines, dumps, keys", [
    (_edge_packets, packet_lines, dumps_packets, PACKET_FIELDS),
    (_edge_intervals, interval_lines, dumps_intervals, INTERVAL_FIELDS),
])
def test_stream_lines_match_per_record_json_dumps(records, lines, dumps, keys):
    recs = records()
    expected = [json.dumps(_as_dict(r, keys), sort_keys=True) + "\n" for r in recs]
    assert list(lines(recs)) == expected
    assert dumps(recs) == "".join(expected)
    assert all(line.isascii() and line.count("\n") == 1 for line in expected)


def test_interval_record_reads_like_the_dict_it_replaced():
    c = MetricsCollector(["a", "b"], {"a": (1, 1), "b": (1, 2)}, warmup_secs=0.0)
    c.on_delivery(PacketRecord(0.01, "a", 0.02, 0.01, 0.005, 0.005, 0.0, 0.004, 1540), 1500)
    c.on_delivery(PacketRecord(0.02, "a", 0.02, 0.01, 0.005, 0.005, 0.0, None, 1540), 1500)
    c.on_rtt(0.05, "a", 0.02)
    c.on_rtt(0.06, "a", 0.05)
    c.on_mark(0.07, "a")
    c.on_tail_drop(0.08, (1, 1), "a")
    c.on_aqm_drop(0.09, "a")
    c.set_flow_gauge("a", 14_600.0, 0.03)
    c.set_drb_gauge((1, 1), queue_bytes=4500, p_l4s=0.25, p_classic=0.0625,
                    r_hat=2.5e6, e_hat=1e5)
    c.close_interval(0.1 + 0.2)
    c.close_interval(0.4000000001)
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
        assert set(INTERVAL_FIELDS) == set(old) and len(old) == 12
        for key, value in old.items():
            assert rec[key] == value and type(rec[key]) is type(value), key
    with pytest.raises(KeyError):
        c.intervals[0]["nope"]


def test_metric_records_have_no_instance_dict():
    for rec in (_edge_packets()[0], _edge_intervals()[0]):
        assert not hasattr(rec, "__dict__")
        with pytest.raises(AttributeError):
            rec.extra = 1


def test_write_run_holds_no_whole_stream_in_memory(tmp_path):
    flows = [f"flow-{i}" for i in range(500)]
    c = MetricsCollector(flows, {f: (i, 1) for i, f in enumerate(flows)}, warmup_secs=0.0)
    for i, f in enumerate(flows):
        c.set_flow_gauge(f, 1500.0 * (i + 1), 0.02)
        c.set_drb_gauge((i, 1), queue_bytes=i, p_l4s=i / 500, p_classic=None,
                        r_hat=1e6 + i, e_hat=None)
    for k in range(100):
        c.on_delivery(PacketRecord(k * 0.1, flows[k], 0.02, 0.01, 0.005, 0.005, 0.0, None, 1540),
                      1500)
        c.close_interval((k + 1) * 0.1)
    assert len(c.intervals) == 50_000
    result = SimpleNamespace(
        meta={"scenario": {"name": "synthetic", "horizon_secs": 10.0, "seed": 0}},
        summary={"flows": {}, "ues": {}}, collector=c)

    tracemalloc.start()
    try:
        write_run(result, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = (tmp_path / "intervals.jsonl").stat().st_size
    assert size > 5_000_000
    assert peak < size / 4, f"traced peak {peak} B for a {size} B stream"
