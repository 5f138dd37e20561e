from pathlib import Path

import pytest

from l4span.harness.cli import main as cli_main
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
