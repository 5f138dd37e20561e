"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from l4span.harness.scenario import scenario_to_dict  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_repeats_for_a_seed_and_differs_across_seeds(workload):
    a = scenario_to_dict(workloads.generate(workload, 5))
    assert a == scenario_to_dict(workloads.generate(workload, 5))
    assert a != scenario_to_dict(workloads.generate(workload, 6))


def test_short_flows_offer_the_same_bytes_for_every_seed():
    def offered(seed):
        scn = workloads.generate("short-flows", seed)
        return sum(f.size_bytes for ue in scn.ues for d in ue.drbs for f in d.flows
                   if f.size_bytes is not None)

    totals = [offered(s) for s in range(1, 6)]
    assert max(totals) / min(totals) < 1.01


def test_self_time_is_duration_minus_children():
    # root [0, 100] holds a [10, 40] (which holds a1 [20, 30]) and b [50, 60]
    start = np.array([0, 10, 20, 50])
    end = np.array([100, 40, 30, 60])
    parent = np.array([-1, 0, 1, 0])
    assert self_times(start, end, parent).tolist() == [60, 20, 10, 10]


def test_tracer_records_nesting_and_packet_ids():
    class Pkt:
        pkt_id = 42

    tracer = Tracer()

    def inner(pkt):
        return pkt.pkt_id

    traced_inner = tracer.wrapped(inner, "inner", pkt_arg=0)

    def outer():
        return traced_inner(Pkt()) + traced_inner(Pkt())

    assert tracer.wrapped(outer, "outer")() == 84
    a = tracer.arrays()
    names = [tracer.names[i] for i in a["name"]]
    assert names == ["outer", "inner", "inner"]
    assert a["parent"].tolist() == [-1, 0, 0]
    assert a["pkt"].tolist() == [-1, 42, 42]
    assert (a["end"] >= a["start"]).all()


def test_traced_run_restores_every_wrapped_name(tmp_path):
    targets = [(sim_owner, attr) for _, sim_owner, attr, _ in child.TARGETS]
    targets.append((child.sim.Simulator, "_dispatch"))
    originals = [owner.__dict__[attr] for owner, attr in targets]
    scn = workloads.shortened("bulk-1ue", 1, 0.3)
    result = child.trace(scn, tmp_path)
    assert [owner.__dict__[attr] for owner, attr in targets] == originals
    assert all(owner.__dict__[attr] is orig for (owner, attr), orig in zip(targets, originals))
    assert result["figures"]["ransim.layer.on_dl_pkt.calls"] > 0
    assert set(child.figure_names()) <= set(result["figures"])
    assert (tmp_path / "spans.npz").exists()


def test_backlog_guard_flags_only_growth_to_the_horizon():
    assert checks.growing_backlog([1000 * i for i in range(100)])
    assert not checks.growing_backlog([40_000] * 100)
    assert not checks.growing_backlog([1000 * i for i in range(50)] + [0] * 50)
    assert not checks.growing_backlog([10 * i for i in range(100)])  # below the floor


def test_non_finite_summary_numbers_are_found():
    summary = {"a": 1.0, "b": {"c": float("nan"), "d": None}, "e": [float("inf")]}
    assert checks.non_finite(summary) == ["summary.b.c", "summary.e[0]"]


def test_benchmark_json_declares_what_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    names = run.per_layer_names()
    assert [m["name"] for m in spec["per_layer"]] == names
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])
