"""The seed parsing and statistics of ``tools/bench_record.py``."""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def test_parse_seeds_ranges_and_lists():
    assert bench_record.parse_seeds("1-5") == [1, 2, 3, 4, 5]
    assert bench_record.parse_seeds("1,3,7") == [1, 3, 7]
    assert bench_record.parse_seeds("2-3,9,11-11") == [2, 3, 9, 11]


@pytest.mark.parametrize("text", ["5-1", "1-3,4-2"])
def test_parse_seeds_rejects_reversed_ranges(text):
    with pytest.raises(argparse.ArgumentTypeError):
        bench_record.parse_seeds(text)


@pytest.mark.parametrize("text", ["5-1", "", "1,,3", "x"])
def test_bad_seeds_are_a_usage_error_before_any_run(text, capsys):
    with pytest.raises(SystemExit) as exc:
        bench_record.main(["--n", "0", "--seeds", text])
    assert exc.value.code == 2
    assert "--seeds" in capsys.readouterr().err


def _run(seed: int, **metrics) -> dict:
    return {"seed": seed, "correct": True, "metrics": metrics, "checkout": {"git_sha": "x"}}


def test_summarize_single_run_has_degenerate_quartiles():
    out = bench_record.summarize([_run(1, wall_s=2.5)], ["wall_s", "setup_s"])
    assert out["median"] == {"wall_s": 2.5}
    assert out["quartiles"] == {"wall_s": [2.5, 2.5]}
    assert out["all_correct"] is True
    assert out["checkout"] == {"git_sha": "x"}
    assert out["runs"] == [{"seed": 1, "correct": True, "metrics": {"wall_s": 2.5}}]


def test_wins_counts_ties_for_neither_side():
    change = [_run(1, wall_s=1.0, goodput_mbps=5.0), _run(2, wall_s=2.0, goodput_mbps=5.0),
              _run(3, wall_s=3.0)]
    parent = [_run(1, wall_s=2.0, goodput_mbps=4.0), _run(2, wall_s=2.0, goodput_mbps=6.0),
              _run(3, wall_s=2.0)]
    out = bench_record.wins(change, parent, {"wall_s": "lower", "goodput_mbps": "higher"})
    assert out["wall_s"] == {"better": 1, "worse": 1, "pairs": 3}
    assert out["goodput_mbps"] == {"better": 1, "worse": 1, "pairs": 2}


BOUNDED = [{"name": "wall_s", "better": "lower", "bound": 0.25},
           {"name": "goodput_mbps", "better": "higher", "bound": 0.05}]


def _sides(change: dict[str, list[float]], parent: dict[str, list[float]]):
    def side(values):
        n = len(next(iter(values.values())))
        return bench_record.summarize(
            [_run(i, **{k: v[i] for k, v in values.items()}) for i in range(n)], list(values))
    return side(change), side(parent)


def test_bound_check_reads_worse_unresolved_and_within():
    # parent wall_s median 2.0, quartiles [1.95, 2.05]: a 5 % spread
    parent = {"wall_s": [1.9, 1.95, 2.0, 2.05, 2.1], "goodput_mbps": [10.0] * 5}
    cases = [
        ({"wall_s": [2.6] * 5, "goodput_mbps": [9.4] * 5}, "worse", "worse"),     # +30 %, -6 %
        ({"wall_s": [2.4] * 5, "goodput_mbps": [9.6] * 5}, "within", "within"),   # +20 %, -4 %
        ({"wall_s": [1.0] * 5, "goodput_mbps": [20.0] * 5}, "within", "within"),  # better
    ]
    for change, wall, goodput in cases:
        out = bench_record.bound_checks(*_sides(change, parent), BOUNDED)
        assert (out["wall_s"]["verdict"], out["goodput_mbps"]["verdict"]) == (wall, goodput)
    out = bench_record.bound_checks(*_sides({"wall_s": [2.6] * 5, "goodput_mbps": [9.4] * 5},
                                            parent), BOUNDED)
    assert out["wall_s"]["worse_by"] == pytest.approx(0.3)
    assert out["wall_s"]["parent_spread"] == pytest.approx(0.05)
    assert out["goodput_mbps"]["worse_by"] == pytest.approx(0.06)
    # a parent whose quartiles span more than the bound cannot tell a change
    # within it; quartiles [1.5, 2.5] around 2.0 are a 50 % spread
    wide = {"wall_s": [1.0, 1.5, 2.0, 2.5, 3.0], "goodput_mbps": [10.0] * 5}
    out = bench_record.bound_checks(*_sides({"wall_s": [2.1] * 5, "goodput_mbps": [10.0] * 5},
                                            wide), BOUNDED)
    assert out["wall_s"] == {"verdict": "unresolved", "bound": 0.25,
                             "worse_by": pytest.approx(0.05), "parent_spread": pytest.approx(0.5)}
    assert out["goodput_mbps"]["verdict"] == "within"
    # a metric one side lacks gets no verdict
    out = bench_record.bound_checks(*_sides({"wall_s": [2.0] * 5}, {"wall_s": [2.0] * 5}), BOUNDED)
    assert set(out) == {"wall_s"}


def test_bound_check_of_a_zero_parent_median():
    metric = [{"name": "fct_p50_s", "better": "lower", "bound": 0.1}]
    for change, parent, verdict in [([0.0] * 3, [0.0] * 3, "within"),
                                    ([0.1] * 3, [0.0] * 3, "worse"),
                                    ([0.0] * 3, [0.0, 0.0, 1.0], "unresolved")]:
        out = bench_record.bound_checks(*_sides({"fct_p50_s": change}, {"fct_p50_s": parent}),
                                        metric)
        assert out["fct_p50_s"]["verdict"] == verdict


def test_gain_check_needs_nine_pairs_in_ten_and_a_gap_past_the_parent_spread():
    # parent peak_rss_mb 46.0..46.9 over ten seeds: median 46.45, quartiles [46.225, 46.675]
    parent = [46.0 + 0.1 * i for i in range(10)]
    metric = [{"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
              {"name": "sim_s_per_s", "better": "higher", "bound": 0.25}]

    def check(change, parent_values=parent, name="peak_rss_mb"):
        return bench_record.gain_checks(*_sides({name: change}, {name: parent_values}),
                                        metric)[name]

    out = check([v - 3.0 for v in parent])  # 10/10 pairs, 3.0 below with a 0.45 spread
    assert out == {"verdict": "gain", "better": 10, "pairs": 10,
                   "gain_by": pytest.approx(3.0 / 46.45),
                   "parent_spread": pytest.approx(0.45 / 46.45)}
    nine = [v - 3.0 for v in parent[:9]] + [parent[9] + 1.0]
    assert (check(nine)["verdict"], check(nine)["better"]) == ("gain", 9)
    eight = [v - 3.0 for v in parent[:8]] + parent[8:]  # ties count for neither side
    assert (check(eight)["verdict"], check(eight)["better"]) == ("none", 8)
    # every pair better, but the medians differ by less than the parent's spread
    assert check([v - 0.3 for v in parent])["verdict"] == "none"
    # a higher-is-better metric
    assert check([v + 3.0 for v in parent], name="sim_s_per_s")["verdict"] == "gain"
    assert check([v - 3.0 for v in parent], name="sim_s_per_s")["verdict"] == "none"
    # a zero parent median has no relative gain, and a metric one side lacks no verdict
    assert check([-1.0] * 10, [0.0] * 10)["gain_by"] is None
    out = bench_record.gain_checks(*_sides({"peak_rss_mb": parent}, {"wall_s": parent}), metric)
    assert out == {}


@pytest.mark.parametrize("n, gains", [
    # what the two files recorded: cell-16ue speed, and peak RSS on every workload
    (13, {"cell-16ue": {"wall_s", "sim_s_per_s"}}),
    (15, {"bulk-1ue": {"peak_rss_mb"}, "cell-16ue": {"peak_rss_mb"},
          "short-flows": {"peak_rss_mb"}}),
    (17, {}),
])
def test_gain_check_reads_the_recorded_bench_files(n, gains):
    root = _PATH.parents[1]
    record = json.loads((root / f"BENCH_{n}.json").read_text())
    metrics = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    for workload, entry in record["workloads"].items():
        checks = bench_record.gain_checks(entry["change"], entry["parent"], metrics)
        assert {k for k, v in checks.items() if v["verdict"] == "gain"} == gains.get(
            workload, set()), workload


def test_bound_check_reads_the_recorded_setup_s_of_bench_13_as_unresolved():
    # parent quartiles 0.801..1.381 ms around 1.231 ms: a 47 % spread, over the 25 % bound
    root = _PATH.parents[1]
    entry = json.loads((root / "BENCH_13.json").read_text())["workloads"]["bulk-1ue"]
    metrics = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    check = bench_record.bound_checks(entry["change"], entry["parent"], metrics)["setup_s"]
    assert check["verdict"] == "unresolved"
    assert check["parent_spread"] == pytest.approx(0.471, abs=1e-3)


@pytest.mark.parametrize("argv, named", [
    (["--builtin", "no-such-cell"], "no-such-cell"),
    (["--builtin", "static-1ue", "--workloads", "bulk-1ue"], "--workloads"),
])
def test_builtin_options_are_a_usage_error_before_any_run(argv, named, capsys):
    with pytest.raises(SystemExit) as exc:
        bench_record.main(["--n", "0", "--seeds", "1"] + argv)
    assert exc.value.code == 2
    assert named in capsys.readouterr().err


def test_builtin_times_run_on_both_sides_and_compares_them():
    root = _PATH.parents[1]
    record = {}
    bench_record.record_builtin("static-1ue", [1], {"change": root, "parent": root}, record)
    entry = record["builtins"]["static-1ue"]
    assert entry["same_events_and_summary"] is True
    # provenance is what the checkout's own perfbench/run.py reports
    digest = entry["change"]["checkout"]["source_sha256"]
    assert len(digest) == 64 and entry["parent"]["checkout"]["source_sha256"] == digest
    assert entry["change"]["checkout"]["dirty"] == bench_record.tree_dirty(root)
    for side in ("change", "parent"):
        assert "all_correct" not in entry[side]  # no output check ran
        [run] = entry[side]["runs"]
        assert run["seed"] == 1 and "correct" not in run
        assert run["events"] > 0 and run["metrics"]["run_cpu_s"] > 0
    assert set(entry["change_better"]) == set(bench_record.BUILTIN_METRICS)
    assert all(w["pairs"] == 1 for w in entry["change_better"].values())
    assert entry["repeat_policy"]["horizon_secs"] == bench_record.BUILTIN_HORIZON_SECS


def test_tree_dirty_reads_src_and_perfbench_against_the_commit(tmp_path, monkeypatch):
    # git must not find a repository above the temporary one
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    assert bench_record.tree_dirty(tmp_path) is None  # not a git work tree

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.org", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    for rel in ("src/a.py", "perfbench/b.py", "notes.md"):
        (tmp_path / rel).parent.mkdir(exist_ok=True)
        (tmp_path / rel).write_text("x = 1\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "one")
    assert bench_record.tree_dirty(tmp_path) is False
    (tmp_path / "notes.md").write_text("outside the benchmarked code\n")
    assert bench_record.tree_dirty(tmp_path) is False
    (tmp_path / "src" / "a.py").write_text("x = 2\n")
    assert bench_record.tree_dirty(tmp_path) is True
