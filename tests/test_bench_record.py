"""The seed parsing and statistics of ``tools/bench_record.py``."""

from __future__ import annotations

import argparse
import importlib.util
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
