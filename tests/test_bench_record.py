"""The seed parsing and statistics of ``tools/bench_record.py``."""

from __future__ import annotations

import argparse
import importlib.util
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
