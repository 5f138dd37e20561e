"""``tools/ab_run.py``: one interpreter, two checkouts, and a stream check."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_run.py"


def ab_run(a: Path, b: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), "--a", str(a), "--b", str(b),
                           "--workload", "bulk-1ue", "--seed", "1", "--rounds", "1",
                           "--seconds", "0.3"],
                          capture_output=True, text=True, timeout=300)


def test_an_a_a_run_agrees_with_itself():
    proc = ab_run(ROOT, ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("a: ") and lines[1].startswith("b: ")
    assert "b faster in" in lines[2] and "/1 rounds" in lines[2]
    assert [line.split(":")[0] for line in lines[3:]] == ["packets.jsonl", "intervals.jsonl",
                                                          "summary.json"]
    assert all(line.endswith("equal") for line in lines[3:])


def test_sides_that_write_different_streams_exit_1(tmp_path):
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src", other / "src", ignore=shutil.ignore_patterns("__pycache__"))
    sim = other / "src" / "l4span" / "ransim" / "sim.py"
    text = sim.read_text()
    assert "cwnd=10.0 * self.payload_mss" in text
    sim.write_text(text.replace("cwnd=10.0 * self.payload_mss", "cwnd=12.0 * self.payload_mss"))
    proc = ab_run(ROOT, other)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "DIFFER" in proc.stdout
