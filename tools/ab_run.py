"""Alternate ``Simulator.run`` between two checkouts in one interpreter.

    python3 tools/ab_run.py --a ../parent-checkout --b . --workload bulk-1ue --seed 1 --rounds 8

Each side's ``src/l4span`` is copied into a temporary directory as a package
of its own (``l4span_a``, ``l4span_b``).  The package imports itself only
relatively, so both load side by side.  The workload's first scenario for
``--seed`` is built once, by this checkout's ``perfbench/workloads.py``
(cut to ``--seconds`` when given), and both sides run that one object:
``Simulator`` reads a scenario by its fields alone.

Each round builds a simulator on each side and times its ``run()`` in
process CPU time; the side that runs first flips from one round to the
next.  The tool prints each side's minimum and median time, the median of
the per-round ratios B/A, and in how many rounds B took less time than A.
Both sides' packets, intervals and summary streams are written once and
hashed.  It exits 1 if they differ, else 0.

A quick A/A run (the same checkout on both sides) shows the noise floor
of the host; the ratio should read about 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STREAMS = ("packets.jsonl", "intervals.jsonl", "summary.json")


def stage(checkout: Path, name: str, into: Path):
    """Copy ``checkout``'s ``src/l4span`` to ``into/name`` and import it;
    returns its ``(Simulator, write_run)``."""
    src = checkout / "src" / "l4span"
    if not (src / "ransim" / "sim.py").is_file():
        raise SystemExit(f"{checkout}: no src/l4span/ransim/sim.py")
    shutil.copytree(src, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    sim = importlib.import_module(f"{name}.ransim.sim")
    metrics = importlib.import_module(f"{name}.harness.metrics")
    return sim.Simulator, metrics.write_run


def scenario(workload: str, seed: int, seconds: float | None):
    """The workload's first scenario for ``seed``, built by this checkout."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    sys.dont_write_bytecode = True  # leave no cache in the benchmark's directory
    import workloads

    first = workloads.subrun_seeds(workload, seed)[0]
    if seconds is None:
        return workloads.generate(workload, first)
    return workloads.shortened(workload, first, seconds)


def digests(result, write_run, out: Path) -> tuple[str, ...]:
    write_run(result, out)
    return tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in STREAMS)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--a", type=Path, required=True, help="checkout A (the baseline)")
    ap.add_argument("--b", type=Path, required=True, help="checkout B (the change)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=8)
    ap.add_argument("--seconds", type=float, default=None,
                    help="cut the scenario's horizon to this many simulated seconds")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    scn = scenario(args.workload, args.seed, args.seconds)
    with tempfile.TemporaryDirectory(prefix="ab_run-") as tmp:
        tmp = Path(tmp)
        sys.path.insert(0, str(tmp))
        sides = {"a": stage(args.a.resolve(), "l4span_a", tmp),
                 "b": stage(args.b.resolve(), "l4span_b", tmp)}
        times: dict[str, list[float]] = {"a": [], "b": []}
        streams: dict[str, tuple[str, ...]] = {}
        for r in range(args.rounds):
            for side in ("a", "b") if r % 2 == 0 else ("b", "a"):
                simulator_cls, write_run = sides[side]
                simulator = simulator_cls(scn)
                gc.collect()
                t0 = time.process_time()
                result = simulator.run()
                times[side].append(time.process_time() - t0)
                if side not in streams:
                    streams[side] = digests(result, write_run, tmp / f"streams-{side}")
                del simulator, result

    for side in ("a", "b"):
        t = times[side]
        print(f"{side}: {getattr(args, side)}  min {min(t):.4f} s  median {statistics.median(t):.4f} s")
    ratios = [b / a for a, b in zip(times["a"], times["b"])]
    wins = sum(1 for x in ratios if x < 1)
    print(f"b/a: median ratio {statistics.median(ratios):.3f}, b faster in {wins}/{len(ratios)} rounds")
    same = streams["a"] == streams["b"]
    for name, da, db in zip(STREAMS, streams["a"], streams["b"]):
        print(f"{name}: a {da[:12]}  b {db[:12]}  {'equal' if da == db else 'DIFFER'}")
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
