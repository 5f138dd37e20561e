"""Record a BENCH_<n>.json: end-to-end medians of the benchmark over seeds.

    python3 tools/bench_record.py --n 6 --seeds 1-5
    python3 tools/bench_record.py --n 6 --seeds 11-20 --workloads short-flows \
        --baseline ../parent-checkout --merge

For each workload and seed this runs ``python3 perfbench/run.py --workload W
--seed N --seconds S --trace 0`` in this checkout, with S the ``run_seconds``
of ``BENCHMARK.json``, one run after another, and keeps the last two lines
the benchmark prints (its metrics and its provenance).  With ``--baseline``
it also runs the same command in that checkout (a copy of the parent
commit), alternating which side runs first from one seed to the next, so
both sides see the same stretch of host speed; the file then holds both
sides and, per metric, in how many pairs the change read better and worse.
``--merge`` adds workloads to an existing file instead of starting a new
one.

The file holds, per workload and side, the median and quartiles over seeds of
each end-to-end metric ``BENCHMARK.json`` declares, every run's values, the
provenance the benchmark printed (commit, source digest, Python, numpy,
host) and the repeat policy.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# provenance fields that describe a checkout and host, not one run
CHECKOUT_KEYS = ("git_sha", "source_sha256", "python", "numpy", "cpu_count", "platform")


def parse_seeds(text: str) -> list[int]:
    """``1-5`` or ``1,3,7`` (or a mix) -> a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def bench_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``; its final record and provenance."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    final, prov = json.loads(lines[-1]), json.loads(lines[-2])["provenance"]
    return {
        "seed": seed,
        "correct": final["correct"],
        "attempted": final["attempted"],
        "failed": final["failed"],
        "metrics": {k: v["value"] for k, v in final["metrics"].items()},
        "repeat_policy": prov["repeat_policy"],
        "checkout": {k: prov[k] for k in CHECKOUT_KEYS},
    }


def summarize(runs: list[dict], names: list[str]) -> dict:
    """Median and quartiles over the runs of each metric, plus the runs themselves."""
    median, quartiles = {}, {}
    for name in names:
        values = [r["metrics"][name] for r in runs if name in r["metrics"]]
        if not values:
            continue
        median[name] = statistics.median(values)
        quartiles[name] = (statistics.quantiles(values, n=4, method="inclusive")[::2]
                           if len(values) > 1 else [values[0], values[0]])
    return {
        "median": median,
        "quartiles": quartiles,
        "all_correct": all(r["correct"] for r in runs),
        "checkout": runs[0]["checkout"],
        "runs": [{k: v for k, v in r.items() if k != "checkout"} for r in runs],
    }


def wins(change: list[dict], parent: list[dict], better: dict[str, str]) -> dict:
    """Per metric: pairs where the change read better, pairs where it read worse."""
    out = {}
    for name, direction in better.items():
        pairs = [(c["metrics"].get(name), p["metrics"].get(name)) for c, p in zip(change, parent)]
        pairs = [(c, p) for c, p in pairs if c is not None and p is not None]
        sign = 1 if direction == "higher" else -1
        out[name] = {"better": sum(sign * (c - p) > 0 for c, p in pairs),
                     "worse": sum(sign * (c - p) < 0 for c, p in pairs),
                     "pairs": len(pairs)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, required=True, help="the N of BENCH_<N>.json")
    ap.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-5 or 1,3,7")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated (default: every workload in BENCHMARK.json)")
    ap.add_argument("--baseline", type=Path, default=None,
                    help="a checkout of the parent commit to pair each run with")
    ap.add_argument("--merge", action="store_true", help="add workloads to an existing file")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    out = ROOT / f"BENCH_{args.n}.json"
    record = json.loads(out.read_text()) if args.merge and out.exists() else {
        "bench": args.n,
        "command": "python3 perfbench/run.py --workload W --seed N --seconds S --trace 0",
        "workloads": {},
    }

    sides = {"change": ROOT}
    if args.baseline is not None:
        sides["parent"] = args.baseline.resolve()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    for workload in workloads:
        runs = {side: [] for side in sides}
        for i, seed in enumerate(args.seeds):
            order = list(sides) if i % 2 else list(reversed(sides))
            for side in order:
                r = bench_once(sides[side], workload, seed, seconds)
                runs[side].append(r)
                print(f"{workload} seed {seed} {side}: " + ", ".join(
                    f"{k} {r['metrics'][k]:.4g}" for k in ("wall_s", "sim_s_per_s", "peak_rss_mb")
                    if k in r["metrics"]), flush=True)
        entry = {side: summarize(rs, list(better)) for side, rs in runs.items()}
        entry["repeat_policy"] = {
            "seeds": args.seeds,
            "seconds": seconds,
            "order": "one run per side per seed; the parent runs first on the 1st, 3rd, ... "
                     "seed" if "parent" in sides else "one run per seed",
            "statistic": "median and quartiles over seeds of each run's end-to-end value",
            "per_run": "perfbench/run.py's own policy: each distinct scenario once, the "
                       "first repeated while the seconds last; host metrics are medians",
        }
        if "parent" in sides:
            entry["change_better"] = wins(runs["change"], runs["parent"], better)
        record["workloads"][workload] = entry
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
