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
sides and, per metric, in how many pairs the change read better and worse,
a ``bound_check`` verdict against the metric's ``bound`` (see
``bound_checks``) and a ``gain_check`` verdict on whether the runs show a
gain (see ``gain_checks``).
``--merge`` adds workloads to an existing file instead of starting a new
one.

    python3 tools/bench_record.py --n 13 --seeds 1-10 --builtin static-64ue \
        --baseline ../parent-checkout --merge

``--builtin NAME`` times ``Simulator.run`` on a bundled scenario instead,
with its horizon cut to 3 s, its warm-up to 1 s, and its seed set to each
seed in turn.  Each run builds the simulator and times ``run()`` alone in a
fresh interpreter that imports the package from the checkout's ``src/``,
alternating sides as above.  The times go under ``builtins`` in the file,
keyed by NAME, apart from the benchmark's workloads.  No output check runs
on them, so they carry no ``correct`` field; each run records its event
count and a digest of its summary instead, and the entry says whether both
sides agreed on them.

The file holds, per workload and side, the median and quartiles over seeds of
each end-to-end metric ``BENCHMARK.json`` declares, every run's values, the
provenance the benchmark printed (commit, source digest, Python, numpy,
host), whether the checkout's ``src/`` or ``perfbench/`` differed from its
commit (``dirty``; null outside a git work tree) and the repeat policy.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# provenance fields that describe a checkout and host, not one run
CHECKOUT_KEYS = ("git_sha", "source_sha256", "python", "numpy", "cpu_count", "platform")


def parse_seeds(text: str) -> list[int]:
    """``1-5`` or ``1,3,7`` (or a mix) -> a list of seeds.

    A reversed range such as ``5-1`` holds no seed and is an error.
    """
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        lo, hi = int(lo), int(hi or lo)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty seed range {part!r}")
        seeds += list(range(lo, hi + 1))
    return seeds


def tree_dirty(checkout: Path) -> bool | None:
    """Whether ``src/`` or ``perfbench/`` in ``checkout`` differs from its commit.

    None when the checkout is not a git work tree, as a copy made with
    ``git archive`` is not; its ``git_sha`` is null too.
    """
    if not (checkout / ".git").exists():
        return None
    proc = subprocess.run(["git", "status", "--porcelain", "--", "src", "perfbench"],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    return bool(proc.stdout.strip())


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
        "checkout": {**{k: prov[k] for k in CHECKOUT_KEYS}, "dirty": tree_dirty(checkout)},
    }


# the horizon and warm-up --builtin cuts a bundled scenario to
BUILTIN_HORIZON_SECS = 3.0
BUILTIN_WARMUP_SECS = 1.0
# times Simulator.run on a bundled scenario, run in the checkout; argv: name, horizon,
# warm-up, seed.  The provenance comes from the checkout's own perfbench/run.py.
TIME_RUN = """
import hashlib, json, os, platform, sys, time
import numpy
sys.path.insert(0, os.path.abspath("perfbench"))
import run as perfbench_run
from l4span.harness.scenario import BUILTIN_SCENARIOS, override
from l4span.ransim.sim import Simulator
name, horizon, warmup, seed = sys.argv[1:]
changes = {"horizon_secs": float(horizon), "warmup_secs": float(warmup), "seed": int(seed)}
sim = Simulator(override(BUILTIN_SCENARIOS[name](), changes))
wall, cpu = time.perf_counter(), time.process_time()
res = sim.run()
cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
print(json.dumps({
    "metrics": {"run_s": wall, "run_cpu_s": cpu, "sim_s_per_cpu_s": float(horizon) / cpu},
    "events": res.events,
    "summary_sha256": hashlib.sha256(json.dumps(res.summary, sort_keys=True).encode()).hexdigest(),
    "checkout": {
        "git_sha": perfbench_run.git_sha(), "source_sha256": perfbench_run.source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(), "platform": platform.platform(),
    },
}))
"""
# what --builtin records per run, and which way is better
BUILTIN_METRICS = {"run_s": "lower", "run_cpu_s": "lower", "sim_s_per_cpu_s": "higher"}


def time_builtin(checkout: Path, name: str, seed: int) -> dict:
    """One timed ``Simulator.run`` of a bundled scenario, imported from ``checkout``."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    cmd = [sys.executable, "-c", TIME_RUN, name, str(BUILTIN_HORIZON_SECS),
           str(BUILTIN_WARMUP_SECS), str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"timing {name} in {checkout} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    run = json.loads(proc.stdout.strip().splitlines()[-1])
    run["checkout"]["dirty"] = tree_dirty(checkout)
    return {"seed": seed, **run}


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
    out = {
        "median": median,
        "quartiles": quartiles,
        "checkout": runs[0]["checkout"],
        "runs": [{k: v for k, v in r.items() if k != "checkout"} for r in runs],
    }
    if "correct" in runs[0]:  # a benchmark run checks its output; a --builtin run does not
        out["all_correct"] = all(r["correct"] for r in runs)
    return out


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


def bound_checks(change: dict, parent: dict, metrics: list[dict]) -> dict:
    """Per metric of ``BENCHMARK.json``'s ``end_to_end`` list, a verdict on
    the change's median against the parent's, each side a ``summarize`` entry.

    ``worse``: the change's median is worse than the parent's by more than
    ``bound``, as a fraction of the parent median.  ``unresolved``: the
    parent's quartile spread, as a fraction of its median, exceeds the bound,
    so the runs cannot tell a change that small.  ``within``: otherwise.
    """
    out = {}
    for m in metrics:
        name, bound = m["name"], m["bound"]
        if name not in change["median"] or name not in parent["median"]:
            continue
        c, p = change["median"][name], parent["median"][name]
        lo, hi = parent["quartiles"][name]
        worse_by = c - p if m["better"] == "lower" else p - c
        scale = abs(p)  # a zero parent median makes any worsening or spread exceed the bound
        if worse_by > bound * scale:
            verdict = "worse"
        elif hi - lo > bound * scale:
            verdict = "unresolved"
        else:
            verdict = "within"
        out[name] = {
            "verdict": verdict,
            "bound": bound,
            "worse_by": worse_by / scale if scale else None,
            "parent_spread": (hi - lo) / scale if scale else None,
        }
    return out


def gain_checks(change: dict, parent: dict, metrics: list[dict]) -> dict:
    """Per metric of ``BENCHMARK.json``'s ``end_to_end`` list, whether the runs
    show a gain, each side a ``summarize`` entry whose runs pair up by seed.

    ``gain``: the change read better in at least nine tenths of the pairs,
    ties counting for neither side, and its median is better than the
    parent's by more than the parent's quartile spread.  ``none``: otherwise.
    ``gain_by`` and ``parent_spread`` are fractions of the parent median.
    """
    out = {}
    for m in metrics:
        name = m["name"]
        if name not in change["median"] or name not in parent["median"]:
            continue
        pairs = wins(change["runs"], parent["runs"], {name: m["better"]})[name]
        c, p = change["median"][name], parent["median"][name]
        lo, hi = parent["quartiles"][name]
        gain_by = p - c if m["better"] == "lower" else c - p
        scale = abs(p)
        won = pairs["pairs"] > 0 and 10 * pairs["better"] >= 9 * pairs["pairs"]
        out[name] = {
            "verdict": "gain" if won and gain_by > hi - lo else "none",
            "better": pairs["better"],
            "pairs": pairs["pairs"],
            "gain_by": gain_by / scale if scale else None,
            "parent_spread": (hi - lo) / scale if scale else None,
        }
    return out


def paired_entry(sides: dict, seeds: list[int], run_one, better: dict[str, str], label: str,
                 shown: tuple[str, ...]) -> dict:
    """Run ``run_one(checkout, seed)`` once per side per seed, the parent first
    on every other seed, printing the ``shown`` metrics of each run.

    Returns each side's ``summarize`` entry over the metrics of ``better``,
    a ``repeat_policy`` with the seeds and the order, and, with a parent,
    ``change_better``.
    """
    runs = {side: [] for side in sides}
    for i, seed in enumerate(seeds):
        for side in (list(sides) if i % 2 else list(reversed(sides))):
            r = run_one(sides[side], seed)
            runs[side].append(r)
            print(f"{label} seed {seed} {side}: " + ", ".join(
                f"{k} {r['metrics'][k]:.4g}" for k in shown if k in r["metrics"]), flush=True)
    entry = {side: summarize(rs, list(better)) for side, rs in runs.items()}
    entry["repeat_policy"] = {
        "seeds": seeds,
        "order": "one run per side per seed; the parent runs first on the 1st, 3rd, ... "
                 "seed" if "parent" in sides else "one run per seed",
    }
    if "parent" in sides:
        entry["change_better"] = wins(runs["change"], runs["parent"], better)
    return entry


def record_builtin(name: str, seeds: list[int], sides: dict, record: dict) -> None:
    """Time bundled scenario ``name`` on each side over the seeds; add its entry to ``record``."""
    entry = paired_entry(sides, seeds, lambda checkout, seed: time_builtin(checkout, name, seed),
                         BUILTIN_METRICS, name, ("run_s", "run_cpu_s"))
    entry["repeat_policy"].update({
        "horizon_secs": BUILTIN_HORIZON_SECS,
        "warmup_secs": BUILTIN_WARMUP_SECS,
        "statistic": "median and quartiles over seeds",
        "per_run": "Simulator.run alone, built beforehand, in a fresh interpreter",
    })
    if "parent" in sides:
        entry["same_events_and_summary"] = all(
            (c["events"], c["summary_sha256"]) == (p["events"], p["summary_sha256"])
            for c, p in zip(entry["change"]["runs"], entry["parent"]["runs"]))
    record.setdefault("builtins", {})[name] = entry


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, required=True, help="the N of BENCH_<N>.json")
    ap.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-5 or 1,3,7")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated (default: every workload in BENCHMARK.json)")
    ap.add_argument("--builtin", default=None,
                    help="time Simulator.run on this bundled scenario, cut to 3 s, "
                         "instead of the workloads")
    ap.add_argument("--baseline", type=Path, default=None,
                    help="a checkout of the parent commit to pair each run with")
    ap.add_argument("--merge", action="store_true", help="add workloads to an existing file")
    args = ap.parse_args(argv)
    if args.builtin is not None:
        from_src = str(ROOT / "src")
        if from_src not in sys.path:
            sys.path.insert(0, from_src)
        from l4span.harness.scenario import BUILTIN_SCENARIOS

        if args.builtin not in BUILTIN_SCENARIOS:
            ap.error(f"--builtin: no bundled scenario {args.builtin!r}; one of "
                     f"{', '.join(BUILTIN_SCENARIOS)}")
        if args.workloads is not None:
            ap.error("--builtin and --workloads do not combine")

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
    if args.builtin is not None:
        record_builtin(args.builtin, args.seeds, sides, record)
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {out}")
        return 0
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    for workload in workloads:
        entry = paired_entry(
            sides, args.seeds,
            lambda checkout, seed: bench_once(checkout, workload, seed, seconds),
            better, workload, ("wall_s", "sim_s_per_s", "peak_rss_mb"))
        entry["repeat_policy"].update({
            "seconds": seconds,
            "statistic": "median and quartiles over seeds of each run's end-to-end value",
            "per_run": "perfbench/run.py's own policy: each distinct scenario once, the "
                       "first repeated while the seconds last; host metrics are medians",
        })
        if "parent" in sides:
            entry["bound_check"] = bound_checks(entry["change"], entry["parent"],
                                                bench["end_to_end"])
            entry["gain_check"] = gain_checks(entry["change"], entry["parent"],
                                              bench["end_to_end"])
        record["workloads"][workload] = entry
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
