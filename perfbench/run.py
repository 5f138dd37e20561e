"""The l4span benchmark: one workload, one seed, one command.

    python3 perfbench/run.py --workload bulk-1ue --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics.  The workload's seed makes
one or more scenarios (independently seeded cells that the simulated
metrics pool); each is run once, the way ``l4span run`` does it, in a fresh
interpreter (build the simulator, run, summarize, write the streams), and
the first is run again until ``--seconds`` have passed.  Host-time metrics
are medians over all those runs; the repeats must reproduce the first
run's streams byte for byte.  Every run's outputs are checked.

``--trace 1`` runs the workload's first scenario untraced and then traced,
with every layer's public functions wrapped in spans, and reports the
per-layer figures, the tracing overhead and the wrapper's own cost, plus a
layer-separation check on shortened ``bulk-1ue`` and ``cell-16ue`` runs.

Everything the benchmark writes stays under ``.perfbench_out/`` in the
checkout: the result record of each run, the spans of the latest traced
run of each workload, and the stream digests seen so far.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# no child outlives this many seconds into a run, so a run ends within 3 min
DEADLINE_SECS = 170.0
SEPARATION_HORIZON_SECS = 3.0
C10_GATE_NS = 10_000

END_TO_END = {
    "wall_s": "s",
    "sim_s_per_s": "sim-s/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "delay_p50_ms": "ms",
    "delay_p99_ms": "ms",
    "goodput_mbps": "Mbit/s",
    "cell_utilization": "ratio",
    "feedback_latency_p50_ms": "ms",
    "fct_p50_s": "s",
    "fct_p90_s": "s",
}
HOST_METRICS = ("wall_s", "sim_s_per_s", "setup_s", "peak_rss_mb")
SEPARATION = (
    "separation.scheduler_share.bulk-1ue", "separation.scheduler_share.cell-16ue",
    "separation.handler_share.bulk-1ue", "separation.handler_share.cell-16ue",
    "separation.ok",
)


def per_layer_names() -> list[str]:
    import child

    return child.figure_names() + ["tracing.overhead_s"] + list(SEPARATION)


def per_layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[-1]
    if stat.endswith("_s"):
        return "s"
    if stat.startswith("ns_") or stat.endswith("_ns"):
        return "ns"
    if "bytes" in stat:
        return "bytes"
    if "share" in name or stat.endswith("ratio"):
        return "ratio"
    return "count"


# -- children -------------------------------------------------------------------


class Clock:
    def __init__(self) -> None:
        self.t0 = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def left(self) -> float:
        return DEADLINE_SECS - self.elapsed()


def spawn(mode: str, scenario: Path, out: Path, clock: Clock) -> tuple[dict | None, str | None]:
    """Run one child to completion; (its result, or None and why not)."""
    if clock.left() <= 1:
        return None, "no time left before the deadline"
    cmd = [sys.executable, "-I", str(HERE / "child.py"), mode, str(scenario), str(out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=clock.left())
    except subprocess.TimeoutExpired:
        return None, f"{mode} child timed out"
    if proc.returncode != 0:
        return None, f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads((out / "result.json").read_text()), None


def problems_of(result: dict) -> list[str]:
    """What the output checks and the backlog guard found wrong with a run."""
    return result["problems"] + [f"backlog of bearer {b} grows to the horizon"
                                 for b in result["growing_backlogs"]]


def write_scenario(scn, path: Path) -> str:
    from l4span.harness.scenario import scenario_to_dict

    text = json.dumps(scenario_to_dict(scn), sort_keys=True)
    path.write_text(text)
    return hashlib.sha256(text.encode()).hexdigest()


# -- provenance -------------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def provenance(workload: str, seed: int, seeds: list[int], policy: dict) -> dict:
    import numpy

    import workloads

    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "scenario_seeds": seeds,
        "workload_params": workloads.PARAMS[workload],
        "repeat_policy": policy,
    }


# -- determinism across runs of the same code -------------------------------------------


def remember_digests(found: dict[str, str]) -> list[str]:
    """Record stream digests by (source, scenario); return the keys that disagree."""
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    clashes = [k for k, d in found.items() if known.get(k, d) != d]
    known.update({k: d for k, d in found.items() if k not in known})
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    tmp.replace(store)
    return clashes


# -- end-to-end run ------------------------------------------------------------------


def pct(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def simulated_metrics(samples: list[dict]) -> tuple[dict, dict]:
    """Simulated metrics pooled over the distinct scenarios, with sample counts."""
    import numpy as np

    delay = np.concatenate([s["delay_ms"] for s in samples])
    fb = np.concatenate([s["feedback_latency_ms"] for s in samples])
    fct = np.concatenate([s["fct_s"] for s in samples])
    goodput = sum(float(s["goodput_bytes"]) for s in samples)
    steady = sum(float(s["steady_secs"]) for s in samples)
    values = {
        "delay_p50_ms": pct(delay, 50),
        "delay_p99_ms": pct(delay, 99),
        "goodput_mbps": goodput * 8 / steady / 1e6,
        "cell_utilization": statistics.fmean(float(s["utilization"]) for s in samples),
        "feedback_latency_p50_ms": pct(fb, 50),
        "fct_p50_s": pct(fct, 50),
        "fct_p90_s": pct(fct, 90),
    }
    counts = {
        "delay_p50_ms": len(delay), "delay_p99_ms": len(delay),
        "feedback_latency_p50_ms": len(fb), "fct_p50_s": len(fct), "fct_p90_s": len(fct),
        "goodput_mbps": len(samples), "cell_utilization": len(samples),
    }
    return values, counts


def end_to_end(workload: str, seed: int, seconds: float, work: Path, clock: Clock) -> dict:
    import numpy as np

    import workloads

    seeds = workloads.subrun_seeds(workload, seed)
    scenarios = []
    for s in seeds:
        path = work / f"scenario-{s}.json"
        scenarios.append((s, path, write_scenario(workloads.generate(workload, s), path)))

    src = source_digest()
    runs, errors, failed = [], [], 0
    samples: dict[int, dict] = {}
    finite = completed = 0

    def one(sub_seed, path, scn_hash):
        nonlocal failed
        out = work / f"run-{len(runs)}"
        result, error = spawn("run", path, out, clock)
        runs.append({"scenario_seed": sub_seed, "scenario_sha256": scn_hash, **(result or {})})
        if result is None:
            failed += 1
            errors.append(error)
            return False
        bad = problems_of(result)
        if bad:
            failed += 1
            errors.extend(f"scenario seed {sub_seed}: {p}" for p in bad)
        if sub_seed not in samples:
            with np.load(out / "samples.npz") as z:
                samples[sub_seed] = {k: z[k] for k in z.files}
        shutil.rmtree(out)
        return not bad

    for sub_seed, path, scn_hash in scenarios:
        one(sub_seed, path, scn_hash)
    # repeat the first scenario while the budget lasts: more host-time samples,
    # and the repeats must reproduce its streams
    first = scenarios[0]
    while clock.left() > 1:
        if not one(*first):
            break
        durations = [r["wall_s"] for r in runs if "wall_s" in r]
        if clock.elapsed() + statistics.median(durations) + 0.5 > seconds:
            break

    digests: dict[int, set] = {}
    for r in runs:
        if "digest" in r:
            digests.setdefault(r["scenario_seed"], set()).add(r["digest"])
    for sub_seed, found in digests.items():
        if len(found) > 1:
            failed += 1
            errors.append(f"scenario seed {sub_seed}: runs of the same scenario wrote different streams")
    found = {f"{src}:{r['scenario_sha256']}": r["digest"] for r in runs if "digest" in r}
    for key in remember_digests(found):
        failed += 1
        errors.append(f"streams differ from an earlier run of the same code and scenario ({key})")

    for s in samples.values():
        finite += int(s["finite_flows"])
        completed += len(s["fct_s"])
    failed += finite - completed
    if finite > completed:
        errors.append(f"{finite - completed} of {finite} finite flows did not complete")

    # a run whose checks failed still reports its figures; ``failed`` flags it
    measured = [r for r in runs if "wall_s" in r]
    metrics, counts = {}, {}
    if len(samples) == len(seeds):
        for name in HOST_METRICS:
            metrics[name] = statistics.median(r[name] for r in measured)
            counts[name] = len(measured)
        sim_values, sim_counts = simulated_metrics([samples[s] for s in seeds])
        metrics.update(sim_values)
        counts.update(sim_counts)
    else:
        errors.append("not every scenario produced a run; no metrics")
    return {
        "attempted": len(runs) + finite,
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "counts": counts,
        "runs": runs,
        "finite_flows": finite,
        "incomplete_share": (finite - completed) / finite if finite else 0.0,
        "seeds": seeds,
        "policy": {
            "scenarios": len(seeds),
            "repeats_of_first": len(runs) - len(seeds),
            "seconds": seconds,
            "host_metrics": "median over all runs, each in a fresh interpreter",
            "simulated_metrics": "pooled over the distinct scenarios",
        },
    }


# -- traced run ----------------------------------------------------------------------


def traced(workload: str, seed: int, work: Path, clock: Clock) -> dict:
    import workloads

    sub_seed = workloads.subrun_seeds(workload, seed)[0]
    path = work / "scenario.json"
    write_scenario(workloads.generate(workload, sub_seed), path)
    errors, failed = [], 0

    plain, error = spawn("run", path, work / "plain", clock)
    if plain is None or problems_of(plain):
        failed += 1
        errors.append(error or "; ".join(problems_of(plain)))
    spans_dir = OUT / "trace" / workload
    shutil.rmtree(spans_dir, ignore_errors=True)
    result, error = spawn("trace", path, spans_dir, clock)
    if result is None:
        failed += 1
        errors.append(error)

    shares = {}
    for wl in ("bulk-1ue", "cell-16ue"):
        probe_path = work / f"separation-{wl}.json"
        scn = workloads.shortened(wl, workloads.subrun_seeds(wl, seed)[0], SEPARATION_HORIZON_SECS)
        write_scenario(scn, probe_path)
        probe, error = spawn("trace", probe_path, work / f"separation-{wl}", clock)
        if probe is None:
            failed += 1
            errors.append(error)
        else:
            shares[wl] = probe

    metrics = {}
    if result is not None and plain is not None and len(shares) == 2:
        metrics.update(result["figures"])
        metrics["tracing.overhead_s"] = result["run_s"] - plain["run_s"]
        for wl, probe in shares.items():
            metrics[f"separation.scheduler_share.{wl}"] = probe["scheduler_share"]
            metrics[f"separation.handler_share.{wl}"] = probe["handler_share"]
        separated = (
            shares["cell-16ue"]["scheduler_share"] > shares["bulk-1ue"]["scheduler_share"]
            and shares["bulk-1ue"]["handler_share"] > shares["cell-16ue"]["handler_share"]
        )
        metrics["separation.ok"] = 1 if separated else 0
        if not separated:
            failed += 1
            errors.append("layer separation failed: the scheduler's share is not larger on "
                          "cell-16ue, or the handlers' share is not larger on bulk-1ue")
    else:
        errors.append("traced run incomplete; no metrics")
    return {
        "attempted": 4,
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "counts": {},
        "layer_shares": result["shares"] if result else {},
        "seeds": [sub_seed],
        "policy": {"scenarios": 1, "untraced_runs": 1, "traced_runs": 1,
                   "separation_runs": 2, "separation_horizon_secs": SEPARATION_HORIZON_SECS},
    }


# -- report ---------------------------------------------------------------------------


def table(report: dict, trace: bool) -> list[str]:
    lines = []
    m, counts = report["metrics"], report["counts"]
    for name, value in m.items():
        unit = per_layer_unit(name) if trace else END_TO_END[name]
        n = f"  (n={counts[name]})" if name in counts else ""
        gate = ""
        if name in ("ransim.layer.on_dl_pkt.ns_p50", "ransim.layer.on_ran_feedback.ns_p50"):
            gate = f"  [C10 gate {C10_GATE_NS} ns, untraced; wrapper adds " \
                   f"{m.get('tracing.wrapper_ns', 0):.0f} ns per wrapped child]"
        lines.append(f"{name:48s} {value:>16.6g} {unit}{n}{gate}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "l4span" / "__init__.py").is_file():
        print(f"error: no l4span sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import l4span

    if Path(l4span.__file__).resolve().parent != (SRC / "l4span").resolve():
        print(f"error: l4span imported from {l4span.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.PARAMS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.PARAMS)}",
              file=sys.stderr)
        return 2

    clock = Clock()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        if args.trace:
            report = traced(args.workload, args.seed, work, clock)
            wanted = per_layer_names()
        else:
            report = end_to_end(args.workload, args.seed, args.seconds, work, clock)
            wanted = list(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [n for n in wanted if n not in report["metrics"]]
    if missing and report["metrics"]:
        report["failed"] += 1
        report["errors"].append(f"metrics missing: {missing}")
    report["provenance"] = provenance(args.workload, args.seed, report["seeds"], report["policy"])
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True, default=float))

    for line in table(report, bool(args.trace)):
        print(line)
    for error in report["errors"]:
        print(f"FAILED: {error}")
    if not args.trace:
        print(f"finite flows: {report['finite_flows']}, incomplete share "
              f"{report['incomplete_share']:.4f}")
    print(json.dumps({"provenance": report["provenance"]}, sort_keys=True))
    unit = per_layer_unit if args.trace else END_TO_END.get
    final = {
        "correct": report["failed"] == 0 and not missing,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": report["metrics"][n], "unit": unit(n)}
                    for n in wanted if n in report["metrics"]},
    }
    print(json.dumps(final))
    return 0 if report["metrics"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
