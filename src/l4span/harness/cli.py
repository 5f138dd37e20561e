"""Command-line interface.

Subcommands: run, validate, sweep, report, export-scenario.  Exit codes:
0 on success, 1 on configuration errors, 2 when `report` finds a failing
acceptance criterion.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .metrics import write_run
from .scenario import BUILTIN_SCENARIOS, ConfigError, override, resolve_scenario, save_scenario


def _make_out_dir(path: str) -> None:
    """Create an output directory before anything runs, so that a bad
    location fails at once rather than after the simulation."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc.strerror or exc}") from None


def _cmd_run(args) -> int:
    scn = resolve_scenario(args.scenario)
    if args.seed is not None:
        scn.seed = args.seed
    _make_out_dir(args.out)
    from ..ransim.sim import run as sim_run

    result = sim_run(scn)
    write_run(result, args.out, csv=args.csv)
    print((Path(args.out) / "summary.txt").read_text(), end="")
    return 0


def _cmd_validate(args) -> int:
    scn = resolve_scenario(args.scenario)
    print(f"ok: scenario {scn.name!r} ({len(scn.ues)} UE(s), horizon {scn.horizon_secs}s)")
    return 0


def _param_value(text: str):
    """A ``--param`` value: a Python literal, else the raw text (so string
    fields take bare words); the scenario loader checks it either way."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError, TypeError):
        return text


def _sweep_point(job) -> str:
    scn, outdir = job
    from ..ransim.sim import run as sim_run

    result = sim_run(scn)
    write_run(result, outdir)
    return str(outdir)


def _sweep_jobs(args) -> list:
    """Every (scenario, output directory) point of a sweep, each checked."""
    base = resolve_scenario(args.scenario)
    axes = []
    for spec in args.param or []:
        if "=" not in spec:
            raise ConfigError(f"--param needs path=v1,v2 (got {spec!r})")
        path, _, values = spec.partition("=")
        axes.append((path, [_param_value(v) for v in values.split(",")]))
    seeds = [_param_value(s) for s in args.seeds.split(",")] if args.seeds else [base.seed]

    assigns = [[]]
    for path, values in axes:
        assigns = [assign + [(path, v)] for assign in assigns for v in values]

    jobs = {}
    for assign in assigns:
        for seed in seeds:
            scn = override(base, {**dict(assign), "seed": seed})
            label = [f"{path.split('.')[-1]}={v}" for path, v in assign] + [f"seed={seed}"]
            outdir = Path(args.out) / "_".join(label)
            if outdir in jobs:
                raise ConfigError(f"two sweep points write one directory {outdir}")
            jobs[outdir] = scn
    return [(scn, outdir) for outdir, scn in jobs.items()]


def _cmd_sweep(args) -> int:
    env = os.environ.get("L4SPAN_WORKERS", "0")
    if not (env.isascii() and env.isdigit()):
        raise ConfigError(f"L4SPAN_WORKERS must be a non-negative integer (got {env!r})")
    jobs = _sweep_jobs(args)
    _make_out_dir(args.out)
    workers = min(int(env) or os.cpu_count() or 1, len(jobs))  # 0: one per CPU
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for done in pool.map(_sweep_point, jobs):
            print(f"done: {done}")
    return 0


def _cmd_report(args) -> int:
    from .acceptance import AcceptanceRunner, render_table

    if args.dir:
        _make_out_dir(args.dir)
    runner = AcceptanceRunner(save_dir=args.dir)
    results = runner.run_all()
    table = render_table(results)
    print(table)
    if args.dir:
        (Path(args.dir) / "acceptance.txt").write_text(table + "\n")
    return 0 if all(r.passed for r in results) else 2


def _cmd_export(args) -> int:
    scn = resolve_scenario(args.scenario)
    try:
        save_scenario(scn, args.out)
    except OSError as exc:
        raise ConfigError(f"cannot write {args.out}: {exc.strerror or exc}") from None
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="l4span",
        description="RAN queue-prediction / ECN-marking simulator",
        epilog="bundled scenarios: " + ", ".join(sorted(BUILTIN_SCENARIOS)),
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    r = sub.add_parser("run", help="run a scenario and write metric streams")
    r.add_argument("scenario", help="scenario file or bundled scenario name")
    r.add_argument("--out", required=True, help="output directory")
    r.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    r.add_argument("--csv", action="store_true", help="also write CSV exports")
    r.set_defaults(fn=_cmd_run)

    v = sub.add_parser("validate", help="validate a scenario file")
    v.add_argument("scenario")
    v.set_defaults(fn=_cmd_validate)

    s = sub.add_parser("sweep", help="run a parameter/seed sweep")
    s.add_argument("scenario")
    s.add_argument("--param", action="append", help="dotted path=v1,v2 (repeatable)")
    s.add_argument("--seeds", help="comma-separated seeds")
    s.add_argument("--out", required=True)
    s.set_defaults(fn=_cmd_sweep)

    rep = sub.add_parser("report", help="run the acceptance suite and print the criteria table")
    rep.add_argument("dir", nargs="?", default=None, help="directory for run outputs and the table")
    rep.set_defaults(fn=_cmd_report)

    e = sub.add_parser("export-scenario", help="write a bundled scenario to a file")
    e.add_argument("scenario")
    e.add_argument("--out", required=True)
    e.set_defaults(fn=_cmd_export)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
