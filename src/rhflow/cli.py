"""Command-line entry point: run / verify / converge / resume.

Exit codes: 0 success (including blow-up terminations), 1 failed
verification checks, 2 configuration or usage errors, 3 a run that
ended with non-finite values.
"""
from __future__ import annotations

import argparse
import json
from dataclasses import asdict
import shutil
import sys
from pathlib import Path

from . import __version__, convergence, runio, verification
from .flow import FlowConfig, Trajectory, run
from .oracles import SCENARIO_IDS, default_scenario, exact_state


def _write_outputs(outdir: Path, config: FlowConfig, traj: Trajectory, *,
                   append: bool) -> list[str]:
    """Write series, snapshots and checkpoint; returns relative paths."""
    files = ["config.yaml", "series.jsonl", "checkpoint.npz"]
    series = outdir / "series.jsonl"
    if append:
        runio.append_series(series, traj.records)
    else:
        runio.write_series(series, traj.records)

    if config.snapshot_every > 0:
        snapdir = outdir / "snapshots"
        snapdir.mkdir(exist_ok=True)
        for rec in traj.records:
            if rec.step % config.snapshot_every == 0:
                name = f"snapshots/state_{rec.step:08d}.npz"
                runio.save_snapshot(outdir / name, rec.state, rec.step)
    snapdir = outdir / "snapshots"
    if snapdir.is_dir():
        files += sorted(f"snapshots/{p.name}" for p in snapdir.glob("state_*.npz"))

    runio.save_checkpoint(outdir / "checkpoint.npz", traj)
    return files


def _finalize(outdir: Path, config: FlowConfig, representation: str,
              traj: Trajectory, files: list[str]) -> int:
    summary = runio.trajectory_summary(traj)
    # count what is actually on disk (a resumed run appends to earlier records)
    summary["records"] = len(runio.read_series(outdir / "series.jsonl"))
    if traj.termination is not None:
        files = files + ["manifest.json"]
        runio.write_manifest(outdir / "manifest.json",
                             runio.config_to_dict(config, representation),
                             traj.termination, summary, files)
    print(f"termination: {traj.termination}  t={summary['final_t']:.8g}  "
          f"steps={summary['steps']}  records={summary['records']}")
    if traj.termination == "nonfinite":
        return 3
    return 0


def cmd_run(args) -> int:
    try:
        config, scn, representation = runio.load_config(args.config)
    except runio.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        initial = exact_state(scn, 0.0, config.m, representation)
        traj = run(config, initial, stop_after_steps=args.max_steps)
    except ValueError as exc:  # initial data that the grid or the bounds reject
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(args.config, outdir / "config.yaml")
    files = _write_outputs(outdir, config, traj, append=False)
    return _finalize(outdir, config, representation, traj, files)


def cmd_resume(args) -> int:
    outdir = Path(args.rundir)
    manifest = runio.read_manifest(outdir / "manifest.json")
    if manifest is not None and manifest.get("termination"):
        print(f"run already complete (termination: {manifest['termination']}); nothing to do")
        return 0
    try:
        config, scn, representation = runio.load_config(outdir / "config.yaml")
    except runio.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        state, steps, monitor_state = runio.load_checkpoint(outdir / "checkpoint.npz", config,
                                                            representation)
    except runio.CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 2
    try:
        traj = run(config, state, steps_done=steps, monitor_state=monitor_state,
                   stop_after_steps=args.max_steps)
    except ValueError as exc:  # a blowup_threshold the checkpoint already exceeds
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    files = _write_outputs(outdir, config, traj, append=True)
    return _finalize(outdir, config, representation, traj, files)


def cmd_verify(args) -> int:
    ids = args.scenario or None
    try:
        report = verification.run_verification(ids)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(verification.format_report(report))
    if args.output:
        outdir = Path(args.output)
        outdir.mkdir(parents=True, exist_ok=True)
        payload = {"version": __version__,
                   "all_passed": report.all_passed,
                   "rows": [asdict(row) for row in report.rows]}
        (outdir / "verify_report.json").write_text(json.dumps(payload, indent=2) + "\n")
    return 0 if report.all_passed else 1


def cmd_converge(args) -> int:
    scn = default_scenario(args.scenario)
    results = convergence.studies_for(scn)
    for res in results:
        order = "exact" if res.exact else f"{res.order:.3f}"
        print(f"{args.scenario} {res.name}: errors={['%.3e' % e for e in res.errors]} "
              f"order={order}")
    if args.output:
        outdir = Path(args.output)
        outdir.mkdir(parents=True, exist_ok=True)
        payload = {"scenario": args.scenario,
                   "studies": [asdict(res) for res in results]}
        (outdir / f"converge_{args.scenario}.json").write_text(
            json.dumps(payload, indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rhflow",
                                     description="Coupled metric/map flow laboratory")
    parser.add_argument("--version", action="version", version=f"rhflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a configured flow")
    p_run.add_argument("config", help="YAML config file")
    p_run.add_argument("-o", "--output", required=True, help="output directory")
    p_run.add_argument("--max-steps", type=int, default=None,
                       help="stop (resumably) after this many steps")
    p_run.set_defaults(func=cmd_run)

    p_res = sub.add_parser("resume", help="continue an interrupted run")
    p_res.add_argument("rundir", help="run directory with checkpoint.npz")
    p_res.add_argument("--max-steps", type=int, default=None)
    p_res.set_defaults(func=cmd_resume)

    p_ver = sub.add_parser("verify", help="run the estimate verification suite")
    p_ver.add_argument("--scenario", action="append",
                       help="restrict to a scenario (repeatable)")
    p_ver.add_argument("-o", "--output", default=None,
                       help="directory for the machine-readable report")
    p_ver.set_defaults(func=cmd_verify)

    p_con = sub.add_parser("converge", help="grid/step refinement study")
    p_con.add_argument("scenario", choices=SCENARIO_IDS, help="scenario id")
    p_con.add_argument("-o", "--output", default=None)
    p_con.set_defaults(func=cmd_converge)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
