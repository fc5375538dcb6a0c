"""Command-line entry point: run / verify / converge / resume.

Commands parse arguments, check --max-steps and map outcomes to exit
codes; runio names, writes and reads the run directory.

Exit codes: 0 success (including blow-up terminations), 1 failed
verification checks or a convergence study below its expected order,
2 configuration, usage, run-file or I/O errors, 3 a run that ended with
non-finite values.
"""
from __future__ import annotations

import argparse
import json
from dataclasses import asdict
import sys
from pathlib import Path

from . import __version__, convergence, runio, verification
from .flow import Trajectory, run
from .oracles import SCENARIO_IDS, default_scenario


def _report(traj: Trajectory, records: int) -> int:
    """Print a committed leg's outcome; returns the exit code."""
    print(f"termination: {traj.termination}  t={traj.final_t:.8g}  "
          f"steps={traj.steps}  records={records}")
    return 3 if traj.termination == "nonfinite" else 0


def cmd_run(args) -> int:
    """Start a run in a new directory from the config file's (config, initial state)."""
    config, initial = runio.load_config(args.config)
    outdir = Path(args.output)
    held = [name for name in runio.RUN_ENTRIES if (outdir / name).exists()]
    if held:
        print(f"usage error: {outdir} already holds a run ({held[0]}); give a new or "
              f"empty directory, or resume that run", file=sys.stderr)
        return 2
    try:
        traj = run(config, initial, stop_after_steps=args.max_steps)
    except ValueError as exc:  # initial data that the bounds reject
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return _report(traj, runio.commit_leg(outdir, traj, config_file=args.config))


def cmd_resume(args) -> int:
    try:
        start = runio.open_resume(args.rundir)
    except runio.RunComplete as done:
        print(f"run already complete (termination: {done}); nothing to do")
        return 0
    if args.max_steps is not None and args.max_steps <= start.steps:
        print(f"usage error: --max-steps {args.max_steps} must exceed the "
              f"{start.steps} steps the checkpoint has already taken", file=sys.stderr)
        return 2
    try:
        traj = run(start.config, start.state, steps_done=start.steps,
                   monitor_state=start.monitor_state, stop_after_steps=args.max_steps)
    except ValueError as exc:  # a t_end or blowup_threshold the checkpoint reaches
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return _report(traj, runio.commit_leg(args.rundir, traj, start=start))


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
                   "rows": [asdict(row) for row in report.rows],
                   "case_seconds": report.case_seconds}
        (outdir / "verify_report.json").write_text(json.dumps(payload, indent=2) + "\n")
    return 0 if report.all_passed else 1


def cmd_converge(args) -> int:
    scn = default_scenario(args.scenario)
    results = convergence.studies_for(scn)
    for res in results:
        order = "exact" if res.exact else f"{res.order:.3f}"
        print(f"{args.scenario} {res.name}: errors={['%.3e' % e for e in res.errors]} "
              f"order={order} expected={res.expected:g} "
              f"(>= {convergence.PASS_SHARE * res.expected:.2f}) "
              f"{'PASS' if res.passed else 'FAIL'}")
    if args.output:
        outdir = Path(args.output)
        outdir.mkdir(parents=True, exist_ok=True)
        payload = {"scenario": args.scenario,
                   "studies": [asdict(res) for res in results]}
        (outdir / f"converge_{args.scenario}.json").write_text(
            json.dumps(payload, indent=2) + "\n")
    return 0 if all(res.passed for res in results) else 1


def _step_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rhflow",
                                     description="Coupled metric/map flow laboratory")
    parser.add_argument("--version", action="version", version=f"rhflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a configured flow")
    p_run.add_argument("config", help="YAML config file")
    p_run.add_argument("-o", "--output", required=True, help="output directory")
    p_run.add_argument("--max-steps", type=_step_count, default=None,
                       help="stop (resumably) once the run has taken this many steps")
    p_run.set_defaults(func=cmd_run)

    p_res = sub.add_parser("resume", help="continue an interrupted run")
    p_res.add_argument("rundir", help="run directory of an interrupted run")
    p_res.add_argument("--max-steps", type=_step_count, default=None,
                       help="stop (resumably) once the run has taken this many steps "
                            "in total; must exceed the checkpoint's step count")
    p_res.set_defaults(func=cmd_resume)

    p_ver = sub.add_parser("verify", help="run the estimate verification suite")
    p_ver.add_argument("--scenario", action="append",
                       help="restrict to a scenario (repeatable)")
    p_ver.add_argument("-o", "--output", default=None,
                       help="directory for the machine-readable report")
    p_ver.set_defaults(func=cmd_verify)

    p_con = sub.add_parser("converge", help="refinement studies gated on expected orders")
    p_con.add_argument("scenario", choices=SCENARIO_IDS, help="scenario id")
    p_con.add_argument("-o", "--output", default=None)
    p_con.set_defaults(func=cmd_converge)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except runio.ConfigError as exc:
        message = f"config error: {exc}"
    except runio.CheckpointError as exc:
        message = f"checkpoint error: {exc}"
    except runio.RunFileError as exc:
        message = f"run file error: {exc}"
    except OSError as exc:  # a file that cannot be read or written
        message = f"I/O error: {exc}"
    print(message, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
