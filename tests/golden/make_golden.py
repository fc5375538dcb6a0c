"""Write, or check, the golden records of what rhflow computes.

    PYTHONPATH=src python tests/golden/make_golden.py
    PYTHONPATH=src python tests/golden/make_golden.py --check

Each record is one JSON file in this directory (RECORDS names them):

* verify.json - each trajectory of run_verification();
* converge.json - each `rhflow converge` study of the six scenarios;
* rundir.json - the run directory of cylinder.yaml (tests/test_cli.py's
  CYLINDER_CONFIG), run whole and as a chain split at steps 100 and 200;
* drift_term.json - one trajectory from a state outside the registry whose
  psi and phi both vary, so the drift term of Lap phi is exercised.

A record holds every value at repr precision, a sha256 (a key with
"digest" in its name) over the bits that the values summarize, and the
numpy version and platform it was made with.  tests/test_golden.py
recomputes each record and compares it with its file.  Without --check
every record is rewritten: do that only for a change
that is meant to move output bits, and say so where the change is
described.  --check rewrites nothing: it prints, for each record, the
largest relative deviation of a value from the file (max norm per array)
and how many digests differ, and exits 1 when a deviation exceeds RTOL.
"""
import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from rhflow import runio
from rhflow.cli import main as rhflow_main
from rhflow.convergence import studies_for
from rhflow.flow import FlowConfig, run
from rhflow.geometry import Fiber, Grid, WarpedState
from rhflow.oracles import SCENARIO_IDS, default_scenario
from rhflow.verification import run_verification

HERE = Path(__file__).parent
RTOL = 1e-12


# ---------------------------------------------------------------------------
# trajectories


def state_arrays(state) -> dict[str, list[float]]:
    """The state's evolving arrays by name: f, psi, u or the coefficients."""
    if isinstance(state, WarpedState):
        return {"f": state.f.tolist(), "psi": state.psi.tolist(), "u": state.u.tolist()}
    return {"coefficients": state.coefficients().tolist()}


def monitor_row(rec) -> list[float]:
    return [float(getattr(rec.monitor, fld.name)) for fld in dataclasses.fields(rec.monitor)]


def digest(traj) -> str:
    """sha256 over each record's t, state arrays and monitor values, then the
    termination and step count."""
    h = hashlib.sha256()
    for rec in traj.records:
        h.update(np.float64(rec.t).tobytes())
        for values in state_arrays(rec.state).values():
            h.update(np.asarray(values, dtype=np.float64).tobytes())
        h.update(np.asarray(monitor_row(rec), dtype=np.float64).tobytes())
    h.update(repr((traj.termination, traj.steps)).encode())
    return h.hexdigest()


def summary(traj) -> dict:
    return {"digest": digest(traj),
            "termination": traj.termination,
            "steps": traj.steps,
            "records": len(traj.records),
            "final_t": traj.final_t,
            "final_state": state_arrays(traj.final_state),
            "final_monitor": monitor_row(traj.final)}


def trajectories(report=None) -> dict[str, dict]:
    """The summary of each trajectory of a run_verification() report (made
    here when None)."""
    report = run_verification() if report is None else report
    return {f"{sid}/{name}": summary(traj) for (sid, name), traj in report.trajectories.items()}


def drift_term_trajectory():
    """n 4 over the round sphere, alpha 1, f = 1, psi = 1 + 0.05 sin x,
    u = 0.1 sin 2x (winding 0) on 32 points: d psi/ds and d phi/ds are
    both nonzero, which no registry scenario gives at once."""
    x = Grid(32).x
    state = WarpedState(4, Fiber.ROUND_SPHERE, 1.0, np.ones(32), 1.0 + 0.05 * np.sin(x),
                        u=0.1 * np.sin(2.0 * x))
    return run(FlowConfig(n=4, alpha=1.0, m=32, dt=1e-3, t_end=0.05, output_every=5), state)


def drift_term() -> dict[str, dict]:
    return {"drift_term": summary(drift_term_trajectory())}


# ---------------------------------------------------------------------------
# convergence studies


def converge_studies() -> dict[str, list]:
    """The studies `rhflow converge` runs, by scenario id."""
    return {sid: studies_for(default_scenario(sid)) for sid in SCENARIO_IDS}


def studies(results=None) -> dict[str, dict]:
    """Each study's scales, errors, order and pass flag, by "scenario/study",
    of converge_studies() results (made here when None)."""
    results = converge_studies() if results is None else results
    return {f"{sid}/{res.name}": {"scales": [float(s) for s in res.scales],
                                  "errors": res.errors, "order": res.order,
                                  "exact": res.exact, "passed": res.passed}
            for sid, found in results.items() for res in found}


# ---------------------------------------------------------------------------
# run directories


# the argument lists of each run: whole, and split by --max-steps
RUN_CHAINS = {"whole": [["run"]],
              "split_100_200": [["run", "--max-steps", "100"],
                                ["resume", "--max-steps", "200"], ["resume"]]}


def _array_digest(state) -> str:
    return hashlib.sha256(np.ascontiguousarray(state.arrays(), dtype=np.float64)
                          .tobytes()).hexdigest()


def _file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_directory(rundir, exits: list[int]) -> dict:
    """The written output of a finished run directory: digests of its series
    and manifest; step, t and an array digest of every snapshot state; and
    the checkpoint's step, t, rows, monitor values, array digest and
    arrays."""
    rundir = Path(rundir)
    config, initial = runio.load_config(rundir / runio.CONFIG)
    manifest = runio.read_manifest(rundir / runio.MANIFEST)
    snapshots = [{"file": name, "step": step, "t": state.t, "digest": _array_digest(state)}
                 for name in manifest["files"] if name.startswith(runio.SNAPSHOT_DIR + "/")
                 for state, step in runio.load_snapshot(rundir / name, initial)]
    state, steps, monitor_state, rows = runio.load_checkpoint(rundir / runio.CHECKPOINT,
                                                              config, initial)
    return {"exits": exits,
            "series_digest": _file_digest(rundir / runio.SERIES),
            "manifest_digest": _file_digest(rundir / runio.MANIFEST),
            "snapshots": snapshots,
            "checkpoint": {"step": steps, "t": state.t, "rows": rows,
                           "mon": list(dataclasses.astuple(monitor_state)),
                           "digest": _array_digest(state),
                           "final_state": state_arrays(state)}}


def run_directories() -> dict[str, dict]:
    """run_directory of each RUN_CHAINS entry on cylinder.yaml."""
    out = {}
    config = HERE / "cylinder.yaml"
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for name, chain in RUN_CHAINS.items():
            rundir = Path(tmp, name)
            exits = [rhflow_main([args[0], *([str(config), "-o"] if args[0] == "run" else []),
                                  str(rundir), *args[1:]]) for args in chain]
            out[name] = run_directory(rundir, exits)
    return out


# ---------------------------------------------------------------------------
# records and their comparison

# record name: (file, key of the entries, function computing the entries;
# the verify and converge ones take an already-run report or studies)
RECORDS = {
    "verify": ("verify.json", "trajectories", trajectories),
    "converge": ("converge.json", "studies", studies),
    "rundir": ("rundir.json", "runs", run_directories),
    "drift_term": ("drift_term.json", "trajectories", drift_term),
}


def load(name: str) -> dict:
    """The committed record `name`."""
    return json.loads((HERE / RECORDS[name][0]).read_text())


def _numbers(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool) or
            isinstance(value, list) and bool(value) and all(map(_numbers, value)))


def deviations(got, want, path=""):
    """(path, relative deviation of got from want) for each array of numbers
    and each other value in want but the digests: the max-norm deviation
    over the max norm of want, 0.0 for equal values (nan where nan is), and
    inf for any other difference."""
    if isinstance(want, dict) and isinstance(got, dict) and sorted(got) == sorted(want):
        for key in want:
            if "digest" not in key:
                yield from deviations(got[key], want[key], f"{path}/{key}")
    elif _numbers(want) and _numbers(got) and np.shape(got) == np.shape(want):
        g, w = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        if np.array_equal(g, w, equal_nan=True):
            yield path, 0.0
        else:
            with np.errstate(invalid="ignore", divide="ignore"):
                err = float(np.max(np.abs(g - w)) / np.max(np.abs(w)))
            yield path, err if math.isfinite(err) else math.inf
    elif isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        for k, (a, b) in enumerate(zip(got, want)):
            yield from deviations(a, b, f"{path}[{k}]")
    else:
        yield path, 0.0 if got == want else math.inf


def largest_deviation(got, want) -> tuple[str, float]:
    return max(deviations(got, want), key=lambda item: item[1], default=("", 0.0))


def digests(entry: dict, path=""):
    """(path, digest) of every digest in an entry of a record."""
    for key, value in entry.items():
        if "digest" in key:
            yield f"{path}/{key}", value
        elif isinstance(value, dict):
            yield from digests(value, f"{path}/{key}")
        elif isinstance(value, list):
            for k, item in enumerate(value):
                if isinstance(item, dict):
                    yield from digests(item, f"{path}/{key}[{k}]")


def check(name: str) -> bool:
    """Print the largest deviation of record `name` from its file and the
    digests that differ; True when the deviation is within RTOL."""
    _, key, compute = RECORDS[name]
    want = load(name)
    got = compute()
    where, worst = largest_deviation(got, want[key])
    theirs = dict(digests(want[key]))
    if not theirs:
        bits = "no digests"
    elif np.__version__ == want["numpy"]:
        mine = dict(digests(got))
        moved = sum(mine.get(path) != value for path, value in theirs.items())
        bits = f"{moved} of {len(theirs)} digests differ"
    else:
        bits = f"digests not compared (made with numpy {want['numpy']}, this is {np.__version__})"
    ok = worst <= RTOL
    print(f"{name}: largest relative deviation {worst:.3e}{f' at {where}' if worst else ''}; "
          f"{bits}; {'ok' if ok else 'FAIL'}")
    return ok


def write(name: str):
    file, key, compute = RECORDS[name]
    record = {"numpy": np.__version__, "platform": platform.platform(), key: compute()}
    (HERE / file).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {len(record[key])} {key} to {HERE / file}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed records instead of writing them")
    if parser.parse_args(argv).check:
        return 0 if all([check(name) for name in RECORDS]) else 1
    for name in RECORDS:
        write(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
