"""Write tests/golden/verify.json, the golden record of the verify trajectories.

    PYTHONPATH=src python tests/golden/make_verify_golden.py

For each trajectory of run_verification() the file holds a sha256 over
every record's t, state arrays and monitor values, the final state's
arrays and monitor row at repr precision, the termination and the step
count; and, once for the file, the numpy version and platform the digests
were made with.  tests/test_golden.py recomputes the trajectories and
compares them with it.  Regenerate the file only for a change that is
meant to move output bits, and say so where the change is described.
"""
import dataclasses
import hashlib
import json
import platform
from pathlib import Path

import numpy as np

from rhflow.geometry import WarpedState
from rhflow.verification import run_verification

GOLDEN = Path(__file__).with_name("verify.json")


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


def trajectories(report) -> dict[str, dict]:
    """The summary of each trajectory of a run_verification() report."""
    return {f"{sid}/{name}": summary(traj) for (sid, name), traj in report.trajectories.items()}


def main():
    golden = {"numpy": np.__version__, "platform": platform.platform(),
              "trajectories": trajectories(run_verification())}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {len(golden['trajectories'])} trajectories to {GOLDEN}")


if __name__ == "__main__":
    main()
