"""The verify trajectories against their golden record, tests/golden/verify.json.

Every value of the record (the final state's arrays, its monitor row, the
final time) must agree to 1e-12 relative in the max norm of each array; the
termination, step and record counts exactly.  The sha256 over every
record's bits is compared only under the numpy version the file was made
with, since another version may round differently.
"""
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

GOLDEN_DIR = Path(__file__).with_name("golden")
_spec = importlib.util.spec_from_file_location("make_verify_golden",
                                               GOLDEN_DIR / "make_verify_golden.py")
make_verify_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_verify_golden)

GOLDEN = json.loads((GOLDEN_DIR / "verify.json").read_text())
RTOL = 1e-12


@pytest.fixture(scope="module")
def recomputed(verify_report):
    return make_verify_golden.trajectories(verify_report)


def test_the_golden_record_covers_every_verify_trajectory(recomputed):
    assert sorted(recomputed) == sorted(GOLDEN["trajectories"])


def assert_close(name: str, got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, name
    err, scale = np.max(np.abs(got - want)), np.max(np.abs(want))
    assert err <= RTOL * scale, f"{name}: max deviation {err:.3e} against scale {scale:.3e}"


@pytest.mark.parametrize("key", sorted(GOLDEN["trajectories"]))
def test_verify_trajectory_matches_its_golden_record(key, recomputed):
    want, got = GOLDEN["trajectories"][key], recomputed[key]
    for name in ("termination", "steps", "records"):
        assert got[name] == want[name], f"{key} {name}"
    assert_close(f"{key} final_t", got["final_t"], want["final_t"])
    assert sorted(got["final_state"]) == sorted(want["final_state"])
    for name, values in want["final_state"].items():
        assert_close(f"{key} {name}", got["final_state"][name], values)
    assert_close(f"{key} final monitor row", got["final_monitor"], want["final_monitor"])


@pytest.mark.parametrize("key", sorted(GOLDEN["trajectories"]))
def test_verify_trajectory_bits_match_their_golden_digest(key, recomputed):
    if np.__version__ != GOLDEN["numpy"]:
        pytest.skip(f"digests were made with numpy {GOLDEN['numpy']}; "
                    f"this is numpy {np.__version__}")
    assert recomputed[key]["digest"] == GOLDEN["trajectories"][key]["digest"]
