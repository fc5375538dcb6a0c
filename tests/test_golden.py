"""What rhflow computes against its golden records in tests/golden/.

The records (tests/golden/make_golden.py writes and describes them): the
verify trajectories, the `rhflow converge` studies, the CYLINDER_CONFIG run
directory whole and split, and one trajectory that exercises the drift
term of Lap phi.  Every value of a record must agree to 1e-12 relative in
the max norm of each array; counts, flags, names and exit codes exactly.
The sha256 digests over the bits are compared only under the numpy
version the record was made with, since another version may round
differently.
"""
import numpy as np
import pytest

import make_golden  # tests/golden, on the pytest pythonpath

RTOL = make_golden.RTOL
GOLDEN = {name: make_golden.load(name) for name in make_golden.RECORDS}


def entries(name: str) -> dict:
    return GOLDEN[name][make_golden.RECORDS[name][1]]


@pytest.fixture(scope="module")
def recomputed(verify_report, converge_studies):
    """recomputed(name): the entries of record name, computed once per module;
    the verify and converge entries come from the session's shared runs."""
    ran = {"verify": (verify_report,), "converge": (converge_studies,)}
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = make_golden.RECORDS[name][2](*ran.get(name, ()))
        return cache[name]
    return get


def assert_values_agree(name: str, key: str, got: dict):
    where, worst = make_golden.largest_deviation(got, entries(name)[key])
    assert worst <= RTOL, f"{name} {key}{where}: relative deviation {worst:.3e}"


def assert_digests_agree(name: str, key: str, got: dict):
    made_with = GOLDEN[name]["numpy"]
    if np.__version__ != made_with:
        pytest.skip(f"digests were made with numpy {made_with}; this is numpy {np.__version__}")
    assert dict(make_golden.digests(got)) == dict(make_golden.digests(entries(name)[key]))


def test_the_golden_record_covers_every_verify_trajectory(recomputed):
    assert sorted(recomputed("verify")) == sorted(entries("verify"))


@pytest.mark.parametrize("key", sorted(entries("verify")))
def test_verify_trajectory_matches_its_golden_record(key, recomputed):
    assert_values_agree("verify", key, recomputed("verify")[key])


@pytest.mark.parametrize("key", sorted(entries("verify")))
def test_verify_trajectory_bits_match_their_golden_digest(key, recomputed):
    assert_digests_agree("verify", key, recomputed("verify")[key])


OTHER_RECORDS = [name for name in make_golden.RECORDS if name != "verify"]
OTHER_ENTRIES = [(name, key) for name in OTHER_RECORDS for key in sorted(entries(name))]
ENTRY_IDS = [f"{name}:{key}" for name, key in OTHER_ENTRIES]
# the converge studies hold values only
DIGESTED_ENTRIES = [(name, key) for name, key in OTHER_ENTRIES
                    if any(make_golden.digests(entries(name)[key]))]


@pytest.mark.parametrize("name", OTHER_RECORDS)
def test_the_golden_record_covers_every_entry(name, recomputed):
    assert sorted(recomputed(name)) == sorted(entries(name))


@pytest.mark.parametrize("name, key", OTHER_ENTRIES, ids=ENTRY_IDS)
def test_golden_entry_values_agree(name, key, recomputed):
    assert_values_agree(name, key, recomputed(name)[key])


@pytest.mark.parametrize("name, key", DIGESTED_ENTRIES,
                         ids=[f"{name}:{key}" for name, key in DIGESTED_ENTRIES])
def test_golden_entry_bits_match_their_digests(name, key, recomputed):
    assert_digests_agree(name, key, recomputed(name)[key])


def test_largest_deviation_reads_values_and_ignores_digests():
    want = {"digest": "a", "x": [1.0, 2.0], "n": 3, "s": [{"t": 0.5}]}
    assert make_golden.largest_deviation({**want, "digest": "b"}, want)[1] == 0.0
    assert make_golden.largest_deviation({**want, "x": [1.0, 2.0 + 2e-12]}, want) == (
        "/x", pytest.approx(1e-12))
    assert make_golden.largest_deviation({**want, "n": 4}, want) == ("/n", 1.0 / 3.0)
    for changed in ({"s": [{"t": 0.5}, {"t": 0.6}]}, {"x": [1.0]}, {"n": None}):
        assert make_golden.largest_deviation({**want, **changed}, want)[1] == float("inf")
