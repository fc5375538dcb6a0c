"""Fixtures shared by several test modules."""
import pytest

import make_golden  # tests/golden, on the pytest pythonpath
from rhflow.verification import run_verification


@pytest.fixture(scope="session")
def verify_report():
    """The report of one run_verification(): its 13 trajectories are read,
    never changed, by every test that takes it."""
    return run_verification()


@pytest.fixture(scope="session")
def converge_studies():
    """{scenario id: the studies `rhflow converge` runs on it}, computed once."""
    return make_golden.converge_studies()
