"""Fixtures shared by several test modules."""

import pytest

from repro.evalsuite.stackage import run_study


@pytest.fixture(scope="session")
def full_study():
    """The Section 5 study at the paper's scale: 2,400 packages, seed 2018.

    It takes about 14 s, so it runs once for both the shape check in
    ``test_stackage`` and the committed ``results/stackage.txt`` in
    ``test_results_tables``."""
    return run_study(seed=2018, size=2400)
