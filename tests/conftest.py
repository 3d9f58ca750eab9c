from datetime import timedelta

import numpy as np
import pytest
from hypothesis import settings

from twosquares.arith import FactorTable, build_factor_table, r2_lattice_range

# property tests draw the same examples on every run and keep no database
settings.register_profile("tier1", derandomize=True, database=None, deadline=timedelta(seconds=2))
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def ftab() -> FactorTable:
    """Factor table large enough for every windowed experiment in the suite."""
    return build_factor_table(250_000)


@pytest.fixture(scope="session")
def r2_1e5() -> np.ndarray:
    return r2_lattice_range(10**5 + 8)


@pytest.fixture(scope="session")
def r2_1e7() -> np.ndarray:
    """Lattice r_2 oracle for the large arithmetic-progression checks."""
    return r2_lattice_range(10**7 + 8)
