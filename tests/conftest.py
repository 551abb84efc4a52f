import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qvalued import MinimizeOptions, minimize, standard_frame  # noqa: E402

from helpers import sqrt_grid_field, two_sheet_field  # noqa: E402


@pytest.fixture(scope="session")
def frame22():
    return standard_frame(2, 2)


@pytest.fixture(scope="session")
def minimized_sqrt_97():
    """Square-root boundary data relaxed on a 97x97 grid (shared, read-only)."""
    res = minimize(
        sqrt_grid_field(97), MinimizeOptions(max_iters=300, tol_rel_energy=0.0)
    )
    return res


@pytest.fixture(scope="session")
def minimized_strong_97():
    """A well-separated two-sheet field relaxed on a 97x97 grid (shared, read-only)."""
    f = two_sheet_field(97, seed=0)
    res = minimize(f, MinimizeOptions(max_iters=200, tol_rel_energy=1e-14))
    return res
