import mpmath
import pytest


@pytest.fixture(autouse=True)
def _mpmath_precision_is_restored():
    # a test that sets mpmath.mp.dps and leaves it set changes the precision
    # of every later mpmath oracle; scope it with mpmath.workdps instead
    before = mpmath.mp.dps
    yield
    after = mpmath.mp.dps
    if after != before:
        mpmath.mp.dps = before
        pytest.fail(f"test left mpmath.mp.dps at {after} (was {before})")
