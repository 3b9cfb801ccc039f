import pytest
from mpmath import mp

from twlab import painleve2, twdist
from twlab.precision import PrecisionContext


@pytest.fixture(scope="session")
def ctx256():
    """Main working context for distribution evaluations."""
    return PrecisionContext(precision_bits=256, tolerance=1e-12)


@pytest.fixture(scope="session")
def hm_solution(ctx256):
    """One shared Hastings-McLeod solve on the default window."""
    return painleve2.solve_hastings_mcleod(-12, 8, 1100, ctx256)


@pytest.fixture(scope="session")
def tail_constants(ctx256):
    return twdist.TailConstants.compute(ctx256)


@pytest.fixture()
def wp300():
    """Tests do raw mpf arithmetic; keep it at a safe working precision."""
    with mp.workprec(300):
        yield
