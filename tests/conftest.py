import pytest
from mpmath import mp

from twlab import fredholm_oracle, painleve2, twdist
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


@pytest.fixture(scope="session")
def airy_reference():
    """table(x, m, bits): the mapped rule build_rule(x, m) at 256 bits and
    (mp.airyai, its derivative) at each node at ``bits`` bits.  mp.airyai
    costs 10-35 ms a point at 700 bits, so each table is computed once and
    shared by the walk and generator tests that read it."""
    tables = {}

    def table(x, m, bits):
        key = (x, m, bits)
        if key not in tables:
            rule = fredholm_oracle.build_rule(x, m, PrecisionContext(256, 1e-12))
            nodes = (mp.ldexp(v, -rule.frac_bits) for v in rule.node_grid)
            with mp.workprec(bits):
                tables[key] = rule, [(mp.airyai(u), mp.airyai(u, derivative=1))
                                     for u in nodes]
        return tables[key]

    return table
