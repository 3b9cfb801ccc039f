"""Acceptance suite: one test per entry of twlab.checks.CHECKS, which holds
every point set and bound; `twlab verify` prints the same results.

test_criterion_NN_<check> runs CHECKS[NN - 1] and prints one ACCEPTANCE line
per result.  Run with `pytest tests/test_acceptance.py -v -s` to see those
lines alongside the pytest verdicts.
"""

import time

from mpmath import mp

from twlab import checks

# runtime limits in seconds
SECONDS = {checks.oracle_equivalence: 60, checks.double_scaling_ladder: 600}


def _criterion(check):
    def test(hm_solution, tail_constants, ctx256):
        start = time.monotonic()
        results = check(hm_solution, tail_constants, ctx256)
        elapsed = time.monotonic() - start
        for r in results:
            print(f"\nACCEPTANCE {r.name}: {'PASS' if r.ok else 'FAIL'} - "
                  f"{mp.nstr(r.measured, 3)} (bound {r.bound})")
        assert all(r.ok for r in results), [r.name for r in results if not r.ok]
        limit = SECONDS.get(check)
        assert limit is None or elapsed <= limit, f"{elapsed:.1f}s > {limit}s"
    test.__doc__ = check.__doc__
    return test


for _number, _check in enumerate(checks.CHECKS, 1):
    globals()[f"test_criterion_{_number:02d}_{_check.__name__}"] = _criterion(_check)
