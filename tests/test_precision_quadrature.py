"""Precision plumbing and the Gauss-Legendre rule generator."""

import ast
import pathlib
import re

import pytest
from mpmath import mp, mpf
from mpmath.calculus.quadrature import GaussLegendre

import golden_outputs
from twlab import precision, quadrature
from twlab.errors import PrecisionError
from twlab.precision import PrecisionContext, round_to, stabilize
from twlab.quadrature import gauss_legendre


class TestPrecisionContext:
    def test_validation(self):
        with pytest.raises(ValueError):
            PrecisionContext(precision_bits=32)
        with pytest.raises(ValueError):
            PrecisionContext(tolerance=0)
        # the tolerance is compared as itself: no float rounds it to 0
        assert PrecisionContext(tolerance=mpf(2) ** -2000).tolerance > 0

    def test_round_to(self):
        with mp.workprec(300):
            v = mp.sqrt(2)
        r = round_to(v, 64)
        assert r._mpf_[3] <= 64

    def test_stabilize_converges(self):
        # a bound below 2^-precision_bits returns the one pass as it is
        calls = []

        def compute(bits):
            calls.append(bits)
            with mp.workprec(bits):
                return +mp.pi, mpf(2) ** -(bits - 2)

        ctx = PrecisionContext(64, 1e-15)
        val, bound = stabilize(compute, 72, ctx)
        assert calls == [72]
        assert bound == mpf(2) ** -70
        with mp.workprec(200):
            assert abs(val - mp.pi) < bound

    def test_stabilize_raises_on_budget(self):
        # a bound above 2^-precision_bits raises after exactly one pass
        calls = []

        def compute(bits):
            calls.append(bits)
            return mpf(bits), mpf(2) ** -63

        ctx = PrecisionContext(64, 1e-15)
        with pytest.raises(PrecisionError):
            stabilize(compute, 64, ctx)
        assert calls == [64]

    def test_report_guard_defined_once(self):
        # every reported quantity is formed REPORT_GUARD bits above the
        # requested precision through PrecisionContext.workprec or the name
        src = pathlib.Path(precision.__file__).parent
        sites = [f"{path.name}:{n}"
                 for path in sorted(src.glob("*.py")) if path.name != "precision.py"
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if "precision_bits + 16" in line]
        assert sites == []

    def test_only_the_cli_builds_a_context(self):
        # the command line builds the one context and every module passes it
        # on: none rewrites a caller's precision or tolerance
        src = pathlib.Path(precision.__file__).parent
        sites = [f"{path.name}:{n}"
                 for path in sorted(src.glob("*.py")) if path.name != "cli.py"
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if re.search(r"PrecisionContext\((?!\))", line)]
        assert sites == []

    def test_one_double_scaling_index_rule(self):
        # t^(1/3) is formed in toeplitz_lab.scaling_index alone, so the
        # index rule n = floor(2t + x t^(1/3)) and its x_eff change in one
        # place
        src = pathlib.Path(precision.__file__).parent
        sites = []
        for path in sorted(src.glob("*.py")):
            text = path.read_text()
            # ast.walk reaches an outer function before the ones it holds,
            # so each line keeps its innermost function
            owner = {n: fn.name for fn in ast.walk(ast.parse(text))
                     if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                     for n in range(fn.lineno, fn.end_lineno + 1)}
            sites += [f"{path.name}:{owner.get(n)}"
                      for n, line in enumerate(text.splitlines(), 1)
                      if "** (mpf(1) / 3)" in line]
        assert sites == ["toeplitz_lab.py:scaling_index"]

    def test_one_argument_rule(self):
        # errors.real and errors.index read every real and integer argument:
        # no other module calls operator.index or an isfinite, or words a
        # refusal of its own.  fixedpoint.to_grid's inf/nan check converts
        # to a grid and painleve2._steps_on_grid's checks a solver step;
        # neither reads an argument
        src = pathlib.Path(precision.__file__).parent
        rule = re.compile(r"operator\.index|from operator import|isfinite\("
                          r"|must be (an integer|a finite|finite)")
        sites = set()
        for path in sorted(src.glob("*.py")):
            if path.name == "errors.py":
                continue
            text = path.read_text()
            owner = {n: fn.name for fn in ast.walk(ast.parse(text))
                     if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                     for n in range(fn.lineno, fn.end_lineno + 1)}
            sites |= {f"{path.name}:{owner.get(n)}"
                      for n, line in enumerate(text.splitlines(), 1)
                      if rule.search(line)}
        assert sorted(sites) == ["fixedpoint.py:to_grid",
                                 "painleve2.py:_steps_on_grid"]

    def test_one_least_term_rule(self):
        # every asymptotic series is summed by precision.sum_to_least_term:
        # it is defined there alone, and every function that draws Bernoulli
        # numbers hands its terms to it, so no loop of its own stops a series
        src = pathlib.Path(precision.__file__).parent
        defined, bernoulli, summed = [], set(), set()
        for path in sorted(src.glob("*.py")):
            for fn in ast.walk(ast.parse(path.read_text())):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                if fn.name == "sum_to_least_term":
                    defined.append(path.name)
                for node in ast.walk(fn):
                    if not isinstance(node, ast.Call):
                        continue
                    name = getattr(node.func, "attr", getattr(node.func, "id", None))
                    if name == "bernoulli":
                        bernoulli.add(f"{path.name}:{fn.name}")
                    elif name == "sum_to_least_term":
                        summed.add(f"{path.name}:{fn.name}")
        assert defined == ["precision.py"]
        assert bernoulli and bernoulli <= summed


class TestGaussLegendre:
    def test_weights_sum_to_two(self):
        for n in (5, 16, 80):
            xs, ws = gauss_legendre(n, 200)
            with mp.workprec(220):
                assert abs(mp.fsum(ws) - 2) < mpf(2) ** -180
            assert all(-1 < x < 1 for x in xs)
            assert all(a < b for a, b in zip(xs, xs[1:]))

    def test_polynomial_exactness(self):
        # n-point rule integrates degree 2n-1 exactly
        n = 12
        xs, ws = gauss_legendre(n, 200)
        with mp.workprec(220):
            val = mp.fsum(w * (x ** 23 + 3 * x ** 8) for x, w in zip(xs, ws))
            exact = mpf(0) + 2 * mpf(3) / 9
            assert abs(val - exact) < mpf(2) ** -180

    def test_analytic_integrand(self):
        xs, ws = gauss_legendre(40, 200)
        with mp.workprec(220):
            val = mp.fsum(w * mp.exp(x) for x, w in zip(xs, ws))
            assert abs(val - (mp.e - 1 / mp.e)) < mpf(10) ** -50

    def test_cache_returns_same_object(self):
        a = gauss_legendre(24, 160)
        b = gauss_legendre(24, 160)
        assert a is b

    def test_matches_mpmath_rule(self):
        # mpmath's degree-6 rule has 3 * 2^5 = 96 nodes, found by mpf Newton
        # at 480 bits to 2^-328
        xs, ws = gauss_legendre(96, 288)
        with mp.workprec(320):
            ref = sorted(GaussLegendre(mp).calc_nodes(6, 320))
        assert len(ref) == 96
        with mp.workprec(400):
            for x, w, (rx, rw) in zip(xs, ws, ref):
                assert abs(x - rx) <= mpf(2) ** -280
                assert abs(w / rw - 1) <= mpf(2) ** -280

    @staticmethod
    def assert_pinned(n, prec):
        # the rule against tests/golden/gauss_legendre.json, bit for bit;
        # `PYTHONPATH=src python3 tests/golden_outputs.py` rewrites it
        where = golden_outputs.first_rule_difference(
            golden_outputs.rule_rows(n, prec), golden_outputs.pinned_rule_rows(n, prec))
        assert where is None, f"tests/golden/gauss_legendre.json differs at {where}"

    @pytest.mark.parametrize("n, prec", golden_outputs.NODE_PINS)
    def test_nodes_are_pinned(self, n, prec):
        self.assert_pinned(n, prec)

    @pytest.mark.parametrize("n, prec", golden_outputs.RULE_PINS)
    def test_rules_are_pinned(self, n, prec):
        xs, ws = gauss_legendre(n, prec)
        assert len(xs) == len(ws) == n
        self.assert_pinned(n, prec)

    def test_matches_mpmath_degree_7_rule(self):
        # mpmath's degree-7 rule has 3 * 2^6 = 192 nodes, found by mpf Newton
        # at 432 bits to 2^-296; the stop holds the nodes within
        # 2^-(prec + 8) and the weights within n^2 2^-(prec + 8) relative
        prec = 256
        xs, ws = gauss_legendre(192, prec)
        with mp.workprec(288):
            ref = sorted(GaussLegendre(mp).calc_nodes(7, 288))
        assert len(ref) == 192
        with mp.workprec(400):
            for x, w, (rx, rw) in zip(xs, ws, ref):
                assert abs(x - rx) <= mpf(2) ** -(prec + 8)
                assert abs(w / rw - 1) <= 192 ** 2 * mpf(2) ** -(prec + 8)

    def test_no_recurrence_only_to_confirm_a_node(self, monkeypatch):
        # the Halley steps before the last run on coarser grids, and the
        # last one's |dx| proves the stop and gives the weight: exactly one
        # full-width recurrence per node
        legendre, calls = quadrature._legendre_on_grid, []

        def counted(n, x, frac):
            calls.append(frac)
            return legendre(n, x, frac)

        monkeypatch.setattr(quadrature, "_rule_cache", {})
        monkeypatch.setattr(quadrature, "_legendre_on_grid", counted)
        gauss_legendre(80, 288)
        assert calls.count(288 + 24) == 40
        assert max(calls) == 288 + 24

    def test_unconverged_node_raises(self, monkeypatch):
        # a seed far outside [-1, 1] leaves float64 Newton too far from the
        # root for the steps it is allowed
        monkeypatch.setattr(quadrature, "_rule_cache", {})
        monkeypatch.setattr(quadrature, "_tricomi_seed", lambda n, i: 40.0)
        with pytest.raises(PrecisionError, match="did not converge"):
            gauss_legendre(20, 128)

    def test_uncertified_stop_raises(self, monkeypatch):
        # a float64 root far worse than the bits it is taken to carry: the
        # final step's |dx| cannot prove the node, so no rule is returned
        monkeypatch.setattr(quadrature, "_rule_cache", {})
        monkeypatch.setattr(quadrature, "_float64_root",
                            lambda n, i: quadrature._tricomi_seed(n, i) + 1e-6)
        with pytest.raises(PrecisionError, match="bound exceeds"):
            gauss_legendre(20, 64)
