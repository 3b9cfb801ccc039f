"""Precision plumbing and the Gauss-Legendre rule generator."""

import ast
import hashlib
import json
import pathlib
import re

import pytest
from mpmath import mp, mpf
from mpmath.calculus.quadrature import GaussLegendre

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

    # the nodes as to_json encodes them, taken before the weight was read
    # from the recurrence that confirms the node: every node is unchanged
    NODES_SHA256 = {
        (20, 128): "a02be787f28fd8acfea32888778113c8fab5d5fe4dbcacd8cb3ce6f8c65a2025",
        (36, 280): "df35c87542aee591b369bfa2c9cce559fac2d395f21aebd882f7b9e08030fff3",
        (80, 288): "d7baf12375c18d5f634dbd0c46e8488d2fa57b99b445309494ba8a9da9fba231",
        (96, 288): "73b67d071eca18147ba6ddd13437307dd294a599fe688320b4c34b7c96723d8d",
    }

    @pytest.mark.parametrize("n, prec", sorted(NODES_SHA256))
    def test_nodes_are_pinned(self, n, prec):
        xs, _ = gauss_legendre(n, prec)
        encoded = [[v._mpf_[0], hex(int(v._mpf_[1])), v._mpf_[2], v._mpf_[3]]
                   for v in xs]
        digest = hashlib.sha256(json.dumps(encoded).encode()).hexdigest()
        assert digest == self.NODES_SHA256[n, prec]

    # nodes and weights as to_json encodes them, for odd n (0 in the
    # middle) and even n, taken before the two halves were assembled by
    # one symmetric rule
    RULES_SHA256 = {
        (1, 64): "c9bc9a7d13cb204ebe2b612d8798394d74154c9cda51f51c35cab8d83709bb75",
        (20, 128): "93527662221c6f86720e4cd1f990d1c46415548a7448e748fab0c4cd0c9e96d0",
        (21, 128): "1a57a511d8b64634e3219d996ca14426e94a818924a57dbeea89ab5b4399d54d",
        (61, 272): "5f1e11c9378e020478015808426bf986500e1dead1dd580e534cf2989d4bb3a7",
    }

    @pytest.mark.parametrize("n, prec", sorted(RULES_SHA256))
    def test_rules_are_pinned(self, n, prec):
        def enc(values):
            return [[v._mpf_[0], hex(int(v._mpf_[1])), v._mpf_[2], v._mpf_[3]]
                    for v in values]

        xs, ws = gauss_legendre(n, prec)
        assert len(xs) == len(ws) == n
        digest = hashlib.sha256(json.dumps([enc(xs), enc(ws)]).encode()).hexdigest()
        assert digest == self.RULES_SHA256[n, prec]

    def test_no_recurrence_only_to_confirm_a_node(self, monkeypatch):
        # three Newton steps take the float64 root past 2^-296 and a fourth
        # confirms it; the weight comes from the recurrence of that fourth
        legendre, calls = quadrature._legendre_on_grid, []

        def counted(n, x, frac):
            calls.append(frac)
            return legendre(n, x, frac)

        monkeypatch.setattr(quadrature, "_rule_cache", {})
        monkeypatch.setattr(quadrature, "_legendre_on_grid", counted)
        gauss_legendre(80, 288)
        assert calls.count(288 + 24) <= 4 * 40

    def test_unconverged_node_raises(self, monkeypatch):
        # a seed far outside [-1, 1] leaves Newton too far from the root
        # for the steps it is allowed
        monkeypatch.setattr(quadrature, "_rule_cache", {})
        monkeypatch.setattr(quadrature, "_float64_root", lambda n, i: 40.0)
        with pytest.raises(PrecisionError, match="did not converge"):
            gauss_legendre(20, 128)
