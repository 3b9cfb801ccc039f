"""Command-line front end: dispatch, output formats, determinism, caching,
the options each command takes, and exit codes."""

import ast
import csv
import io
import json
import os
import subprocess
import sys
from collections import OrderedDict
from decimal import Decimal

import pytest
from mpmath import mp, mpf

import golden_outputs
import twlab
from golden_outputs import FAST, PRECISION, SOLVING, run_cli
from twlab import checks, cli, painleve2, toeplitz_lab, twdist
from twlab.precision import PrecisionContext


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


class TestConstants:
    def test_json_structure(self, workdir):
        code, text = run_cli(["constants"], workdir, "constants.json")
        assert code == 0
        doc = json.loads(text)
        assert doc["schema_version"] == 1
        assert doc["tau2"]["formula"] == "2^(1/24) * exp(zeta'(-1))"
        assert doc["tau2"]["value"].startswith("0.87237141495412")
        assert doc["zeta_prime_minus_one"].startswith("-0.16542114370045")

    def test_csv_columns(self, workdir):
        code, text = run_cli(["constants", "--format", "csv"], workdir,
                             "constants.csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["name", "formula", "value"]
        assert [r[0] for r in rows[1:]] == ["tau1", "tau2", "tau4",
                                            "f_prefactor", "e_prefactor"]

    def test_beyond_512_bits(self, workdir):
        # zeta'(-1) and the constants built on it beyond 512 bits, where the
        # Euler-Maclaurin cutoff has to grow with the precision
        code, text = run_cli(["constants", "--precision-bits", "600"], workdir,
                             "constants600.json")
        assert code == 0
        doc = json.loads(text)
        assert doc["zeta_prime_minus_one"].startswith("-0.16542114370045092921")
        assert doc["tau2"]["value"].startswith("0.87237141495412750610")

    def test_deterministic_output(self, workdir):
        _, a = run_cli(["constants"], workdir, "c1.json")
        _, b = run_cli(["constants"], workdir, "c2.json")
        assert a == b


class TestEvalAndTable:
    def test_eval_point(self, workdir):
        code, text = run_cli(["eval", "--x", "-2", "--beta", "2"] + FAST,
                             workdir, "eval.json")
        assert code == 0
        doc = json.loads(text)
        assert doc["beta"] == 2
        assert doc["value"].startswith("0.41322414250512")
        row = doc["rows"][0]
        assert row["representation"] == "left"
        assert list(row.keys()) == ["x", "F", "E", "F1", "F2", "F4",
                                    "representation"]

    def test_eval_uses_cache(self, workdir):
        cache = os.path.join(workdir, "cache")
        files = [f for f in os.listdir(cache) if f.startswith("hm_")]
        assert files
        stamp = os.path.getmtime(os.path.join(cache, files[0]))
        code, _ = run_cli(["eval", "--x", "0"] + FAST, workdir, "eval2.json")
        assert code == 0
        assert os.path.getmtime(os.path.join(cache, files[0])) == stamp

    def test_table_csv(self, workdir):
        code, text = run_cli(["table", "--xmin", "-2", "--xmax", "0",
                              "--step", "1", "--format", "csv"] + FAST,
                             workdir, "table.csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["x", "F", "E", "F1", "F2", "F4", "representation"]
        assert len(rows) == 4
        f2 = [float(r[4]) for r in rows[1:]]
        assert f2[0] < f2[1] < f2[2]

    def test_table_grid_does_not_drift(self, workdir):
        # 0.1 is not exact in binary: each x is x_min + k step, none above x_max
        code, text = run_cli(["table", "--xmin", "-3", "--xmax", "-1",
                              "--step", "0.1", "--format", "csv"] + FAST,
                             workdir, "grid.csv")
        assert code == 0
        xs = [float(r[0]) for r in list(csv.reader(io.StringIO(text)))[1:]]
        assert xs == [-3 + k * 0.1 for k in range(21)]
        assert max(xs) <= -1

    def test_zero_prints_every_digit(self, workdir):
        # an exact zero gets the 25 significant digits of every other value,
        # not mp.nstr's "0.0"
        code, text = run_cli(["table", "--xmin", "-1", "--xmax", "0",
                              "--step", "1", "--format", "csv"] + FAST,
                             workdir, "zero.csv")
        assert code == 0
        xs = [r[0] for r in list(csv.reader(io.StringIO(text)))[1:]]
        assert xs == ["-1.000000000000000000000000", "0.000000000000000000000000"]
        for zero in (0, 0.0, -0.0, mpf(0)):
            assert cli._num(zero) == xs[1]

    def test_determinism(self, workdir):
        _, a = run_cli(["eval", "--x", "-1.5"] + FAST, workdir, "d1.json")
        _, b = run_cli(["eval", "--x", "-1.5"] + FAST, workdir, "d2.json")
        assert a == b

    def test_eval_beyond_512_bits(self, workdir):
        # the left value's constant carries zeta'(-1), so at 600 bits its
        # check against the right value needs zeta'(-1) to 600 bits
        code, text = run_cli(["eval", "--x", "-3", "--nodes", "500",
                              "--precision-bits", "600"], workdir, "eval600.json")
        assert code == 0
        row = json.loads(text)["rows"][0]
        assert row["representation"] == "left"
        assert row["F"].startswith("0.28340704461839784705")


class TestSolutionCache:
    """A cache file that does not decode is a miss: solved again, replaced."""

    def _rerun_over(self, tmp_path, content):
        cache = str(tmp_path / "cache")
        args = cli.build_parser().parse_args(
            ["eval", "--x", "0"] + FAST + ["--cache-dir", cache])
        path = cli._cache_path(args, cli._context(args))
        assert os.path.basename(path).startswith(
            f"hm_v{painleve2.SCHEMA_VERSION}_")
        os.makedirs(cache)
        data = content if isinstance(content, bytes) else content.encode()
        with open(path, "wb") as fh:
            fh.write(data)
        out = str(tmp_path / "out.json")
        code = cli.main(["eval", "--x", "0"] + FAST
                        + ["--cache-dir", cache, "--output", out])
        assert code == 0
        with open(path, "rb") as fh:
            text = fh.read()
        assert text != data
        painleve2.HMSolution.from_json(text.decode())
        assert os.listdir(cache) == [os.path.basename(path)]

    def test_truncated_file_is_resolved(self, tmp_path):
        self._rerun_over(tmp_path, '{"schema_version": 2, "kind": "hast')

    def test_file_without_edges_is_resolved(self, tmp_path):
        def drop_edges(doc):
            del doc["edges"]
        self._rerun_over(tmp_path, self._damaged(drop_edges))

    def test_old_schema_file_is_resolved(self, tmp_path):
        self._rerun_over(tmp_path, json.dumps({"schema_version": 1,
                                               "grid": [], "q": []}))

    def test_file_that_is_not_an_object_is_resolved(self, tmp_path):
        self._rerun_over(tmp_path, "[2, 1]")

    def test_file_that_is_not_utf8_is_resolved(self, tmp_path):
        self._rerun_over(tmp_path, b"\xff\xfe")

    @staticmethod
    def _damaged(damage):
        doc = painleve2.solve_hastings_mcleod(
            -8, 6, 200, PrecisionContext(64, 1e-12)).to_json_dict()
        damage(doc)
        return json.dumps(doc)

    def test_short_row_file_is_resolved(self, tmp_path):
        def drop_last_entry_of_a_row(doc):
            doc["elem_q"][3] = doc["elem_q"][3][:-1]
        self._rerun_over(tmp_path, self._damaged(drop_last_entry_of_a_row))

    def test_short_edges_file_is_resolved(self, tmp_path):
        def drop_last_edge(doc):
            doc["edges"] = doc["edges"][:-1]
        self._rerun_over(tmp_path, self._damaged(drop_last_edge))

    def test_null_edges_file_is_resolved(self, tmp_path):
        def null_edges(doc):
            doc["edges"] = None
        self._rerun_over(tmp_path, self._damaged(null_edges))

    def test_solve_of_another_window_is_resolved(self, tmp_path):
        # a file that decodes but holds the (-12, 8) solve under the
        # (-16, 10) name is a miss, not a window that refuses x = -14
        cache = str(tmp_path / "cache")
        ask = ["eval", "--x", "-14", "--window", "-16", "10"] + FAST
        args = cli.build_parser().parse_args(ask + ["--cache-dir", cache])
        ctx = cli._context(args)
        os.makedirs(cache)
        with open(cli._cache_path(args, ctx), "w") as fh:
            fh.write(painleve2.solve_hastings_mcleod(-12, 8, 500, ctx).to_json())
        out = str(tmp_path / "out.json")
        assert cli.main(ask + ["--cache-dir", cache, "--output", out]) == 0
        with open(cli._cache_path(args, ctx)) as fh:
            sol = painleve2.HMSolution.from_json(fh.read())
        assert (sol.x_left, sol.x_right) == (-16, 10)

    def test_solve_of_another_node_count_is_resolved(self, tmp_path):
        # a file that decodes but holds the 500-node solve under the
        # --nodes 900 name is a miss, not a 900-node solve
        cache = str(tmp_path / "cache")
        ask = ["eval", "--x", "0", "--nodes", "900"] + PRECISION
        args = cli.build_parser().parse_args(ask + ["--cache-dir", cache])
        ctx = cli._context(args)
        os.makedirs(cache)
        small = painleve2.solve_hastings_mcleod(-12, 8, 500, ctx)
        with open(cli._cache_path(args, ctx), "w") as fh:
            fh.write(small.to_json())
        out = str(tmp_path / "out.json")
        assert cli.main(ask + ["--cache-dir", cache, "--output", out]) == 0
        with open(cli._cache_path(args, ctx)) as fh:
            sol = painleve2.HMSolution.from_json(fh.read())
        assert sol.elements == painleve2.element_count(900) != small.elements

    def test_solver_version_changes_the_key(self, tmp_path, monkeypatch):
        # a new solver that keeps the schema must not read the old solves
        args = cli.build_parser().parse_args(
            ["eval", "--x", "0"] + FAST + ["--cache-dir", str(tmp_path)])
        ctx = cli._context(args)
        before = cli._cache_path(args, ctx)
        monkeypatch.setattr(painleve2, "SOLVER_VERSION",
                            painleve2.SOLVER_VERSION + 1)
        after = cli._cache_path(args, ctx)
        assert after != before
        assert os.path.basename(after).startswith(
            f"hm_v{painleve2.SCHEMA_VERSION}_s{painleve2.SOLVER_VERSION}_")


# every twlab module, named without the package prefix
MODULES = {name[:-3] for name in os.listdir(os.path.dirname(twlab.__file__))
           if name.endswith(".py") and name != "__init__.py"}


class TestImport:
    @pytest.mark.parametrize("args, loads, leaves_out", [
        # import twlab.cli alone: the front end and nothing a command runs
        ([], {"cli", "errors", "precision"},
         MODULES - {"cli", "errors", "precision"} | {"numpy"}),
        # numpy serves only the float64 warm start of the solver
        (["eval", "--x", "0"] + FAST, {"twdist"},
         {"checks", "fredholm_oracle", "toeplitz_lab", "linalg", "numpy"}),
        (["toeplitz-scan", "--t", "3", "--qmax", "8"], {"toeplitz_lab"},
         {"painleve2", "twdist", "checks", "fredholm_oracle"}),
    ], ids=["import", "eval", "toeplitz-scan"])
    def test_command_imports_only_the_modules_it_runs(self, args, loads, leaves_out,
                                                      workdir):
        if args:
            if args[0] in SOLVING:  # the run reads the solution run_cli caches
                run_cli(args, workdir, "imports.json")
                args = args + ["--cache-dir", os.path.join(workdir, "cache")]
            args = args + ["--output", os.path.join(workdir, "imports.json")]
        src = os.path.dirname(os.path.dirname(twlab.__file__))
        probe = ("import json, sys, twlab.cli\n"
                 "code = twlab.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
                 "print(json.dumps([code, sorted(sys.modules)]))")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", probe] + args, env=env,
                             capture_output=True, text=True, check=True).stdout
        code, names = json.loads(out)
        assert code == 0
        loaded = {name[len("twlab."):] for name in names if name.startswith("twlab.")}
        loaded |= {"numpy"} & set(names)
        assert loads <= loaded and not loaded & leaves_out

    @staticmethod
    def _twlab_imports(module):
        """The twlab modules the source of ``module`` imports, in any form."""
        path = os.path.join(os.path.dirname(twlab.__file__), f"{module}.py")
        with open(path) as fh:
            tree = ast.parse(fh.read())
        out = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                out.update(a.name.split(".")[1] for a in node.names
                           if a.name.startswith("twlab."))
            elif isinstance(node, ast.ImportFrom):
                name = node.module or ""
                if not node.level:
                    if name.split(".")[0] != "twlab":
                        continue
                    name = name[len("twlab."):]
                if name:
                    out.add(name.split(".")[0])
                else:
                    out.update(a.name for a in node.names)
        return out

    @pytest.mark.parametrize("module, other", [
        ("toeplitz_lab", "fredholm_oracle"), ("fredholm_oracle", "toeplitz_lab")])
    def test_independent_routes_import_no_painleve_module(self, module, other):
        # the Toeplitz and Fredholm routes are compared with the Painleve
        # route in twlab.checks, so neither imports it or the other route
        assert "specialfn" in self._twlab_imports(module)
        assert self._twlab_imports(module) & {"painleve2", "twdist", other} == set()

    def test_toeplitz_lab_import_leaves_painleve_out(self):
        src = os.path.dirname(os.path.dirname(twlab.__file__))
        code = ("import sys, twlab.toeplitz_lab; "
                "print(sorted({'twlab.painleve2', 'twlab.twdist'} & set(sys.modules)))")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out == "[]\n"


class TestExitCodes:
    def test_invalid_arguments_exit_two(self, workdir):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval"])   # missing --x
        assert exc.value.code == 2

    def test_domain_error_exit_two(self, workdir):
        code, _ = run_cli(["table", "--xmin", "0", "--xmax", "1",
                           "--step", "-1"] + FAST, workdir, "bad.json")
        assert code == 2

    def test_non_finite_x_exit_two(self, workdir, capsys):
        # each refusal is one error: line that names the value or option
        for argv, name in [
            (["eval", "--x", "nan"], "x=nan"),
            (["table", "--xmin", "-3", "--xmax", "nan"], "--xmax"),
            (["table", "--xmin", "inf", "--xmax", "1"], "--xmin"),
            # an infinite step left an empty grid: a header-only table
            (["table", "--xmin", "-3", "--xmax", "1", "--step", "inf"], "--step"),
            # the mesh refused an infinite x_right as a value it cannot put
            # on its fixed-point grid; the solve refuses it by name
            (["eval", "--x", "0", "--window", "-12", "inf"], "x_right"),
            (["toeplitz-limits", "--t", "10", "--x", "nan", "--L", "3", "--M", "3"],
             "--x"),
        ]:
            code, _ = run_cli(argv + FAST, workdir, "non_finite.json")
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1 and name in err

    @pytest.mark.parametrize("command", ["table", "oracle-compare"])
    def test_reversed_x_range_exit_two(self, command, workdir):
        code, _ = run_cli([command, "--xmin", "2", "--xmax", "1"] + FAST,
                          workdir, "reversed.json")
        assert code == 2

    @pytest.mark.parametrize("command", ["table", "oracle-compare"])
    def test_oversized_x_grid_refused_before_any_solve(self, command, workdir,
                                                       monkeypatch, capsys):
        # 2e300 steps were walked one k at a time before; the grid's point
        # count is bounded (cli._MAX_GRID_POINTS) and checked before a solve
        def no_solve(*args):
            raise AssertionError("solved before the grid was checked")

        monkeypatch.setattr(cli, "_solution", no_solve)
        code, _ = run_cli([command, "--xmin", "-1", "--xmax", "1", "--step", "1e-300",
                           "--nodes", "300"], workdir, "huge_grid.json")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "--step" in err

    @pytest.mark.parametrize("case", ["output_dir_missing", "table_output_dir_missing",
                                      "output_is_a_dir", "cache_file_is_a_dir",
                                      "cache_dir_under_a_file"])
    def test_file_error_exit_two(self, case, tmp_path, monkeypatch, capsys):
        # one error: line naming the path, not a traceback, and no solve (or
        # zeta'(-1)) first: a missing --output directory is found before the
        # command's work, not when the output is written
        def no_solve(*args):
            raise AssertionError("solved before the file error")

        monkeypatch.setattr(painleve2, "solve_hastings_mcleod", no_solve)
        monkeypatch.setattr(twdist.TailConstants, "compute", no_solve)
        ask = ["eval", "--x", "0"] + FAST
        if case == "output_dir_missing":
            path = str(tmp_path / "missing" / "x.json")
            argv = ["constants", "--output", path]
        elif case == "output_is_a_dir":
            path = str(tmp_path)
            argv = ["constants", "--output", path]
        elif case == "table_output_dir_missing":
            path = str(tmp_path / "missing" / "x.json")
            argv = ["table", "--xmin", "-1", "--xmax", "0", "--output", path,
                    "--cache-dir", str(tmp_path / "cache")] + FAST
        elif case == "cache_file_is_a_dir":
            argv = ask + ["--cache-dir", str(tmp_path)]
            args = cli.build_parser().parse_args(argv)
            path = cli._cache_path(args, cli._context(args))
            os.makedirs(path)
        else:
            (tmp_path / "file").write_text("")
            path = str(tmp_path / "file" / "cache")
            argv = ask + ["--cache-dir", path]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and path in err

    def test_unknown_command_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_malformed_precision_env_exit_two(self, monkeypatch):
        monkeypatch.setenv(cli.ENV_PRECISION, "abc")
        with pytest.raises(SystemExit) as exc:
            cli.main(["constants"])
        assert exc.value.code == 2


class TestOptions:
    """Each command takes only the options it reads."""

    @pytest.mark.parametrize("args", [
        ["constants", "--window", "-16", "10"],
        ["constants", "--tolerance", "1e-9"],
        ["toeplitz-scan", "--t", "3", "--cache-dir", "x"],
        ["toeplitz-scan", "--t", "3", "--nodes", "500"],
        ["verify", "--no-check"],
        ["toeplitz-limits", "--t", "10", "--x", "-1", "--L", "3", "--M", "2",
         "--no-check"],
    ])
    def test_option_a_command_does_not_read_exits_two(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_no_check_prints_the_same_row(self, workdir):
        # at x = -2 the left value is checked against the right one; skipping
        # the check changes no digit
        _, checked = run_cli(["eval", "--x", "-2"] + FAST, workdir, "chk.json")
        _, unchecked = run_cli(["eval", "--x", "-2", "--no-check"] + FAST,
                               workdir, "nochk.json")
        assert json.loads(checked)["rows"][0]["representation"] == "left"
        assert unchecked == checked

    def test_one_formatter_and_no_command_table(self):
        # every value is printed by the one pass of _emit, and each command
        # is paired with its subparser by set_defaults
        with open(cli.__file__) as fh:
            source = fh.read()
        calls = [node for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "_num"]
        assert len(calls) == 1
        assert "_COMMANDS" not in source


class TestOracleCompare:
    def test_small_grid(self, workdir):
        code, text = run_cli(["oracle-compare", "--xmin", "-2", "--xmax", "0",
                              "--step", "1", "--m-quad", "40"] + FAST,
                             workdir, "oracle.json")
        assert code == 0
        doc = json.loads(text)
        assert float(doc["max_abs_diff"]) < 1e-10
        assert len(doc["rows"]) == 3

    def test_fredholm_column_pinned(self, workdir):
        # m = 80 at 192 bits, pinned to the output of the mpf Cholesky
        # (each inner product one mp.fdot) at 25 digits
        code, text = run_cli(["oracle-compare", "--xmin", "-6", "--xmax", "2",
                              "--step", "4"] + FAST, workdir, "oracle80.json")
        assert code == 0
        assert [r["f2_fredholm"] for r in json.loads(text)["rows"]] == [
            "1.062254674124451068774189e-8",
            "0.4132241425051225546880808",
            "0.9998875536983091729250301",
        ]

    def test_differences_are_formed_at_the_working_precision(self, workdir):
        # |F2(Painleve) - F2(Fredholm)| of two values this close is exact
        # at the working precision; formed at 53 bits, its digits past the
        # 16th were binary rounding noise
        args = cli.build_parser().parse_args(
            ["oracle-compare", "--xmin", "-2", "--xmax", "0", "--step", "1",
             "--m-quad", "40", "--cache-dir", os.path.join(workdir, "cache")]
            + FAST)
        doc, rows, _ = args.cmd(args)
        with mp.workprec(1024):
            exact = [abs(r["f2_painleve"] - r["f2_fredholm"]) for r in rows]
        assert all(0 < d < 1e-10 for d in exact)
        assert [r["abs_diff"] for r in rows] == exact
        assert doc["max_abs_diff"] == max(exact)


class TestToeplitzCommands:
    def test_scan_csv(self, workdir, monkeypatch):
        # the pass a fresh process runs, not a larger one cached before
        monkeypatch.setattr(toeplitz_lab, "_ladder_cache", OrderedDict())
        code, text = run_cli(["toeplitz-scan", "--t", "3", "--qmax", "8",
                              "--format", "csv"], workdir, "scan.csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["t", "q", "gamma", "log_kappa_sq", "pi0",
                           "log_kappa_sq_airy_pred", "pi0_airy_pred",
                           "precision_bits_used"]
        assert len(rows) == 9
        assert all(float(r[3]) < 0 for r in rows[1:])
        # one certified pass at 256 + guard_bits(3, 9, "ladder") bits,
        # 256 + ceil(12 log2 e + 3 log2 10) + 8
        assert {r[-1] for r in rows[1:]} == {"292"}

    def test_scan_prints_no_digit_below_the_bound(self, workdir):
        # past q = 2t, log kappa_q^2 and pi_q(0) fall below the ladder's
        # proven absolute bound: they print as 0 there, never as a positive
        # log kappa_q^2, and elsewhere end at a digit whose unit is at least
        # the bound
        code, text = run_cli(["toeplitz-scan", "--t", "1", "--qmax", "60"],
                             workdir, "scan_t1.json")
        assert code == 0
        doc = json.loads(text)
        bound = mpf(doc["abs_error_bound"])
        assert 0 < bound <= mpf(2) ** -256
        rows = doc["rows"]
        assert [r["q"] for r in rows] == list(range(1, 61))
        assert all(mpf(r["log_kappa_sq"]) <= 0 for r in rows)
        assert rows[-1]["log_kappa_sq"] == "0"
        for r in rows:
            for key in ("log_kappa_sq", "pi0"):
                if r[key] != "0":
                    last_digit = Decimal(r[key]).as_tuple().exponent
                    assert mpf(10) ** last_digit >= bound

    def test_scan_no_pi_empties_only_the_pi0_column(self, workdir):
        args = ["toeplitz-scan", "--t", "3", "--qmax", "8", "--format", "csv"]
        code, text = run_cli(args, workdir, "scan_pi.csv")
        assert code == 0
        code, text_no_pi = run_cli(args + ["--no-pi"], workdir, "scan_no_pi.csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(text)))
        rows_no_pi = list(csv.reader(io.StringIO(text_no_pi)))
        col = rows[0].index("pi0")
        assert rows_no_pi[0] == rows[0]
        assert all(r[col] for r in rows[1:])
        assert all(r[col] == "" for r in rows_no_pi[1:])
        assert ([r[:col] + r[col + 1:] for r in rows_no_pi]
                == [r[:col] + r[col + 1:] for r in rows])

    def test_scan_qmax_zero_prints_only_the_header(self, workdir):
        code, text = run_cli(["toeplitz-scan", "--t", "3", "--qmax", "0",
                              "--format", "csv"], workdir, "scan_q0.csv")
        assert code == 0
        assert text.splitlines() == ["t,q,gamma,log_kappa_sq,pi0,"
                                     "log_kappa_sq_airy_pred,pi0_airy_pred,"
                                     "precision_bits_used"]

    @pytest.mark.parametrize("qs", [["--qmin", "5", "--qmax", "3"], ["--qmax", "-1"]])
    def test_scan_reversed_q_range_exit_two(self, qs, workdir, monkeypatch, capsys):
        # table --xmin 1 --xmax 0 exits 2, and so does a reversed q range
        def no_ladder(*args):
            raise AssertionError("ran a ladder before the q range was checked")

        monkeypatch.setattr(toeplitz_lab, "get_ladder", no_ladder)
        code, _ = run_cli(["toeplitz-scan", "--t", "5"] + qs, workdir, "scan_qs.json")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "--qmin" in err

    def test_limits_sum_parts(self, workdir):
        code, text = run_cli(["toeplitz-limits", "--t", "10", "--x", "-1",
                              "--L", "3", "--M", "3"] + FAST,
                             workdir, "limits.json")
        assert code == 0
        doc = json.loads(text)
        assert doc["mode"] == "sum_parts"
        assert set(doc["parts"]) == {"exact", "airy", "painleve"}
        total = float(doc["total"])
        direct = float(doc["total_direct"])
        assert abs(total - direct) < 1e-15

    def test_limits_e_side(self, workdir):
        code, text = run_cli(["toeplitz-limits", "--t", "10", "--x", "-1",
                              "--L", "2", "--M", "3", "--e-side"] + FAST,
                             workdir, "elimits.json")
        assert code == 0
        doc = json.loads(text)
        assert doc["mode"] == "e_side"
        assert abs(float(doc["identity_gap"])) < 1e-15
        assert float(doc["fe_reference"]) > 0

    @pytest.mark.parametrize("extra, keys", [
        ([], ["n", "parts", "total", "total_direct", "f2_reference"]),
        (["--e-side"], ["ell", "fe_reference", "d_pp_value", "d_mp_value",
                        "parts", "total_two_log_e", "identity_gap",
                        "two_log_e_reference"]),
    ])
    def test_limits_documents_pinned(self, extra, keys, workdir):
        code, text = run_cli(["toeplitz-limits", "--t", "10", "--x", "-1",
                              "--L", "3", "--M", "3"] + extra + FAST,
                             workdir, "limits_keys.json")
        assert code == 0
        doc = json.loads(text)
        assert list(doc) == ["schema_version", "command", "mode",
                             "t", "x", "L", "M"] + keys
        assert list(doc["parts"]) == ["exact", "airy", "painleve"]
        assert all(list(part) == ["value", "limit"]
                   for part in doc["parts"].values())

    @pytest.mark.parametrize("args", [
        ["toeplitz-scan", "--t", "inf"] + PRECISION,
        ["toeplitz-scan", "--t=-inf"] + PRECISION,
        ["toeplitz-scan", "--t", "inf", "--qmax", "3"] + PRECISION,
        ["toeplitz-scan", "--t", "nan"] + PRECISION,
        ["toeplitz-limits", "--t", "inf", "--x", "-1", "--L", "3", "--M", "3"] + FAST,
        # the index rule read t^(1/3) of these: a ZeroDivisionError at 0, an
        # mpc below it
        ["toeplitz-limits", "--t", "0", "--x", "-1", "--L", "3", "--M", "3"] + FAST,
        ["toeplitz-limits", "--t=-5", "--x", "-1", "--L", "3", "--M", "3"] + FAST,
    ])
    def test_non_finite_t_exit_two(self, args, workdir, monkeypatch, capsys):
        def no_solve(*args):
            raise AssertionError("solved before --t was checked")

        monkeypatch.setattr(cli, "_solution", no_solve)
        code, _ = run_cli(args, workdir, "bad_t.json")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--t" in err and err.count("\n") == 1

    def test_limits_csv_refused_before_any_work(self, workdir, monkeypatch,
                                                capsys):
        def no_solve(*args):
            raise AssertionError("solved before the format was checked")

        monkeypatch.setattr(cli, "_solution", no_solve)
        code, _ = run_cli(["toeplitz-limits", "--t", "80", "--x", "-1",
                           "--L", "3", "--M", "3", "--format", "csv"],
                          workdir, "limits.csv")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: command toeplitz-limits has no CSV form\n")

    def test_scan_at_t_zero_exit_two(self, workdir, capsys):
        code, _ = run_cli(["toeplitz-scan", "--t", "0"], workdir, "scan_t0.json")
        assert code == 2
        assert "t must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        ["--M", "-3"], ["--M", "-3", "--e-side"], ["--M", "0"]])
    def test_limits_m_out_of_domain_exit_two(self, extra, workdir, capsys):
        # the F side's Airy-part limit reads A_R(-M), defined for M > 0, the
        # E side's A_q(-M), for M >= 0: no traceback, no "+inf" limit
        code, _ = run_cli(["toeplitz-limits", "--t", "10", "--x", "5",
                           "--L", "3"] + extra + FAST, workdir, "limits_m.json")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "M" in err

    def test_limits_e_side_at_m_zero(self, workdir):
        code, text = run_cli(["toeplitz-limits", "--t", "10", "--x", "5",
                              "--L", "3", "--M", "0", "--e-side"] + FAST,
                             workdir, "limits_m0.json")
        assert code == 0
        doc = json.loads(text)
        assert doc["M"] == 0
        assert all(mp.isfinite(mpf(v)) for part in doc["parts"].values()
                   for v in part.values())

    def test_limits_bad_split_exit_two(self, workdir):
        code, _ = run_cli(["toeplitz-limits", "--t", "10", "--x", "-1",
                           "--L", "30", "--M", "3"] + FAST,
                          workdir, "badlimits.json")
        assert code == 2


class TestVerify:
    def test_verify_passes_and_reports(self, workdir):
        code, text = run_cli(["verify"] + FAST, workdir, "verify.json")
        assert code == 0
        doc = json.loads(text)
        assert doc["status"] == "pass"
        assert all(r["status"] == "pass" for r in doc["rows"])
        names = " ".join(r["item"] for r in doc["rows"])
        for needle in ("tau", "left/right", "total integral", "Verblunsky",
                       "telescoping"):
            assert needle in names
        tau = next(r for r in doc["rows"] if r["item"] == "tau1*tau4 == tau2/2")
        # each bound is printed as twlab.checks writes it
        assert tau["tolerance"] == "1e-30"
        total = next(r for r in doc["rows"] if r["item"].startswith("total integral"))
        assert total["tolerance"] == "1e-18"

    @pytest.mark.parametrize("command", [
        ["verify"],
        ["toeplitz-limits", "--t", "10", "--x", "-2", "--L", "3", "--M", "3"],
    ])
    def test_tolerance_reaches_the_left_series(self, command, workdir, capsys):
        # no command rewrites --tolerance: the left series of the default
        # window (error estimate 4.8e-20) cannot meet 1e-20
        code, _ = run_cli(command + FAST + ["--tolerance", "1e-20"], workdir,
                          "tight.json")
        assert code == 1
        assert "left tail series" in capsys.readouterr().err

    def test_under_resolved_oracle_exits_one(self, workdir, capsys):
        code, _ = run_cli(["oracle-compare", "--xmin", "-12", "--xmax", "-11",
                           "--m-quad", "40"] + FAST, workdir, "coarse.json")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("precision failure:") and "m=40" in err
        assert "Traceback" not in err

    def test_failing_result_exits_one(self, workdir, monkeypatch):
        def failing(sol, consts, ctx):
            return [checks.Result("always fails", mpf(2), "1", False)]
        monkeypatch.setattr(checks, "CHECKS", [failing])
        code, text = run_cli(["verify"] + FAST, workdir, "verify_fail.json")
        assert code == 1
        doc = json.loads(text)
        assert doc["status"] == "fail"
        assert [(r["item"], r["status"]) for r in doc["rows"]] == [
            ("always fails", "fail")]


class TestGolden:
    # each pinned command output byte for byte against its file under
    # tests/golden/; `PYTHONPATH=src python3 tests/golden_outputs.py`
    # rewrites them, and their diff is the review of a change
    @pytest.mark.parametrize("name", list(golden_outputs.DOCUMENTS))
    def test_output_matches_golden(self, name, workdir):
        got = golden_outputs.render(name, workdir).encode()
        want = (golden_outputs.GOLDEN / f"{name}.json").read_bytes()
        if got != want:
            where = golden_outputs.first_difference(json.loads(got), json.loads(want))
            pytest.fail(f"{name} differs from tests/golden/{name}.json at "
                        f"{where or 'a byte the parsed documents share'}")
