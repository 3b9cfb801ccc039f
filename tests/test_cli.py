"""Command-line front end: dispatch, output formats, determinism, caching,
and exit codes."""

import csv
import io
import json
import os
import subprocess
import sys

import pytest

import twlab
from twlab import cli, painleve2
from twlab.precision import PrecisionContext


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


def run_cli(args, workdir, name):
    out = os.path.join(workdir, name)
    code = cli.main(args + ["--cache-dir", os.path.join(workdir, "cache"),
                            "--output", out])
    text = open(out).read() if os.path.exists(out) else ""
    return code, text


# fast solver settings shared by commands that need the BVP solution
FAST = ["--nodes", "500", "--precision-bits", "192"]


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

    def test_determinism(self, workdir):
        _, a = run_cli(["eval", "--x", "-1.5"] + FAST, workdir, "d1.json")
        _, b = run_cli(["eval", "--x", "-1.5"] + FAST, workdir, "d2.json")
        assert a == b


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
        with open(path, "w") as fh:
            fh.write(content)
        out = str(tmp_path / "out.json")
        code = cli.main(["eval", "--x", "0"] + FAST
                        + ["--cache-dir", cache, "--output", out])
        assert code == 0
        with open(path) as fh:
            text = fh.read()
        assert text != content
        painleve2.HMSolution.from_json(text)
        assert os.listdir(cache) == [os.path.basename(path)]

    def test_truncated_file_is_resolved(self, tmp_path):
        self._rerun_over(tmp_path, '{"schema_version": 2, "kind": "hast')

    def test_old_schema_file_is_resolved(self, tmp_path):
        self._rerun_over(tmp_path, json.dumps({"schema_version": 1,
                                               "grid": [], "q": []}))

    def test_file_that_is_not_an_object_is_resolved(self, tmp_path):
        self._rerun_over(tmp_path, "[2, 1]")

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


class TestImport:
    def test_cli_import_leaves_numpy_out(self):
        # numpy serves only the float64 warm start of the solver
        src = os.path.dirname(os.path.dirname(twlab.__file__))
        code = ("import sys, twlab.cli; "
                "sys.exit('numpy' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestExitCodes:
    def test_invalid_arguments_exit_two(self, workdir):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval"])   # missing --x
        assert exc.value.code == 2

    def test_domain_error_exit_two(self, workdir):
        code, _ = run_cli(["table", "--xmin", "0", "--xmax", "1",
                           "--step", "-1"] + FAST, workdir, "bad.json")
        assert code == 2

    def test_non_finite_x_exit_two(self, workdir):
        code, _ = run_cli(["eval", "--x", "nan"] + FAST, workdir, "nan.json")
        assert code == 2
        code, _ = run_cli(["table", "--xmin", "-3", "--xmax", "nan"] + FAST,
                          workdir, "nan_table.json")
        assert code == 2

    def test_unknown_command_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_malformed_precision_env_exit_two(self, monkeypatch):
        monkeypatch.setenv(cli.ENV_PRECISION, "abc")
        with pytest.raises(SystemExit) as exc:
            cli.main(["constants"])
        assert exc.value.code == 2


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


class TestToeplitzCommands:
    def test_scan_csv(self, workdir):
        code, text = run_cli(["toeplitz-scan", "--t", "3", "--qmax", "8",
                              "--format", "csv"], workdir, "scan.csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["t", "q", "gamma", "log_kappa_sq", "pi0",
                           "log_kappa_sq_airy_pred", "pi0_airy_pred",
                           "precision_bits_used"]
        assert len(rows) == 9
        assert all(float(r[3]) < 0 for r in rows[1:])

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
        ["toeplitz-scan", "--t", "inf"],
        ["toeplitz-scan", "--t=-inf"],
        ["toeplitz-scan", "--t", "inf", "--qmax", "3"],
        ["toeplitz-scan", "--t", "nan"],
        ["toeplitz-limits", "--t", "inf", "--x", "-1", "--L", "3", "--M", "3"],
    ])
    def test_non_finite_t_exit_two(self, args, workdir, capsys):
        code, _ = run_cli(args + FAST, workdir, "bad_t.json")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--t" in err

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
