"""Command-line front end: dispatch, output formats, determinism, caching,
and exit codes."""

import csv
import io
import json
import os

import pytest

from twlab import cli, painleve2


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
        config = cli.RunConfig("eval", x=0.0, nodes=500, precision_bits=192,
                               cache_dir=cache)
        path = cli._cache_path(config, cli._context(config))
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
            painleve2.HMSolution.from_json(fh.read())
        assert os.listdir(cache) == [os.path.basename(path)]

    def test_truncated_file_is_resolved(self, tmp_path):
        self._rerun_over(tmp_path, '{"schema_version": 2, "kind": "hast')

    def test_old_schema_file_is_resolved(self, tmp_path):
        self._rerun_over(tmp_path, json.dumps({"schema_version": 1,
                                               "grid": [], "q": []}))


class TestExitCodes:
    def test_invalid_arguments_exit_two(self, workdir):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval"])   # missing --x
        assert exc.value.code == 2

    def test_domain_error_exit_two(self, workdir):
        code, _ = run_cli(["table", "--xmin", "0", "--xmax", "1",
                           "--step", "-1"] + FAST, workdir, "bad.json")
        assert code == 2

    def test_unknown_command_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
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
