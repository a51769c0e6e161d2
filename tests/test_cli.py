"""End-to-end checks for the command-line front end.

Runs ``main`` in-process and captures stdout/stderr, so these are fast and
don't depend on the console script being installed.
"""

import json
import math

import numpy as np
import pytest

from genfit.cli import EXIT_DATA, EXIT_USAGE, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvaluate:
    def test_pdf_identity_model(self, capsys):
        # expg(a=1) over a unit-rate exponential: pdf(1) = e^-1
        code, out, _ = run_cli(
            capsys, "pdf", "--family", "expg", "--base", "exp",
            "--params", "1,1,0", "--x", "1",
        )
        assert code == 0
        x, val = out.split()
        assert float(val) == pytest.approx(math.exp(-1.0), abs=1e-7)

    def test_cdf_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "cdf", "--family", "expg", "--base", "exp",
            "--params", "1,1,0", "--x", "1:3:1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert float(lines[0].split()[1]) == pytest.approx(-math.expm1(-1.0), abs=1e-7)

    def test_quantile_round_trips_cdf(self, capsys):
        args = ["--family", "kumg", "--base", "weibull", "--params", "1.5,0.8,1.3,2.0,0"]
        code, out, _ = run_cli(capsys, "quantile", *args, "--p", "0.3")
        x = float(out.split()[1])
        code, out, _ = run_cli(capsys, "cdf", *args, "--x", repr(x))
        assert float(out.split()[1]) == pytest.approx(0.3, abs=1e-6)

    def test_json_round_trips_text_numbers(self, capsys):
        args = [
            "cdf", "--family", "mog", "--base", "exp",
            "--params", "1.7,1.3,0", "--x", "0.5,1.5",
        ]
        _, text_out, _ = run_cli(capsys, *args)
        _, json_out, _ = run_cli(capsys, *args, "--output", "json")
        doc = json.loads(json_out)
        assert doc["schema_version"] == 1
        text_vals = [float(line.split()[1]) for line in text_out.strip().splitlines()]
        json_vals = [pt["value"] for pt in doc["points"]]
        for t, j in zip(text_vals, json_vals):
            # the text layer prints 7 significant digits of the same number
            assert t == pytest.approx(j, rel=1e-6)

    def test_unknown_family(self, capsys):
        code, _, err = run_cli(
            capsys, "pdf", "--family", "nope", "--base", "exp",
            "--params", "1,1,0", "--x", "1",
        )
        assert code == EXIT_USAGE
        assert "unknown family" in err

    def test_wrong_param_count(self, capsys):
        code, _, err = run_cli(
            capsys, "pdf", "--family", "expg", "--base", "exp",
            "--params", "1,1", "--x", "1",
        )
        assert code == EXIT_USAGE
        # the library's count check is the only one; every verb exits 2
        for verb, points in (("cdf", ("--x", "1")), ("quantile", ("--p", "0.5")), ("sample", ("--n", "3"))):
            code, _, err = run_cli(
                capsys, verb, "--family", "expg", "--base", "exp", "--params", "1,1", *points,
            )
            assert code == EXIT_USAGE


class TestSample:
    def test_seed_reproducible(self, capsys):
        args = [
            "sample", "--family", "expg", "--base", "exp",
            "--params", "1,1,0", "--n", "5", "--seed", "7",
        ]
        _, a, _ = run_cli(capsys, *args)
        _, b, _ = run_cli(capsys, *args)
        assert a == b
        assert len(a.strip().splitlines()) == 5

    def test_env_seed(self, capsys, monkeypatch):
        args = [
            "sample", "--family", "expg", "--base", "exp",
            "--params", "1,1,0", "--n", "5", "--output", "json",
        ]
        monkeypatch.setenv("GENFIT_SEED", "123")
        _, a, _ = run_cli(capsys, *args)
        _, b, _ = run_cli(capsys, *args)
        assert json.loads(a) == json.loads(b)
        # an explicit --seed overrides the environment
        _, c, _ = run_cli(capsys, *args, "--seed", "99")
        assert json.loads(a) != json.loads(c)


class TestFit:
    def test_bearing_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit", "--family", "weibullg", "--base", "weibull",
            "--data", "bearing", "--seed", "0", "--output", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert len(doc["mps"]) == 5
        assert doc["measures"]["moran"] == pytest.approx(31.37394, abs=0.05)
        assert doc["measures"]["aic"] == pytest.approx(116.7875, abs=0.05)
        assert doc["chi_square"]["critical"] == pytest.approx(18.30704, abs=1e-4)
        assert doc["convergence"]["status"] == "Algorithm Converged"

    def test_text_layout(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit", "--family", "mog", "--base", "exp", "--no-location",
            "--data", "pollution", "--seed", "0",
        )
        assert code == 0
        for section in ("$MPS", "$Measures", "$KS", "$`chi-square`", "$`Convergence Status`"):
            assert section in out

    def test_csv_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit", "--family", "mog", "--base", "exp", "--no-location",
            "--data", "pollution", "--seed", "0", "--output", "csv",
        )
        assert code == 0
        assert out.startswith("key,value")
        rows = dict(
            line.split(",", 1) for line in out.strip().splitlines()[1:]
        )
        assert float(rows["aic"]) == pytest.approx(398.5125, abs=0.01)

    def test_data_file(self, capsys, tmp_path):
        p = tmp_path / "d.txt"
        rng = np.random.default_rng(0)
        p.write_text("\n".join(str(v) for v in rng.exponential(size=30)))
        code, out, _ = run_cli(
            capsys, "fit", "--family", "expg", "--base", "exp", "--no-location",
            "--data", str(p), "--seed", "0", "--output", "json",
        )
        assert code == 0

    def test_missing_data_file(self, capsys):
        code, _, err = run_cli(
            capsys, "fit", "--family", "expg", "--base", "exp",
            "--data", "/no/such/file.txt",
        )
        assert code == EXIT_DATA

    def test_bad_data_file(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1.0\n2.0 oops\n")
        code, _, err = run_cli(
            capsys, "fit", "--family", "expg", "--base", "exp", "--data", str(p),
        )
        assert code == EXIT_DATA

    def test_bad_method(self, capsys):
        code, _, err = run_cli(
            capsys, "fit", "--family", "expg", "--base", "exp",
            "--data", "bearing", "--method", "genetic",
        )
        assert code == EXIT_USAGE

    def test_legacy_method_spelling(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit", "--family", "mog", "--base", "exp", "--no-location",
            "--data", "pollution", "--method", "Nedler-Mead", "--seed", "0",
            "--output", "json",
        )
        assert code == 0


class TestListAndSelftest:
    def test_list_json(self, capsys):
        code, out, _ = run_cli(capsys, "list", "--output", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["families"]) == 24
        assert len(doc["bases"]) == 15
        assert doc["datasets"] == ["bearing", "earthquake", "pollution"]

    def test_selftest_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "selftest", "--family", "kumg", "--base", "weibull",
            "--n-grid", "10", "--reps", "5", "--seed", "3", "--output", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][0]["n"] == 10
