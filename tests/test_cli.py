"""End-to-end checks for the command-line front end.

Runs ``main`` in-process and captures stdout/stderr, so these are fast and
don't depend on the console script being installed.
"""

import io
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import genfit
from genfit.cli import EXIT_DATA, EXIT_FIT, EXIT_USAGE, main
from genfit.datasets import load_dataset
from genfit.gof import full_report


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

    @pytest.mark.parametrize("where", ["directory", "empty"])
    def test_unreadable_data_path(self, capsys, tmp_path, monkeypatch, where):
        # a directory, and "", which names the working directory, are data
        # errors: one message line, no traceback
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            capsys, "fit", "--family", "mog", "--base", "exp",
            "--data", str(tmp_path) if where == "directory" else "",
        )
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith("genfit: ") and err.count("\n") == 1

    def test_constant_sample_with_location(self, capsys, tmp_path):
        # no spread for the location to sit below, and with the location off
        # no maximum of S: a data error either way, not a fit failure
        p = tmp_path / "d.txt"
        p.write_text("2\n2\n2\n")
        for flags in ([], ["--no-location"]):
            code, out, err = run_cli(capsys, "fit", "--family", "mog", "--base", "exp", *flags, "--data", str(p))
            assert code == EXIT_DATA
            assert out == ""
            assert err == "genfit: data must not all be equal (every one is 2.0)\n"

    def test_moment_start_on_the_first_point_falls_back(self, capsys, tmp_path):
        # sd/n = 4.9 is below half the spacing 16 of the doubles at 1e17, so
        # the moment start's mu0 rounds onto x_(1); the fallback x_(1) - sd fits
        p = tmp_path / "d.txt"
        p.write_text("1e17\n1.00000000000000016e17\n1.00000000000000032e17\n1.00000000000000048e17\n")
        code, out, err = run_cli(
            capsys, "fit", "--family", "mog", "--base", "exp", "--data", str(p), "--seed", "0", "--output", "json"
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["mps"][-1] < 1e17
        assert doc["convergence"]["status"] == "Algorithm Converged"

    def test_infeasible_at_every_start_is_a_fit_failure(self, capsys):
        code, out, err = run_cli(capsys, "fit", "--family", "gammag2", "--base", "f", "--data", "pollution")
        assert code == EXIT_FIT
        assert out == ""
        assert err == ("genfit: fit failed: infeasible starting point for gammag2 x f; "
                       "the spacing objective is -inf at every start tried (4)\n")

    def test_bad_data_file(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1.0\n2.0 oops\n")
        code, _, err = run_cli(
            capsys, "fit", "--family", "expg", "--base", "exp", "--data", str(p),
        )
        assert code == EXIT_DATA

    def test_partly_numeric_first_line(self, capsys, tmp_path):
        # not a header: the fit does not run on the points after it
        p = tmp_path / "bad.txt"
        p.write_text("1.0 2.0 oops\n3.0 4.0 5.0\n")
        code, _, err = run_cli(
            capsys, "fit", "--family", "expg", "--base", "exp", "--data", str(p),
        )
        assert code == EXIT_DATA
        assert "'oops' on line 1" in err

    def test_nonpositive_data_without_location(self, capsys, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1 -2 3 4\n")
        code, _, err = run_cli(
            capsys, "fit", "--family", "expg", "--base", "exp", "--no-location", "--data", str(p),
        )
        assert code == EXIT_DATA
        assert "support origin" in err

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

    @pytest.mark.parametrize("sizes", [["--reps", "0"], ["--reps=-1"], ["--n-grid", "0"], ["--n-grid", "1,10"]])
    def test_selftest_rejects_bad_sizes(self, capsys, sizes):
        code, out, err = run_cli(capsys, "selftest", "--family", "kumg", "--base", "weibull", *sizes)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("genfit: selftest")

    def test_selftest_that_cannot_draw_exits_2(self, capsys, monkeypatch):
        # every draw non-finite: one message line, no traceback
        module = sys.modules["genfit.selftest"]  # genfit.selftest is the function
        monkeypatch.setattr(module, "family_sample", lambda family, base, n, *a, **kw: np.full(n, np.nan))
        code, out, err = run_cli(capsys, "selftest", *KUMG, "--n-grid", "10", "--reps", "1")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "genfit: could not draw a feasible parameter vector for kumg x weibull\n"


KUMG = ["--family", "kumg", "--base", "weibull"]
FIT_KEYS = [
    "mps", "aic", "caic", "bic", "hqic", "cm", "ad", "log", "moran", "ks_statistic",
    "ks_p_value", "chi_statistic", "chi_critical", "chi_p_value", "convergence", "edf_clamped",
]

# verb -> (argv, CSV columns, CSV rows, text lines, rows counted in the JSON)
VERB_FORMATS = {
    "pdf": (
        ["pdf", *KUMG, "--params", "1.5,0.8,1.3,2.0,0", "--x", "0.5:2:0.5"],
        ["input", "value"], 4, 4, lambda d: len(d["points"]),
    ),
    "cdf": (
        ["cdf", *KUMG, "--params", "1.5,0.8,1.3,2.0,0", "--x", "0.5:2:0.5"],
        ["input", "value"], 4, 4, lambda d: len(d["points"]),
    ),
    "quantile": (
        ["quantile", *KUMG, "--params", "1.5,0.8,1.3,2.0,0", "--p", "0.1,0.5,0.9"],
        ["input", "value"], 3, 3, lambda d: len(d["points"]),
    ),
    "sample": (
        ["sample", *KUMG, "--params", "1.5,0.8,1.3,2.0,0", "--n", "4", "--seed", "1"],
        ["sample"], 4, 4, lambda d: len(d["samples"]),
    ),
    # text: the R session's 17-line report; JSON: the report's keys
    "fit": (
        ["fit", "--family", "mog", "--base", "exp", "--no-location", "--data", "pollution",
         "--seed", "0"],
        ["key", "value"], len(FIT_KEYS), 17,
        lambda d: 1 + len(d["measures"]) + len(d["ks"]) + len(d["chi_square"]) + 2,
    ),
    # text: a header line, then one line per sample size
    "selftest": (
        ["selftest", *KUMG, "--n-grid", "10,20", "--reps", "5", "--seed", "3"],
        ["n", "min", "q1", "median", "q3", "max", "frac_above_0.05", "redraws"], 2, 3,
        lambda d: len(d["rows"]),
    ),
    # text: two headers and one line per family and base, datasets on one line
    "list": (
        ["list"], ["kind", "name"], 24 + 15 + 3, 24 + 15 + 3,
        lambda d: len(d["families"]) + len(d["bases"]) + len(d["datasets"]),
    ),
}


class TestVerbFormats:
    @pytest.mark.parametrize("output", ["text", "json", "csv"])
    @pytest.mark.parametrize("verb", list(VERB_FORMATS))
    def test_every_verb_honours_output(self, capsys, verb, output):
        argv, columns, n_rows, n_text, json_rows = VERB_FORMATS[verb]
        code, out, err = run_cli(capsys, *argv, "--output", output)
        assert code == 0, err
        lines = out.splitlines()
        if output == "json":
            doc = json.loads(out)
            assert doc["schema_version"] == 1
            assert json_rows(doc) == n_rows
        elif output == "csv":
            assert lines[0].split(",") == columns
            assert len(lines) == 1 + n_rows
            assert all(len(line.split(",")) == len(columns) for line in lines)
            if verb == "fit":
                assert [line.split(",")[0] for line in lines[1:]] == FIT_KEYS
        else:
            assert len(lines) == n_text

    def test_list_csv_rows(self, capsys):
        _, out, _ = run_cli(capsys, "list", "--output", "csv")
        lines = out.splitlines()
        assert lines[1] == "family,betaexpg"
        assert lines[-1] == "dataset,pollution"

    def test_cdf_csv_equals_json(self, capsys):
        argv = VERB_FORMATS["cdf"][0]
        _, csv_out, _ = run_cli(capsys, *argv, "--output", "csv")
        _, json_out, _ = run_cli(capsys, *argv, "--output", "json")
        csv_rows = [tuple(map(float, line.split(","))) for line in csv_out.splitlines()[1:]]
        json_rows = [(pt["input"], pt["value"]) for pt in json.loads(json_out)["points"]]
        assert csv_rows == json_rows

    @pytest.mark.parametrize("verb", [v for v in VERB_FORMATS if v != "list"])
    def test_unknown_family_every_verb(self, capsys, verb):
        argv = list(VERB_FORMATS[verb][0])
        argv[argv.index("--family") + 1] = "nope"
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert "unknown family 'nope'" in err


@pytest.mark.parametrize("tail", [[], ["--no-lower-tail"]])
def test_log_p_round_trips_between_cdf_and_quantile(capsys, tail):
    args = [*KUMG, "--params", "1.5,0.8,1.3,2.0,0", "--log-p", *tail, "--output", "json"]
    _, out, _ = run_cli(capsys, "cdf", *args, "--x", "1.1")
    log_p = json.loads(out)["points"][0]["value"]
    assert log_p < 0
    code, out, err = run_cli(capsys, "quantile", *args, f"--p={log_p!r}")
    assert code == 0, err
    assert json.loads(out)["points"][0]["value"] == pytest.approx(1.1, rel=1e-10)


@pytest.mark.parametrize("tail,want", [([], -math.log(-math.expm1(-1e-12))), (["--no-lower-tail"], 1e-12)])
def test_log_p_quantile_near_zero(capsys, tail, want):
    # expg x exp at (1, 1) is the unit exponential; at ln p = -1e-12 neither
    # tail may form 1 - e^(ln p) by subtraction
    code, out, err = run_cli(capsys, "quantile", "--family", "expg", "--base", "exp", "--params", "1,1",
                             "--no-location", "--p=-1e-12", "--log-p", *tail, "--output", "json")
    assert code == 0, err
    assert json.loads(out)["points"][0]["value"] == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("argv", [
    ["fit", "--family", "mog", "--base", "exp", "--data", "pollution", "--sig-level", "1.5"],
    ["cdf", *KUMG, "--params", "1.5,0.8,1.3,2.0,0", "--x", "1:2"],
    ["cdf", *KUMG, "--params", "1.5,0.8,1.3,2.0,0", "--x", "1:2:0"],
    ["quantile", *KUMG, "--params", "1.5,0.8,1.3,2.0,0", "--p", "1.5"],
    # e^1000 overflows: no RuntimeWarning may come before the one error line
    ["quantile", *KUMG, "--params", "2,3,1.5,2,0.5", "--log-p", "--p", "1000"],
], ids=["sig-level", "grid-two-fields", "grid-zero-step", "quantile-p", "quantile-log-p-overflow"])
def test_bad_argument_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("genfit: ") and err.count("\n") == 1


@pytest.mark.parametrize("tail", [["--p", "nan,0.5"], ["--p", "nan,0.5", "--no-lower-tail"],
                                  ["--p=nan,-0.7", "--log-p"]])
def test_nan_probability_gives_nan(capsys, tail):
    argv = ["quantile", *KUMG, "--params", "2,3,1.5,2,0.5", *tail]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert out.splitlines()[0] == "NA\tNA"
    code, out, err = run_cli(capsys, *argv, "--output", "json")
    first, second = json.loads(out)["points"]
    assert math.isnan(first["value"]) and math.isfinite(second["value"])


def test_points_on_stdin(capsys, monkeypatch):
    argv = ["cdf", *KUMG, "--params", "1.5,0.8,1.3,2.0,0", "--output", "json"]
    _, want, _ = run_cli(capsys, *argv, "--x", "0.5,1,1.5,2")
    monkeypatch.setattr(sys, "stdin", io.StringIO("0.5 1\n1.5, 2\n"))
    code, got, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert got == want
    monkeypatch.setattr(sys, "stdin", io.StringIO("0.5 oops\n"))
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_DATA
    assert out == ""
    assert err.startswith("genfit: bad point on stdin")


def test_fit_report_carries_edf_clamped(capsys):
    code, out, _ = run_cli(
        capsys, "fit", "--family", "weibullg", "--base", "weibull", "--data", "bearing",
        "--seed", "0", "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    report = full_report(load_dataset("bearing"), "weibullg", "weibull", doc["mps"])
    assert doc["edf_clamped"] is report.edf_clamped


def test_evaluation_never_loads_the_optimizer():
    script = textwrap.dedent(
        """
        import runpy, sys
        sys.argv = ["genfit", "quantile", "--family", "kumg", "--base", "weibull",
                    "--params", "1.5,0.8,1.3,2.0,0", "--p", "0.5", "--output", "json"]
        try:
            runpy.run_module("genfit.cli", run_name="__main__")
        except SystemExit as exc:
            assert exc.code == 0, exc.code
        cli_loaded = "scipy.optimize" in sys.modules
        import genfit
        genfit.family_cdf("kumg", "weibull", 1.1, (1.5, 0.8, 1.3, 2.0, 0.0))
        eval_loaded = "scipy.optimize" in sys.modules
        ctx = genfit.SpacingContext(genfit.load_dataset("bearing"), "weibullg", "weibull")
        res = genfit.fit(ctx, genfit.OptimizerConfig(seed=0))
        nelder_mead_loaded = "scipy.optimize" in sys.modules
        genfit.fit(ctx, genfit.OptimizerConfig(method="BFGS", seed=0, restarts=0))
        print(cli_loaded, eval_loaded, nelder_mead_loaded, "scipy.optimize" in sys.modules,
              res.convergence.converged)
        """
    )
    src = str(Path(genfit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    # Nelder-Mead is genfit's own; only BFGS and CG load scipy.optimize
    assert proc.stdout.splitlines()[-1] == "False False False True True"
