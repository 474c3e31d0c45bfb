"""Command-line surface: exit codes, determinism, config handling."""

import contextlib
import csv
import io
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glspace import ClosedFormModel, DomainError, MomentInstabilityWarning, SuiteResult, psi_from_spec, run_suite
from glspace.cli import main
from glspace.suites import TAILS_HEADER

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    return [dict(zip(header, row)) for row in rows[1:]]


def test_norm_full_gaussian(capsys):
    code, out, err = run_cli(
        capsys, "norm", "--model", "gaussian", "--psi", "power_slowvary(r=2, delta=0)"
    )
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0].startswith("kind,model,psi,domain,p_max,value")
    assert len(lines) == 2
    assert lines[1].startswith("full,gaussian,")


def test_gaussian_norm_up_to_the_largest_p_is_the_default_window_value(capsys):
    # the Gaussian has every moment: no "divergent moment" out to p = 1e308
    rows = {}
    for p_max in ("200", "1e308"):
        argv = ("norm", "--model", "gaussian", "--psi", "power_slowvary(r=2, delta=0.5)", "--p-max", p_max)
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        (rows[p_max],) = parse_rows(out)
    assert rows["1e308"]["value"] == rows["200"]["value"] != "inf"
    assert "divergent" not in rows["1e308"]["note"]


def test_norm_discrete_constant(capsys):
    code, out, _ = run_cli(
        capsys,
        "norm",
        "--model", "constant:5",
        "--psi", "power_slowvary(r=2, delta=0)",
        "--grid", "integers:M=10",
    )
    assert code == 0
    fields = parse_rows(out)[0]
    assert fields["kind"] == "discrete"
    assert float(fields["value"]) == 5.0
    assert fields["arg_p"] == "1" and fields["arg_index"] == "1"


@pytest.mark.parametrize("model", ["rademacher", "uniform01", "sample"])
def test_every_row_under_the_models_own_natural_psi_notes_a_constant_ratio(capsys, tmp_path, model):
    if model == "sample":
        np.savetxt(tmp_path / "s.txt", np.random.default_rng(3).standard_normal(40))
        model = f"empirical:{tmp_path / 's.txt'}"
    for domains in ((), ("--set", "intervals:1-3,9-inf", "--grid", "integers:M=10")):
        code, out, err = run_cli(capsys, "norm", "--model", model, "--psi", f"natural:{model}", *domains)
        assert (code, err) == (0, "")
        rows = parse_rows(out)
        assert [r["kind"] for r in rows] == (["restricted", "discrete"] if domains else ["full"])
        for row in rows:
            assert row["note"] == "ratio constant under the model's own natural psi"


ZERO_NOTE = "f = 0 almost surely (|f|_1 = 0); norm is exactly 0"


@pytest.mark.parametrize("model", ["constant:0", "zeros-40", "zeros-300"])
def test_a_zero_model_notes_an_exact_zero(capsys, tmp_path, model):
    # |f|_1 = 0: the norm is exactly 0 on every domain, and no row may say
    # the supremum could exceed it.  300 zeros take the pruned scan
    if model.startswith("zeros"):
        np.savetxt(tmp_path / "z.txt", np.zeros(int(model.split("-")[1])))
        model = f"empirical:{tmp_path / 'z.txt'}"
    psi = "power_slowvary(r=2, delta=0)"
    for domains in ((), ("--set", "intervals:1-3,9-inf"), ("--grid", "integers:M=5"),
                    ("--set", "intervals:1-3,9-inf", "--grid", "integers:M=5")):
        code, out, err = run_cli(capsys, "norm", "--model", model, "--psi", psi, *domains)
        assert (code, err) == (0, "")
        for row in parse_rows(out):
            assert (row["value"], row["arg_p"], row["note"]) == ("0", "1", ZERO_NOTE)
            assert row["arg_index"] == ("1" if row["kind"] == "discrete" else "")


def test_norm_restricted_set(capsys):
    code, out, _ = run_cli(
        capsys,
        "norm",
        "--model", "uniform01",
        "--psi", "power_slowvary(r=2, delta=0)",
        "--set", "intervals:1-2,3-inf",
    )
    assert code == 0
    assert out.strip().splitlines()[1].startswith("restricted,uniform01,")


def test_missing_empirical_file_exits_2(capsys):
    code, out, err = run_cli(
        capsys,
        "norm",
        "--model", "empirical:missing.txt",
        "--psi", "power_slowvary(r=2, delta=0)",
    )
    assert code == 2
    assert err != "" and out == ""


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_empirical_sample_exits_2(capsys, tmp_path, bad):
    sample_file = tmp_path / "sample.txt"
    sample_file.write_text(f"1.0\n2.5\n{bad}\n3.0\n")
    code, out, err = run_cli(
        capsys,
        "norm",
        "--model", f"empirical:{sample_file}",
        "--psi", "power_slowvary(r=2, delta=0)",
    )
    assert code == 2 and out == ""
    assert f"value {bad} at index 2" in err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_group_function_exits_2(capsys, tmp_path, bad):
    f = tmp_path / "f.txt"
    g = tmp_path / "g.txt"
    f.write_text(f"1.0\n{bad}\n0.5\n2.0\n")
    g.write_text("1.0\n0.0\n0.0\n0.0\n")
    code, out, err = run_cli(capsys, "convolve", "--group", "cyclic:4", str(f), str(g))
    assert code == 2 and out == ""
    assert f"value {bad} at index 1" in err


@pytest.mark.parametrize("spec, named", [("inf", "inf"), ("-inf", "-inf"), ("1e309", "inf"), ("nan", "nan")])
def test_non_finite_constant_model_exits_2_naming_it(capsys, spec, named):
    code, out, err = run_cli(capsys, "norm", "--model", f"constant:{spec}", "--psi", "power_slowvary(r=2, delta=0)")
    assert code == 2 and out == ""
    assert f"constant model: value {named} is not finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("spec", ["intervals:1-2,inf-inf", "intervals:1-2,1e309-inf"])
def test_a_set_segment_that_starts_at_infinity_exits_2_naming_it(capsys, spec):
    code, out, err = run_cli(capsys, "norm", "--model", "gaussian", "--psi", "power_slowvary(r=2)", "--set", spec)
    assert (code, out, err) == (2, "", "gls: segment [inf, inf] must start at a finite p\n")
    code, out, _ = run_cli(capsys, "norm", "--model", "gaussian", "--psi", "power_slowvary(r=2)", "--set", "intervals:1-inf")
    assert code == 0 and parse_rows(out)[0]["domain"] == "intervals:1-inf"


@pytest.mark.parametrize("model", ["constant:0", "zeros"])
def test_tail_of_a_zero_model_under_its_natural_psi_exits_2(capsys, tmp_path, model):
    # the default psi is the model's natural psi, which a zero model has
    # not, as when it is named with --psi natural:<model>
    if model == "zeros":
        path = tmp_path / "zeros.txt"
        path.write_text("0\n0\n0\n")
        model = f"empirical:{path}"
    for psi in ((), ("--psi", f"natural:{model}")):
        code, out, err = run_cli(capsys, "tail", "--model", model, *psi, "--n", "100")
        assert code == 2 and out == ""
        assert err.startswith("gls: ") and err.endswith("is zero almost surely; |f|_1 = 0\n") and err.count("\n") == 1


@pytest.mark.parametrize("n", ["0", "-5"])
def test_tail_sample_size_below_one_exits_2_naming_it(capsys, n):
    code, out, err = run_cli(capsys, "tail", "--model", "uniform01", "--n", n)
    assert code == 2 and out == ""
    assert f"got n={n}" in err
    assert "Traceback" not in err


def test_overflowing_grid_exits_2_naming_it(capsys, recwarn):
    code, out, err = run_cli(
        capsys,
        "norm",
        "--model", "gaussian",
        "--psi", "power_slowvary(r=2)",
        "--grid", "geometric:D=2:M=2000",
    )
    assert code == 2 and out == ""
    assert "grid:geometric:D=2:M=2000" in err and "overflows" in err
    assert len(recwarn) == 0


@pytest.mark.parametrize(
    "flag, spec, key", [("--grid", "geometric:D=2:D=3:M=5", "D"), ("--psi", "power_slowvary(r=abc, r=2)", "r")]
)
def test_repeated_spec_key_exits_2_naming_it(capsys, flag, spec, key):
    argv = {"--model": "gaussian", "--psi": "power_slowvary(r=2, delta=0)", flag: spec}
    code, out, err = run_cli(capsys, "norm", *[t for kv in argv.items() for t in kv])
    assert code == 2 and out == ""
    assert err == f"gls: repeated key {key!r} in {spec!r}\n"


@pytest.mark.parametrize("delta", ["1e300", "inf", "-inf", "-1e300", "nan"])
def test_delta_without_a_finite_psi_exits_2(capsys, delta):
    # the suite turns every warning into an error, as python -W error does
    code, out, err = run_cli(
        capsys, "norm", "--model", "gaussian", "--psi", f"power_slowvary(r=2,delta={delta})"
    )
    assert code == 2 and out == ""
    assert err.startswith("gls: ") and err.count("\n") == 1 and "delta" in err


@pytest.mark.filterwarnings("default::glspace.MomentInstabilityWarning")
def test_warning_prints_as_one_gls_line(capsys, tmp_path):
    sample_file = tmp_path / "sample.txt"
    np.savetxt(sample_file, np.random.default_rng(5).standard_normal(256))
    model = f"empirical:{sample_file}"
    argv = ("norm", "--model", model, "--psi", f"natural:{model}", "--grid", "geometric:D=2:M=12")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err.startswith("gls: warning: plug-in moment at p=4095 with n=256 ")
    assert err.count("\n") == 1 and ".py:" not in err
    # the report is the one printed with the warning ignored
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MomentInstabilityWarning)
        assert run_cli(capsys, *argv) == (0, out, "")


@pytest.mark.filterwarnings("default::glspace.MomentInstabilityWarning")
def test_a_norm_search_prints_one_plugin_warning(capsys, tmp_path):
    sample_file = tmp_path / "sample.txt"
    np.savetxt(sample_file, np.random.default_rng(1).standard_normal(60))
    code, _, err = run_cli(
        capsys, "norm", "--model", f"empirical:{sample_file}", "--psi", "power_slowvary(r=8, delta=0)", "--p-max", "100"
    )
    assert code == 0
    # the scan reaches p = 100; the refinement's points all lie below it
    assert err == "gls: warning: plug-in moment at p=100 with n=60 is dominated by the sample maximum\n"


def test_warning_raised_as_an_error_prints_one_gls_line_and_exits_1(capsys, tmp_path):
    # the suite's filters make the warning an error, as python -W error does
    sample_file = tmp_path / "sample.txt"
    np.savetxt(sample_file, np.random.default_rng(5).standard_normal(256))
    model = f"empirical:{sample_file}"
    code, out, err = run_cli(
        capsys, "norm", "--model", model, "--psi", f"natural:{model}", "--grid", "geometric:D=2:M=12"
    )
    assert (code, out) == (1, "")
    assert err == "gls: plug-in moment at p=4095 with n=256 is dominated by the sample maximum\n"


def test_norm_requires_a_model(capsys):
    code, _, err = run_cli(capsys, "norm", "--psi", "power_slowvary(r=2)")
    assert code == 2 and "model" in err


def test_unknown_suite_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "bogus", "--seed", "1")
    assert code == 2 and "bogus" in err


def test_verify_is_deterministic(capsys):
    args = ("verify", "--suite", "young", "--seed", "7")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0].startswith("case_id,group,p,q,r,lhs,rhs")


def test_verify_tails_small_sample(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "tails", "--seed", "2", "--n", "20000"
    )
    assert code == 0
    assert "true" in out


def test_suite_failures_are_the_rows_with_a_false_pass_flag():
    # the pass flag is the last column; an out-of-domain tail row passes
    out_of_domain = (1.0, 0.5, math.nan, math.nan, True)
    judged_ok = (3.0, 0.001, 0.002, 0.0005, True)
    judged_bad = (3.5, 0.01, 0.001, 0.0005, np.False_)
    result = SuiteResult("tails", TAILS_HEADER, (out_of_domain, judged_bad, judged_ok, judged_bad))
    assert result.n_failures == 2 and not result.ok
    clean = SuiteResult("tails", TAILS_HEADER, (out_of_domain, judged_ok))
    assert clean.n_failures == 0 and clean.ok
    assert SuiteResult("tails", TAILS_HEADER, ()).ok


def test_tail_constant_model_has_empty_tail(capsys):
    code, out, _ = run_cli(
        capsys,
        "tail",
        "--model", "constant:2",
        "--psi", "power_slowvary(r=2, delta=0)",
        "--seed", "1",
        "--n", "5000",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,empirical_survival,envelope,slack,pass"
    assert lines[-1].startswith("K_hat,")
    data = [ln.split(",") for ln in lines[1:-1]]
    in_domain = [row for row in data if row[2] != "nan"]
    assert in_domain and all(row[1] == "0" for row in in_domain)


@pytest.mark.parametrize(
    "model",
    [("--model", "constant:2", "--psi", "natural:constant:2"), ("--model", "uniform01"), ("--model", "rademacher")],
    ids=["constant-natural", "uniform01", "rademacher"],
)
def test_tail_of_a_natural_psi_below_the_first_probe_is_judged(capsys, model):
    # psi(q(M)) < x/N at every probe: the envelope is the stored terms'
    # h, with no advice to raise M that no M could follow
    code, out, err = run_cli(capsys, "tail", *model, "--n", "2000", "--seed", "1")
    assert (code, err) == (0, "")
    rows = parse_rows(out)
    assert rows[-1]["x"] == "K_hat"
    assert rows[:-1] and all(math.isfinite(float(r["envelope"])) and r["pass"] == "true" for r in rows[:-1])


def test_default_seed_comes_from_the_environment(capsys, monkeypatch):
    args = ("tail", "--model", "gaussian", "--n", "20000")
    monkeypatch.setenv("GLS_DEFAULT_SEED", "1")
    code1, out1, _ = run_cli(capsys, *args)
    monkeypatch.delenv("GLS_DEFAULT_SEED")
    code2, out2, _ = run_cli(capsys, *args, "--seed", "1")
    code3, out3, _ = run_cli(capsys, *args, "--seed", "2")
    assert code1 == code2 == code3 == 0
    assert out1 == out2
    assert out1 != out3


@pytest.mark.parametrize("argv, env_seed, seed", [
    (("tail", "--model", "gaussian", "--seed", "-1", "--n", "100"), None, -1),
    (("verify", "--suite", "sandwich", "--seed", "-3"), None, -3),
    (("tail", "--model", "gaussian", "--n", "10"), "-2", -2),
], ids=["tail", "verify", "env-tail"])
def test_a_negative_seed_exits_2_with_one_line(argv, env_seed, seed):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("GLS_DEFAULT_SEED", None)
    if env_seed is not None:
        env["GLS_DEFAULT_SEED"] = env_seed
    proc = subprocess.run([sys.executable, "-m", "glspace", *argv], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [f"gls: seed must be a nonnegative integer, got {seed}"]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, p", [
    ((), "1.6793828198893002"),
    (("--grid", "integers:M=5"), "2.0"),
], ids=["plain", "grid"])
def test_an_overflowing_ratio_exits_2_with_one_line(argv, p):
    # every moment of the constant 1e308 is finite; only num / den overflows
    argv = ("norm", "--model", "constant:1e308", "--psi", "power_slowvary(r=2, delta=-5)", *argv)
    proc = subprocess.run([sys.executable, "-m", "glspace", *argv], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [f"gls: the searched function overflows a float at p={p}"]


def test_a_grid_set_under_the_largest_p_max_exits_0(capsys):
    code, out, err = run_cli(capsys, "norm", "--model", "gaussian", "--psi", "power_slowvary(r=4)",
                             "--set", "grid:geometric:D=2:M=3", "--p-max", "1e308")
    assert (code, err) == (0, "")
    (row,) = parse_rows(out)
    assert row["value"] != "inf" and float(row["arg_p"]) <= 2.0**1023


def test_the_suites_reject_a_negative_seed():
    with pytest.raises(DomainError, match=r"^seed must be a nonnegative integer, got -1$"):
        run_suite("young", -1)


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nmodel=constant:3\npsi=power_slowvary(r=2, delta=0)\n")
    code, out, _ = run_cli(
        capsys, "norm", "--config", str(cfg), "--model", "constant:5"
    )
    assert code == 0
    fields = parse_rows(out)[0]
    assert fields["model"] == "constant:5"
    assert float(fields["value"]) == 5.0


def test_config_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("modell=3\n")
    code, _, err = run_cli(capsys, "norm", "--config", str(cfg))
    assert code == 2 and "modell" in err


def test_out_flag_mirrors_stdout(capsys, tmp_path):
    dest = tmp_path / "report.csv"
    code, out, _ = run_cli(
        capsys,
        "norm",
        "--model", "gaussian",
        "--psi", "power_slowvary(r=2, delta=0)",
        "--out", str(dest),
    )
    assert code == 0
    assert dest.read_text() == out


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_an_out_path_that_cannot_be_written_exits_2_with_one_line(capsys, tmp_path, where):
    dest = tmp_path / "missing" / "report.csv" if where == "missing-directory" else tmp_path
    code, out, err = run_cli(
        capsys,
        "norm",
        "--model", "gaussian",
        "--psi", "power_slowvary(r=2, delta=0)",
        "--out", str(dest),
    )
    # the report is printed before the file is tried
    assert code == 2 and out.startswith("kind,model,")
    assert err.startswith(f"gls: cannot write --out {dest}: ") and err.count("\n") == 1


def test_convolve_round_trip(capsys, tmp_path):
    f = tmp_path / "f.txt"
    g = tmp_path / "g.txt"
    rng = np.random.default_rng(0)
    f.write_text(" ".join(str(v / 8.0) for v in rng.integers(-8, 9, size=4)))
    g.write_text(" ".join(str(v / 8.0) for v in rng.integers(-8, 9, size=4)))
    code, out, _ = run_cli(
        capsys, "convolve", "--group", "cyclic:4", str(f), str(g)
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("element,f,g,conv")
    assert lines[-1].endswith("true")


def test_convolve_size_mismatch_exits_1(capsys, tmp_path):
    f = tmp_path / "f.txt"
    f.write_text("1 2 3")
    code, _, err = run_cli(
        capsys, "convolve", "--group", "cyclic:4", str(f), str(f)
    )
    assert code == 1 and err != ""


@pytest.mark.parametrize("spec, why", [
    ("product:cyclic:2xcyclic:0", "cyclic groups need n >= 1"),
    ("product:cyclic:2xfoo:3", "unknown group kind 'foo' in 'foo:3'"),
])
def test_convolve_on_a_bad_product_operand_exits_2_naming_it(capsys, tmp_path, spec, why):
    f = tmp_path / "f.txt"
    f.write_text("1\n2\n3\n4\n")
    code, out, err = run_cli(capsys, "convolve", "--group", spec, str(f), str(f))
    assert code == 2 and out == ""
    assert err == f"gls: cannot split product operands in {spec!r}: {why}\n"


def test_tail_of_a_model_with_norm_zero_exits_2_with_one_line(capsys):
    code, out, err = run_cli(capsys, "tail", "--model", "constant:0", "--psi", "power_slowvary(r=2)")
    assert code == 2 and out == ""
    assert err == "gls: constant:0 has norm 0; no usable tail envelope\n"


@pytest.mark.parametrize("spelling, strict", [
    *((s, True) for s in ("true", "1", "yes", "on", "TRUE", " Yes ")),
    *((s, False) for s in ("false", "0", "no", "off", "Off")),
])
def test_config_strict_takes_each_boolean_spelling(capsys, tmp_path, monkeypatch, spelling, strict):
    # a norm of +inf exits 1 under strict, 0 without
    import glspace.cli

    infinite = ClosedFormModel("infinite-past-3", lambda p: np.where(np.asarray(p) > 3.0, np.inf, np.sqrt(p)))
    monkeypatch.setattr(glspace.cli, "model_from_spec", lambda spec: infinite)
    cfg = tmp_path / "norm.cfg"
    cfg.write_text(f"model=infinite\npsi=power_slowvary(r=2)\np_max=10\nstrict={spelling}\n")
    code, out, err = run_cli(capsys, "norm", "--config", str(cfg))
    assert (code, err) == (1 if strict else 0, "")
    assert parse_rows(out)[0]["value"] == "inf"


@pytest.mark.parametrize("command, line, message", [
    ("norm", "strict=maybe", "strict must be a boolean, got 'maybe'"),
    ("tail", "xs=2.5,abc", "xs must be a comma-separated number list, got '2.5,abc'"),
])
def test_a_config_value_that_does_not_parse_exits_2_naming_it(capsys, tmp_path, command, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"model=gaussian\npsi=power_slowvary(r=2)\nn=1000\n{line}\n")
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == f"gls: {message}\n"


def test_strict_flag_accepts_finite_norms(capsys):
    code, _, _ = run_cli(
        capsys,
        "norm",
        "--model", "gaussian",
        "--psi", "power_slowvary(r=2, delta=0)",
        "--strict",
    )
    assert code == 0


@pytest.mark.parametrize("delta, value", [("-700", "0"), ("5000", "inf")])
def test_psi_out_of_range_exits_2_naming_p(capsys, delta, value):
    # psi underflows to 0 (overflows to inf) inside [1, 200]: the first
    # scan point where it does is named, not read as a divergent moment
    # (or a finite norm).  NumPy's overflow warning is not raised, so this
    # holds under the suite's warnings-as-errors, as under python -W error.
    psi = f"power_slowvary(r=2, delta={delta})"
    xs = np.geomspace(1.0, 200.0, 512)
    with np.errstate(over="ignore"):
        vals = psi_from_spec(psi).evaluator(xs)
    p = float(xs[np.argmax((vals == 0.0) | (vals == np.inf))])
    code, out, err = run_cli(capsys, "norm", "--model", "gaussian", "--psi", psi)
    assert code == 2 and out == ""
    assert err == f"gls: {psi}: psi(p) = {value} at p={p!r}; psi must be finite and positive\n"


def test_nan_ratio_exits_2(capsys, monkeypatch):
    import glspace.cli
    from glspace import GeneratingFunction

    def evaluator(p):
        return np.where(np.asarray(p) > 50.0, np.nan, np.sqrt(p))

    nan_psi = GeneratingFunction(evaluator, "nan_above_50")
    monkeypatch.setattr(glspace.cli, "psi_from_spec", lambda spec: nan_psi)
    code, out, err = run_cli(capsys, "norm", "--model", "exponential", "--psi", "nan_above_50")
    assert code == 2 and out == ""
    assert "NaN at p=50." in err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_p_max_exits_2(capsys, bad):
    code, out, err = run_cli(
        capsys, "norm", "--model", "gaussian", "--psi", "power_slowvary(r=2)", "--p-max", bad
    )
    assert code == 2 and out == ""
    assert f"p_max must be finite and at least 1, got {bad}" in err
    assert "Traceback" not in err


def test_non_finite_tail_probe_exits_2(capsys, tmp_path):
    cfg = tmp_path / "tail.cfg"
    cfg.write_text("model=gaussian\nxs=2.5,nan\nn=1000\n")
    code, out, err = run_cli(capsys, "tail", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "xs entries must be finite, got nan" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("xs", ["", " , "], ids=["empty", "commas"])
def test_an_empty_tail_probe_list_exits_2(capsys, tmp_path, xs):
    cfg = tmp_path / "tail.cfg"
    cfg.write_text(f"model=gaussian\nxs={xs}\nn=1000\n")
    code, out, err = run_cli(capsys, "tail", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "at least one probe point" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv, note", [
    # the set goes on past p_max, and no scan row ends there: the ratio
    # rises at p = 2, its largest p in the window
    (("--set", "intervals:1-2,300-inf"), "ratio not decreasing"),
    # the window is the one point p = 1 of a domain that goes on
    (("--p-max", "1"), "ratio not decreasing"),
    # a grid set goes on past its stored points, which are exact points
    (("--set", "grid:integers:M=10"), "ratio not decreasing"),
    # a set that ends at p_max, or inside the window: nothing was
    # truncated, though the ratio rises at p = 30
    (("--set", "intervals:1-2,5-30", "--p-max", "30"), "domain ends within the window"),
    (("--set", "intervals:1-2,5-30", "--p-max", "50"), "domain ends within the window"),
], ids=["set-past-p-max", "p-max-1", "grid-set", "set-ending-at-p-max", "set-ending-inside"])
def test_the_edge_note_needs_a_last_row_at_p_max_or_a_domain_that_ends(capsys, argv, note):
    code, out, err = run_cli(capsys, "norm", "--model", "gaussian", "--psi", "power_slowvary(r=4)", *argv)
    assert (code, err) == (0, "")
    (row,) = parse_rows(out)
    assert row["note"].startswith(note)


def test_tail_samples_once_and_builds_one_envelope(capsys, monkeypatch):
    import glspace.cli
    import glspace.tails

    calls = {"sample": 0, "discrete_norm": 0}

    def counted(name, fn):
        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)

        return wrapper

    for mod in (glspace.cli, glspace.tails):
        for name in calls:
            monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    code, out, _ = run_cli(capsys, "tail", "--model", "gaussian", "--n", "20000", "--seed", "3")
    assert code == 0 and out.splitlines()[-1].startswith("K_hat,")
    assert calls == {"sample": 1, "discrete_norm": 1}


def test_tail_k_hat_row_notes_when_no_probe_was_judged(capsys):
    # e*K of the smallest candidate lies beyond the largest of 1000 draws
    code, out, _ = run_cli(
        capsys,
        "tail",
        "--model", "exponential",
        "--grid", "geometric:D=2:M=20",
        "--psi", "power_slowvary(r=2, delta=0)",
        "--n", "1000",
        "--seed", "12345",
    )
    assert code == 0
    k_row = out.splitlines()[-1].split(",")
    assert k_row[0] == "K_hat" and k_row[2] == "0.25"
    assert k_row[3] == "unchecked: e*K exceeds the sample maximum"
    code, out, _ = run_cli(capsys, "tail", "--model", "gaussian", "--n", "20000", "--seed", "3")
    assert code == 0 and out.splitlines()[-1].split(",")[3] == ""


# every flag's help text, and each command's own flags; every command
# also takes --config
_HELP = {
    "--model": "gaussian | uniform01 | exponential | rademacher | constant:<c> | empirical:<path>",
    "--psi": "power_slowvary(r=..,delta=..) | natural:<model> | sqrt_dip",
    "--set": "full | intervals:a-b,c-inf | grid:<grid>",
    "--grid": "geometric:D=<int>:M=<int> | integers:M=<int>",
    "--group": "cyclic:<n> | dihedral:<n> | symmetric:<n> | product:<g>x<g>",
    "--p-max": "truncation point of continuous norm searches",
    "--M": "grid length when a default grid is built",
    "--seed": "RNG seed (default: $GLS_DEFAULT_SEED, then 0)",
    "--n": "sample size for Monte Carlo commands",
    "--suite": "sandwich | tails | young | algebra | all",
    "--strict": "exit 1 when a printed norm is +inf",
    "--out": "also write the CSV report to this path",
    "--config": "key=value file of any command's flag keys, and xs=<x,...> (tail probe points); flags override it",
}
_OWN_FLAGS = {
    "norm": ("--model", "--psi", "--set", "--grid", "--p-max", "--strict", "--out"),
    "verify": ("--suite", "--seed", "--n", "--out"),
    "tail": ("--model", "--psi", "--grid", "--M", "--seed", "--n", "--out"),
    "convolve": ("--group", "--psi", "--p-max", "--out"),
}


def _per_command_parser():
    """The parser written out command by command: each command's own
    flags, then --config."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="gls",
        description="Norms, equivalence constants and tail envelopes "
        "for generating-function weighted moment families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (("norm", "compute norms of a model"), ("verify", "run a verification suite"),
                           ("tail", "empirical tails against the envelope"),
                           ("convolve", "convolve two function files over a group")):
        p = sub.add_parser(name, help=helptext)
        for flag in (*_OWN_FLAGS[name], "--config"):
            kw = {"action": "store_true", "default": None} if flag == "--strict" else {}
            p.add_argument(flag, dest=flag[2:].replace("-", "_"), help=_HELP[flag], **kw)
        if name == "convolve":
            p.add_argument("files", nargs=2, metavar="FILE", help="one value per line, ordered by element index")
    return parser


def _exit_text(parser, argv, capsys):
    """What parsing ``argv`` prints, stdout and stderr, before it exits."""
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_each_command_takes_its_own_flags_with_their_help_and_namespace(capsys, monkeypatch):
    from glspace.cli import build_parser

    monkeypatch.setenv("COLUMNS", "80")
    old, new = _per_command_parser(), build_parser()
    for argv in (["--help"], ["norm", "--help"], ["verify", "--help"], ["tail", "--help"], ["convolve", "--help"],
                 [], ["norm", "--bogus"], ["convolve", "f.txt"], ["verify", "--suite", "young", "--seed", "1", "--p-max", "5"]):
        assert _exit_text(new, argv, capsys) == _exit_text(old, argv, capsys)
    for argv in (
        ["norm", "--model", "gaussian", "--psi", "sqrt_dip", "--strict", "--p-max", "40"],
        ["verify", "--suite", "all", "--seed", "3", "--n", "100", "--out", "x.csv"],
        ["tail", "--model", "exponential", "--grid", "integers:M=5", "--M", "7", "--config", "c.txt"],
        ["convolve", "--group", "cyclic:3", "--psi", "sqrt_dip", "--p-max", "9", "f.txt", "g.txt"],
    ):
        got = vars(new.parse_args(argv))
        assert got.pop("func").__name__ == "cmd_" + argv[0]
        assert got == vars(old.parse_args(argv))
    # 26 (command, flag) pairs, --config included; any other flag is a
    # usage error
    assert sum(len(flags) + 1 for flags in _OWN_FLAGS.values()) == 26
    for name, flags in _OWN_FLAGS.items():
        files = ["f.txt", "g.txt"] if name == "convolve" else []
        for flag in set(_HELP) - {*flags, "--config"}:
            value = [] if flag == "--strict" else ["1"]
            code, out, err = _exit_text(new, [name, flag, *value, *files], capsys)
            assert (code, out) == (2, "") and f"unrecognized arguments: {flag}" in err, (name, flag)


def test_parser_is_built_once_and_keeps_nothing_between_calls(capsys, monkeypatch):
    from glspace.cli import build_parser

    assert build_parser() is build_parser()
    tail = ("tail", "--model", "gaussian", "--n", "20000", "--seed", "3")
    norm = ("norm", "--model", "gaussian", "--psi", "power_slowvary(r=2, delta=0)")
    back_to_back = [run_cli(capsys, *tail), run_cli(capsys, *norm)]
    separate = []
    for argv in (tail, norm):
        build_parser.cache_clear()  # a new parser, as in a new process
        separate.append(run_cli(capsys, *argv))
    assert back_to_back == separate
    assert back_to_back[0][0] == 0 and back_to_back[0][1].splitlines()[-1].startswith("K_hat,")
    build_parser().parse_args(list(tail))
    args = vars(build_parser().parse_args(list(norm)))
    # norm's own keys, none of tail's: its n and seed are not there
    unset = ("set", "grid", "p_max", "strict", "out", "config")
    assert set(args) == {"command", "func", "model", "psi", *unset}
    assert {k: args[k] for k in unset} == dict.fromkeys(unset)
    # the help wraps at the COLUMNS in force when it is printed
    helps = {}
    for columns in ("60", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        helps[columns] = _exit_text(build_parser(), ["norm", "--help"], capsys)
        assert helps[columns] == _exit_text(build_parser.__wrapped__(), ["norm", "--help"], capsys)
    assert helps["60"] != helps["120"]


# spec fragments for the CLI property: each is drawn well-formed about nine
# times in ten, else out of range or no spec at all.  Over 3000 argv, about
# 37% exit 0, 3% exit 1 and 61% exit 2
_NUMBERS = (["1", "2", "2.5", "3", "8", "0.5", "0"], ["-1", "-700", "5000", "1e308", "1e-320", "nan", "inf", "x", ""])
_COUNTS = (["1", "3", "8", "40"], ["0", "-2", "2.5", "x", "1e6"])
_MODELS = (["gaussian", "uniform01", "exponential", "rademacher", "constant", "sample"], ["missing", "bogus", ""])


def _pick(draw, fragments):
    good, bad = fragments
    return draw(st.sampled_from(bad if draw(st.integers(0, 9)) == 9 else good))


def _model_spec(draw, sample_path) -> str:
    kind = _pick(draw, _MODELS)
    if kind == "constant":
        return "constant:" + _pick(draw, _NUMBERS)
    if kind in ("sample", "missing"):
        return f"empirical:{sample_path}" + (".missing" if kind == "missing" else "")
    return kind


@st.composite
def _norm_argv(draw, sample_path):
    """A gls norm argv: a model, a psi, and perhaps a set, a grid and a p_max."""
    argv = ["norm", "--model", _model_spec(draw, sample_path)]
    psi = _pick(draw, (["power", "power", "natural"], ["sqrt_dip", "power_slowvary(r=2", ""]))
    if psi == "power":
        keys = _pick(draw, ([("r",), ("r", "delta")], [(), ("delta",), ("r", "r"), ("r", "q")]))
        psi = f"power_slowvary({', '.join(f'{key}={_pick(draw, _NUMBERS)}' for key in keys)})"
    elif psi == "natural":
        psi = "natural:" + _model_spec(draw, sample_path)
    argv += ["--psi", psi]
    rset = _pick(draw, ([None, "intervals"], ["grid", "full", "junk"]))
    if rset == "intervals":
        ends = [_pick(draw, (["3", "9", "inf"], _NUMBERS[1])) for _ in range(draw(st.integers(1, 3)))]
        starts = [_pick(draw, (["1"], _NUMBERS[1])), *(_pick(draw, _NUMBERS) for _ in ends[1:])]
        argv += ["--set", "intervals:" + ",".join(f"{a}-{b}" for a, b in zip(starts, ends))]
    elif rset == "grid":
        argv += ["--set", "grid:integers:M=" + _pick(draw, _COUNTS)]
    elif rset is not None:
        argv += ["--set", rset]
    grid = _pick(draw, ([None, "geometric:D={}:M={}", "integers:M={}"], ["geometric:D={}", "junk"]))
    if grid is not None:
        argv += ["--grid", grid.format(*(_pick(draw, _COUNTS) for _ in range(grid.count("{}"))))]
    p_max = _pick(draw, ([None, "200", "1e6", "3"], _NUMBERS[1]))
    return argv if p_max is None else [*argv, "--p-max", p_max]


@pytest.fixture(scope="module")
def sample_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "sample.txt"
    np.savetxt(path, np.random.default_rng(3).standard_normal(64))
    return path


@settings(max_examples=300)
@given(data=st.data())
def test_no_norm_spec_gives_a_traceback(sample_path, data):
    # every argv built from the fragments exits 0, 1 or 2 with its message
    # on stderr: an exception that reached the caller would fail the test
    argv = data.draw(_norm_argv(sample_path), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue()


# fragments of the gls tail, convolve and verify properties, each drawn
# well-formed about nine times in ten, as those of gls norm.  Over 400 argv
# of each command, about a third hold a flag of another command; of the
# rest, tail exits 0 in 35%, convolve in 32% and verify in 75%
_PSIS = (["power_slowvary(r=2, delta=0)", "power_slowvary(r=1)", "natural", "sqrt_dip"], ["power_slowvary(r=2", "junk", ""])
_GROUPS = (["cyclic:4", "dihedral:3", "symmetric:3", "product:cyclic:2xcyclic:2"], ["cyclic:0", "symmetric:9", "junk", ""])
_SEEDS = (["0", "1", "7"], ["-1", "x", ""])
_SIZES = (["50", "200", "1000"], ["0", "-2", "x", "1e6"])
_SUITES = (["young", "tails"], ["junk", ""])
_KEYS = {flag[2:].replace("-", "_") for flag in _HELP} - {"config"} | {"xs"}


def _value(draw, key, paths) -> str:
    """A value of the flag or config key ``key``."""
    if key in ("model", "psi"):
        psi = "model" if key == "model" else _pick(draw, _PSIS)
        if psi in ("model", "natural"):
            return ("natural:" if psi == "natural" else "") + _model_spec(draw, paths["sample"])
        return psi
    if key == "grid":
        return _pick(draw, (["integers:M={}", "geometric:D=2:M={}"], ["junk"])).format(_pick(draw, _COUNTS))
    if key in ("out", "files"):
        return str(paths[_pick(draw, ([key], ["missing"]))])
    fragments = {
        "set": (["full", "intervals:1-3,9-inf"], ["junk"]),
        "group": _GROUPS,
        "p_max": (["200", "3", "50"], _NUMBERS[1]),
        "M": _COUNTS,
        "seed": _SEEDS,
        "n": _SIZES,
        "suite": _SUITES,
        "strict": (["1", "false"], ["maybe"]),
        "xs": (["2.5,3", "4"], ["nan", "", "x"]),
    }
    return _pick(draw, fragments[key])


@st.composite
def _argv(draw, command, paths):
    """An argv of ``command``: some of its own flags, perhaps a --config
    file of any command's keys, perhaps a flag of another command; and
    whether that foreign flag was drawn."""
    own = [flag[2:].replace("-", "_") for flag in _OWN_FLAGS[command]]
    foreign = sorted(_KEYS - {"xs", *own})
    keys = draw(st.lists(st.sampled_from(own), unique=True))
    if draw(st.integers(0, 9)) < 9:  # the key the command needs
        keys.append({"tail": "model", "convolve": "group", "verify": "suite"}[command])
    refused = draw(st.integers(0, 3)) == 0
    if refused:
        keys.append(draw(st.sampled_from(foreign)))
    argv = [command]
    for key in dict.fromkeys(draw(st.permutations(keys))):
        argv += ["--strict"] if key == "strict" else ["--" + key.replace("_", "-"), _value(draw, key, paths)]
    if draw(st.booleans()):
        lines = [f"{key}={_value(draw, key, paths)}" for key in draw(st.lists(st.sampled_from(sorted(_KEYS)), max_size=3))]
        if draw(st.integers(0, 9)) == 9:
            lines.append(draw(st.sampled_from(["junk=1", "no value", "config=x"])))
        paths["config"].write_text("\n".join(lines) + "\n")
        argv += ["--config", str(paths[_pick(draw, (["config"], ["missing"]))])]
    if command == "convolve":
        argv += [_value(draw, "files", paths), _value(draw, "files", paths)]
    return argv, refused


@pytest.fixture(scope="module")
def argv_paths(tmp_path_factory, sample_path):
    """The files an argv names: the sample, a 4-value group function (the
    order of most drawn groups), the config file, the --out target, and a
    path in a missing directory."""
    root = tmp_path_factory.mktemp("argv")
    files = root / "f.txt"
    np.savetxt(files, np.random.default_rng(5).standard_normal(4))
    return {"sample": sample_path, "files": files, "config": root / "gls.cfg", "out": root / "out.csv",
            "missing": root / "missing" / "x"}


@settings(max_examples=120)
@given(data=st.data())
@pytest.mark.parametrize("command", ["tail", "convolve", "verify"])
def test_no_argv_gives_a_traceback_and_a_foreign_flag_exits_2(argv_paths, command, data):
    # every drawn argv exits 0, 1 or 2 with its message on stderr, and 2
    # whenever it holds a flag of another command; a --config file may hold
    # every command's keys
    argv, refused = data.draw(_argv(command, argv_paths), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue()
    assert code == 2 or not refused
