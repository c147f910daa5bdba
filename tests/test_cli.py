import contextlib
import csv
import io
import json
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pqosc
from pqosc import cli
from pqosc.cli import USAGE, run
from pqosc.params import ParameterError


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SPECTRUM_ARGS = [
    "spectrum", "--p", "2", "--q", "3", "--alpha", "1", "--beta", "0", "--l", "1",
    "--n-max", "2",
]


def test_spectrum_csv_fixture(capsys):
    code, out, _ = run_capture(capsys, SPECTRUM_ARGS + ["--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "lambda", "form32", "form34"]
    values = {int(r[0]): float(r[1]) for r in rows[1:]}
    assert abs(values[0] - 1.0) <= 1e-12
    assert abs(values[1] - 4.5) <= 1e-12
    assert abs(values[2] - 14.25) <= 1e-12


def test_spectrum_json_passes(capsys):
    code, out, _ = run_capture(capsys, SPECTRUM_ARGS)
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "spectrum"
    assert all(r["pass"] for r in payload["results"])
    assert payload["table"][1]["lambda"] == pytest.approx(4.5, abs=1e-12)


def test_hopf_solve_gamma_undefined_exit_three(capsys):
    code, _, err = run_capture(
        capsys,
        ["hopf-solve", "--p", "2", "--q", "2", "--beta1", "1", "--beta2", "0",
         "--alpha", "1", "--l", "1"],
    )
    assert code == 3
    assert "GammaUndefined" in err


# The guard's message at x = 638 for q = 3: the magnitude 638 ln 3 in full
AT_638 = "error: ExponentOverflowError: exponent magnitude 700.9146401702541 exceeds 700\n"


def test_numbers_overflow_boundary_exit_three(capsys):
    # q**x needs x ln 3 <= EXP_LIMIT = 700: x = 637 gives 699.8, x = 638 gives 700.9.
    # numbers reaches x = n_max, spectrum x = n_max + l.
    for command, last_good, key in (("numbers", 637, "table"), ("spectrum", 636, "results")):
        argv = [command, "--p", "2", "--q", "3", "--no-timestamp", "--n-max"]
        code, out, _ = run_capture(capsys, argv + [str(last_good)])
        assert code == 0, command
        assert json.loads(out)[key]
        code, out, err = run_capture(capsys, argv + [str(last_good + 1)])
        assert (code, out) == (3, ""), command
        assert err == AT_638, command


def test_overflow_message_prints_the_magnitude_past_the_limit(capsys):
    # x = alpha * n_max = 637.2 needs 637.2 ln 3 = 700.036
    argv = ["numbers", "--p", "2", "--q", "3", "--alpha", "637.2", "--n-max", "1"]
    code, out, err = run_capture(capsys, argv)
    assert (code, out) == (3, "")
    prefix = "error: ExponentOverflowError: exponent magnitude "
    assert err.startswith(prefix)
    assert float(err[len(prefix):].split()[0]) > 700.0


BRACKET_OVERFLOW = "ExponentOverflowError: bracket(-1009) = exp(710.914) exceeds the double range"


@pytest.mark.parametrize("command, beta, err", [
    # bracket(-1009) is about -exp(710.9): past the double range
    ("numbers", "-1009", BRACKET_OVERFLOW),
    ("spectrum", "-1009", BRACKET_OVERFLOW),
    # both brackets of level 0 are finite, their sum lambda_0 is not
    ("spectrum", "-1007.36", "ArithmeticError: closed-form spread nan exceeds 1e-11"),
], ids=["numbers", "spectrum", "spectrum-sum"])
def test_infinite_levels_exit_three(capsys, command, beta, err):
    code, out, got = run_capture(capsys, [
        command, "--p", "2", "--q", "0.5000000005", "--l", "0.01", "--beta", beta,
        "--n-max", "1", "--no-timestamp",
    ])
    assert code == 3
    assert out == ""
    assert got.startswith("error: " + err)


def test_rep_check_literal_alpha_two_fails(capsys):
    code, out, _ = run_capture(
        capsys,
        ["rep-check", "--p", "2", "--q", "3", "--alpha", "2", "--beta", "0",
         "--l", "1", "--mode", "literal"],
    )
    assert code == 1
    payload = json.loads(out)
    assert not all(r["pass"] for r in payload["results"])


@pytest.mark.parametrize("argv, code, err", [
    # the message names the largest exponent of the literal Q lattice, 798 ln 3
    (["--alpha", "2", "--dim", "400", "--mode", "literal"], 3,
     "error: ExponentOverflowError: exponent magnitude 876.6926063571516 exceeds 700\n"),
    # w_dim = bracket(638) needs 638 ln 3 = 700.9
    (["--dim", "638"], 3, AT_638),
    (["--dim", "637"], 0, ""),
], ids=["literal-dim-400", "dim-638", "dim-637"])
def test_rep_check_overflow_boundary(capsys, argv, code, err):
    got = run_capture(capsys, ["rep-check", "--p", "2", "--q", "3", *argv, "--no-timestamp"])
    assert got[0] == code
    assert got[2] == err
    assert (got[1] == "") == (code == 3)


@pytest.mark.parametrize("argv, magnitude", [
    (["numbers", "--p", "2", "--q", "3", "--n-max", "3000000"], "700.9146401702541"),
    (["rep-check", "--p", "2", "--q", "3", "--dim", "1000000"], "700.9146401702541"),
    (["spectrum", "--p", "2", "--q", "3", "--n-max", "3000000"], "700.9146401702541"),
    # x_6 + l = 650 fails before x_7 = 700, whose magnitude 769 numbers reports
    (["spectrum", "--p", "2", "--q", "3", "--alpha", "100", "--l", "50",
      "--n-max", "3000000"], "714.0979876342714"),
], ids=["numbers", "rep-check", "spectrum", "spectrum-alpha-100-l-50"])
def test_overflowing_lattice_exits_before_it_is_formed(capsys, argv, magnitude):
    # the first failing x is 638 (638 ln 3 = 700.9) unless the step jumps
    # past it; the lattice would hold millions
    tracemalloc.start()
    try:
        got = run_capture(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = f"error: ExponentOverflowError: exponent magnitude {magnitude} exceeds 700\n"
    assert got == (3, "", err)
    assert peak < 1_000_000


def test_rep_check_grading_passes(capsys):
    code, out, _ = run_capture(
        capsys,
        ["rep-check", "--p", "2", "--q", "3", "--alpha", "2", "--beta", "0", "--l", "1"],
    )
    assert code == 0


def test_calculus_check_passes(capsys):
    code, out, _ = run_capture(
        capsys,
        ["calculus-check", "--p", "2", "--q", "3", "--alpha", "2", "--beta", "0.5",
         "--l", "1", "--tol", "1e-12"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["metadata"]["exponents"] == [-3, -2, -1, 0, 1, 2, 3, 4, 5]


def test_calculus_check_small_alpha_passes(capsys):
    # l/alpha = -65534.35: e + l/alpha - l/alpha misses e by up to 7.3e-12,
    # a drift in the exponent bookkeeping that the algebra does not see
    code, out, _ = run_capture(capsys, [
        "calculus-check", "--p", "0.5", "--q", "0.3", "--alpha", "-2.62e-05", "--l", "1.717",
    ])
    assert code == 0
    residuals = [r["residual"] for r in json.loads(out)["results"]]
    assert residuals[:2] == [8.172418289474836e-17, 3.388040316680739e-21]
    assert max(residuals[2:]) <= 1e-15


@pytest.mark.parametrize("flag, value", [
    ("--alpha", "2000"), ("--alpha", "-2000"), ("--beta", "2000"), ("--beta", "-2000"),
], ids=["alpha-2000", "alpha-minus-2000", "beta-2000", "beta-minus-2000"])
def test_calculus_check_overflowing_power_exits_three(capsys, flag, value):
    # p**(-alpha) or p**(-beta) with p = 2 leaves the double range: 2000 ln 2
    got = run_capture(capsys, ["calculus-check", "--p", "2", "--q", "3", flag, value])
    err = "error: ExponentOverflowError: exponent magnitude 1386.2943611198905 exceeds 700\n"
    assert got == (3, "", err)


GOLDEN = Path(__file__).parent / "golden"


# At alpha = 0.3, six of the nine exponents fail the float l/alpha round
# trip; their images still lie on e, so the closed form reads them too.
@pytest.mark.parametrize("name, flags", [
    ("calculus_check_p2_q3", []),
    ("calculus_check_p2_q3_alpha0.3_l1", ["--alpha", "0.3", "--l", "1"]),
], ids=["p2-q3", "alpha-0.3"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_calculus_check_golden(capsys, name, flags, fmt):
    code, out, err = run_capture(capsys, [
        "calculus-check", "--p", "2", "--q", "3", *flags, "--format", fmt, "--no-timestamp",
    ])
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")


@pytest.mark.parametrize("name, flags, want", [
    ("hopf_check_p2_q3_b0.7_dim8",
     ["--p", "2", "--q", "3", "--beta1", "0.7", "--beta2", "0.7", "--dim", "8"], 0),
    # beta1 - beta2 = l: the homomorphism check runs and the transport gap fails it
    ("hopf_check_p0.5_q3_alpha2_b1_b0_dim8",
     ["--p", "0.5", "--q", "3", "--alpha", "2", "--beta1", "1", "--beta2", "0", "--dim", "8"], 1),
    ("hopf_check_p0.5_q3_b2_dim64",
     ["--p", "0.5", "--q", "3", "--beta1", "2", "--beta2", "2", "--dim", "64"], 1),
], ids=["p2-q3", "transport", "dim64"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_hopf_check_golden(capsys, name, flags, want, fmt):
    code, out, err = run_capture(capsys, [
        "hopf-check", *flags, "--format", fmt, "--no-timestamp",
    ])
    assert (code, err) == (want, "")
    assert out == (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")


@pytest.mark.parametrize("name, argv, want", [
    ("numbers_p2_q3", ["numbers", "--p", "2", "--q", "3"], 0),
    ("spectrum_p2_q3_nmax5", ["spectrum", "--p", "2", "--q", "3", "--n-max", "5"], 0),
    ("rep_check_p2_q3", ["rep-check", "--p", "2", "--q", "3"], 0),
    # the literal Q lattice at alpha = 2 is not the grading one: exit 1
    ("rep_check_p2_q3_alpha2_literal",
     ["rep-check", "--p", "2", "--q", "3", "--alpha", "2", "--mode", "literal"], 1),
    ("hopf_solve_p2_q3_b0.7",
     ["hopf-solve", "--p", "2", "--q", "3", "--beta1", "0.7", "--beta2", "0.7"], 0),
    # the q = 0.5 point is degenerate, so sweep exits 1 with an error row
    ("sweep_p2_q0.5_3", ["sweep", "--config", str(GOLDEN / "sweep_p2_q0.5_3.cfg")], 1),
], ids=["numbers", "spectrum", "rep-check", "rep-check-literal", "hopf-solve", "sweep"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_command_golden(capsys, name, argv, want, fmt):
    code, out, err = run_capture(capsys, [*argv, "--format", fmt, "--no-timestamp"])
    assert (code, err) == (want, "")
    assert out == (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")


@pytest.mark.parametrize("beta", ["700", "1e10"])
def test_hopf_solve_overflow_names_the_exponent(capsys, beta):
    code, out, err = run_capture(capsys, [
        "hopf-solve", "--p", "2", "--q", "3", "--beta1", beta, "--beta2", beta,
    ])
    assert (code, out) == (3, "")
    assert err.startswith("error: ExponentOverflowError: exponent magnitude ")


def test_hopf_solve_finite_powers_past_exp_limit_pass(capsys):
    # q**645 = exp(708.6) and 2**-1100 = exp(-762) are finite doubles: the
    # solve raises only where math.exp itself overflows
    for flags in (["--p", "0.5", "--q", "3", "--beta1", "645"],
                  ["--p", "2", "--q", "0.3", "--beta1", "1100"]):
        code, _, err = run_capture(capsys, ["hopf-solve", *flags, "--beta2", "0"])
        assert (code, err) == (0, "")


@pytest.mark.parametrize("beta", ["45", "50", "100", "300", "-415", "-600"])
def test_hopf_solve_equal_offsets_give_gamma_beta(capsys, beta):
    # beta1 = beta2 gives R = (p*q)**beta exactly: p**-beta - A*p**-beta is
    # 0.18 of its larger term however small both are; at -415 R is a
    # subnormal of about two units and at -600 it underflows, while
    # ln R = beta ln 6 is read from the normal num and den
    code, out, err = run_capture(capsys, [
        "hopf-solve", "--p", "2", "--q", "3", "--beta1", beta, "--beta2", beta, "--no-timestamp",
    ])
    assert (code, err) == (0, "")
    assert json.loads(out)["coefficients"]["gamma"] == pytest.approx(float(beta), rel=1e-12)


@pytest.mark.parametrize("flags, message", [
    # gamma = 600 solves, but (p*q)**(alpha*gamma) = exp(1075) in the
    # cross-multiplied row is past the double range
    (["--p", "2", "--q", "3", "--beta1", "600", "--beta2", "600"],
     "(p*q)**(alpha*gamma) in gamma equation cross-multiplied: exponent 1075."),
    # A = exp(3.36) and q**beta2 = exp(709.3) are finite, their product is not
    (["--p", "1.0693851663098843", "--q", "0.01861223253226228", "--l", "-1.6593689425963842",
      "--beta1", "96.7704499859417", "--beta2", "-178.04499990541228"],
     "exponent magnitude 712.68"),
    # p**(-a3*l) = (1e-150)**-5 in a constraint row is past the double range
    (["--p", "1e-150", "--q", "1e-100", "--alpha", "10", "--beta1", "0", "--beta2", "0"],
     "p**(-a3*l) in A = p^-a3l q^a2l: exponent 1726.9388"),
    # q/p underflows to 0.0, which has no negative power
    (["--p", "1e200", "--q", "1e-199", "--alpha", "-1", "--beta1", "0", "--beta2", "0"],
     "(q/p)**(alpha*l/2) in A = (q/p)^(alpha l/2): exponent inf exceeds 700"),
], ids=["cross-multiplied", "A-times-power", "constraint-row", "constraint-row-zero-base"])
def test_hopf_solve_overflow_past_a_finite_power_names_the_exponent(capsys, flags, message):
    code, out, err = run_capture(capsys, ["hopf-solve", *flags])
    assert (code, out) == (3, "")
    assert err.startswith("error: ExponentOverflowError: " + message)


@pytest.mark.parametrize("flags, message", [
    # d1 = 2**-1070 and d2 = A*2**-1070 are subnormals of 16 and 11 units,
    # so den = 5 units where it is 5.27 and gamma would read 1070.09
    (["--p", "2", "--q", "0.9", "--beta1", "1070", "--beta2", "1070"],
     "ADegenerateError: p**(-beta1) - A*p**(-beta2) = 2.47e-323 vanishes"),
    # num = (1 - A)*2**-1070 is subnormal, so ln|num| would be off
    (["--p", "0.9", "--q", "0.5", "--beta1", "1070", "--beta2", "1070"],
     "GammaUndefinedError: q**beta1 - A*q**beta2 = 1.98e-323 is below the normal double range"),
], ids=["den", "num"])
def test_hopf_solve_subnormal_ratio_terms_exit_three(capsys, flags, message):
    code, out, err = run_capture(capsys, ["hopf-solve", *flags])
    assert (code, out) == (3, "")
    assert err.startswith("error: " + message)


def test_hopf_solve_true_cancellation_exit_three(capsys):
    # A = (8/2)**(1/2) = 2, so p**0 - A*p**-1 = 1 - 1 cancels to rounding
    code, out, err = run_capture(capsys, [
        "hopf-solve", "--p", "2", "--q", "8", "--beta1", "0", "--beta2", "1",
    ])
    assert (code, out) == (3, "")
    assert err.startswith("error: ADegenerateError: p**(-beta1) - A*p**(-beta2) = ")


@pytest.mark.parametrize("offset", ["inf", "-inf", "nan"])
def test_hopf_solve_nonfinite_offset_exit_two(capsys, offset):
    code, out, err = run_capture(
        capsys, ["hopf-solve", "--p", "2", "--q", "3", f"--beta1={offset}", "--beta2", "1"]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ParameterError: offsets must be finite")


@pytest.mark.parametrize("command", [
    "numbers", "spectrum", "rep-check", "calculus-check", "hopf-solve", "hopf-check", "sweep",
])
def test_negative_n_max_exit_two(tmp_path, capsys, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 2\nq = 3\nn_max = -1")
    for argv in (["--p", "2", "--q", "3", "--n-max", "-1"], ["--config", str(cfg)]):
        code, out, err = run_capture(capsys, [command, *argv])
        assert code == 2
        assert out == ""
        assert err == "error: ConfigError: n_max must be nonnegative, got -1\n"


def test_hopf_solve_constraints_pass(capsys):
    code, out, _ = run_capture(
        capsys,
        ["hopf-solve", "--p", "2", "--q", "3", "--alpha", "1", "--l", "1",
         "--beta1", "0.7", "--beta2", "0.7"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"]["gamma"] == pytest.approx(0.7, abs=1e-12)


def test_hopf_check_skips_homomorphism_when_offsets_equal(capsys):
    code, out, _ = run_capture(
        capsys,
        ["hopf-check", "--p", "2", "--q", "3", "--alpha", "1", "--l", "1",
         "--beta1", "0.7", "--beta2", "0.7", "--dim", "6"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["homomorphism"].startswith("skipped")
    assert "diagnostics" in payload


HOPF_CHECK_ARGS = [
    "hopf-check", "--p", "2", "--q", "3", "--alpha", "1", "--l", "1",
    "--beta1", "0.7", "--beta2", "0.7", "--no-timestamp",
]


@pytest.mark.parametrize("command", ["hopf-solve", "hopf-check"])
def test_hopf_commands_refuse_a_nonzero_beta(capsys, command):
    """The Hopf checks run at beta = 0 with offsets beta1, beta2, so a
    nonzero --beta is refused, not ignored; a zero of either sign runs."""
    argv = [command, *HOPF_CHECK_ARGS[1:], "--dim", "8"]
    assert run_capture(capsys, argv + ["--beta", "5"]) == (
        2, "", "error: ConfigError: hopf commands take beta1 and beta2, not beta = 5.0\n"
    )
    _, plain, _ = run_capture(capsys, argv)
    for zero in ("0", "-0.0"):
        code, out, err = run_capture(capsys, argv + ["--beta", zero])
        assert (code, err) == (0, "")
        assert json.loads(out)["results"] == json.loads(plain)["results"]


def test_hopf_check_dim_cap(capsys):
    for dim in ("3", "65"):
        code, _, err = run_capture(capsys, HOPF_CHECK_ARGS + ["--dim", dim])
        assert code == 2
        assert "ConfigError" in err and "4 <= dim <= 64" in err
    first = run_capture(capsys, HOPF_CHECK_ARGS + ["--dim", "64"])
    again = run_capture(capsys, HOPF_CHECK_ARGS + ["--dim", "64"])
    # the counit reads 0.125 at dim 64 against the absolute tol: exit 1
    assert first[0] == again[0] == 1
    assert first[1] == again[1]
    coassoc = json.loads(first[1])["coassociativity"]
    assert coassoc["worst"]["residual"] == 0.0
    assert set(coassoc["entry_scale"]) == {"a", "a+", "N"}


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# fixture\np = 2\nq = 3\nalpha = 1\nbeta = 0\nl = 1\nn_max = 5\n")
    code, out, _ = run_capture(
        capsys, ["numbers", "--config", str(cfg), "--n-max", "2", "--no-timestamp"]
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["table"]) == 3
    assert payload["table"][2]["f"] == pytest.approx(3.5, abs=1e-14)
    assert "timestamp" not in payload


def test_parse_config_defaults_and_errors(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 2\nq = 3\nalpha = 1\nbeta = 0\nl = 1")
    code, out, err = run_capture(capsys, ["numbers", "--config", str(cfg), "--no-timestamp"])
    assert (code, err) == (0, "")
    payload = json.loads(out)  # the default format is JSON
    assert payload["options"] == {"dim": 16, "n_max": 20, "tol": 1e-10, "mode": "grading"}
    assert '"dim": 16,' in out and '"n_max": 20,' in out  # integers, not floats
    assert len(payload["table"]) == 21
    for text, message in (
        ("p = 2\nbogus = 7", "line 2: unknown key 'bogus'"),
        ("p = 2", "missing required parameter 'q'"),
    ):
        cfg.write_text(text)
        got = run_capture(capsys, ["numbers", "--config", str(cfg)])
        assert got == (2, "", f"error: ConfigError: {message}\n")


def test_config_not_utf8_exit_two(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"p = 2\nq = 3 \xff\n")
    code, out, err = run_capture(capsys, ["numbers", "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: ConfigError: {cfg} is not UTF-8: ")
    assert "0xff in position 12" in err


def test_config_may_start_with_a_byte_order_mark(tmp_path, capsys):
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfp = 2\nq = 3\n")
    got = run_capture(capsys, ["numbers", "--config", str(cfg), "--n-max", "2", "--no-timestamp"])
    want = run_capture(capsys, ["numbers", "--p", "2", "--q", "3", "--n-max", "2", "--no-timestamp"])
    assert got == want
    assert got[0] == 0


def test_bases_whose_product_underflows_are_valid(capsys):
    # p*q = 1e-400 underflows to 0.0; ln p + ln q does not
    code, out, err = run_capture(capsys, [
        "numbers", "--p", "1e-200", "--q", "1e-200", "--n-max", "1", "--no-timestamp",
    ])
    assert (code, err) == (0, "")
    assert [row["f"] for row in json.loads(out)["table"]] == [0.0, 1.0]
    # from n = 2 on the bracket's exponents leave the guard: a numeric failure
    code, out, err = run_capture(capsys, ["numbers", "--p", "1e-200", "--q", "1e-200"])
    assert (code, out) == (3, "")
    assert err.startswith("error: ExponentOverflowError: ")


def test_degenerate_config_exit_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("p = 2\nq = 0.5\nl = 1\nalpha = 1\nbeta = 0\n")
    code, _, err = run_capture(capsys, ["numbers", "--config", str(cfg)])
    assert code == 2
    assert "DegenerateDenominator" in err


def test_missing_required_parameter_exit_two(capsys):
    code, _, err = run_capture(capsys, ["numbers", "--q", "3"])
    assert code == 2


COMMANDS = "numbers, spectrum, rep-check, calculus-check, hopf-solve, hopf-check, sweep"


@pytest.mark.parametrize("argv, message", [
    ([], f"expected a command ({COMMANDS}), got none"),
    (["bogus"], f"expected a command ({COMMANDS}), got 'bogus'"),
    (["numbers", "--p", "2", "--q", "3", "--bogus", "1"], "unrecognized argument '--bogus'"),
    (["numbers", "--p", "2", "--q", "3", "--n_max", "2"], "unrecognized argument '--n_max'"),
    (["numbers", "--p", "2", "--q", "3", "--no"], "unrecognized argument '--no'"),
    (["numbers", "--p", "2", "--q"], "--q expects a value"),
    (["numbers", "--p", "abc", "--q", "3"], "--p: cannot parse value 'abc' for key 'p'"),
    (["numbers", "--p=", "--q", "3"], "--p: empty value for key 'p'"),
    (["numbers", "--p", "2", "--q", "3", "--out="], "--out: empty path"),
    (["numbers", "--p", "2", "--q", "3", "--out", ""], "--out: empty path"),
    (["numbers", "--p", "2", "--q", "3", "--config="], "--config: empty path"),
    (["rep-check", "--p", "2", "--q", "3", "--dim", "3"], "rep-check needs dim >= 4, got 3"),
    (["hopf-solve", "--p", "2", "--q", "3", "--beta1", "1"], "hopf commands need beta1 and beta2"),
    (["hopf-check", "--p", "2", "--q", "3", "--beta2", "1", "--dim", "8"],
     "hopf commands need beta1 and beta2"),
], ids=["no-argv", "unknown-command", "unknown-flag", "underscore", "abbreviation",
        "no-value", "unparsable", "empty", "empty-out", "empty-out-spaced", "empty-config",
        "rep-check-dim", "hopf-solve-no-beta2", "hopf-check-no-beta1"])
def test_parse_errors_exit_two(capsys, argv, message):
    assert run_capture(capsys, argv) == (2, "", f"error: ConfigError: {message}\n")


@pytest.mark.parametrize("flags, message", [
    (["--p", "inf", "--q", "3"], "NonPositiveBaseError: bases must be finite"),
    (["--p", "2", "--q", "nan"], "NonPositiveBaseError: bases must be positive"),
    (["--p", "2", "--q", "3", "--alpha", "nan"], "ParameterError: alpha must be finite"),
    (["--p", "2", "--q", "3", "--l", "inf"], "ParameterError: l must be finite"),
], ids=["p-inf", "q-nan", "alpha-nan", "l-inf"])
def test_nonfinite_parameter_exit_two(capsys, flags, message):
    code, out, err = run_capture(capsys, ["numbers", *flags])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("argv", [["-h"], ["numbers", "--help"], ["bogus", "--p", "-h"]],
                         ids=["h", "command-help", "anywhere"])
def test_help_prints_usage(capsys, argv):
    code, out, err = run_capture(capsys, argv)
    assert (code, out, err) == (0, USAGE, "")
    assert all(f"\n  {name} " in out for name in COMMANDS.split(", "))


def test_equals_form_and_repeated_flag(capsys):
    spaced = run_capture(
        capsys, ["numbers", "--p", "2", "--q", "3", "--n-max", "4", "--format", "csv"]
    )
    joined = run_capture(capsys, ["numbers", "--p=2", "--q=3", "--n-max=4", "--format=csv"])
    assert spaced == joined and spaced[0] == 0 and len(spaced[1].splitlines()) == 6
    # the last of a repeated flag wins
    repeated = run_capture(capsys, ["numbers", "--p", "2", "--q=0.5", "--q", "3", "--n-max", "9",
                                    "--n-max=4", "--format", "csv"])
    assert repeated == spaced


def test_determinism_without_timestamp(capsys):
    argv = SPECTRUM_ARGS + ["--no-timestamp"]
    _, out1, _ = run_capture(capsys, argv)
    _, out2, _ = run_capture(capsys, argv)
    assert out1 == out2


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_capture(
        capsys, SPECTRUM_ARGS + ["--out", str(target), "--no-timestamp"]
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["command"] == "spectrum"


def test_sweep_grid_order_and_exit(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("p = 0.5, 2\nq = 0.3, 3\nalpha = 1\nbeta = 0\nl = 1\ndim = 8\n")
    code, out, _ = run_capture(capsys, ["sweep", "--config", str(cfg), "--no-timestamp"])
    assert code == 0
    payload = json.loads(out)
    combos = [(pt["p"], pt["q"]) for pt in payload["points"]]
    assert combos == [(0.5, 0.3), (0.5, 3.0), (2.0, 0.3), (2.0, 3.0)]
    assert all(r["pass"] for pt in payload["points"] for r in pt["results"])


def test_sweep_records_bad_points(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("p = 2\nq = 0.5, 3\nalpha = 1\nbeta = 0\nl = 1\ndim = 8\n")
    code, out, _ = run_capture(capsys, ["sweep", "--config", str(cfg), "--no-timestamp"])
    assert code == 1
    payload = json.loads(out)
    assert "error" in payload["points"][0]
    assert "DegenerateDenominator" in payload["points"][0]["error"]
    assert all(r["pass"] for r in payload["points"][1]["results"])


def test_sweep_records_nonzero_beta_at_every_dim(tmp_path, capsys):
    # At dim 40 the largest weight is so large that a w_0 band scaled by it
    # would take w_0 = -0.33 for zero; level 0 must be annihilated exactly.
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("p = 2\nq = 3\nbeta = 0, -0.5\ndim = 40\n")
    code, payload, rows = json_and_csv(capsys, ["sweep", "--config", str(cfg)])
    assert code == 1
    good, bad = payload["points"]
    assert all(r["pass"] for r in good["results"])
    assert bad["error"].startswith("NotLowestWeightError: w_0 = -0.334745 != 0: ")
    assert "results" not in bad
    assert [row[8] for row in rows[1:]] == ["true"] * 4 + ["false"]
    assert rows[5][3] == "-0.5" and rows[5][5] == bad["error"]


def test_sweep_csv(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("p = 0.5, 2\nq = 3\nalpha = 1\nbeta = 0\nl = 1\ndim = 8\nformat = csv\n")
    code, out, _ = run_capture(capsys, ["sweep", "--config", str(cfg)])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["p", "q", "alpha", "beta", "l", "label", "residual", "tol", "pass"]
    assert len(rows) == 1 + 2 * 4  # two points, four relation entries each


@pytest.mark.parametrize("config, flags, message", [
    ("p = 2\nq = 3\n", ["--tol", "-1"], "tol must be positive"),
    ("p = 2\nq = 3\n", ["--tol", "inf"], "tol must be positive and finite, got inf"),
    ("p = 2\nq = 3\ntol = nan\n", [], "tol must be positive and finite, got nan"),
    ("p = 2, 3\nq = 3\nmode = bogus\n", [], "mode must be 'grading' or 'literal'"),
    ("p = 2, 3\nq = 3\nformat = xml\n", [], "format must be 'json' or 'csv'"),
    ("p = 2, 3\nq = 3\ndim = 3\n", [], "sweep needs dim >= 4, got 3"),
    ("p 2\nq = 3\n", [], "line 1: expected 'key = value', got 'p 2'"),
], ids=["tol", "tol-inf", "tol-nan", "mode", "format", "dim", "no-equals"])
def test_sweep_invalid_option_exit_two(tmp_path, capsys, config, flags, message):
    # An invalid option is rejected once, before the grid, not per point.
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(config)
    code, out, err = run_capture(capsys, ["sweep", "--config", str(cfg), *flags])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: ConfigError: {message}")


@pytest.mark.parametrize("flags, message", [
    (["--tol", "inf"], "tol must be positive and finite, got inf"),
    # finite, but 1e300 times the largest ladder weight (5.9e37 at dim 80) is not
    (["--tol", "1e300", "--dim", "80"],
     "tol 1e+300 times the largest ladder weight is inf, not finite"),
], ids=["tol-inf", "scaled-tol-overflow"])
def test_rep_check_infinite_tol_exit_two(capsys, flags, message):
    # With an infinite tol the documented literal-mode failure would read as a pass.
    code, out, err = run_capture(
        capsys, ["rep-check", "--p", "2", "--q", "3", "--alpha", "2", "--mode", "literal", *flags]
    )
    assert code == 2
    assert out == ""
    assert err == f"error: ConfigError: {message}\n"


def test_sweep_flags_point_whose_scaled_tol_overflows(tmp_path, capsys):
    # At q = 0.3 the weights stay below 1 and tol 1e300 is finite; at q = 3 it overflows.
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("p = 2\nq = 0.3, 3\nalpha = 2\nmode = literal\ntol = 1e300\ndim = 80\n")
    code, out, _ = run_capture(capsys, ["sweep", "--config", str(cfg), "--format", "csv"])
    assert code == 1
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1 + 4 + 1
    assert all(row[7:] == ["1e+300", "true"] for row in rows[1:5])
    assert rows[5][1] == "3.0" and rows[5][6:] == ["", "", "false"]
    assert rows[5][5].startswith("ConfigError: tol 1e+300 times the largest ladder weight")


def test_json_report_round_trip(capsys):
    code, out, _ = run_capture(
        capsys,
        ["rep-check", "--p", "2", "--q", "3", "--alpha", "1", "--beta", "0", "--l", "1",
         "--no-timestamp"],
    )
    assert code == 0
    payload = json.loads(out)
    assert json.loads(json.dumps(payload)) == payload


def json_and_csv(capsys, argv):
    """The exit code, the JSON payload and the CSV rows of one invocation, run both ways."""
    code, out, _ = run_capture(capsys, argv + ["--no-timestamp"])
    code_csv, out_csv, _ = run_capture(capsys, argv + ["--format", "csv"])
    assert code == code_csv
    return code, json.loads(out), list(csv.reader(io.StringIO(out_csv)))


def result_rows(payload_results):
    return [
        [r["label"], repr(r["residual"]), repr(r["tol"]), str(r["pass"]).lower()]
        for r in payload_results
    ]


@pytest.mark.parametrize("argv", [
    ["rep-check", "--p", "2", "--q", "3"],
    ["rep-check", "--p", "2", "--q", "3", "--alpha", "2", "--mode", "literal"],
    ["calculus-check", "--p", "2", "--q", "3"],
    ["hopf-solve", "--p", "2", "--q", "3", "--beta1", "0.7", "--beta2", "0.7"],
    ["hopf-check", "--p", "2", "--q", "3", "--beta1", "0.7", "--beta2", "0.7", "--dim", "6"],
    ["hopf-check", "--p", "0.5", "--q", "3", "--alpha", "2", "--beta1", "1", "--beta2", "0",
     "--dim", "6"],
], ids=["rep-check", "rep-check-literal", "calculus-check", "hopf-solve", "hopf-check",
        "hopf-check-transport"])
def test_csv_rows_match_json_results(capsys, argv):
    code, payload, rows = json_and_csv(capsys, argv)
    assert code == (0 if all(r["pass"] for r in payload["results"]) else 1)
    coefficient_rows = []
    if argv[0] == "hopf-solve":  # hopf-check writes its coefficients to JSON only
        coefficient_rows = [
            ["coefficient:" + k, repr(v), "", ""] for k, v in payload["coefficients"].items()
        ]
    header = ["label", "residual", "tol", "pass"]
    assert rows == [header, *coefficient_rows, *result_rows(payload["results"])]


def test_sweep_csv_rows_match_json_points(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("p = 2\nq = 0.5, 3\nalpha = 1, 2\nmode = literal\ndim = 6\n")
    code, payload, rows = json_and_csv(capsys, ["sweep", "--config", str(cfg)])
    assert code == 1
    keys = ("p", "q", "alpha", "beta", "l")
    expected = []
    for point in payload["points"]:
        base = [repr(point[k]) for k in keys]
        if "error" in point:
            expected.append(base + [point["error"], "", "", "false"])
        else:
            expected += [base + row for row in result_rows(point["results"])]
    assert rows[0] == [*keys, "label", "residual", "tol", "pass"]
    assert rows[1:] == expected
    errors = [row for row in rows[1:] if row[6:] == ["", "", "false"]]
    assert len(errors) == 2 and all("DegenerateDenominator" in row[5] for row in errors)
    assert {row[8] for row in rows[1:]} == {"true", "false"}


def pqosc_errors() -> dict:
    """The exception classes the pqosc modules define, by name."""
    modules = [getattr(pqosc, m) for m in pqosc._EXPORTS] + [pqosc.cli]
    return {
        name: value for module in modules for name, value in vars(module).items()
        if isinstance(value, type) and issubclass(value, Exception)
        and value.__module__.startswith("pqosc.")
    }


# The pqosc errors that reach no except clause of run, and why no command lets them out.
NOT_RECEIVED = {
    "Beta1Beta2MismatchError": "hopf-check catches it and skips relation transport",
    "DimensionMismatchError": "fock.apply_word raises it, and no command calls apply_word",
}


@pytest.mark.parametrize("name", sorted(pqosc_errors()))
def test_exit_code_follows_the_error_base(monkeypatch, capsys, name):
    """A ParameterError exits 2 and an ArithmeticError 3, named on stderr;
    the pqosc errors that are neither are the ones run never receives."""
    error = pqosc_errors()[name]

    def refuse(*args):
        raise error("refused")

    monkeypatch.setitem(cli._HANDLERS, "numbers", refuse)
    argv = ["numbers", "--p", "2", "--q", "3"]
    if name in NOT_RECEIVED:
        assert not issubclass(error, (ParameterError, ArithmeticError))
        with pytest.raises(error):
            run(argv)
        return
    code = 2 if issubclass(error, ParameterError) else 3 if issubclass(error, ArithmeticError) else None
    assert run_capture(capsys, argv) == (code, "", f"error: {name}: refused\n")


BASE = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)  # log-uniform in 1e-300..1e300
MIXED = st.one_of(  # small, unit-sized and huge, of either sign
    st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0]),
    st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]), st.floats(-15.0, 4.0)),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    command=st.sampled_from(COMMANDS.split(", ")),
    p=BASE, q=BASE, alpha=MIXED, beta=MIXED, l=MIXED, beta1=MIXED, beta2=MIXED,
    dim=st.integers(4, 8), n_max=st.integers(0, 30), fmt=st.sampled_from(["json", "csv"]),
)
def test_run_never_raises_and_names_its_error(command, p, q, alpha, beta, l, beta1, beta2,
                                              dim, n_max, fmt):
    """Any parameters give exit 0-3; an exit 2 or 3 names a pqosc error or
    ArithmeticError, never a bare ValueError, OverflowError or ZeroDivisionError."""
    values = dict(p=p, q=q, alpha=alpha, beta=beta, l=l, beta1=beta1, beta2=beta2,
                  dim=dim, n_max=n_max)
    argv = [command, "--format", fmt, "--no-timestamp"]
    for key, value in values.items():
        argv += ["--" + key.replace("_", "-"), repr(value)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2, 3), argv
    if code >= 2:
        name = re.match(r"error: (\w+): ", err.getvalue()).group(1)
        assert name in {*pqosc_errors(), "ArithmeticError"}, (argv, err.getvalue())
