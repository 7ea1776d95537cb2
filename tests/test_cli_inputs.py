"""Every CLI input gives rows of finite numbers or exits 1 or 2 with one line.

The grid feeds extreme tokens to every float option that ``cli.SUBCOMMANDS``
declares; the property does the same with any float hypothesis draws.  The
other tests pin the bounds and choices that the option table declares.
"""

import contextlib
import csv
import io
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmosc import cli, quantum
from pdmosc.bessel import ZeroRefinementError
from pdmosc.classical import SingularTrajectoryError
from pdmosc.quantum import ComplexOrderError
from pdmosc.semiclassical import ExtrapolationError, QuadratureError

#: flags each subcommand needs to run at all
REQUIRED = {
    "trajectory": ["--lambda=1"],
    "lambda-map": [],
    "phase-portrait": ["--lambda=1"],
    "wkb": [],
    "spectrum": [],
    "eigenfunction": ["--n=1", "--E=1"],
    "box-spectrum": ["--n=1"],
    "verify": ["--checks=pct_identity,classical_energy_conservation"],
}

TOKENS = ["nan", "inf", "-0", "0", "1e308", "-1e308", "1e200", "-1e200", "5e-324", "1e-308"]

FLOAT_OPTIONS = [
    (sub, opt.flag)
    for sub, (_, _, options) in cli.SUBCOMMANDS.items()
    for opt in options
    if opt.type is float
]


def argv_with(sub, flag, token):
    """The subcommand's required flags with ``flag`` set to ``token``."""
    base = [a for a in REQUIRED[sub] if not a.startswith(flag + "=")]
    return [sub, *base, f"{flag}={token}"]


def run_recorded(argv):
    """(exit code, stdout, stderr, warnings as "Category: message") of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), [
        f"{w.category.__name__}: {w.message}" for w in caught
    ]


def run_quietly(argv):
    """(exit code, stdout, stderr) of one in-process run, warnings ignored."""
    return run_recorded(argv)[:3]


def assert_clean(sub, code, out, err, caught):
    """Exit 0 with finite rows, or 1 or 2 with one line; never a numpy warning."""
    assert not [w for w in caught if w.startswith("RuntimeWarning: ")], caught
    assert code in (0, 1, 2), err
    if sub == "verify" and err.startswith("verify: "):
        return  # the report: a failed check exits 2, a skipped one reads NaN
    if code:
        assert out == ""
        assert err.startswith("pdmosc: ") and err.count("\n") == 1, err
    else:
        cells = [c.lower() for row in csv.reader(io.StringIO(out)) for c in row]
        assert not [c for c in cells if c in ("nan", "inf", "-inf")], out


@pytest.mark.parametrize("token", TOKENS)
@pytest.mark.parametrize("sub, flag", FLOAT_OPTIONS)
def test_extreme_float_tokens_exit_cleanly(sub, flag, token):
    assert_clean(sub, *run_recorded(argv_with(sub, flag, token)))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(
    option=st.sampled_from([(sub, flag) for sub, flag in FLOAT_OPTIONS if sub != "verify"]),
    value=st.floats(),
)
def test_any_float_exits_cleanly(option, value):
    sub, flag = option
    assert_clean(sub, *run_recorded(argv_with(sub, flag, repr(value))))


#: an extreme token or the repr of any float, as a config file or a list entry spells it
FLOAT_TEXT = st.one_of(st.sampled_from(TOKENS), st.floats().map(repr))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(option=st.sampled_from(FLOAT_OPTIONS), text=FLOAT_TEXT)
def test_any_float_config_entry_exits_cleanly(option, text, tmp_path_factory):
    sub, flag = option
    dest = next(o.dest for o in cli.SUBCOMMANDS[sub][2] if o.flag == flag)
    cfg = tmp_path_factory.mktemp("cfg") / "run.cfg"
    cfg.write_text(f"{dest} = {text}\n")
    base = [a for a in REQUIRED[sub] if not a.startswith(flag + "=")]  # a flag would win
    assert_clean(sub, *run_recorded([sub, *base, "--config", str(cfg)]))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(energies=st.lists(FLOAT_TEXT, min_size=1, max_size=4))
def test_any_energies_entry_exits_cleanly(energies):
    argv = ["phase-portrait", "--lambda=1", "--points=8", f"--energies={','.join(energies)}"]
    assert_clean("phase-portrait", *run_recorded(argv))


def test_config_count_below_its_bound_exits_1(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("count = 1\n")
    code, out, err = run_quietly(["lambda-map", "--config", str(cfg)])
    assert (code, out) == (1, "")
    assert err == f"pdmosc: --count must be between 2 and {cli.MAX_POINTS}, got 1\n"


def test_config_unknown_format_exits_1(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fmt = xml\n")
    code, out, err = run_quietly(["wkb", "--config", str(cfg)])
    assert (code, out) == (1, "")
    assert err.startswith("pdmosc: --format") and err.count("\n") == 1
    assert "'xml'" in err and "csv" in err and "json" in err


@pytest.mark.parametrize("extra", [[], ["--format", "json", "--output", "f.json"]])
def test_plot_script_refused_before_computing(extra, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_quietly(
        ["trajectory", "--lambda", "1", "--emit-plot-script", *extra]
    )
    assert (code, out) == (1, "")
    assert "--emit-plot-script requires --output and csv format" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("points", [3, 5])
def test_odd_points_give_that_many_rows(points):
    code, out, _ = run_quietly(
        ["phase-portrait", "--lambda", "1", "--energies", "1", "--points", str(points)]
    )
    assert code == 0
    xs = [float(r["x"]) for r in csv.DictReader(io.StringIO(out))]
    assert len(xs) == points
    assert xs == sorted(xs)
    assert (xs[0], xs[-1]) == (-1.0, 1.0)  # both turning points of E = 1, lambda = 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["wkb", "--hbar", "1e200"], "Numerical result out of range"),
        (["spectrum", "--hbar", "1e-308"], "float division by zero"),
        (["wkb", "--turning-point", "1e-308"], "float division by zero"),
        (["box-spectrum", "--n", "1", "--eps", "1e200"], "non-finite E = inf in row 1"),
        (["phase-portrait", "--lambda=5e-324"],
         "turning point sqrt(E/lam) overflows for E=0.5, lam=5e-324"),
        (["eigenfunction", "--n", "1", "--E", "1", "--hbar", "1e-308"],
         "non-finite psi = nan in row 1"),
        # lam/c1 = -inf meets (c2 + sqrt(c1) t)^2 = +inf in the radicand: NaN, unwarned
        (["lambda-map", "--lambda-min=-1e308", "--lambda-max=-1e308", "--count=4", "--c1=0.5",
          "--c2=1e200"], "non-finite singular_time = inf in row 1"),
    ],
)
def test_overflow_and_non_finite_rows_exit_2(argv, message):
    code, out, err, caught = run_recorded(argv)
    assert not [w for w in caught if w.startswith("RuntimeWarning: ")], caught
    assert (code, out) == (2, "")
    assert err.startswith("pdmosc: numerical failure: ") and err.count("\n") == 1
    assert message in err


#: (E, hbar, smallest |x|) with 2 sqrt(E)/(hbar |x|) exactly at the squeeze floor 2000
AT_THE_FLOOR = [(1.0, 1.0, 1e-3), (4.0, 0.5, 4e-3), (0.25, 2e-3, 0.25)]


@pytest.mark.parametrize("E, hbar, x", AT_THE_FLOOR)
def test_eigenfunction_at_the_squeeze_floor_prints_the_bessel_factor(E, hbar, x):
    mpmath = pytest.importorskip("mpmath")
    assert 2 * math.sqrt(E) / hbar / x == quantum.SQUEEZE_ARGUMENT
    code, out, err, caught = run_recorded(
        ["eigenfunction", "--n=1", f"--E={E!r}", f"--hbar={hbar!r}", f"--x={x!r}:{2 * x!r}:{x!r}"]
    )
    assert (code, err, caught) == (0, "", [])
    psi = {float(r["x"]): float(r["psi"]) for r in csv.DictReader(io.StringIO(out))}
    with mpmath.workdps(40):
        want = float(mpmath.besselj(1, 2 * mpmath.sqrt(E) / (hbar * mpmath.mpf(x))))
    assert psi[x] == pytest.approx(want, rel=1e-9)  # J_1(2000) = 0.01637; the envelope is 0.01784
    assert psi[-x] == -psi[x]


#: the floor cases an ulp below it, and one far below: there J_1(4000) is 4.13e-4, and the
#: envelope once printed as psi(5e-4) was 0.0126
PAST_THE_FLOOR = [(E, hbar, math.nextafter(x, 0.0)) for E, hbar, x in AT_THE_FLOOR] + [
    (1.0, 1.0, 5e-4)
]


@pytest.mark.parametrize("E, hbar, x", PAST_THE_FLOOR)
def test_eigenfunction_refuses_a_grid_past_the_squeeze_floor_before_computing(
        E, hbar, x, monkeypatch):
    def no_psi(*args):
        raise AssertionError("psi was computed")

    monkeypatch.setattr(quantum, "eigenfunction", no_psi)
    message = (f"pdmosc: --x reaches |x| = {x:g}, where the Bessel argument 2 sqrt(E)/(hbar |x|) "
               f"= {2 * math.sqrt(E) / hbar / x:g} passes 2000: psi would be its squeeze envelope\n")
    for grid in (f"{x!r}:{2 * x!r}:{x!r}", f"{-x!r}:{-x!r}:{x!r}"):  # mirrored, and not
        argv = ["eigenfunction", "--n=1", f"--E={E!r}", f"--hbar={hbar!r}", f"--x={grid}"]
        assert run_recorded(argv) == (1, "", message, [])


@pytest.mark.parametrize("low, high", [("-1e308", "1e308"), ("1e308", "-1e308")])
def test_overflowing_lambda_span_exits_1_naming_both_flags(low, high):
    code, out, err, caught = run_recorded(
        ["lambda-map", f"--lambda-min={low}", f"--lambda-max={high}", "--count", "3"]
    )
    assert (code, out, caught) == (1, "", [])
    assert err == f"pdmosc: --lambda-max - --lambda-min overflows: {float(high)} - {float(low)}\n"


@pytest.mark.parametrize("sub", ["wkb", "spectrum"])
def test_float_overflow_names_the_subcommand(sub):
    assert run_quietly([sub, "--hbar", "1e200"]) == (
        2, "", f"pdmosc: numerical failure: {sub}: an input is too large or too small "
               "(Numerical result out of range)\n")


#: each pdmosc numerical failure class with its second base, which callers may still catch
NUMERICAL_FAILURES = [
    (ZeroRefinementError, RuntimeError),
    (QuadratureError, RuntimeError),
    (ExtrapolationError, RuntimeError),
    (SingularTrajectoryError, ValueError),
    (ComplexOrderError, ValueError),
]


@pytest.mark.parametrize("cls, old_base", NUMERICAL_FAILURES)
def test_numerical_failures_are_arithmetic_errors(cls, old_base):
    assert issubclass(cls, ArithmeticError)
    assert issubclass(cls, old_base)


@pytest.mark.parametrize("cls", [cls for cls, _ in NUMERICAL_FAILURES])
def test_each_numerical_failure_exits_2(cls, monkeypatch):
    def fail(o):
        raise cls("no convergence")

    monkeypatch.setitem(cli.HANDLERS, "spectrum", fail)
    code, out, err = run_quietly(["spectrum"])
    assert (code, out, err) == (2, "", "pdmosc: numerical failure: no convergence\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["no-such-command"],
        ["trajectory", "--frobnicate"],
        ["wkb", "--format", "xml"],
        ["trajectory", "--lambda", "abc"],
        ["trajectory", "--lambda", "1", "--c2", "-1e-5"],
    ],
)
def test_argparse_errors_print_one_line(argv):
    code, out, err = run_quietly(argv)
    assert (code, out) == (1, "")
    assert err.startswith("pdmosc: ") and err.count("\n") == 1, err
    assert "--help' for usage" in err


def test_unknown_flag_points_to_its_subcommands_help():
    assert run_quietly(["trajectory", "--frobnicate"]) == (
        1, "", "pdmosc: unrecognized arguments: --frobnicate; "
               "see 'pdmosc trajectory --help' for usage\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lambda-map", "--config", "run.cfg"], "config entry count='abc': "),
        (["phase-portrait", "--lambda", "1", "--energies", "a,b"], "bad float list 'a,b'"),
        (["phase-portrait", "--lambda", "1", "--energies=,"], "must name at least one energy"),
        (["lambda-map", "--window", "0"], "expected t0:t1, got '0'"),
        (["lambda-map", "--window", "1:2:3"], "expected t0:t1, got '1:2:3'"),
    ],
)
def test_malformed_lists_windows_and_config_values_exit_1(argv, message, tmp_path,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("count = abc\n")
    code, out, err = run_quietly(argv)
    assert (code, out) == (1, "")
    assert err.startswith("pdmosc: ") and err.count("\n") == 1, err
    assert message in err


def lambda_map(window):
    """(exit code, stdout, stderr, warnings) of a three-row lambda-map on a window."""
    return run_recorded(["lambda-map", "--count", "3", f"--window={window}"])


@pytest.mark.parametrize(
    "window, same_as",
    [("10:0", "0:10"), ("0:1e308", "0:1e150"), ("1e308:0", "0:1e150")],
)
def test_reversed_and_far_windows_give_the_same_rows(window, same_as):
    # a far window end overflows the radicand to +inf, which is still "bounded" there
    code, out, err, caught = lambda_map(window)
    assert (code, err, caught) == (0, "", [])
    assert out == lambda_map(same_as)[1]


def test_n_zeros_stops_at_the_accuracy_box():
    # j_{1,318} = 999.81 is the last zero of J_1 below x = 1000; j_{1,319} = 1002.95
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["box-spectrum", "--n", "1", "--n-zeros", "318"])
    assert (code, caught) == (0, [])
    out = out.getvalue()
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 318 and float(rows[-1]["E"]) < 0.25 * 1000.0**2 * 0.1**2
    code, out, err = run_quietly(["box-spectrum", "--n", "1", "--n-zeros", "319"])
    assert (code, out) == (1, "")
    assert err == "pdmosc: --n-zeros 319 of J_1 reach x = 1002.95, past the accuracy box\n"


@pytest.mark.parametrize("n", [50, 100])
def test_box_spectrum_refuses_an_order_past_the_accuracy_box(n):
    # the norm constants evaluate J_{n+1}, which leaves the box at n = 50
    assert run_recorded(["box-spectrum", "--n", str(n)]) == (
        1, "", f"pdmosc: --n {n} needs J_{n + 1}, past the accuracy box (order <= 50)\n", []
    )


def test_box_spectrum_at_the_last_order_in_the_box_is_silent():
    code, out, err, caught = run_recorded(["box-spectrum", "--n", "49"])
    assert (code, err, caught) == (0, "", [])
    assert len(out.splitlines()) == 1 + 5


@pytest.mark.parametrize(
    "argv, err",
    [
        # the radicand overflows to inf, where 1/sqrt(inf) would read as x = 0
        (["trajectory", "--lambda", "1", "--t=0:1e308:1e307"],
         "radicand overflows the double range at a requested t"),
        # 4E overflows to inf and inf/inf is NaN
        (["phase-portrait", "--lambda", "1", "--energies=1e308", "--points", "2"],
         "non-finite p_plus = nan in row 1"),
    ],
    ids=["trajectory", "phase-portrait"],
)
def test_overflowing_inputs_exit_2_with_one_line_and_no_warning(argv, err):
    assert run_recorded(argv) == (2, "", f"pdmosc: numerical failure: {err}\n", [])


@pytest.mark.parametrize(
    "argv",
    [
        # x and p are finite at t = 1e77, but x**4 * p**2 overflows to inf
        ["trajectory", "--lambda", "1", "--t=1e77:1e77:1"],
        # at t = 1, p**2 overflows to inf while x**4 underflows to 0
        ["trajectory", "--lambda", "1e308", "--t", "0:1:0.5"],
    ],
    ids=["trajectory-far-t", "trajectory-huge-lambda"],
)
def test_hamiltonian_past_the_double_range_still_gives_E_equal_c1(argv):
    code, out, err, caught = run_recorded(argv)
    assert (code, err, caught) == (0, "", [])
    energies = [float(row["E"]) for row in csv.DictReader(io.StringIO(out))]
    assert energies and all(abs(e - 1.0) <= 4 * math.ulp(1.0) for e in energies)  # c1 = 1


def test_phase_curve_past_x4_overflow_warns_nothing():
    # |x| >= 5e152 overflows x**4 to inf; 4E/inf = 0 = 4 lam/x**2 there, so p = 0
    assert run_recorded(["phase-portrait", "--lambda", "1e-308", "--energies=1",
                         "--points", "2"]) == (
        0, "E,x,p_plus,p_minus\n1,-5e+152,0,-0\n1,5e+152,0,-0\n", "", [])
