"""Every CLI input gives rows of finite numbers or exits 1 or 2 with one line.

The grid feeds extreme tokens to every float option that ``cli.SUBCOMMANDS``
declares; the property does the same with any float hypothesis draws.  The
other tests pin the bounds and choices that the option table declares.
"""

import contextlib
import csv
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdmosc import cli, quantum, verification
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
    """Exit 0 with finite rows, or 1 or 2 with one line; never a numpy warning.
    A CSV cell nan, inf or -inf and a JSON NaN, Infinity or -Infinity are non-finite."""
    assert not [w for w in caught if w.startswith("RuntimeWarning: ")], caught
    assert code in (0, 1, 2), err
    if sub == "verify" and err.startswith("verify: "):
        return  # the report: a failed check exits 2, a skipped one reads NaN
    if code:
        assert out == ""
        assert err.startswith("pdmosc: ") and err.count("\n") == 1, err
    elif out.startswith("{"):  # line-delimited JSON, which reads NaN and Infinity as floats
        values = [v for line in out.splitlines() for v in json.loads(line).values()]
        assert all(math.isfinite(v) for v in values if isinstance(v, float)), out
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


#: the most rows a drawn grid gives, and the most a drawn row count exceeds its low by,
#: so that each whole command line runs in milliseconds
FEW = 64


def few_points_or_refused(spec):
    """False for a start:stop:step whose point count lies in (FEW, MAX_POINTS): allowed, slow."""
    start, stop, step = map(float, spec.split(":"))
    count = (stop - start) / step if step else math.inf
    return not FEW < count < cli.MAX_POINTS


#: start:stop:step of a finite start, a positive step and the stop a few steps on, three
#: times in four, else of any three texts
GRID = st.one_of(
    *[st.builds(lambda start, step, k: f"{start!r}:{start + k * step!r}:{step!r}",
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                st.integers(0, FEW))] * 3,
    st.tuples(FLOAT_TEXT, FLOAT_TEXT, FLOAT_TEXT).map(":".join).filter(few_points_or_refused),
)

#: a strategy for the text of each str option of the table that has no choices
TEXT_OPTIONS = {
    "t": GRID,
    "x": GRID,
    "window": st.tuples(FLOAT_TEXT, FLOAT_TEXT).map(":".join),
    "energies": st.lists(FLOAT_TEXT, max_size=4).map(",".join),
    "checks": st.sampled_from(["all", *verification.all_check_ids()]),
}


#: as FLOAT_TEXT, but positive and finite three times in four, so that more whole command
#: lines get past their options' checks to the computation
WHOLE_LINE_FLOAT = st.one_of(
    *[st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(repr)] * 3, FLOAT_TEXT
)


def option_text(opt):
    """A strategy for the value of one option of the table, as the command line spells it."""
    if opt.type is float:
        return WHOLE_LINE_FLOAT
    if opt.low is not None:  # a row count, from just below its low
        return st.integers(opt.low - 1, opt.low + FEW).map(str)
    if opt.type is int:  # an order or a seed
        return st.integers(-1, 60).map(str)
    if opt.choices:
        return st.sampled_from(opt.choices)
    return TEXT_OPTIONS[opt.dest]


@st.composite
def command_lines(draw):
    """A subcommand with every option of its table and --format drawn at once."""
    sub = draw(st.sampled_from(list(cli.SUBCOMMANDS)))
    options = [cli.COMMON_OPTIONS[0], *cli.SUBCOMMANDS[sub][2]]
    return [sub, *(f"{opt.flag}={draw(option_text(opt))}" for opt in options)]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(argv=command_lines())
# numpy overflows in a multiply inside each, in classical.exact_momentum for the first and
# last and in numpy's linspace for the second; no warning may reach the user
@example(argv=["trajectory", "--lambda=1", "--c1=1e+300", "--c2=2.0"])
@example(argv=["lambda-map", "--lambda-min=1.7976931348623157e+308", "--count=29"])
@example(argv=["verify", "--seed=0", "--lambda=1e-300", "--hbar=1e-300", "--c1=1e+300",
               "--gamma1=1e-300"])
# a valid ordering whose derived beta1 misses alpha1 + beta1 + gamma1 = -1 by rounding
@example(argv=["spectrum", "--alpha1=100000.0", "--gamma1=0.1"])
def test_any_whole_command_line_exits_cleanly(argv):
    assert_clean(argv[0], *run_recorded(argv))


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["spectrum"], 0),
        (["box-spectrum", "--n", "1", "--eps", "1e200"], 2),  # a row refused as non-finite
        (["lambda-map", "--window", "0"], 1),  # the handler raises
    ],
)
def test_numpy_error_state_is_restored(argv, exit_code):
    with np.errstate(under="warn"):  # not numpy's default, so a reset to it shows too
        before = np.geterr()
        assert run_recorded(argv)[0] == exit_code
        assert np.geterr() == before


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


@pytest.mark.parametrize("points", [5, 7])
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
        # a momentum that overflows is refused as a row, with no numpy warning ahead of it
        (["trajectory", "--lambda", "1", "--c1", "1e300", "--c2", "2"],
         "non-finite p = -inf in row 2"),
        # lam/c1 = -inf meets (c2 + sqrt(c1) t)^2 = +inf in the radicand: NaN, unwarned
        (["lambda-map", "--lambda-min=-1e308", "--lambda-max=-1e308", "--count=4", "--c1=0.5",
          "--c2=1e200"], "non-finite singular_time = inf in row 1"),
        # lam = 0: the radicand's double root, named twice
        (["trajectory", "--lambda", "0", "--c2=-1", "--t", "0:2:0.5"],
         "radicand <= 1e-15 in the requested range (singular roots at (1.0, 1.0))"),
        # A * A overflows in the cutoff integrand; its NaN quadrature once gave a NaN row
        (["wkb", "--turning-point", "1e200"], "cutoff integral (A=1e+200, eps=1e+198)"),
        # lam = c2 = 0: the double root t = 0 is named 0.0 twice, not 0.0 and -0.0
        (["trajectory", "--lambda", "0", "--c2", "0", "--t=-1:1:0.5"],
         "radicand <= 1e-15 in the requested range (singular roots at (0.0, 0.0))"),
        # a float division by zero names the subcommand: x**4 underflows to 0.0 in
        # verify's p = 2 xdot / x**4, and x * x in wkb's cutoff integrand
        (["verify", "--c1", "1e-300"],
         "verify: an input is too large or too small (float division by zero)"),
        (["wkb", "--turning-point", "1e-160"],
         "wkb: an input is too large or too small (float division by zero)"),
    ],
)
def test_overflow_and_non_finite_rows_exit_2(argv, message):
    code, out, err, caught = run_recorded(argv)
    assert not [w for w in caught if w.startswith("RuntimeWarning: ")], caught
    assert (code, out) == (2, "")
    assert err.startswith("pdmosc: numerical failure: ") and err.count("\n") == 1
    assert message in err


#: (E, hbar, smallest |x|) with 2 sqrt(E)/(hbar |x|) exactly 2000, the squeeze floor past
#: which psi was once its envelope and the command line refused the grid; the same cases
#: an ulp past it, and one far past it, where J_1(4000) is 4.13e-4 and the envelope once
#: printed as psi(5e-4) was 0.0126
AT_THE_FLOOR = [(1.0, 1.0, 1e-3), (4.0, 0.5, 4e-3), (0.25, 2e-3, 0.25)]
PAST_THE_FLOOR = [(E, hbar, math.nextafter(x, 0.0)) for E, hbar, x in AT_THE_FLOOR] + [
    (1.0, 1.0, 5e-4)
]


def assert_eigenfunction_prints_the_bessel_factor(E, hbar, x):
    mpmath = pytest.importorskip("mpmath")

    def printed(grid):
        argv = ["eigenfunction", "--n=1", f"--E={E!r}", f"--hbar={hbar!r}", f"--x={grid}"]
        code, out, err, caught = run_recorded(argv)
        assert (code, err, caught) == (0, "", [])
        return {float(r["x"]): float(r["psi"]) for r in csv.DictReader(io.StringIO(out))}

    with mpmath.workdps(40):
        want = float(mpmath.besselj(1, 2 * mpmath.sqrt(E) / (hbar * mpmath.mpf(x))))
    mirrored = printed(f"{x!r}:{2 * x!r}:{x!r}")
    assert mirrored[x] == pytest.approx(want, rel=1e-9)  # J_1(2000) = 0.01637; envelope 0.01784
    assert mirrored[-x] == -mirrored[x]
    assert printed(f"{-x!r}:{-x!r}:{x!r}") == {-x: mirrored[-x]}  # a grid that is not mirrored


@pytest.mark.parametrize("E, hbar, x", AT_THE_FLOOR)
def test_eigenfunction_at_the_squeeze_floor_prints_the_bessel_factor(E, hbar, x):
    assert_eigenfunction_prints_the_bessel_factor(E, hbar, x)


@pytest.mark.parametrize("E, hbar, x", PAST_THE_FLOOR)
def test_eigenfunction_past_the_squeeze_floor_prints_the_bessel_factor(E, hbar, x):
    assert_eigenfunction_prints_the_bessel_factor(E, hbar, x)


#: a Bessel argument 2 sqrt(E)/(hbar |x|) past bessel.ARGUMENT_RESOLVED_MAX = 1e15: in the
#: first 2 sqrt(E)/hbar overflows to inf; in verify, ode_residual, the first check to
#: evaluate J, refuses its first state (E = 1/2) at its smallest grid point, x = 0.2000189,
#: where it once returned a residual of 3.4e24 at hbar = 1e-15 and overflowed at 1e-160
@pytest.mark.parametrize("argv, largest", [
    (["eigenfunction", "--n", "1", "--E", "1", "--hbar", "1e-308"], "inf"),
    (["verify", "--hbar", "1e-20"], "7.06973e+20"),
    (["verify", "--hbar", "1e-15"], "7.06973e+15"),
    (["verify", "--hbar", "1e-160"], "7.06973e+160"),
])
def test_a_bessel_argument_past_1e15_exits_1_naming_the_limit(argv, largest):
    assert run_recorded(argv) == (
        1, "", f"pdmosc: Bessel argument 2 sqrt(E)/(hbar x) = {largest} is past 1e+15, "
               "where J has no correct digits\n", [])


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
        ["trajectory", "--lambda", "1", "--c2"],
        ["trajectory", "--lambda", "1", "--c2", "--t", "0:1:0.5"],
    ],
)
def test_argparse_errors_print_one_line(argv):
    code, out, err = run_quietly(argv)
    assert (code, out) == (1, "")
    assert err.startswith("pdmosc: ") and err.count("\n") == 1, err
    assert "--help' for usage" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["trajectory", "--lambda", "1", "--c2", "-1e-5"],
        ["trajectory", "--lambda", "1", "--t", "-5:5:0.1"],
        ["lambda-map", "--window", "-2:2"],
        ["spectrum", "--alpha1", "-5e-1"],
    ],
)
def test_a_value_starting_with_a_minus_is_read_as_its_attached_form(argv):
    attached = [*argv[:-2], f"{argv[-2]}={argv[-1]}"]
    code, out, err = run_quietly(argv)
    assert (code, out, err) == run_quietly(attached)
    assert code == 0 and out, err


def test_unknown_flag_points_to_its_subcommands_help():
    assert run_quietly(["trajectory", "--frobnicate"]) == (
        1, "", "pdmosc: unrecognized arguments: --frobnicate; "
               "see 'pdmosc trajectory --help' for usage\n")


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["trajectory", "--lam", "-1e-5", "--t", "0:1:0.5"], "--lam -1e-5"),
        (["trajectory", "--lam", "1", "--t", "0:1:0.5"], "--lam 1"),
        (["wkb", "--hb", "1"], "--hb 1"),
    ],
)
def test_an_abbreviated_flag_is_an_unrecognized_argument(argv, flags):
    # a flag must be spelled as the option table spells it: no prefix stands for it
    assert run_quietly(argv) == (
        1, "", f"pdmosc: unrecognized arguments: {flags}; "
               f"see 'pdmosc {argv[0]} --help' for usage\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lambda-map", "--config", "run.cfg"], "config entry count='abc': "),
        (["phase-portrait", "--lambda", "1", "--energies", "a,b"], "bad float list 'a,b'"),
        (["phase-portrait", "--lambda", "1", "--energies=,"], "must name at least one energy"),
        (["lambda-map", "--window", "0"], "expected t0:t1, got '0'"),
        (["lambda-map", "--window", "1:2:3"], "expected t0:t1, got '1:2:3'"),
        (["phase-portrait", "--lambda", "1", "--x-floor-frac", "1"],
         "x_floor_frac must be in (0, 1), got 1.0"),
        (["phase-portrait", "--lambda=-1"],
         "phase_curve requires E > 0 and lam > 0, got E=0.5, lam=-1.0"),
        # E/lam underflows, so the turning point and the whole grid are x = 0
        (["phase-portrait", "--lambda", "1e300", "--energies", "5e-324"],
         "x = 0 is outside the model domain"),
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


@pytest.mark.parametrize("n_zeros", [319, 3000])
def test_n_zeros_past_x_1000_print_every_row(n_zeros):
    # j_{1,319} = 1002.95 is the first zero of J_1 past x = 1000, j_{1,3000} = 9425.56:
    # both are inside J's domain (argument <= 1e15), so nothing is refused or warned
    code, out, err, caught = run_recorded(["box-spectrum", "--n", "1", "--n-zeros", str(n_zeros)])
    assert (code, err, caught) == (0, "", [])
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(row["N"]) for row in rows] == list(range(1, n_zeros + 1))


@pytest.mark.parametrize("n", [50, 100])
def test_box_spectrum_refuses_an_order_past_the_accuracy_box(n):
    # the norm constants evaluate J_{n+1}, which leaves J's domain at n = 50
    assert run_recorded(["box-spectrum", "--n", str(n)]) == (
        1, "", f"pdmosc: --n {n} needs J_{n + 1}, past J's domain (order <= 50)\n", []
    )


@pytest.mark.parametrize("n", [51, 80])
def test_eigenfunction_refuses_an_order_past_the_accuracy_box_before_computing(n, monkeypatch):
    def no_psi(*args):
        raise AssertionError("psi was computed")

    monkeypatch.setattr(quantum, "eigenfunction", no_psi)
    assert run_recorded(["eigenfunction", "--n", str(n), "--E", "1"]) == (
        1, "", f"pdmosc: --n {n} needs J_{n}, past J's domain (order <= 50)\n", []
    )


def test_eigenfunction_at_the_last_order_in_the_box_is_silent():
    code, out, err, caught = run_recorded(["eigenfunction", "--n", "50", "--E", "1",
                                           "--x", "0.5:1:0.25"])
    assert (code, err, caught) == (0, "", [])
    assert len(out.splitlines()) == 1 + 6


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
        (["phase-portrait", "--lambda", "1", "--energies=1e308", "--points", "4"],
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
                         "--points", "4"]) == (
        0, "E,x,p_plus,p_minus\n1,-1e+154,0,-0\n1,-5e+152,0,-0\n1,5e+152,0,-0\n1,1e+154,0,-0\n",
        "", [])
