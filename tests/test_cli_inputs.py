"""Every CLI input gives rows of finite numbers or exits 1 or 2 with one line.

The grid feeds extreme tokens to every float option that ``cli.SUBCOMMANDS``
declares; the property does the same with any float hypothesis draws.  The
other tests pin the bounds and choices that the option table declares.
"""

import contextlib
import csv
import io
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmosc import cli

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


def run_quietly(argv):
    """(exit code, stdout, stderr) of one in-process run, warnings ignored."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean(sub, code, out, err):
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
    assert_clean(sub, *run_quietly(argv_with(sub, flag, token)))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(
    option=st.sampled_from([(sub, flag) for sub, flag in FLOAT_OPTIONS if sub != "verify"]),
    value=st.floats(),
)
def test_any_float_exits_cleanly(option, value):
    sub, flag = option
    assert_clean(sub, *run_quietly(argv_with(sub, flag, repr(value))))


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
        (["trajectory", "--lambda", "1e308", "--t", "0:1:0.5"], "non-finite E = nan in row 3"),
        (["eigenfunction", "--n", "1", "--E", "1", "--hbar", "1e-308"],
         "non-finite psi = nan in row 1"),
    ],
)
def test_overflow_and_non_finite_rows_exit_2(argv, message):
    code, out, err = run_quietly(argv)
    assert (code, out) == (2, "")
    assert err.startswith("pdmosc: numerical failure: ") and err.count("\n") == 1
    assert message in err
