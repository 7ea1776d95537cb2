"""mpmath accuracy budget for the columns that `spectrum`, `wkb`, `lambda-map`
and `eigenfunction` compute as arrays.

Each case runs the subcommand in process, parses the printed doubles, and
compares every STRIDE-th row (and the last) with the closed form that mpmath
evaluates at 40 digits from the same double inputs.  Where the closed form
subtracts two nearly equal terms (n^2 - s^2 in lambda_n, sqrt(-lam/c1) - c2
in singular_time) the error is counted in ulps of the larger term: the
cancellation, not the code, decides the relative error there.  `wkb`'s lhs
takes the library's finite part I as its input, so the budget measures the
arithmetic and not the quadrature; the residual is an absolute bound.  psi is
compared relative to max |psi| on the compared rows, since it is
ill-conditioned near the zeros of J_n.

Each budget is the measured worst case times the margin stated beside it.
To print the measured worst cases of the current tree:

    PYTHONPATH=src python tests/test_accuracy.py
"""

import contextlib
import csv
import io
import math
import random

import pytest

from pdmosc import cli, semiclassical

mpmath = pytest.importorskip("mpmath")

STRIDE = 37


def printed_rows(argv):
    """The CSV rows of one successful in-process run, every STRIDE-th and the last."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    return rows[::STRIDE] + rows[-1:]


def exact(text):
    """The printed double as an exact mpf."""
    return mpmath.mpf(float(text))


def ulps(got, want, scale=None):
    """|got - want| in units of the last place of scale (by default of want)."""
    unit = math.ulp(float(abs(want if scale is None else scale)))
    return float(abs(exact(got) - want) / unit)


def draws(seed, count, **ranges):
    """count seeded {option: value} dicts; a range (lo, hi, "log") draws log-uniformly."""
    rng = random.Random(seed)
    for _ in range(count):
        yield {
            name: 10 ** rng.uniform(math.log10(lo), math.log10(hi)) if log else rng.uniform(lo, hi)
            for name, (lo, hi, *log) in ranges.items()
        }


def run(sub, options):
    """printed_rows of ``pdmosc sub`` with each option given as --name=value."""
    return printed_rows([sub, *(f"--{k.replace('_', '-')}={v!r}" for k, v in options.items())])


def spectrum_errors():
    worst = {"lambda_n": 0.0, "nu_roundtrip": 0.0}
    cases = [dict(alpha1=0.0, gamma1=0.75, hbar=1.0, n_max=10)] + [
        dict(d, n_max=2000)
        for d in draws(1, 3, alpha1=(-2.0, 2.0), gamma1=(-2.0, 2.0), hbar=(0.1, 10.0, "log"))
    ]
    for case in cases:
        h2 = mpmath.mpf(case["hbar"]) ** 2
        for row in run("spectrum", case):
            n, s = mpmath.mpf(int(row["n"])), exact(row["s"])
            lam = (n * n - s * s) * h2 / 4
            worst["lambda_n"] = max(worst["lambda_n"],
                                    ulps(row["lambda_n"], lam, max(n * n, s * s) * h2 / 4))
            worst["nu_roundtrip"] = max(worst["nu_roundtrip"], ulps(row["nu_roundtrip"], n))
    return worst


def wkb_errors():
    worst = {"lambda_n": 0.0, "lhs": 0.0, "rhs": 0.0, "residual": 0.0}
    cases = [dict(hbar=1.0, turning_point=1.0, n_max=10),
             dict(hbar=0.37, turning_point=5.0, n_max=20000),
             dict(hbar=1e-3, turning_point=1e3, n_max=3000),
             dict(hbar=7.0, turning_point=0.02, n_max=3000)]
    for case in cases:
        hbar = mpmath.mpf(case["hbar"])
        action = semiclassical.finite_part_action(case["turning_point"])
        finite_part = abs(mpmath.mpf(action.finite_part))
        for row in run("wkb", case):
            half = mpmath.mpf(int(row["n"])) + mpmath.mpf(0.5)
            lam = half**2 * hbar**2 / 4
            lhs = 2 * mpmath.sqrt(lam) * finite_part
            rhs = half * hbar * mpmath.pi
            for column, want in (("lambda_n", lam), ("lhs", lhs), ("rhs", rhs)):
                worst[column] = max(worst[column], ulps(row[column], want))
            residual_error = float(abs(exact(row["residual"]) - (lhs - rhs)))
            worst["residual"] = max(worst["residual"], residual_error)
    return worst


def lambda_map_errors():
    worst = {"singular_time": 0.0}
    cases = [dict(c1=1.0, c2=-5.0)] + [
        dict(d, count=20001, lambda_min=-3.0, lambda_max=3.0)
        for d in draws(2, 3, c1=(0.1, 3.0), c2=(-3.0, 3.0))
    ]
    for case in cases:
        c1, c2 = mpmath.mpf(case["c1"]), mpmath.mpf(case["c2"])
        for row in run("lambda-map", case):
            if row["singular_time"]:  # lam < 0
                root = mpmath.sqrt(-exact(row["lambda"]) / c1)
                t_plus = (root - c2) / mpmath.sqrt(c1)
                scale = max(root, abs(c2)) / mpmath.sqrt(c1)
                worst["singular_time"] = max(worst["singular_time"],
                                             ulps(row["singular_time"], t_plus, scale))
    return worst


#: the figure's grid at n = 1, E = 1, the small-E and hbar = 3 cases that the
#: squeeze floor once got wrong, and seeded draws
EIGENFUNCTION_CASES = [
    dict(n=1, E=1.0, hbar=1.0, x="0.02:3:0.005"),
    dict(n=1, E=1e-8, hbar=1.0, x="0.5:3:0.005"),
    dict(n=1, E=1.0, hbar=3.0, x="0.002:1:0.001"),
] + [
    dict(n=rng.randint(1, 5), E=rng.uniform(0.5, 3.0), hbar=rng.uniform(0.5, 2.0), x="0.02:3:0.005")
    for rng in [random.Random(3)] for _ in range(3)
]


def eigenfunction_errors():
    worst = {"psi": 0.0}
    for case in EIGENFUNCTION_CASES:
        rows = printed_rows(["eigenfunction", *(f"--{k}={v}" for k, v in case.items())])
        scale = 2 * mpmath.sqrt(mpmath.mpf(case["E"])) / mpmath.mpf(case["hbar"])
        want = []
        for row in rows:
            x = exact(row["x"])
            assert scale / abs(x) <= 2000  # no row is squeezed: psi is the Bessel factor
            parity = 1 if x > 0 else (-1) ** case["n"]
            want.append(parity * mpmath.besselj(case["n"], scale / abs(x)))
        peak = max(abs(w) for w in want)
        err = max(abs(exact(row["psi"]) - w) for row, w in zip(rows, want))
        worst["psi"] = max(worst["psi"], float(err / peak))
    return worst


#: column -> (budget, measured worst case on the cases above, numpy 2.4.6, scipy 1.17.1);
#: the closed forms' budgets are about twice their worst case, psi's four times, since
#: a scipy build may evaluate J_n differently
BUDGETS = {
    "spectrum": {"lambda_n": (3.0, 1.38), "nu_roundtrip": (2.0, 1.0)},
    "wkb": {"lambda_n": (2.5, 1.13), "lhs": (3.5, 1.72), "rhs": (3.0, 1.49),
            "residual": (1.5e-11, 7.47e-12)},
    "lambda-map": {"singular_time": (5.5, 2.66)},
    "eigenfunction": {"psi": (5e-15, 1.14e-15)},
}

MEASURE = {
    "spectrum": spectrum_errors,
    "wkb": wkb_errors,
    "lambda-map": lambda_map_errors,
    "eigenfunction": eigenfunction_errors,
}


@pytest.mark.parametrize("sub", sorted(MEASURE))
def test_printed_columns_stay_within_their_budget(sub):
    with mpmath.workdps(40):
        worst = MEASURE[sub]()
    assert worst.keys() == BUDGETS[sub].keys()
    over = {column: (w, BUDGETS[sub][column][0]) for column, w in worst.items()
            if not w <= BUDGETS[sub][column][0]}
    assert not over, over


if __name__ == "__main__":
    with mpmath.workdps(40):
        for name, measure in MEASURE.items():
            print(name, measure())
