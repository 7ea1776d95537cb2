"""mpmath accuracy budget for every numeric column that a subcommand prints,
and for the closed-form deviations that `verify` prints as measured.

Each case runs the subcommand in process, parses the printed doubles, and
compares every STRIDE-th row (and the last) with the closed form that mpmath
evaluates at 40 digits from the same double inputs.  Where the closed form
subtracts two nearly equal terms (n^2 - s^2 in lambda_n, sqrt(-lam/c1) - c2
in singular_time) the error is counted in ulps of the larger term: the
cancellation, not the code, decides the relative error there.  `trajectory`'s
x and p are counted the same way, in ulps of the sum of the magnitudes that
their rounding errors scale with; its E, whose exact value is c1, in ulps of
|T| + |V|, the two terms of H.  `phase-portrait`'s p_plus is compared through
p^2 = 4E/x^4 - 4 lam/x^2 in ulps of 4E/x^4, since p vanishes at the turning
points; p_minus must be exactly -p_plus.  `wkb`'s lhs takes the library's
finite part I as its input, so the budget measures the arithmetic and not the
quadrature; the residual is an absolute bound.  psi is compared relative to
max |psi| on the compared rows, since it is ill-conditioned near the zeros of
J_n.  `box-spectrum` compares every row up to N = 50, and every 75th row (and the
last) of three cases out to N = 3000, zeros near x = 9400: its budgets record the
error of the Bessel zeros' polish (ROADMAP item 2), which a few zeros carry.
`verify`'s finite_part, |I + pi| over four turning points A, is absolute: at
the smallest cutoff eps = 1e-5 A the cutoff integral and the divergence 2A/eps
that it cancels are both 2e5 at every A, and each rounds in the last place of
2e5.  wkb_identity's lhs - rhs is (n + 1/2) hbar times the finite part's error,
so its budget is the largest (n + 1/2) hbar, 21, times finite_part's, plus 4
ulp of rhs there.  pct_identity's strength + 1/4 - nu^2 is exactly 0 from the
same doubles (mpmath checks it), so it is rounding alone, counted in ulps of
the largest of its terms 4 lam/hbar^2, (t + 2)(t + 1) and (t + 3/2)^2,
t = 2 alpha1 + 2 gamma1, over the check's 100 draws, at two seeds and two hbar.

Each budget is the measured worst case times the margin stated beside it.
To print the measured worst cases of the current tree:

    PYTHONPATH=src python tests/test_accuracy.py
"""

import contextlib
import csv
import io
import math
import random

import numpy as np
import pytest

from pdmosc import cli, semiclassical

mpmath = pytest.importorskip("mpmath")

STRIDE = 37


def printed_rows(argv, stride=STRIDE):
    """The CSV rows of one successful in-process run, every stride-th and the last."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    return rows[::stride] + rows[-1:]


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


def run(sub, options, stride=STRIDE):
    """printed_rows of ``pdmosc sub`` with each option given as --name=value."""
    argv = [sub, *(f"--{k.replace('_', '-')}={v}" for k, v in options.items())]
    return printed_rows(argv, stride)


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


def trajectory_errors():
    worst = {"x": 0.0, "p": 0.0, "E": 0.0}
    ranges = {"lambda": (0.01, 3.0), "c1": (0.1, 3.0), "c2": (-6.0, 6.0)}
    cases = [{"lambda": 1.0}, {"lambda": 1.0, "c2": -5.0, "t": "0:10:0.001"},
             {"lambda": -1.0, "c2": -5.0, "t": "0:3.9:0.001"}]  # lam < 0: to near its first root
    cases += [dict(d, t="-10:10:0.001") for d in draws(4, 3, **ranges)]
    for case in cases:
        lam = mpmath.mpf(case["lambda"])
        c1, c2 = mpmath.mpf(case.get("c1", 1.0)), mpmath.mpf(case.get("c2", 0.0))
        rc1 = mpmath.sqrt(c1)
        for row in run("trajectory", case):
            t = exact(row["t"])
            w = c2 + rc1 * t  # rounds with the larger of |c2| and |sqrt(c1) t|
            big_w = max(abs(c2), abs(rc1 * t))
            q = lam / c1 + w * w
            q_scale = abs(lam) / c1 + w * w + 2 * abs(w) * big_w  # and q with both terms and w^2
            x, p = 1 / mpmath.sqrt(q), -2 * rc1 * w * mpmath.sqrt(q)
            worst["x"] = max(worst["x"], ulps(row["x"], x, x * q_scale / q))
            p_scale = 2 * rc1 * mpmath.sqrt(q) * (big_w + abs(w) * q_scale / (2 * q))
            worst["p"] = max(worst["p"], ulps(row["p"], p, p_scale))
            kinetic, potential = x**4 * p**2 / 4, lam * x**2
            worst["E"] = max(worst["E"], ulps(row["E"], c1, abs(kinetic) + abs(potential)))
    return worst


def phase_portrait_errors():
    worst = {"p_plus": 0.0}
    rng = random.Random(5)
    cases = [{"lambda": 1.0}] + [
        {"lambda": 10 ** rng.uniform(-2, 1), "points": 4001,
         "energies": ",".join(repr(10 ** rng.uniform(-2, 1)) for _ in range(3))}
        for _ in range(3)
    ]
    for case in cases:
        lam = mpmath.mpf(case["lambda"])
        for row in run("phase-portrait", case):
            plus, minus = float(row["p_plus"]), float(row["p_minus"])
            assert (minus, math.copysign(1.0, minus)) == (-plus, -math.copysign(1.0, plus))
            E, x = exact(row["E"]), exact(row["x"])
            larger = 4 * E / x**4
            want_sq = max(larger - 4 * lam / x**2, 0)
            error = abs(exact(row["p_plus"]) ** 2 - want_sq) / math.ulp(float(larger))
            worst["p_plus"] = max(worst["p_plus"], float(error))
    return worst


def box_spectrum_errors():
    worst = {"E": 0.0, "C": 0.0}
    rng = random.Random(6)
    cases = [dict(n=1, n_zeros=5, eps=0.1, hbar=1.0), dict(n=3, n_zeros=50, eps=0.1, hbar=1.0)] + [
        dict(n=rng.randint(1, 10), n_zeros=50,
             eps=10 ** rng.uniform(-2, 0), hbar=10 ** rng.uniform(-1, 1))
        for _ in range(2)
    ]
    far = [dict(n=1, n_zeros=3000, eps=0.1, hbar=1.0), dict(n=5, n_zeros=3000, eps=0.03, hbar=0.7),
           dict(n=30, n_zeros=3000, eps=0.5, hbar=2.0)]
    for case, stride in [(case, 1) for case in cases] + [(case, 75) for case in far]:
        n, eps, hbar = case["n"], mpmath.mpf(case["eps"]), mpmath.mpf(case["hbar"])
        for row in run("box-spectrum", case, stride):
            zero = mpmath.besseljzero(n, int(row["N"]))
            worst["E"] = max(worst["E"], ulps(row["E"], hbar**2 * zero**2 * eps**2 / 4))
            worst["C"] = max(worst["C"], ulps(row["C"], eps / mpmath.besselj(n + 1, zero)))
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
            parity = 1 if x > 0 else (-1) ** case["n"]
            want.append(parity * mpmath.besselj(case["n"], scale / abs(x)))
        peak = max(abs(w) for w in want)
        err = max(abs(exact(row["psi"]) - w) for row, w in zip(rows, want))
        worst["psi"] = max(worst["psi"], float(err / peak))
    return worst


def pct_largest_term(seed, hbar):
    """The largest of pct_identity's terms over its 100 draws, exact from the same doubles,
    where (t + 2)(t + 1) + 1/4 = (t + 3/2)^2 holds exactly."""
    largest = 0
    # the draws of verification.check_pct_identity
    for a, g, lam in np.random.default_rng(seed).uniform(-2.0, 2.0, size=(100, 3)).tolist():
        t = 2 * mpmath.mpf(a) + 2 * mpmath.mpf(g)
        product, square = (t + 2) * (t + 1), (t + 1.5) ** 2
        assert product + 0.25 == square
        largest = max(largest, abs(4 * mpmath.mpf(lam) / mpmath.mpf(hbar) ** 2), abs(product),
                      square)
    return largest


def verify_errors():
    rows = printed_rows(["verify", "--checks=finite_part,wkb_identity"])
    worst = {row["check_id"]: float(row["measured"]) for row in rows}
    worst["pct_identity"] = 0.0
    for seed in (1234, 1):
        for hbar in (1.0, 0.37):
            argv = ["verify", "--checks=pct_identity", f"--seed={seed}", f"--hbar={hbar}"]
            measured = printed_rows(argv)[0]["measured"]
            worst["pct_identity"] = max(worst["pct_identity"],
                                        ulps(measured, 0, pct_largest_term(seed, hbar)))
    return worst


#: finite_part's budget: 4 ulp of the 2e5 that its cutoff integral and divergence cancel
FINITE_PART_BUDGET = 4 * math.ulp(2e5)
#: wkb_identity's largest (n + 1/2) hbar, at n = 10 and hbar = 2
WKB_FACTOR = 10.5 * 2.0

#: column -> (budget, measured worst case on the cases above, numpy 2.4.6, scipy 1.17.1);
#: the closed forms' budgets are about twice their worst case, psi's four times, since
#: a scipy build may evaluate J_n differently.  box-spectrum's are the known defect of
#: ROADMAP item 2: j_{1,2} is 905 ulp off, and its E twice that; the fix tightens them
BUDGETS = {
    "spectrum": {"lambda_n": (3.0, 1.38), "nu_roundtrip": (2.0, 1.0)},
    "wkb": {"lambda_n": (2.5, 1.13), "lhs": (3.5, 1.72), "rhs": (3.0, 1.49),
            "residual": (1.5e-11, 7.47e-12)},
    "lambda-map": {"singular_time": (5.5, 2.66)},
    "eigenfunction": {"psi": (5e-15, 1.14e-15)},
    "trajectory": {"x": (2.5, 1.00), "p": (4.0, 2.00), "E": (10.0, 5.0)},
    "phase-portrait": {"p_plus": (4.5, 2.16)},
    "box-spectrum": {"E": (4100.0, 2031.0), "C": (4900.0, 2452.0)},
    "verify": {"finite_part": (FINITE_PART_BUDGET, 5.25e-11),
               "wkb_identity": (WKB_FACTOR * FINITE_PART_BUDGET
                                + 4 * math.ulp(WKB_FACTOR * math.pi), 1.10e-9),
               "pct_identity": (4.0, 2.0)},
}

MEASURE = {
    "spectrum": spectrum_errors,
    "wkb": wkb_errors,
    "lambda-map": lambda_map_errors,
    "eigenfunction": eigenfunction_errors,
    "trajectory": trajectory_errors,
    "phase-portrait": phase_portrait_errors,
    "box-spectrum": box_spectrum_errors,
    "verify": verify_errors,
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
