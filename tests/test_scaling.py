"""Exact scaling laws of the model as bit-level oracles, run through the command line.

Under a power-of-two factor f = 2^k every rounding step of these closed forms
scales exactly, so each law holds bit for bit:

- `eigenfunction`: the Bessel argument z = 2 sqrt(E)/(hbar x) is invariant under
  (x, E) -> (f x, f^2 E) and under (E, hbar) -> (f^2 E, f hbar), so psi keeps its
  bits while x scales by f;
- `box-spectrum`: E = hbar^2 j^2 eps^2 / 4 and C = eps / J_{n+1}(j), so eps -> f eps
  multiplies E by f^2 and C by f, and hbar -> f hbar multiplies E by f^2;
- `spectrum`: lambda_n = (n^2 - s^2) hbar^2 / 4, so hbar -> f hbar multiplies lambda_n
  by f^2 and leaves nu = sqrt(s^2 + 4 lambda_n / hbar^2) unchanged;
- `wkb`: lambda_n = (n + 1/2)^2 hbar^2 / 4 and rhs = (n + 1/2) hbar pi, while the
  cutoff integrand sqrt(A^2 - x^2)/x^2 dx is invariant under (x, A) -> (f x, f A) and
  QUADPACK's nodes scale exactly with the interval, so the finite part I keeps its
  bits; (A, hbar) -> (f A, f hbar) multiplies lambda_n by f^2, and lhs = 2 sqrt(lambda_n)
  |I|, rhs and the residual lhs - rhs by f;
- `trajectory`: x = 1/sqrt(lam/c1 + (c2 + sqrt(c1) t)^2) and p = -2 sqrt(c1) w sqrt(q), with
  w = c2 + sqrt(c1) t and q the radicand, so (lam, c1, t) -> (f^2 lam, f^2 c1, t/f) keeps
  w, q and x, multiplies p by f and E = x^4 p^2/4 + lam x^2 by f^2, for lam of either sign;
- `lambda-map`: the same map keeps every radicand value, so (lam, c1, window) ->
  (f^2 lam, f^2 c1, window/f) keeps the status, and the roots (+-sqrt(-lam/c1) - c2)/sqrt(c1)
  divide singular_time by f;
- `phase-portrait`: the turning point sqrt(E/lam) and p^2 = 4E/x^4 - 4 lam/x^2 make
  (E, lam) -> (f^2 E, f^2 lam) keep x and multiply p by f, and lam -> lam/f^2 multiply x by
  f and divide p by f^2.

The inputs are drawn where no input, intermediate or printed value overflows,
underflows or goes subnormal at any factor, which is what keeps the scaling exact.
hbar^2 is the product hbar * hbar, which scales exactly; libm's pow behind hbar**2 is not
correctly rounded, and for about 1 in 4000 pairs (hbar, f) pow(f hbar, 2) is one ulp off
f^2 pow(hbar, 2).  A pinned case runs the laws in hbar (`box-spectrum`, `spectrum`, `wkb`)
at such a pair, hbar = 18.606542522450322 and f = 1/4.
Each law also runs once against a library with a wrong exponent, where it must
fail: the oracle sees the defect it guards against.
"""

import contextlib
import io
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pdmosc import classical, cli, quantum, semiclassical

#: f = 2^k for k in {-2, ..., 2}
FACTORS = st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0])
LAW = settings(max_examples=25, derandomize=True, deadline=None, database=None)


def log_uniform(lo, hi):
    """Floats log-uniform in [10^lo, 10^hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


def cells(argv):
    """The printed CSV rows of one successful in-process run, as strings."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return [line.split(",") for line in out.getvalue().splitlines()[1:]]


def rows(argv):
    """The printed CSV rows of one successful in-process run, as floats."""
    return [[float(v) for v in row] for row in cells(argv)]


def psi_rows(n, E, hbar, start, step, count):
    """eigenfunction on the half-grid start, start + step, ..., start + count * step."""
    grid = f"{start!r}:{start + step * count!r}:{step!r}"
    return rows(["eigenfunction", "--n", str(n), f"--E={E!r}", f"--hbar={hbar!r}", f"--x={grid}"])


def box_rows(n, n_zeros, eps, hbar):
    return rows(["box-spectrum", "--n", str(n), "--n-zeros", str(n_zeros),
                 f"--eps={eps!r}", f"--hbar={hbar!r}"])


def spectrum_rows(alpha1, gamma1, n_max, hbar):
    return rows(["spectrum", "--n-max", str(n_max), f"--alpha1={alpha1!r}",
                 f"--gamma1={gamma1!r}", f"--hbar={hbar!r}"])


def wkb_rows(n_max, hbar, A):
    return rows(["wkb", "--n-max", str(n_max), f"--hbar={hbar!r}", f"--turning-point={A!r}"])


def trajectory_rows(lam, c1, c2, start, step, count):
    grid = f"{start!r}:{start + step * count!r}:{step!r}"
    return rows(["trajectory", f"--lambda={lam!r}", f"--c1={c1!r}", f"--c2={c2!r}", f"--t={grid}"])


def lambda_map_rows(lambda_min, lambda_max, count, c1, c2, t0, t1):
    """(lambda, status, singular_time) rows; singular_time is None where lambda > 0."""
    argv = ["lambda-map", f"--lambda-min={lambda_min!r}", f"--lambda-max={lambda_max!r}",
            f"--count={count}", f"--c1={c1!r}", f"--c2={c2!r}", f"--window={t0!r}:{t1!r}"]
    return [[float(lam), status, float(t) if t else None] for lam, status, t in cells(argv)]


def phase_rows(energies, lam, points, x_floor_frac):
    return rows(["phase-portrait", f"--energies={','.join(map(repr, energies))}",
                 f"--lambda={lam!r}", f"--points={points}", f"--x-floor-frac={x_floor_frac!r}"])


# z = 2 sqrt(E)/(hbar x) stays within [8e-6, 2e6], so J_n(z) is above 1e-61, at every factor
PSI_INPUTS = dict(n=st.integers(1, 10), E=log_uniform(-4, 4), hbar=log_uniform(-2, 2),
                  start=log_uniform(-2, 0.7), step=log_uniform(-3, 0), count=st.integers(1, 20))
# E stays within [1e-14, 1e19] and |C| within [6e-4, 7e4] at every factor
BOX_INPUTS = dict(n=st.integers(1, 49), n_zeros=st.integers(1, 30),
                  eps=log_uniform(-3, 3), hbar=log_uniform(-3, 3))
# |s| <= 21.5 and n <= 30, so |lambda_n| lies within [1e-24, 4e9] where it is not 0, and
# nu^2 = s^2 + 4 lambda_n / hbar^2 stays near n^2 >= 1, at every factor
SPECTRUM_INPUTS = dict(alpha1=st.floats(-5, 5, allow_subnormal=False),
                       gamma1=st.floats(-5, 5, allow_subnormal=False),
                       n_max=st.integers(1, 30), hbar=log_uniform(-3, 3))
# the cutoffs eps = (1e-2 .. 1e-5) A stay above 2e-9 and lambda_n within [1e-9, 4e9],
# at every factor
WKB_INPUTS = dict(n_max=st.integers(0, 30), hbar=log_uniform(-3, 3), A=log_uniform(-3, 3))



@st.composite
def trajectory_inputs(draw):
    """A grid of t clear of the singular window: for lam < 0 it keeps to one side of the
    vertex -c2/sqrt(c1), where |w| >= w_min >= 0.01, and lam = -r c1 w_min^2 with r <= 0.9
    keeps the radicand at least 1e-5.  x stays within [5e-3, 4e2], |p| below 4e5 and
    E = c1 within [1e-2, 1e2], at every factor."""
    c1, c2 = draw(log_uniform(-2, 2)), draw(st.floats(-5, 5, allow_subnormal=False))
    start, step = draw(st.floats(-5, 5, allow_subnormal=False)), draw(log_uniform(-3, -0.5))
    count = draw(st.integers(1, 20))
    if draw(st.booleans()):
        lam = draw(log_uniform(-2, 2))
    else:
        w_ends = [c2 + math.sqrt(c1) * t for t in (start, start + step * count)]
        assume(w_ends[0] * w_ends[1] > 0.0)
        w_min = min(map(abs, w_ends))
        assume(w_min >= 0.01)
        lam = -draw(st.floats(0.01, 0.9)) * c1 * w_min * w_min
    return dict(lam=lam, c1=c1, c2=c2, start=start, step=step, count=count)


@st.composite
def lambda_map_inputs(draw):
    """A lambda grid of either sign through [-100, 100] and a window within [-20, 20]: the roots
    and the vertex stay within [-1.1e3, 1.1e3], at every factor."""
    lo, hi = sorted(draw(st.floats(-100, 100, allow_subnormal=False)) for _ in range(2))
    t0, t1 = sorted(draw(st.floats(-20, 20, allow_subnormal=False)) for _ in range(2))
    return dict(lambda_min=lo, lambda_max=hi, count=draw(st.integers(2, 20)),
                c1=draw(log_uniform(-2, 2)), c2=draw(st.floats(-5, 5, allow_subnormal=False)),
                t0=t0, t1=t1)


# E/lam within [1e-4, 1e4], so the turning point A lies within [1e-2, 1e2], 4E/x^4 within
# [4e-5, 4e13] at x_floor_frac >= 0.01, and p at most 1e7, at every factor
PHASE_INPUTS = dict(energies=st.lists(log_uniform(-2, 2), min_size=1, max_size=3),
                    lam=log_uniform(-2, 2), points=st.integers(4, 40),
                    x_floor_frac=st.floats(0.01, 0.9))


def check_psi_under_x_and_E(f, n, E, hbar, start, step, count):
    base = psi_rows(n, E, hbar, start, step, count)
    scaled = psi_rows(n, f * f * E, hbar, f * start, f * step, count)
    assert scaled == [[f * x, psi] for x, psi in base]


def check_psi_under_E_and_hbar(f, n, E, hbar, start, step, count):
    base = psi_rows(n, E, hbar, start, step, count)
    assert psi_rows(n, f * f * E, f * hbar, start, step, count) == base


def check_box_under_eps(f, n, n_zeros, eps, hbar):
    base = box_rows(n, n_zeros, eps, hbar)
    scaled = box_rows(n, n_zeros, f * eps, hbar)
    assert scaled == [[n_, N, f * eps_, f * f * E, f * C] for n_, N, eps_, E, C in base]


def check_box_under_hbar(f, n, n_zeros, eps, hbar):
    base = box_rows(n, n_zeros, eps, hbar)
    scaled = box_rows(n, n_zeros, eps, f * hbar)
    assert scaled == [[n_, N, eps_, f * f * E, C] for n_, N, eps_, E, C in base]


def check_spectrum_under_hbar(f, alpha1, gamma1, n_max, hbar):
    base = spectrum_rows(alpha1, gamma1, n_max, hbar)
    scaled = spectrum_rows(alpha1, gamma1, n_max, f * hbar)
    assert scaled == [[n, a, g, s, f * f * lam, nu] for n, a, g, s, lam, nu in base]


def check_wkb_under_A_and_hbar(f, n_max, hbar, A):
    base = wkb_rows(n_max, hbar, A)
    scaled = wkb_rows(n_max, f * hbar, f * A)
    assert scaled == [[n, f * f * lam, f * lhs, f * rhs, f * residual]
                      for n, lam, lhs, rhs, residual in base]


def check_trajectory_under_lam_c1_and_t(f, lam, c1, c2, start, step, count):
    base = trajectory_rows(lam, c1, c2, start, step, count)
    scaled = trajectory_rows(f * f * lam, f * f * c1, c2, start / f, step / f, count)
    assert scaled == [[t / f, x, f * p, f * f * E] for t, x, p, E in base]


def check_lambda_map_under_lam_c1_and_window(f, lambda_min, lambda_max, count, c1, c2, t0, t1):
    base = lambda_map_rows(lambda_min, lambda_max, count, c1, c2, t0, t1)
    scaled = lambda_map_rows(f * f * lambda_min, f * f * lambda_max, count, f * f * c1, c2,
                             t0 / f, t1 / f)
    assert scaled == [[f * f * lam, status, None if t is None else t / f]
                      for lam, status, t in base]


def check_phase_under_E_and_lam(f, energies, lam, points, x_floor_frac):
    base = phase_rows(energies, lam, points, x_floor_frac)
    scaled = phase_rows([f * f * E for E in energies], f * f * lam, points, x_floor_frac)
    assert scaled == [[f * f * E, x, f * pp, f * pm] for E, x, pp, pm in base]


def check_phase_under_lam(f, energies, lam, points, x_floor_frac):
    base = phase_rows(energies, lam, points, x_floor_frac)
    scaled = phase_rows(energies, lam / (f * f), points, x_floor_frac)
    assert scaled == [[E, f * x, pp / (f * f), pm / (f * f)] for E, x, pp, pm in base]


@LAW
@given(f=FACTORS, **PSI_INPUTS)
def test_psi_is_unchanged_when_x_doubles_and_E_quadruples(f, **inputs):
    check_psi_under_x_and_E(f, **inputs)


@LAW
@given(f=FACTORS, **PSI_INPUTS)
def test_psi_is_unchanged_when_E_quadruples_and_hbar_doubles(f, **inputs):
    check_psi_under_E_and_hbar(f, **inputs)


@LAW
@given(f=FACTORS, **BOX_INPUTS)
def test_doubling_eps_quadruples_the_box_energies_and_doubles_their_norms(f, **inputs):
    check_box_under_eps(f, **inputs)


@LAW
@given(f=FACTORS, **BOX_INPUTS)
def test_doubling_hbar_quadruples_the_box_energies(f, **inputs):
    check_box_under_hbar(f, **inputs)


@LAW
@given(f=FACTORS, **SPECTRUM_INPUTS)
def test_doubling_hbar_quadruples_lambda_n_and_keeps_nu(f, **inputs):
    check_spectrum_under_hbar(f, **inputs)


@LAW
@given(f=FACTORS, **WKB_INPUTS)
def test_doubling_A_and_hbar_quadruples_lambda_n_and_doubles_both_sides(f, **inputs):
    check_wkb_under_A_and_hbar(f, **inputs)


@LAW
@given(f=FACTORS, inputs=trajectory_inputs())
def test_quadrupling_lam_and_c1_at_half_the_time_keeps_x_and_doubles_p(f, inputs):
    check_trajectory_under_lam_c1_and_t(f, **inputs)


@LAW
@given(f=FACTORS, inputs=lambda_map_inputs())
def test_quadrupling_lam_and_c1_in_half_the_window_keeps_the_status(f, inputs):
    check_lambda_map_under_lam_c1_and_window(f, **inputs)


@LAW
@given(f=FACTORS, **PHASE_INPUTS)
def test_quadrupling_E_and_lam_keeps_x_and_doubles_p(f, **inputs):
    check_phase_under_E_and_lam(f, **inputs)


@LAW
@given(f=FACTORS, **PHASE_INPUTS)
def test_quartering_lam_doubles_x_and_quarters_p(f, **inputs):
    check_phase_under_lam(f, **inputs)


#: pow(HBAR_POW_MISROUNDS / 4, 2) is one ulp off pow(HBAR_POW_MISROUNDS, 2) / 16
HBAR_POW_MISROUNDS = 18.606542522450322


@pytest.mark.parametrize(
    "check, case",
    [
        (check_box_under_hbar, dict(n=1, n_zeros=5, eps=0.1)),
        (check_spectrum_under_hbar, dict(alpha1=0.0, gamma1=0.75, n_max=5)),
        (check_wkb_under_A_and_hbar, dict(n_max=5, A=1.0)),
    ],
    ids=["box-hbar", "spectrum-hbar", "wkb-A-hbar"],
)
def test_the_hbar_laws_hold_where_pow_misrounds_hbar_squared(check, case):
    check(0.25, hbar=HBAR_POW_MISROUNDS, **case)


def psi_with_E_for_sqrt_E(monkeypatch):
    """psi computed from z = 2 E/(hbar x): the exponent of E is 1, not 1/2."""
    general_solution = quantum.general_solution
    monkeypatch.setattr(quantum, "general_solution",
                        lambda x, nu, E, d, hbar: general_solution(x, nu, E * E, d, hbar))


def box_with_wrong_exponent(name):
    """box_spectrum computed from sqrt(eps) or sqrt(hbar): E goes with eps^1 or hbar^1."""
    def patch(monkeypatch):
        box_spectrum = quantum.box_spectrum

        def wrong(n, N_max, eps, hbar):
            args = {"eps": eps, "hbar": hbar}
            args[name] = math.sqrt(args[name])
            return box_spectrum(n, N_max, **args)

        monkeypatch.setattr(quantum, "box_spectrum", wrong)
    return patch


def lambda_with_sqrt_hbar(module, name):
    """module.name (lambda_quantized or wkb_lambda) computed from sqrt(hbar): lambda_n goes
    with hbar^1, not hbar^2."""
    def patch(monkeypatch):
        quantized = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: quantized(*args[:-1], math.sqrt(args[-1])))
    return patch


def momentum_with_c1_for_sqrt_c1(monkeypatch):
    """p computed as -2 c1 w sqrt(q): the exponent of c1 is 1, not 1/2."""
    exact_momentum = classical.exact_momentum
    monkeypatch.setattr(classical, "exact_momentum",
                        lambda t, params: exact_momentum(t, params) * math.sqrt(params.c1))


def singular_time_with_c1_to_the_0(monkeypatch):
    """singular_time times sqrt(c1): it goes with c1^0, not c1^(-1/2)."""
    singularity_time = classical.singularity_time
    monkeypatch.setattr(classical, "singularity_time",
                        lambda params: singularity_time(params) * math.sqrt(params.c1))


def phase_curve_with_sqrt_lam(monkeypatch):
    """phase_curve computed from sqrt(lam): A = sqrt(E/lam) goes with lam^(-1/4), not lam^(-1/2)."""
    phase_curve = classical.phase_curve
    monkeypatch.setattr(classical, "phase_curve",
                        lambda E, lam, *args: phase_curve(E, math.sqrt(lam), *args))


TRAJECTORY_CASE = dict(lam=-0.5, c1=1.0, c2=1.0, start=0.0, step=0.25, count=4)
LAMBDA_MAP_CASE = dict(lambda_min=-2.0, lambda_max=-1.0, count=5, c1=1.0, c2=-5.0, t0=0.0, t1=10.0)
PHASE_CASE = dict(energies=[0.5, 1.0], lam=1.0, points=8, x_floor_frac=0.05)
PSI_CASE = dict(n=1, E=1.0, hbar=1.0, start=0.5, step=0.25, count=4)
BOX_CASE = dict(n=1, n_zeros=5, eps=0.1, hbar=1.0)
SPECTRUM_CASE = dict(alpha1=0.0, gamma1=0.75, n_max=5, hbar=1.0)
WKB_CASE = dict(n_max=5, hbar=1.0, A=1.0)


@pytest.mark.parametrize(
    "check, case, patch",
    [
        (check_psi_under_x_and_E, PSI_CASE, psi_with_E_for_sqrt_E),
        (check_psi_under_E_and_hbar, PSI_CASE, psi_with_E_for_sqrt_E),
        (check_box_under_eps, BOX_CASE, box_with_wrong_exponent("eps")),
        (check_box_under_hbar, BOX_CASE, box_with_wrong_exponent("hbar")),
        (check_spectrum_under_hbar, SPECTRUM_CASE,
         lambda_with_sqrt_hbar(quantum, "lambda_quantized")),
        (check_wkb_under_A_and_hbar, WKB_CASE, lambda_with_sqrt_hbar(semiclassical, "wkb_lambda")),
        (check_trajectory_under_lam_c1_and_t, TRAJECTORY_CASE, momentum_with_c1_for_sqrt_c1),
        (check_lambda_map_under_lam_c1_and_window, LAMBDA_MAP_CASE, singular_time_with_c1_to_the_0),
        (check_phase_under_E_and_lam, PHASE_CASE, phase_curve_with_sqrt_lam),
        (check_phase_under_lam, PHASE_CASE, phase_curve_with_sqrt_lam),
    ],
    ids=["psi-x-E", "psi-E-hbar", "box-eps", "box-hbar", "spectrum-hbar", "wkb-A-hbar",
         "trajectory-lam-c1-t", "lambda-map-lam-c1-window", "phase-E-lam", "phase-lam"],
)
def test_each_law_fails_under_a_wrong_exponent(check, case, patch, monkeypatch):
    check(2.0, **case)  # the law holds on the library as it is
    patch(monkeypatch)
    with pytest.raises(AssertionError):
        check(2.0, **case)
