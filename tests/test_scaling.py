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
  |I|, rhs and the residual lhs - rhs by f.

The inputs are drawn where no input, intermediate or printed value overflows,
underflows or goes subnormal at any factor, which is what keeps the scaling exact.
One rounding step does not scale exactly: hbar**2 goes through libm's pow, which is
not correctly rounded, so for about 1 in 4000 pairs (hbar, f) pow(f hbar, 2) is one ulp
off f^2 pow(hbar, 2), and the laws in hbar (`box-spectrum`, `spectrum`, `wkb`) miss by
one ulp (hbar = 18.606542522450322, f = 1/4); none of the draws below meets such an hbar.
Each law also runs once against a library with a wrong exponent, where it must
fail: the oracle sees the defect it guards against.
"""

import contextlib
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmosc import cli, quantum, semiclassical

#: f = 2^k for k in {-2, ..., 2}
FACTORS = st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0])
LAW = settings(max_examples=25, derandomize=True, deadline=None, database=None)


def log_uniform(lo, hi):
    """Floats log-uniform in [10^lo, 10^hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


def rows(argv):
    """The printed CSV rows of one successful in-process run, as floats."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return [[float(v) for v in line.split(",")] for line in out.getvalue().splitlines()[1:]]


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
    ],
    ids=["psi-x-E", "psi-E-hbar", "box-eps", "box-hbar", "spectrum-hbar", "wkb-A-hbar"],
)
def test_each_law_fails_under_a_wrong_exponent(check, case, patch, monkeypatch):
    check(2.0, **case)  # the law holds on the library as it is
    patch(monkeypatch)
    with pytest.raises(AssertionError):
        check(2.0, **case)
