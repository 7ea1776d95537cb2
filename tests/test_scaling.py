"""Exact scaling laws of the model as bit-level oracles, run through the command line.

Under a power-of-two factor f = 2^k every rounding step of these closed forms
scales exactly, so each law holds bit for bit:

- `eigenfunction`: the Bessel argument z = 2 sqrt(E)/(hbar x) is invariant under
  (x, E) -> (f x, f^2 E) and under (E, hbar) -> (f^2 E, f hbar), so psi keeps its
  bits while x scales by f;
- `box-spectrum`: E = hbar^2 j^2 eps^2 / 4 and C = eps / J_{n+1}(j), so eps -> f eps
  multiplies E by f^2 and C by f, and hbar -> f hbar multiplies E by f^2.

The inputs are drawn where no input, intermediate or printed value overflows,
underflows or goes subnormal at any factor, which is what keeps the scaling exact.
Each law also runs once against a library with a wrong exponent, where it must
fail: the oracle sees the defect it guards against.
"""

import contextlib
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmosc import cli, quantum

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


# z = 2 sqrt(E)/(hbar x) stays within [8e-6, 2e6], so J_n(z) is above 1e-61, at every factor
PSI_INPUTS = dict(n=st.integers(1, 10), E=log_uniform(-4, 4), hbar=log_uniform(-2, 2),
                  start=log_uniform(-2, 0.7), step=log_uniform(-3, 0), count=st.integers(1, 20))
# E stays within [1e-14, 1e19] and |C| within [6e-4, 7e4] at every factor
BOX_INPUTS = dict(n=st.integers(1, 49), n_zeros=st.integers(1, 30),
                  eps=log_uniform(-3, 3), hbar=log_uniform(-3, 3))


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


PSI_CASE = dict(n=1, E=1.0, hbar=1.0, start=0.5, step=0.25, count=4)
BOX_CASE = dict(n=1, n_zeros=5, eps=0.1, hbar=1.0)


@pytest.mark.parametrize(
    "check, case, patch",
    [
        (check_psi_under_x_and_E, PSI_CASE, psi_with_E_for_sqrt_E),
        (check_psi_under_E_and_hbar, PSI_CASE, psi_with_E_for_sqrt_E),
        (check_box_under_eps, BOX_CASE, box_with_wrong_exponent("eps")),
        (check_box_under_hbar, BOX_CASE, box_with_wrong_exponent("hbar")),
    ],
    ids=["psi-x-E", "psi-E-hbar", "box-eps", "box-hbar"],
)
def test_each_law_fails_under_a_wrong_exponent(check, case, patch, monkeypatch):
    check(2.0, **case)  # the law holds on the library as it is
    patch(monkeypatch)
    with pytest.raises(AssertionError):
        check(2.0, **case)
