import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from pdmosc import bessel
from oracles import series_j, series_j_prime, series_zero

# first zeros frozen from the series-bisection oracle
J11 = 3.8317059702075123
J12 = 7.0155866698156188
J21 = 5.1356223018406826


def test_j_at_origin():
    assert bessel.jv(0, 0.0) == pytest.approx(1.0, abs=0.0)
    assert bessel.jv(1, 0.0) == 0.0
    assert bessel.jv(2.5, 0.0) == 0.0


def test_j_vanishes_at_first_zero_of_j1():
    oracle_zero = series_zero(1, 1)
    assert oracle_zero == pytest.approx(J11, abs=1e-9)
    assert abs(bessel.jv(1, oracle_zero)) < 1e-9


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.0, 5.5, 10.0])
def test_j_matches_series_oracle(nu):
    for x in np.linspace(0.05, 12.0, 40):
        expected = series_j(nu, float(x))
        assert bessel.jv(nu, float(x)) == pytest.approx(expected, abs=2e-11)


@pytest.mark.parametrize("nu", [1, 2, 5, 10, 25, bessel.ORDER_MAX])
def test_j_is_accurate_to_1e_12_over_its_measured_domain(nu):
    """The one domain the bessel module states: order <= 50 and argument <= 1e15.  The error
    is relative to max(sqrt(2/(pi z)), |J|), the envelope or the value, and relative to |J|
    where z < nu.  Log-uniform arguments, 20 in each of [1e-2, 1e3], [1e3, 1e6] and
    [1e6, 1e15], plus the argument limit itself, against mpmath at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(int(nu))
    zs = [10 ** rng.uniform(lo, hi) for lo, hi in ((-2, 3), (3, 6), (6, 15)) for _ in range(20)]
    zs.append(bessel.ARGUMENT_RESOLVED_MAX)
    worst = 0.0
    with mpmath.workdps(40):
        for z, got in zip(zs, bessel.jv(nu, np.array(zs)).tolist()):
            exact = mpmath.besselj(nu, z)
            scale = abs(exact) if z < nu else max(mpmath.sqrt(2 / (mpmath.pi * z)), abs(exact))
            worst = max(worst, float(abs(got - exact) / scale))
    assert worst <= 1e-12  # measured 5.2e-13 at nu = 50, 3.0e-14 at nu = 25


def y_prime(nu, x):
    """Y'_nu by the same two-term recurrence that gives J'_nu."""
    return 0.5 * (bessel.yv(nu - 1.0, x) - bessel.yv(nu + 1.0, x))


def test_y_divergence_toward_origin():
    # log singularity for nu = 0, pole for nu >= 1
    assert bessel.yv(0, 1e-15) < -20.0
    assert bessel.yv(1, 1e-15) < -1e10
    y_vals = [bessel.yv(1, x) for x in (1e-2, 1e-4, 1e-6)]
    assert y_vals[0] > y_vals[1] > y_vals[2]


def test_wronskian_at_two():
    x = 2.0
    for nu in (0.0, 0.5, 1.0, 3.0):
        j, jp, _ = bessel.jv_derivatives(nu, x)
        w = j * y_prime(nu, x) - jp * bessel.yv(nu, x)
        assert w == pytest.approx(2.0 / (math.pi * x), abs=1e-9)


def test_wronskian_on_log_grid():
    xs = np.logspace(-1, 2, 50)
    for nu in range(11):
        j, jp, _ = bessel.jv_derivatives(nu, xs)
        w = j * y_prime(nu, xs) - jp * bessel.yv(nu, xs) - 2.0 / (math.pi * xs)
        assert np.max(np.abs(w)) < 1e-9


def test_recurrence_identity():
    xs = np.logspace(-1, 2, 50)
    for nu in range(1, 11):
        res = (
            bessel.jv(nu - 1, xs)
            + bessel.jv(nu + 1, xs)
            - (2.0 * nu / xs) * bessel.jv(nu, xs)
        )
        assert np.max(np.abs(res)) < 1e-9


def test_j_prime_identities():
    def j_prime(nu, x):
        return bessel.jv_derivatives(nu, x)[1]

    # J0' = -J1
    x = 1.5
    assert j_prime(0, x) == pytest.approx(-bessel.jv(1, x), abs=1e-10)
    # at a zero of J1 both derivative routes agree: J1' = J0 = (J0 - J2)/2 there
    j = series_zero(1, 1)
    via_recurrence = j_prime(1, j)
    via_j0 = bessel.jv(0, j) - bessel.jv(1, j) / j
    assert via_recurrence == pytest.approx(via_j0, abs=1e-9)
    # series-oracle cross-check of the derivative itself
    assert via_recurrence == pytest.approx(series_j_prime(1.0, j), abs=1e-10)
    # order-2 derivative vanishes linearly at small argument
    small = j_prime(2, 0.001)
    assert 0.0 < small < 1e-3


def test_bound_for_integer_orders():
    xs = np.linspace(0.0, 80.0, 400)
    for n in range(0, 11):
        assert np.max(np.abs(bessel.jv(n, xs))) <= 1.0 + 1e-12


@pytest.mark.parametrize(
    "n,N,frozen",
    [(1, 1, 3.8317059702), (1, 2, 7.0155866698), (2, 1, 5.1356223018)],
)
def test_zero_frozen_values(n, N, frozen):
    assert bessel.bessel_zero(n, N) == pytest.approx(frozen, abs=1e-9)


def test_zeros_match_series_oracle():
    for n in (1, 2):
        for N in (1, 2, 3):
            assert bessel.bessel_zero(n, N) == pytest.approx(series_zero(n, N), abs=1e-9)


def test_zero_interlacing():
    zeros = {(n, N): bessel.bessel_zero(n, N) for n in range(1, 7) for N in range(1, 6)}
    for n in range(1, 6):
        for N in range(1, 5):
            assert zeros[(n, N)] < zeros[(n + 1, N)] < zeros[(n, N + 1)]


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(n=st.integers(1, 10), N=st.integers(1, 30))
def test_zeros_interlace_for_every_order_and_index(n, N):
    """j_{n,N} < j_{n+1,N} < j_{n,N+1} (Watson, Theory of Bessel Functions, 15.22)."""
    this, higher = bessel.bessel_zeros(n, N + 1), bessel.bessel_zeros(n + 1, N)
    assert this[N - 1] < higher[N - 1] < this[N]


def test_zero_large_order_bracketing():
    # McMahon's leading guess misbrackets here; the scan must not
    j = bessel.bessel_zero(10, 1)
    assert abs(bessel.jv(10, j)) < 1e-12
    assert 14.0 < j < 15.0


def test_zero_argument_validation():
    with pytest.raises(ValueError):
        bessel.bessel_zero(0, 1)
    with pytest.raises(ValueError):
        bessel.bessel_zero(1, 0)
    with pytest.raises(ValueError):
        bessel.bessel_zero(1.5, 1)
    for bad in (math.nan, math.inf, -math.inf):  # refused before int(), which would overflow
        with pytest.raises(ValueError, match=f"^integer order n >= 1 required, got {bad}$"):
            bessel.bessel_zero(bad, 1)
        with pytest.raises(ValueError, match=f"^zero index N >= 1 required, got {bad}$"):
            bessel.bessel_zero(1, bad)


def test_vectorized_evaluation():
    xs = np.array([0.5, 1.0, 2.0])
    out = bessel.jv(1, xs)
    assert out.shape == xs.shape
    assert out[1] == pytest.approx(bessel.jv(1, 1.0))


def test_the_scalar_path_is_the_ufunc_value_as_a_float_and_jv_is_the_ufunc():
    # the quadrature integrands take J from _sp.jv_scalar; jv at a float is the ufunc's own call
    xs = np.concatenate([np.linspace(0.0, 1e3, 2001), [5e-324, 1e5, math.inf, math.nan]])
    for nu in [*range(51), -1, -2, -7, -0.5, 0.5, 1.5, 2.5, 10.5, 49.5]:
        ufunc = special.jv(nu, xs)
        for x, expected in zip(xs.tolist(), ufunc.tolist()):
            scalar, value = bessel._sp.jv_scalar(nu, x), bessel.jv(nu, x)
            assert type(scalar) is float and type(value) is np.float64
            for got in (scalar, value):
                assert got == expected or (math.isnan(got) and math.isnan(expected))
    assert isinstance(bessel.jv(1, xs), np.ndarray)
    assert bessel.jv(1, 2) == special.jv(1, 2.0) and type(bessel.jv(1, 2)) is np.float64


@pytest.fixture
def fake_j(monkeypatch):
    """Installs a stand-in for J as ``bessel._sp.jv``; the zero memo is emptied
    before and after, so no memoized zero of J or of the stand-in crosses over."""
    bessel._polish_zero.cache_clear()
    yield lambda jv: monkeypatch.setattr(bessel, "_sp", SimpleNamespace(jv=jv))
    bessel._polish_zero.cache_clear()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_zeros_single_scan_equals_per_zero_calls(n):
    zeros = bessel.bessel_zeros(n, 200)
    assert zeros == [bessel.bessel_zero(n, N) for N in range(1, 201)]
    # memoized or not, each zero has the bits of a fresh polish of its bracket
    brackets = bessel._zero_brackets(n, 200)
    assert zeros == [bessel._polish_zero.__wrapped__(n, N, b) for N, b in enumerate(brackets, 1)]
    # the Newton stopping rule |x_new - x| < 1e-12 leaves errors up to ~1.02e-12
    # near x ~ 540 (checked against mpmath.besseljzero), hence 1.5e-12 here
    assert np.max(np.abs(np.array(zeros) - special.jn_zeros(n, 200))) < 1.5e-12


def test_zeros_argument_validation_matches_bessel_zero():
    nonfinite = [(bad, 1) for bad in (math.nan, math.inf, -math.inf)]
    nonfinite += [(1, bad) for bad in (math.nan, math.inf, -math.inf)]
    for args in [(0, 1), (1, 0), (1.5, 1), (1, 2.5), (-1, 3), (2, -4), *nonfinite]:
        with pytest.raises(ValueError) as single:
            bessel.bessel_zero(*args)
        with pytest.raises(ValueError) as scan:
            bessel.bessel_zeros(*args)
        assert str(scan.value) == str(single.value)


def test_exact_zero_at_a_scan_point_is_returned_as_is(fake_j):
    # J_1 replaced by (4 - x)(x - 8.5): exactly 0.0 at the grid point x = 4,
    # then a sign change in (8, 9)
    fake_j(lambda nu, x: (4.0 - x) * (x - 8.5) + 0.0 * nu)  # broadcast over an order array
    zeros = bessel.bessel_zeros(1, 2)
    assert zeros[0] == 4.0 == bessel.bessel_zero(1, 1)
    assert zeros[1] == bessel.bessel_zero(1, 2) == pytest.approx(8.5, abs=1e-9)


def test_a_stand_in_j_gets_its_own_zeros(fake_j):
    # shifted by 0.1, the zeros keep J_1's brackets, so J_1's memoized zeros
    # (polished by the tests above) would answer if the memo were not emptied
    fake_j(lambda nu, x: special.jv(nu, x - 0.1))
    assert bessel.bessel_zeros(1, 3) == pytest.approx(special.jn_zeros(1, 3) + 0.1, abs=1e-9)


def test_zeros_after_the_stand_in_tests_are_those_of_j():
    zeros = np.array(bessel.bessel_zeros(1, 3))
    assert np.max(np.abs(zeros - special.jn_zeros(1, 3))) < 1.5e-12


def test_a_polished_zero_costs_no_further_j_evaluation(monkeypatch):
    zeros = bessel.bessel_zeros(3, 10)
    calls = []

    def jv(nu, x):
        calls.append(x)
        return special.jv(nu, x)

    monkeypatch.setattr(bessel, "_sp", SimpleNamespace(jv=jv))  # still J: the memo stays valid
    assert bessel.bessel_zeros(3, 10) == zeros
    assert bessel.bessel_zero(3, 7) == zeros[6]
    assert len(calls) == 2  # one bracketing scan per call, no polish


def test_zeros_bracket_from_one_array_evaluation(monkeypatch):
    calls = []

    def jv(nu, x):
        calls.append(x)
        return special.jv(nu, x)

    monkeypatch.setattr(bessel, "_sp", SimpleNamespace(jv=jv))
    brackets = bessel._zero_brackets(1, 5)
    assert len(calls) == 1 and len(brackets) == 5
    assert all(a < j < b for (a, b), j in zip(brackets, special.jn_zeros(1, 5)))


def reference_polish(n, bracket, iterates=None):
    """The zero polish as three one-value ``special.jv`` calls per iterate (J_n, then
    J_{n-1} and J_{n+1} for J'), the reference :func:`bessel._polish_zero` must reproduce
    bit for bit; each iterate x is appended to ``iterates`` when one is given."""
    a, b = bracket
    fa = special.jv(n, a)
    x = 0.5 * (a + b)
    for _ in range(100):
        if iterates is not None:
            iterates.append(x)
        f = special.jv(n, x)
        if f == 0.0:
            return x
        if fa * f < 0.0:
            b = x
        else:
            a, fa = x, f
        df = 0.5 * (special.jv(n - 1.0, x) - special.jv(n + 1.0, x))
        step = f / df if df != 0.0 else np.inf
        x_new = x - step
        if not (a < x_new < b):
            x_new = 0.5 * (a + b)
        if abs(x_new - x) < bessel.ZERO_ABS_TOL:
            return x_new
        x = x_new
    raise AssertionError(f"the reference polish of J_{n} did not converge in {bracket}")


@pytest.mark.parametrize("n", [1, 2, 5, 10, 25, 49])
def test_zeros_are_the_python_floats_of_the_one_value_polish(n):
    zeros = bessel.bessel_zeros(n, 300)
    assert all(type(z) is float for z in zeros)
    want = [reference_polish(n, b) for b in bessel._zero_brackets(n, 300)]
    assert [N for N, (z, w) in enumerate(zip(zeros, want), 1) if z != w] == []


@pytest.mark.parametrize("n, N", [(1, 1), (3, 7), (10, 40), (49, 300)])
def test_the_polish_makes_one_call_of_three_orders_per_iterate(monkeypatch, n, N):
    calls = []

    def jv(nu, x):
        calls.append((np.ravel(nu).tolist(), x))
        return special.jv(nu, x)

    bracket = bessel._zero_brackets(n, N)[-1]
    iterates = []
    want = reference_polish(n, bracket, iterates)
    monkeypatch.setattr(bessel, "_sp", SimpleNamespace(jv=jv))
    assert bessel._polish_zero.__wrapped__(n, N, bracket) == want
    # one call for the bracket end, then one of the orders n, n - 1, n + 1 per iterate
    assert calls == [([n], bracket[0])] + [([n, n - 1, n + 1], x) for x in iterates]


@pytest.mark.xfail(strict=True, reason="the zero polish ends in bisection; see _polish_zero")
def test_zeros_match_mpmath_to_1e_14():
    mpmath = pytest.importorskip("mpmath")
    zeros = bessel.bessel_zeros(1, 200)
    err = max(abs(zeros[N - 1] - float(mpmath.besseljzero(1, N))) for N in range(10, 201, 10))
    assert err < 1e-14


# ---------------------------------------------------------------------------
# order tables: the bits of one ufunc call per order


def per_order_derivatives(nu, x):
    """(J, J', J'') of one order from one ufunc call per order, the reference
    :func:`bessel.jv_derivatives` must reproduce bit for bit."""
    j = special.jv(nu, x)
    jp = 0.5 * (special.jv(nu - 1.0, x) - special.jv(nu + 1.0, x))
    return j, jp, 0.25 * (special.jv(nu - 2.0, x) - 2.0 * j + special.jv(nu + 2.0, x))


def same_bits(got, want):
    return type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


ORDER_ARRAYS = {
    "consecutive": np.arange(1.0, 7.0),
    "negative": np.arange(-4.0, 3.0),
    # 0.3 + k as pct_reduce takes nu: 1.3 - 1.0 is not 0.3, so each order keeps its own row
    "non-integer": 0.3 + np.arange(6.0),
    "repeated": np.array([2.0, 2.0, 5.5]),
}


@pytest.mark.parametrize("orders", ORDER_ARRAYS.values(), ids=ORDER_ARRAYS.keys())
def test_jv_derivatives_over_an_order_array_are_the_per_order_bits(orders):
    xs = np.logspace(-1, 2, 41)
    table = bessel.jv_derivatives(orders, xs)
    for k, got in enumerate(table):
        assert got.shape == (orders.size, xs.size)
        for row, nu in zip(got, orders.tolist()):
            assert same_bits(row, per_order_derivatives(nu, xs)[k])


@pytest.mark.parametrize("x", [1.7, np.float64(1.7), np.linspace(0.1, 30.0, 37),
                               np.linspace(0.5, 5.0, 12).reshape(3, 4)])
@pytest.mark.parametrize("nu", [-2.0, 0.0, 0.3, 1.3, 3])
def test_jv_derivatives_at_a_scalar_order_keep_their_types_and_bits(nu, x):
    for got, want in zip(bessel.jv_derivatives(nu, x), per_order_derivatives(nu, x)):
        assert same_bits(got, want)


def test_jv_derivatives_evaluate_each_distinct_order_once(monkeypatch):
    calls = []

    def jv(nu, x):
        calls.append(np.ravel(nu).tolist())
        return special.jv(nu, x)

    monkeypatch.setattr(bessel, "_sp", SimpleNamespace(jv=jv))
    bessel.jv_derivatives(np.arange(1.0, 7.0), np.linspace(1.0, 2.0, 5))
    assert calls == [list(range(-1, 9))]  # one call, 10 orders for the 30 terms of n = 1..6
