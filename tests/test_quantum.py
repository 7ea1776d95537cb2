import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmosc import bessel, classical, quantum
from pdmosc.quantum import (
    ComplexOrderError,
    ContinuumState,
    SingleTermOrdering,
)
from pdmosc.semiclassical import QuadratureError
from oracles import mass_form_coefficients, series_zero

CLEAN = SingleTermOrdering.from_alpha_gamma(0.0, 0.75)  # reduces with no prefactor, s = 3

# frozen from the quadrature oracle for n = 1, hbar = 1
OVERLAP_EQUAL_E_R50 = 13.415820882659931
OVERLAP_EQUAL_E_R200 = 53.50290364154303


def random_orderings(count, seed=7):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        a, g = rng.uniform(-2.0, 2.0, size=2)
        yield SingleTermOrdering.from_alpha_gamma(float(a), float(g))


# ---------------------------------------------------------------------------
# orderings


def test_single_term_constraint_and_derived_values():
    assert CLEAN.beta1 == pytest.approx(-1.75)
    assert CLEAN.s == pytest.approx(3.0)
    assert CLEAN.eta == pytest.approx(0.375)
    assert CLEAN.reduces_cleanly
    plain = SingleTermOrdering.from_alpha_gamma(0.0, 0.0)
    assert plain.s == pytest.approx(1.5)
    assert not plain.reduces_cleanly


@pytest.mark.parametrize("a, g", [(1e5, 0.1), (1e10, 0.3)])
def test_ordering_far_from_the_origin_derives_beta1(a, g):
    ordering = SingleTermOrdering.from_alpha_gamma(a, g)
    assert (ordering.alpha1, ordering.gamma1) == (a, g)
    assert ordering.beta1 == -1.0 - a - g  # rounded, so a + beta1 + g is not exactly -1


def _reduces_cleanly_reference(ordering):
    """The gap test the residual checks made before the ordering answered it."""
    return abs((ordering.gamma1 - ordering.alpha1) - 0.75) <= 1e-9


@pytest.mark.parametrize("a", [-1.0, 0.0, 0.3, 1e3])
def test_reduces_cleanly_matches_the_gap_test_at_its_edge(a):
    gaps = [0.75 + k * 2.5e-10 for k in range(-6, 7)]
    gaps += [math.nextafter(0.75, -math.inf), math.nextafter(0.75, math.inf)]
    decisions = set()
    for gap in gaps:
        ordering = SingleTermOrdering.from_alpha_gamma(a, a + gap)
        assert ordering.reduces_cleanly == _reduces_cleanly_reference(ordering), gap
        decisions.add(ordering.reduces_cleanly)
    assert decisions == {True, False}  # the grid straddles the 1e-9 edge


# ---------------------------------------------------------------------------
# wave equation coefficients and quantization


def test_ode_coefficients_examples():
    c = quantum.ode_coefficients(SingleTermOrdering.from_alpha_gamma(0.0, 0.0), 1.0, 1.0, 1.0)
    assert (c.first_order, c.inv_x2, c.inv_x4) == pytest.approx((4.0, 4.0, 4.0))
    c = quantum.ode_coefficients(CLEAN, 0.0, 1.0, 1.0)
    assert (c.first_order, c.inv_x2, c.inv_x4) == pytest.approx((1.0, 9.0, 4.0))


def test_ode_coefficients_against_mass_form_oracle():
    xs = np.linspace(0.3, 5.0, 17)
    for ordering in random_orderings(20):
        lam, E, hbar = 0.7, 1.3, 1.1
        c = quantum.ode_coefficients(ordering, lam, E, hbar)
        for x in xs:
            cp, cpsi = mass_form_coefficients(
                ordering.alpha1, ordering.gamma1, lam, E, hbar, float(x)
            )
            assert c.first_order / x == pytest.approx(cp, abs=1e-12)
            assert c.inv_x4 / x**4 - c.inv_x2 / x**2 == pytest.approx(cpsi, abs=1e-11)


def test_nu_from_params_examples():
    s0 = SingleTermOrdering.from_alpha_gamma(-0.375, 0.0)  # alpha+gamma = -3/8... s = 3/4
    zero_s = SingleTermOrdering.from_alpha_gamma(-0.75, 0.0)  # s = 0
    assert zero_s.s == pytest.approx(0.0)
    assert quantum.nu_from_params(zero_s, 1.0, 1.0) == pytest.approx(2.0)
    assert quantum.nu_from_params(s0, 0.0, 1.0) == pytest.approx(abs(s0.s))
    assert quantum.nu_from_params(CLEAN, -1.25, 1.0) == pytest.approx(2.0)
    with pytest.raises(ComplexOrderError):
        quantum.nu_from_params(zero_s, -0.1, 1.0)


def test_integer_array_n_gives_the_scalar_results_elementwise():
    n = np.arange(1, 2001)
    for ordering, hbar in [(CLEAN, 1.0), (SingleTermOrdering.from_alpha_gamma(0.3, -0.7), 0.37)]:
        lam = quantum.lambda_quantized(n, ordering, hbar)
        nu = quantum.nu_from_params(ordering, lam, hbar)
        assert lam.tolist() == [quantum.lambda_quantized(k, ordering, hbar) for k in n.tolist()]
        assert nu.tolist() == [quantum.nu_from_params(ordering, v, hbar) for v in lam.tolist()]
    assert type(quantum.nu_from_params(CLEAN, -2.0, 1.0)) is float


def test_array_n_refuses_any_bad_entry():
    for bad in (np.array([1, 0, 2]), np.array([1.0, 2.5])):
        with pytest.raises(ValueError, match="quantum number n must be a positive integer"):
            quantum.lambda_quantized(bad, CLEAN, 1.0)


def test_array_nu_from_params_names_the_first_negative_nu_squared():
    with pytest.raises(ComplexOrderError, match=r"nu\^2 = -7 < 0 for s = 3, lam = -4:"):
        quantum.nu_from_params(CLEAN, np.array([0.0, -4.0, -5.0]), 1.0)


def test_array_lam_fails_like_a_scalar_where_hbar_squared_underflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in (0.0, np.zeros(3)):
            with pytest.raises(ZeroDivisionError, match="float division by zero"):
                quantum.nu_squared(CLEAN, lam, 1e-170)


def test_lambda_quantized_examples_and_roundtrip():
    zero_s = SingleTermOrdering.from_alpha_gamma(-0.75, 0.0)
    assert quantum.lambda_quantized(2, zero_s, 1.0) == pytest.approx(1.0)
    assert quantum.lambda_quantized(2, CLEAN, 1.0) == pytest.approx(-1.25)
    with pytest.raises(ValueError):
        quantum.lambda_quantized(0, CLEAN, 1.0)
    for ordering in random_orderings(20, seed=11):
        for n in range(1, 11):
            lam = quantum.lambda_quantized(n, ordering, 1.0)
            assert quantum.nu_from_params(ordering, lam, 1.0) == pytest.approx(n, abs=1e-12)


# ---------------------------------------------------------------------------
# solutions and boundary behavior


def test_general_solution_decay_and_zero_placement():
    # with d = 0 the tail decays like sqrt(E)/(hbar x) [Gamma(2) = 1]
    x = 1e3
    val = quantum.general_solution(x, 1.0, 1.0, 0.0, 1.0)
    assert val == pytest.approx(1.0 / x, rel=1e-5)
    # argument hits the first zero of J_1 at x = 2/j_{1,1}
    x_zero = 2.0 / 3.8317059702075123
    assert abs(quantum.general_solution(x_zero, 1.0, 1.0, 0.0, 1.0)) < 1e-9
    with pytest.raises(ValueError):
        quantum.general_solution(-1.0, 1.0, 1.0, 0.0, 1.0)


def test_general_solution_second_kind_divergence():
    # the second-kind Y_nu(2 sqrt(E)/(hbar x)) blows up along the tail x -> infinity,
    # which is why the boundary analysis keeps only the first-kind solution
    vals = [abs(bessel.yv(1.0, 2.0 / x)) for x in (10.0, 100.0, 1000.0)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 100.0
    clean = [
        abs(quantum.general_solution(x, 1.0, 1.0, 0.0, 1.0)) for x in (10.0, 100.0, 1000.0)
    ]
    assert clean[0] > clean[1] > clean[2]


def test_continuum_state_validation():
    # n is checked by the zero finder's integer-order rule
    with pytest.raises(ValueError, match="^integer order n >= 1 required, got 0$"):
        ContinuumState(n=0, E=1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^integer order n >= 1 required, got {bad}$"):
            ContinuumState(n=bad, E=1.0)
    with pytest.raises(ValueError):
        ContinuumState(n=2, E=-1.0)
    state = ContinuumState(n=2, E=1.0)
    assert state.amplitude == 1.0


def test_eigenfunction_parity():
    xs = np.linspace(0.2, 10.0, 400)
    for n in (1, 2, 3, 4):
        state = ContinuumState(n=n, E=1.0)
        plus = quantum.eigenfunction(xs, state)
        minus = quantum.eigenfunction(-xs, state)
        assert np.array_equal(minus, (-1.0) ** n * plus)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(1, 10),
    E=st.floats(1e-3, 1e3),
    hbar=st.floats(1e-2, 1e2),
    xs=st.lists(st.floats(1e-4, 1e3), min_size=1, max_size=30),
)
def test_eigenfunction_parity_holds_bit_for_bit(n, E, hbar, xs):
    """psi(-x) == (-1)^n psi(x) exactly, Bessel arguments up to 6e7 included."""
    x, state = np.array(xs), ContinuumState(n=n, E=E)
    plus = quantum.eigenfunction(x, state, hbar)
    assert np.array_equal(quantum.eigenfunction(-x, state, hbar), (-1.0) ** n * plus)


def test_eigenfunction_tail_and_origin():
    state = ContinuumState(n=1, E=1.0)
    assert quantum.eigenfunction(100.0, state) == pytest.approx(1.0 / 100.0, rel=1e-3)
    with pytest.raises(ValueError):
        quantum.eigenfunction(0.0, state)


def test_eigenfunction_zero_crossings_match_bessel_zeros():
    state = ContinuumState(n=1, E=1.0)
    xs = np.linspace(0.2, 10.0, 20000)
    psi = quantum.eigenfunction(xs, state)
    sign_flips = np.where(np.sign(psi[:-1]) * np.sign(psi[1:]) < 0)[0]
    crossings = sorted(0.5 * (xs[i] + xs[i + 1]) for i in sign_flips)
    expected = sorted(2.0 / series_zero(1, k) for k in (1, 2))  # only these fall in range
    assert len(crossings) == len(expected)
    for found, want in zip(crossings, expected):
        assert found == pytest.approx(want, abs=1e-3)


# exact floats at E = 1, hbar = 1 on a grid straddling |x| = 1e-3, the Bessel argument
# 2000 past which psi was once its squeeze envelope; +-5e-4 give J_n(4000)
FLOOR_GRID = [-0.5, -2e-3, -5e-4, 5e-4, 2e-3, 0.5]
EIGENFUNCTION_PINNED = {
    1: [0.06604332802354924, -0.004728311907089523, -0.00041311978215597675,
        0.00041311978215597675, 0.004728311907089523, -0.06604332802354924],
    2: [0.3641281458520728, -0.02477722952860599, 0.012609051438462433,
        0.012609051438462433, -0.02477722952860599, 0.3641281458520728],
}


@pytest.mark.parametrize("n", sorted(EIGENFUNCTION_PINNED))
def test_eigenfunction_bits_across_the_floor_are_pinned(n):
    mpmath = pytest.importorskip("mpmath")
    psi = quantum.eigenfunction(np.array(FLOOR_GRID), ContinuumState(n=n, E=1.0))
    assert psi.tolist() == EIGENFUNCTION_PINNED[n]
    with mpmath.workdps(40):
        for x, value in zip(FLOOR_GRID, EIGENFUNCTION_PINNED[n]):
            want = (-1) ** (n * (x < 0)) * mpmath.besselj(n, 2 / mpmath.mpf(abs(x)))
            assert value == pytest.approx(float(want), rel=1e-12)


#: (n, E, hbar, xs) with E != hbar^2, each x away from the zeros of J_n; the squeeze floor
#: (argument 2000) once inverted as 1e-3 hbar/sqrt(E) replaced x = 0.5, 1 and 0.002 with
#: the envelope, and the floor itself replaced x = 3e-3, whose argument is 2667
OFF_DIAGONAL = [
    (1, 1e-8, 1.0, [0.5, 1.0]),  # arguments 4e-4, 2e-4
    (1, 1.0, 3.0, [0.002, 0.01]),  # 333, 67
    (2, 4.0, 0.5, [0.0041, 0.3]),  # 1951, 27
    (3, 0.25, 2e-3, [0.26, 2.0]),  # 1923, 250
    (1, 4.0, 0.5, [3e-3]),  # 2667
]


@pytest.mark.parametrize("n, E, hbar, xs", OFF_DIAGONAL)
def test_eigenfunction_off_the_diagonal_matches_mpmath(n, E, hbar, xs):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    psi = quantum.eigenfunction(np.array(xs + [-x for x in xs]), ContinuumState(n=n, E=E), hbar)
    for x, plus, minus in zip(xs, psi[: len(xs)], psi[len(xs):]):
        want = float(mpmath.besselj(n, 2 * mpmath.sqrt(E) / (hbar * mpmath.mpf(x))))
        assert plus == pytest.approx(want, rel=1e-12)  # measured worst 3.3e-13
        assert minus == (-1.0) ** n * plus


#: E = 1/4, hbar = 1e-5: at x = X_AT the Bessel argument 2 sqrt(E)/(hbar x) is 1e15, the
#: last one evaluated, and at X_PAST the next double above it
E_LIMIT, HBAR_LIMIT = 0.25, 1e-5
X_AT = math.nextafter(1e-10, 0.0)
X_PAST = math.nextafter(X_AT, 0.0)
#: each psi evaluator at n = 1, E_LIMIT and HBAR_LIMIT as a function of x, with its x^d
ARGUMENT_LIMITED = {
    "eigenfunction": (
        lambda x: quantum.eigenfunction(x, ContinuumState(1, E_LIMIT), HBAR_LIMIT), 0.0),
    "general_solution": (
        lambda x: quantum.general_solution(x, 1, E_LIMIT, 0.0, HBAR_LIMIT), 0.0),
    "hermitian_wavefunction": (
        lambda x: quantum.hermitian_wavefunction(x, 1, E_LIMIT, HBAR_LIMIT), -1.5),
}


@pytest.mark.parametrize("name", sorted(ARGUMENT_LIMITED))
def test_a_bessel_argument_past_1e15_is_refused(name):
    mpmath = pytest.importorskip("mpmath")
    fn, d = ARGUMENT_LIMITED[name]
    assert 2.0 * math.sqrt(E_LIMIT) / HBAR_LIMIT / X_AT == bessel.ARGUMENT_RESOLVED_MAX == 1e15
    assert 2.0 * math.sqrt(E_LIMIT) / HBAR_LIMIT / X_PAST == math.nextafter(1e15, math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = fn(X_AT)
        with mpmath.workdps(40):
            want = mpmath.mpf(X_AT) ** d * mpmath.besselj(1, mpmath.mpf(1e15))
        assert value == pytest.approx(float(want), rel=1e-12)  # J_1(1e15) = 1.6e-8
        assert fn(np.array([])).shape == (0,)  # an empty grid has no argument to refuse
        # the next double above, an argument that overflows to inf, and NaN x
        for x in (X_PAST, 5e-324, math.nan, np.array([1.0, X_PAST])):
            with pytest.raises(ValueError, match=r"^Bessel argument .* is past 1e\+15, where J"):
                fn(x)


#: orders from 1 to the box's 50, each at 100 seeded log-uniform Bessel arguments in
#: [2e3, 1e15]; the error measured at most 3.1e-16 of the envelope sqrt(2/(pi z)) on these
#: draws (numpy 2.4.6, scipy 1.17.1), and the budget 1e-12 leaves room for a scipy build
#: that evaluates J_n differently; past 2e15 the error reaches 0.46 of the envelope
@pytest.mark.parametrize("n", [1, 2, 5, 20, 50])
def test_general_solution_matches_mpmath_up_to_the_argument_limit(n):
    mpmath = pytest.importorskip("mpmath")
    E, hbar = 1.0, 1.0
    xs = 2.0 / 10 ** np.random.default_rng(n).uniform(math.log10(2e3), 15.0, 100)
    got = quantum.general_solution(xs, n, E, 0.0, hbar)
    with mpmath.workdps(40):
        for x, value in zip(xs.tolist(), got.tolist()):
            z = 2.0 * math.sqrt(E) / hbar / x  # the float argument the library evaluates J at
            err = abs(value - mpmath.besselj(n, mpmath.mpf(z)))
            assert err <= 1e-12 * mpmath.sqrt(2 / (mpmath.pi * z)), (n, z)


# ---------------------------------------------------------------------------
# residual dichotomy


def test_ode_residual_solves_at_quantized_coupling():
    lam = quantum.lambda_quantized(1, CLEAN, 1.0)
    assert lam == pytest.approx(-2.0)
    res = quantum.ode_residual(ContinuumState(n=1, E=1.0), CLEAN, lam, 1.0)
    assert res < 1e-8


def test_ode_residual_negative_control_gap():
    broken = SingleTermOrdering.from_alpha_gamma(0.0, 0.5)
    lam = quantum.lambda_quantized(1, broken, 1.0)
    res = quantum.ode_residual(ContinuumState(n=1, E=1.0), broken, lam, 1.0)
    assert res > 1e-2


def test_ode_residual_energy_independence():
    zero_s = SingleTermOrdering.from_alpha_gamma(-0.75, 0.0)
    lam = quantum.lambda_quantized(2, zero_s, 1.0)
    assert lam == pytest.approx(1.0)
    for E in (0.5, 2.0):
        res = quantum.ode_residual(ContinuumState(n=2, E=E), zero_s, lam, 1.0)
        assert res < 1e-8


# exact floats, per n: (clean ordering at its quantized coupling, broken
# ordering); n = 1 and 2 reach the orders -1 and 0 of the J'' recurrence
ODE_RESIDUAL_BITS = {
    1: (2.2737367544323206e-13, 145.54712353879648),
    2: (1.7053025658242404e-13, 91.90624325663407),
    3: (2.2737367544323206e-13, 106.29687744757987),
    4: (8.526512829121202e-14, 164.58923348393057),
    5: (2.2737367544323206e-13, 216.4046525796166),
    6: (1.7053025658242404e-13, 304.3322849034404),
}


@pytest.mark.parametrize("n", sorted(ODE_RESIDUAL_BITS))
def test_ode_residual_bits_are_pinned(n):
    broken = SingleTermOrdering.from_alpha_gamma(0.0, 0.5)
    clean = quantum.ode_residual(
        ContinuumState(n=n, E=1.3), CLEAN, quantum.lambda_quantized(n, CLEAN, 1.0), 1.0
    )
    off = quantum.ode_residual(ContinuumState(n=n, E=0.7, amplitude=2.0), broken, 0.3, 0.8)
    assert (clean, off) == ODE_RESIDUAL_BITS[n]


@pytest.mark.parametrize("E", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("hbar", [1e-3, 1.0, 100.0])
def test_batched_residuals_are_the_per_n_bits(hbar, E):
    rows = [(n, CLEAN, quantum.lambda_quantized(n, CLEAN, hbar)) for n in range(1, 7)]
    batched = quantum.ode_residuals(rows, E, hbar)
    assert batched.tolist() == [quantum.ode_residual(ContinuumState(n, E), o, lam, hbar)
                                for n, o, lam in rows]


def test_rows_of_other_orderings_and_couplings_share_one_table():
    # the two controls of verify's residual_negative_control: psi_2 at E = 1, once under a
    # spoiled reduction gap and once at an offset coupling, with amplitude 2
    broken = SingleTermOrdering.from_alpha_gamma(0.0, 0.5)
    rows = [(2, broken, quantum.lambda_quantized(2, broken, 0.8)), (2, CLEAN, 0.3), (5, CLEAN, -1.0)]
    batched = quantum.ode_residuals(rows, 1.0, 0.8, amplitude=2.0)
    assert batched.tolist() == [quantum.ode_residual(ContinuumState(n, 1.0, 2.0), o, lam, 0.8)
                                for n, o, lam in rows]


def test_batched_residuals_check_n_and_E_and_name_an_overflow():
    with pytest.raises(ValueError, match="integer order n >= 1 required"):
        quantum.ode_residuals([(1, CLEAN, -2.0), (0, CLEAN, -2.0)], 1.0, 1.0)
    with pytest.raises(ValueError, match="E must be positive and finite"):
        quantum.ode_residuals([(1, CLEAN, -2.0)], -1.0, 1.0)
    with pytest.raises(FloatingPointError,
                       match=r"^ode_residual at hbar = 1.0: overflow encountered in divide$"):
        quantum.ode_residuals([(1, CLEAN, -2.0), (2, CLEAN, 1e307)], 1.0, 1.0)


# ---------------------------------------------------------------------------
# constant-mass reduction


def test_pct_reduce_examples():
    plain = SingleTermOrdering.from_alpha_gamma(0.0, 0.0)
    assert quantum.pct_strength(plain, 0.0, 1.0) == pytest.approx(2.0)
    # a k^2 other than 16 E/hbar^2 = 16 would leave a residual of order J itself
    assert quantum.pct_reduce(plain, 0.0, 1.0, 1.0) < 1e-8


def test_pct_strength_identity():
    for ordering in random_orderings(100, seed=3):
        lam = 0.4
        red_nu_sq = ordering.s**2 + 4.0 * lam
        strength = 4.0 * lam + (
            2.0 * ordering.alpha1 + 2.0 * ordering.gamma1 + 2.0
        ) * (2.0 * ordering.alpha1 + 2.0 * ordering.gamma1 + 1.0)
        assert strength + 0.25 == pytest.approx(red_nu_sq, abs=1e-12)
        assert quantum.pct_strength(ordering, lam, 1.0) + 0.25 == pytest.approx(red_nu_sq, abs=1e-12)


def test_pct_reduction_verifies_on_grid():
    for ordering in random_orderings(5, seed=21):
        assert quantum.pct_reduce(ordering, 0.9, 1.7, 1.0) < 1e-7


# exact floats at the real orders nu = 1.93, 4.34, 2.66 and 0.632 (whose
# nu - 1 and nu - 2 are negative non-integers)
PCT_RESIDUAL_BITS = {
    ((0.0, 0.0), 0.37, 1.0, 1.0): 7.105427357601002e-14,
    ((0.0, 0.75), 1.2, 2.5, 0.7): 1.2612133559741778e-13,
    ((0.2, -0.4), 3.3, 0.4, 1.5): 6.439293542825908e-15,
    ((-0.75, 0.0), 0.1, 1.7, 1.0): 2.149391775674303e-13,
}


@pytest.mark.parametrize("case", list(PCT_RESIDUAL_BITS))
def test_pct_reduce_bits_are_pinned(case):
    (alpha1, gamma1), lam, E, hbar = case
    ordering = SingleTermOrdering.from_alpha_gamma(alpha1, gamma1)
    assert quantum.pct_reduce(ordering, lam, E, hbar) == PCT_RESIDUAL_BITS[case]


# ---------------------------------------------------------------------------
# parity admissibility


def test_parity_match():
    assert quantum.parity_match(3.0) == -1
    assert quantum.parity_match(2.0) == 1
    assert quantum.parity_match(1.5) is None
    assert quantum.parity_match(0.0) is None
    assert quantum.parity_match(1e-12) is None
    assert quantum.parity_match(5.0 + 1e-12) == -1
    for nu in (math.nan, math.inf, -math.inf):
        assert quantum.parity_match(nu) is None


# ---------------------------------------------------------------------------
# normalization: continuum overlaps and box spectra


def test_overlap_kernel_equal_energy_grows_linearly():
    v50 = quantum.overlap_kernel(1, 1.0, 1.0, 50.0)
    v200 = quantum.overlap_kernel(1, 1.0, 1.0, 200.0)
    assert v50 == pytest.approx(OVERLAP_EQUAL_E_R50, rel=1e-6)
    assert v200 == pytest.approx(OVERLAP_EQUAL_E_R200, rel=1e-6)
    # linear-in-R growth: quadrupling R scales the value by ~4 (3.988 here)
    assert 3.9 < v200 / v50 < 4.1
    values = [quantum.overlap_kernel(1, 1.0, 1.0, R) for R in (50.0, 100.0, 200.0, 400.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_overlap_kernel_unequal_energy_stays_bounded():
    values = [abs(quantum.overlap_kernel(1, 1.0, 4.0, R)) for R in (50.0, 100.0, 200.0, 400.0)]
    assert max(values) < 0.2


@pytest.mark.parametrize(
    "n, E_prime, R, hbar, expected",
    [
        (1, 1.0, 20.0, 1.0, 5.345915935145401),
        (1, 2.25, 20.0, 1.0, 0.23729038920029102),
        (3, 1.0, 20.0, 1.0, 5.3459140277046195),
        (3, 2.25, 20.0, 1.0, 0.23740146529186235),
        (1, 1.0, 7.5, 0.8, 1.646656381564253),
        (1, 2.25, 7.5, 0.8, -0.019475944605442375),
        (3, 1.0, 7.5, 0.8, 1.628271590669125),
        (3, 2.25, 7.5, 0.8, -0.010346343629357763),
    ],
)
def test_overlap_kernel_keeps_its_recorded_bits(n, E_prime, R, hbar, expected):
    # recorded when the integrand evaluated J through the scipy.special ufunc
    value = quantum.overlap_kernel(n, 1.0, E_prime, R, hbar)
    assert type(value) is float and value == expected


def test_overlap_kernel_edge_cases():
    assert quantum.overlap_kernel(1, 1.0, 1.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        quantum.overlap_kernel(0, 1.0, 1.0, 10.0)
    with pytest.raises(ValueError):
        quantum.overlap_kernel(1, -1.0, 1.0, 10.0)


@pytest.mark.parametrize(
    "n, E",
    [(0, 1.0), (1.5, 1.0), (1, 0.0), (1, -1.0), (1, math.nan), (1, math.inf),
     (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0)],
)
def test_n_and_E_are_checked_by_continuum_state_alone(n, E):
    with pytest.raises(ValueError) as expected:
        ContinuumState(n, E)
    calls = [lambda: quantum.hermitian_wavefunction(1.0, n, E),
             lambda: quantum.overlap_kernel(n, E, 1.0, 1.0),
             lambda: quantum.overlap_kernel(n, 1.0, E, 1.0)]
    if n == 1:  # pct_reduce takes an energy and no quantum number
        calls.append(lambda: quantum.pct_reduce(CLEAN, 1.0, E, 1.0))
    for call in calls:
        with pytest.raises(ValueError) as got:
            call()
        assert str(got.value) == str(expected.value)
    with pytest.raises(ValueError, match="R must be non-negative and finite, got -1.0"):
        quantum.overlap_kernel(1, 1.0, 1.0, -1.0)


@pytest.mark.parametrize("R", [math.nan, math.inf])
def test_overlap_kernel_refuses_a_non_finite_R(R):
    with pytest.raises(ValueError, match=f"^R must be non-negative and finite, got {R}$"):
        quantum.overlap_kernel(1, 1.0, 2.0, R)


def test_ode_residual_overflow_raises_naming_itself_and_hbar():
    state = ContinuumState(n=2, E=1.0)
    with pytest.raises(FloatingPointError,
                       match=r"^ode_residual at hbar = 1.0: overflow encountered in divide$"):
        quantum.ode_residual(state, CLEAN, 1e307, 1.0)  # (4 lam/hbar^2)/x^2 overflows


#: ode_residual once returned 3.4e24 at hbar = 1e-15 and overflowed at 1e-160, and
#: pct_reduce returned 9.0e30 at 1e-20: both evaluate J past the argument limit there
@pytest.mark.parametrize("hbar", [1e-15, 1e-20, 1e-160])
def test_the_residual_checks_refuse_a_bessel_argument_past_1e15(hbar):
    state = ContinuumState(n=2, E=1.0)
    calls = [lambda: quantum.ode_residual(state, CLEAN, quantum.lambda_quantized(2, CLEAN, hbar),
                                          hbar),
             lambda: quantum.pct_reduce(CLEAN, 0.0, 1.0, hbar)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match=r"^Bessel argument 2 sqrt\(E\)/\(hbar x\) = "
                                                 r".* is past 1e\+15, where J"):
                call()


def test_an_x_power_past_the_double_range_is_an_unwarned_inf():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # x^(-3/2) overflows at x = 1e-250
        psi = quantum.hermitian_wavefunction(np.array([1e-250, 1.0]), 1, 1.0, 1e300)
    assert psi[0] == math.inf and math.isfinite(psi[1])


def test_box_spectrum_values():
    states = quantum.box_spectrum(1, 3, eps=0.1, hbar=1.0)
    j11 = series_zero(1, 1)
    assert states[0].energy == pytest.approx(0.25 * j11**2 * 0.01, abs=1e-9)
    assert states[0].norm_const == pytest.approx(0.1 / bessel.jv(2, j11), rel=1e-9)
    # the zero condition is the exact inversion of the energy formula
    for s in states:
        assert 2.0 * math.sqrt(s.energy) / (1.0 * s.eps) == pytest.approx(
            bessel.bessel_zero(1, s.N), rel=1e-14
        )
    with pytest.raises(ValueError):
        quantum.box_spectrum(1, 3, eps=0.0)
    with pytest.raises(ValueError):
        quantum.box_spectrum(1, 0, eps=0.1)


@pytest.mark.parametrize("N,M,expected", [(1, 1, 1.0), (1, 2, 0.0), (3, 3, 1.0)])
def test_box_orthonormality(N, M, expected):
    overlap = quantum.box_orthonormality(1, N, M, eps=0.1, hbar=1.0)
    assert overlap == pytest.approx(expected, abs=1e-8)


def test_box_orthonormality_roundoff_flag_stays_silent():
    # quad flags roundoff here (error estimate ~1e-13, far inside the 1e-9 gate)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        overlap = quantum.box_orthonormality(1, 1, 2, 0.06329312046572505)
        # quad reaches its subdivision limit here, far inside the overlap's own error gate
        kernel = quantum.overlap_kernel(
            6, 57.282066253537586, 0.08871162811837767, 256.79163649427403, 0.1373788863519161
        )
    assert overlap == -1.7827176106251374e-13
    assert kernel == 0.00014064862453240463


@pytest.mark.parametrize(
    "n, N, M, eps, expected",
    [
        (1, 1, 1, 0.1, 0.9999999999999993),
        (1, 3, 3, 0.1, 0.9999999999999998),
        (2, 2, 2, 0.37, 1.0000000000000007),
        (5, 4, 4, 0.05, 1.000000000000002),
        (1, 1, 2, 0.1, -1.7840804214557448e-13),
        # overlap_kernel at E' = E: N and M stand for E and E', eps for R
        pytest.param(1, 1.0, 1.0, 20.0, 5.345915935145401, id="overlap_kernel-1-1.0-1.0-20.0"),
    ],
)
def test_box_overlap_evaluates_j_once_per_node_on_the_diagonal(monkeypatch, n, N, M, eps, expected):
    kernel = quantum.overlap_kernel if isinstance(N, float) else quantum.box_orthonormality
    counts = {"jv": 0, "integrand": 0}
    jv, quad = quantum.jv, quantum.quad

    def counted_jv(nu, x):
        counts["jv"] += 1
        return jv(nu, x)

    def counted_quad(f, *args, **kwargs):
        def g(r):
            counts["integrand"] += 1
            return f(r)

        return quad(g, *args, **kwargs)

    monkeypatch.setattr(quantum, "jv", counted_jv)
    monkeypatch.setattr(quantum, "quad", counted_quad)
    quantum.box_orthonormality.cache_clear()  # a memoized value would count nothing
    # the values recorded when the diagonal evaluated J twice per node
    assert kernel(n, N, M, eps) == expected
    assert counts["integrand"] > 0
    norms = kernel is quantum.box_orthonormality  # C_N and C_M come from one array call
    assert counts["jv"] == (1 if N == M else 2) * counts["integrand"] + norms


def test_box_orthonormality_repeats_return_the_memoized_float(monkeypatch):
    evals = []
    quad = quantum.quad

    def counted_quad(f, *args, **kwargs):
        return quad(lambda r: evals.append(r) or f(r), *args, **kwargs)

    monkeypatch.setattr(quantum, "quad", counted_quad)
    quantum.box_orthonormality.cache_clear()
    first = quantum.box_orthonormality(2, 1, 3, 0.2)
    computed = len(evals)
    again = quantum.box_orthonormality(2, 1, 3, 0.2)
    quantum.box_orthonormality.cache_clear()
    assert computed > 0 and len(evals) == computed  # the repeat ran no integrand
    assert again is first


def test_box_orthonormality_refuses_a_bad_argument_on_every_call():
    for _ in range(3):  # a refusal is not memoized
        with pytest.raises(ValueError, match="^eps must be positive and finite, got nan$"):
            quantum.box_orthonormality(1, 1, 2, math.nan)
        with pytest.raises(QuadratureError, match=r"^orthonormality integral \(n=1, N=1, M=2\)"):
            quantum.box_orthonormality(1, 1, 2, 1e-300)


@pytest.mark.parametrize("eps", [-0.1, 0.0, math.nan, math.inf])
def test_box_functions_refuse_a_non_positive_or_non_finite_eps(eps):
    message = f"^eps must be positive and finite, got {eps}$"
    with pytest.raises(ValueError, match=message):
        quantum.box_spectrum(1, 2, eps)
    with pytest.raises(ValueError, match=message):
        quantum.box_orthonormality(1, 1, 2, eps)


def test_box_orthonormality_refuses_an_eps_whose_box_radius_overflows():
    # 1/eps is inf: quad would integrate to infinity and return 0.0 for a norm of 1
    with pytest.raises(ValueError, match=r"^eps = 5e-324 is too small: the box radius 1/eps"):
        quantum.box_orthonormality(1, 1, 1, 5e-324)


def test_box_orthonormality_refuses_a_nan_quadrature():
    # at the box radius 1e300 quad's value and error estimate are NaN; a NaN estimate
    # compares false against any bound, so only a finiteness check refuses it
    with pytest.raises(QuadratureError, match=r"^orthonormality integral \(n=1, N=1, M=2\)"):
        quantum.box_orthonormality(1, 1, 2, 1e-300)


def test_box_gram_matrix_is_identity():
    gram = np.array(
        [
            [quantum.box_orthonormality(1, N, M, eps=0.1) for M in range(1, 6)]
            for N in range(1, 6)
        ]
    )
    assert np.max(np.abs(gram - np.eye(5))) < 1e-8


# ---------------------------------------------------------------------------
# Hermitian ordering


def test_hermitian_wavefunction_matches_scaled_eigenfunction():
    xs = np.linspace(0.3, 5.0, 50)
    state = ContinuumState(n=1, E=1.0)
    phi = quantum.hermitian_wavefunction(xs, 1, 1.0)
    psi = quantum.eigenfunction(xs, state)
    assert np.max(np.abs(phi - xs**-1.5 * psi)) < 1e-14


def test_hermitian_wavefunction_tail():
    x = 200.0
    val = quantum.hermitian_wavefunction(x, 1, 1.0)
    assert val == pytest.approx(x**-2.5, rel=1e-3)
    with pytest.raises(ValueError):
        quantum.hermitian_wavefunction(-1.0, 1, 1.0)
    with pytest.raises(ValueError):
        quantum.hermitian_wavefunction(1.0, 1, -1.0)


# exact floats of x^{-3/2} J_n(2 sqrt(E)/(hbar x)) on HERMITIAN_GRID, keyed by (n, E, hbar)
HERMITIAN_GRID = [0.05, 0.3, 0.7, 1.0, 2.5, 9.0]
HERMITIAN_PINNED = {
    (1, 1.0, 1.0): [
        11.273209876071114, -0.6407735520819297, 0.6665844815584719,
        0.5767248077568736, 0.09331047699955113, 0.004089875920784151,
    ],
    (3, 2.0, 0.5): [
        4.358751464474971, 0.5848650387957036, -0.4962203503370053,
        0.2142769033890702, 0.043851529727338225, 0.00018691428486465936,
    ],
}


@pytest.mark.parametrize("n, E, hbar", sorted(HERMITIAN_PINNED))
def test_hermitian_wavefunction_bits_are_pinned(n, E, hbar):
    values = quantum.hermitian_wavefunction(np.array(HERMITIAN_GRID), n, E, hbar=hbar)
    assert values.tolist() == HERMITIAN_PINNED[(n, E, hbar)]
    assert quantum.hermitian_wavefunction(0.3, 2, 0.7) == -0.8523252054879374


def test_hermitian_windowed_maxima_grow():
    for k in range(4, 10):
        delta = 2.0**-k
        near = np.linspace(delta / 2.0, delta, 4000)
        far = np.linspace(delta, 2.0 * delta, 4000)
        m_near = np.max(np.abs(quantum.hermitian_wavefunction(near, 1, 1.0)))
        m_far = np.max(np.abs(quantum.hermitian_wavefunction(far, 1, 1.0)))
        assert m_near / m_far >= 1.8


# ---------------------------------------------------------------------------
# similarity transformation


def test_similarity_check_gaussian():
    disc = quantum.similarity_check(CLEAN, lambda x: np.exp(-((x - 2.0) ** 2)))
    assert disc < 1e-6


#: the open defect that the strict xfails below record; whoever mends it flips them
SIMILARITY_AT_LARGE_EXPONENTS = (
    "similarity_check fails on a correct library once |alpha1| or |gamma1| is about 20 or "
    "more (1.6e-6 at 20, 2.2e-2 at 50, 46.6 at 100, against 1e-6); likely because "
    "m^eta = (2/x^4)^eta spans many decades on [0.5, 5], so the stencils' error on the "
    "transformed side outgrows the absolute 1e-6"
)


@pytest.mark.parametrize("alpha1", [10.0] + [
    pytest.param(a, marks=pytest.mark.xfail(strict=True, reason=SIMILARITY_AT_LARGE_EXPONENTS))
    for a in (20.0, 50.0, 100.0)
])
def test_similarity_check_gaussian_at_large_exponents(alpha1):
    # measured 2.2e-9 at alpha1 = 10
    ordering = SingleTermOrdering(alpha1, 0.1)
    assert quantum.similarity_check(ordering, lambda x: np.exp(-((x - 2.0) ** 2))) < 1e-6


def test_similarity_check_polynomial():
    ordering = SingleTermOrdering.from_alpha_gamma(-1.0, 0.0)
    assert quantum.similarity_check(ordering, lambda x: x**2) < 1e-6


def test_similarity_check_trivial_conjugation():
    ordering = SingleTermOrdering.from_alpha_gamma(0.3, 0.3)  # eta = 0
    assert quantum.similarity_check(ordering, lambda x: np.exp(-((x - 2.0) ** 2))) == 0.0


def test_similarity_check_potential_cancels():
    disc = quantum.similarity_check(
        CLEAN, lambda x: np.exp(-((x - 2.0) ** 2)), lam=1.5
    )
    assert disc < 1e-6


# exact floats of the two acceptance-criterion-9 cases on the fixed [0.5, 5] grid
GAUSSIAN = lambda x: np.exp(-((x - 2.0) ** 2))  # noqa: E731 (a lambda keeps the test ids)

# (alpha1, gamma1), test function, value, hbar and lam; the large exponents are the regime
# where the strict xfails above fail, up to the NaN from about alpha1 = 1000
SIMILARITY_PINNED = [
    ((0.0, 0.75), GAUSSIAN, 3.397992998088739e-10, 1.0, 0.0),
    ((-1.0, 0.0), lambda x: (x - 1.0) * np.exp(-((x - 2.5) ** 2)), 1.935926974283575e-09,
     1.0, 0.0),
    ((0.3, -0.2), GAUSSIAN, 9.384226729025613e-11, 0.5, 0.0),
    ((0.3, -0.2), GAUSSIAN, 1.5014904874988133e-09, 2.0, 1.5),
    ((0.0, 0.75), GAUSSIAN, 3.398028525225527e-10, 1.0, 1.5),
    ((20.0, 0.1), GAUSSIAN, 1.5797497556757634e-06, 1.0, 0.0),
    ((1000.0, 0.1), GAUSSIAN, math.nan, 1.0, 0.0),
]


@pytest.mark.parametrize("alpha_gamma, testfn, expected, hbar, lam", SIMILARITY_PINNED)
def test_similarity_check_bits_are_pinned(alpha_gamma, testfn, expected, hbar, lam):
    ordering = SingleTermOrdering.from_alpha_gamma(*alpha_gamma)
    with np.errstate(all="ignore"):  # the NaN case overflows on its way there
        got = quantum.similarity_check(ordering, testfn, hbar, lam)
    assert math.isnan(got) if math.isnan(expected) else got == expected


@pytest.mark.parametrize("n,N_max,eps,hbar", [(1, 60, 0.1, 1.0), (4, 37, 0.3, 1.7)])
def test_box_spectrum_bit_identical_to_per_zero_path(n, N_max, eps, hbar):
    states = quantum.box_spectrum(n, N_max, eps, hbar)
    for N, s in enumerate(states, start=1):
        j = bessel.bessel_zero(n, N)
        assert s.energy == 0.25 * hbar**2 * j * j * eps * eps
        assert s.norm_const == eps / bessel.jv(n + 1, j)


@pytest.mark.parametrize(
    "n,N,M,first_bad",
    [(0, 1, 1, (0, 1)), (1.5, 1, 2, (1.5, 1)), (1, 0, 3, (1, 0)), (1, 3, 0, (1, 0)),
     (1, 2, 1.5, (1, 1.5)), (math.nan, 1, 1, (math.nan, 1)), (math.inf, 1, 2, (math.inf, 1)),
     (1, math.nan, 2, (1, math.nan)), (1, math.inf, 2, (1, math.inf)),
     (1, 2, -math.inf, (1, -math.inf))],
)
def test_box_orthonormality_bad_arguments_raise_the_bessel_zero_errors(n, N, M, first_bad):
    with pytest.raises(ValueError) as expected:
        bessel.bessel_zero(*first_bad)
    with pytest.raises(ValueError) as got:
        quantum.box_orthonormality(n, N, M, eps=0.1)
    assert str(got.value) == str(expected.value)


def test_box_spectrum_bad_order_raises_the_bessel_zero_error():
    for n in (0, 1.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError) as expected:
            bessel.bessel_zero(n, 1)
        with pytest.raises(ValueError) as got:
            quantum.box_spectrum(n, 3, eps=0.1)
        assert str(got.value) == str(expected.value)
    for N_max in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^zero index N >= 1 required, got {N_max}$"):
            quantum.box_spectrum(1, N_max, eps=0.1)


@pytest.mark.parametrize("field", ["alpha1", "gamma1"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_single_term_ordering_rejects_non_finite_exponents(field, bad):
    exponents = {"alpha1": 0.0, "gamma1": 0.75, field: bad}
    with pytest.raises(ValueError, match="must be finite"):
        SingleTermOrdering(**exponents)


def test_single_term_ordering_rejects_an_overflowing_beta1():
    message = "ordering exponents must be finite, got alpha1=1e+308, beta1=-inf, gamma1=1e+308"
    with pytest.raises(ValueError) as raised:
        SingleTermOrdering(1e308, 1e308)
    assert str(raised.value) == message


# ---------------------------------------------------------------------------
# the scalar/array convention (bessel._as_result)

FIG1 = classical.ModelParams(lam=1.0, c1=1.0, c2=-5.0)
SCALAR_OR_ARRAY = {
    "radicand": lambda x: classical.radicand(x, FIG1),
    "exact_solution": lambda x: classical.exact_solution(x, FIG1),
    "exact_momentum": lambda x: classical.exact_momentum(x, FIG1),
    "hamiltonian": lambda x: classical.hamiltonian(x, x, 1.0),
    "general_solution": lambda x: quantum.general_solution(x, 1.5, 1.0, 0.0, 1.0),
    "hermitian_wavefunction": lambda x: quantum.hermitian_wavefunction(x, 2, 1.0),
    "eigenfunction": lambda x: quantum.eigenfunction(x, ContinuumState(n=2, E=1.0)),
}


@pytest.mark.parametrize("name", sorted(SCALAR_OR_ARRAY))
def test_scalar_gives_float_and_array_gives_array_of_its_shape(name):
    fn = SCALAR_OR_ARRAY[name]
    grid = np.array([[0.5, 1.0, 2.0], [3.0, 4.0, 5.0]])
    out = fn(grid)
    assert type(out) is np.ndarray and out.shape == grid.shape
    assert fn(grid[:1, :1]).shape == (1, 1)
    for x in (1.0, np.float64(1.0), np.array(1.0)):
        value = fn(x)
        assert type(value) is float
        assert value == pytest.approx(out[0, 1], rel=1e-15)


#: every public function that reads hbar, called with a valid everything else; unchecked,
#: eigenfunction at hbar = 0 raises ZeroDivisionError, box_spectrum returns E = 0 and
#: lambda_quantized at hbar = -1 gives the hbar = 1 value
HBAR_CALLS = {
    "ode_coefficients": lambda h: quantum.ode_coefficients(CLEAN, 1.0, 1.0, h),
    "nu_from_params": lambda h: quantum.nu_from_params(CLEAN, 1.0, h),
    "nu_squared": lambda h: quantum.nu_squared(CLEAN, 1.0, h),
    "pct_strength": lambda h: quantum.pct_strength(CLEAN, 1.0, h),
    "lambda_quantized": lambda h: quantum.lambda_quantized(2, CLEAN, h),
    "general_solution": lambda h: quantum.general_solution(1.0, 1, 1.0, 0.0, h),
    "eigenfunction": lambda h: quantum.eigenfunction(1.0, ContinuumState(1, 1.0), h),
    "ode_residual": lambda h: quantum.ode_residual(ContinuumState(1, 1.0), CLEAN, -2.0, h),
    "pct_reduce": lambda h: quantum.pct_reduce(CLEAN, 1.0, 1.0, h),
    "overlap_kernel": lambda h: quantum.overlap_kernel(1, 1.0, 1.0, 1.0, h),
    "box_spectrum": lambda h: quantum.box_spectrum(1, 2, 0.1, h),
    "hermitian_wavefunction": lambda h: quantum.hermitian_wavefunction(1.0, 1, 1.0, h),
    "similarity_check": lambda h: quantum.similarity_check(CLEAN, np.exp, h),
}


@pytest.mark.parametrize("hbar", [0.0, -1.0, -0.0, math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(HBAR_CALLS))
def test_non_positive_or_non_finite_hbar_raises(name, hbar):
    HBAR_CALLS[name](1.0)  # the same call is fine at hbar = 1
    with pytest.raises(ValueError, match="hbar must be positive and finite"):
        HBAR_CALLS[name](hbar)

