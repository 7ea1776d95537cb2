import math

import numpy as np
import pytest

from pdmosc import semiclassical as sc
from pdmosc import verification
from oracles import action_exact

# frozen from the antiderivative oracle: 2(sqrt(A^2-e^2)/e + asin(e/A) - pi/2)
ACTION_A1_E05 = 1.3697065127445587  # = 2 sqrt(3) + pi/3 - pi
ACTION_A1_E01 = 16.958490930865725


def test_action_integral_frozen_values():
    assert sc.action_integral_regularized(1.0, 0.5) == pytest.approx(ACTION_A1_E05, abs=1e-9)
    assert sc.action_integral_regularized(1.0, 0.1) == pytest.approx(ACTION_A1_E01, abs=1e-9)


def test_action_integral_matches_antiderivative():
    for A in (0.5, 1.0, 2.0, 5.0):
        for frac in (0.5, 0.1, 1e-2, 1e-3, 1e-4, 1e-5):
            eps = frac * A
            assert sc.action_integral_regularized(A, eps) == pytest.approx(
                action_exact(A, eps), abs=1e-9
            )


def test_action_integral_empty_domain_limit():
    A = 1.0
    assert abs(sc.action_integral_regularized(A, A * (1.0 - 1e-9))) < 1e-3
    with pytest.raises(ValueError):
        sc.action_integral_regularized(1.0, 1.0)
    with pytest.raises(ValueError):
        sc.action_integral_regularized(1.0, 0.0)


def quad_at(func, a, b):
    return sc.quad(func, a, b, epsabs=1e-12, epsrel=1e-12, limit=50, gate=1e-9, gate_rel=0.0,
                   label="test integral")


def test_quad_returns_a_float_inside_its_gate():
    value = quad_at(lambda x: x, 0.0, 1.0)
    assert type(value) is float and value == 0.5


def test_quad_refuses_a_nan_integrand_value():
    with pytest.raises(sc.QuadratureError, match=r"^test integral: value nan .* subdivisions$"):
        quad_at(lambda x: math.nan if x > 0.5 else 1.0, 0.0, 1.0)


def test_quad_refuses_an_estimate_above_its_gate():
    # 1/x diverges on [0, 1]: quad returns a finite value, with an error estimate far past 1e-9
    with pytest.raises(sc.QuadratureError, match=r"^test integral: .* after 50 subdivisions$"):
        quad_at(lambda x: 1.0 / x, 0.0, 1.0)


def test_finite_part_refuses_a_turning_point_whose_square_overflows():
    # A * A is inf in the integrand, so the first cutoff integral is NaN
    with pytest.raises(sc.QuadratureError, match=r"^cutoff integral \(A=1e\+200, eps=1e\+198\)"):
        sc.finite_part_action(1e200)


def test_divergent_part_value():
    val = sc.divergent_part(1.0, 1e-3)
    assert val == pytest.approx(2000.0 * math.sqrt(1.0 - 1e-6), rel=1e-12)
    assert val == pytest.approx(2000.0 * (1.0 - 5e-7), rel=1e-9)


@pytest.mark.parametrize("A", [0.5, 1.0, 2.0, 5.0])
def test_finite_part_is_minus_pi(A):
    result = sc.finite_part_action(A)
    assert result.finite_part == pytest.approx(-math.pi, abs=1e-6)


def test_finite_part_is_a_independent():
    values = [sc.finite_part_action(A).finite_part for A in (0.5, 1.0, 2.0, 5.0)]
    assert max(values) - min(values) < 1e-6


def test_finite_part_bookkeeping(monkeypatch):
    A = 2.0
    cutoffs = []
    real_quad = sc.quad

    def recording_quad(func, a, b, **kwargs):
        cutoffs.append(a)
        return real_quad(func, a, b, **kwargs)

    monkeypatch.setattr(sc, "quad", recording_quad)
    sc.finite_part_action.cache_clear()
    result = sc.finite_part_action(A)
    sc.finite_part_action.cache_clear()
    # the geometric cutoff sequence (1e-2 .. 1e-5) * A, one quadrature each
    assert len(cutoffs) == 4
    ratios = [a / b for a, b in zip(cutoffs, cutoffs[1:])]
    assert ratios == pytest.approx([10.0, 10.0, 10.0])
    assert cutoffs[0] == pytest.approx(1e-2 * A)
    # raw - divergent at the smallest cutoff equals -pi + 2 asin(eps/A)
    eps = cutoffs[-1]
    remainder = sc.action_integral_regularized(A, eps) - sc.divergent_part(A, eps)
    assert remainder == pytest.approx(-math.pi + 2.0 * math.asin(eps / A), abs=1e-8)
    assert result.error_estimate < 1e-6
    for A in (0.0, -0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^A must be positive and finite, got {A}$"):
            sc.finite_part_action(A)
        with pytest.raises(ValueError, match=f"^A must be positive and finite, got {A}$"):
            sc.wkb_condition_check(1, 1.0, A)


def test_wkb_lambda_examples():
    assert sc.wkb_lambda(0, 1.0) == pytest.approx(1.0 / 16.0)
    assert sc.wkb_lambda(1, 1.0) == pytest.approx(9.0 / 16.0)
    assert sc.wkb_lambda(2, 2.0) == pytest.approx(25.0 / 4.0)
    with pytest.raises(ValueError):
        sc.wkb_lambda(-1, 1.0)
    with pytest.raises(ValueError):
        sc.wkb_lambda(0.5, 1.0)


@pytest.mark.parametrize("hbar", [0.0, -1.0, math.nan, math.inf])
def test_wkb_refuses_non_positive_or_non_finite_hbar(hbar):
    with pytest.raises(ValueError, match="hbar must be positive and finite"):
        sc.wkb_lambda(1, hbar)
    with pytest.raises(ValueError, match="hbar must be positive and finite"):
        sc.wkb_condition_check(1, hbar)


def test_wkb_condition_examples():
    r0 = sc.wkb_condition_check(0, 1.0)
    assert abs(r0.measured) < 1e-6  # both sides pi/2
    r3 = sc.wkb_condition_check(3, 1.0)
    assert abs(r3.measured) < 1e-6
    r_half = sc.wkb_condition_check(1, 0.5)
    assert abs(r_half.measured) < 1e-6
    # the sides: rhs = (n + 1/2) hbar pi, lam_n = (n + 1/2)^2 hbar^2 / 4
    assert r_half.rhs == pytest.approx(0.75 * math.pi)
    assert r_half.lam == sc.wkb_lambda(1, 0.5)


@pytest.mark.parametrize("hbar", [0.5, 1.0, 2.0])
def test_wkb_condition_sweep(hbar):
    for n in range(11):
        condition = sc.wkb_condition_check(n, hbar)
        assert abs(condition.measured) < 1e-6


def test_wkb_sides_rebuild_lhs_bit_for_bit():
    # `pdmosc wkb` once printed rhs + measured as its lhs column; the sides lie
    # within a factor 2 of each other, so by Sterbenz's lemma lhs - rhs is exact
    # and that sum gives lhs back, keeping the printed bytes
    for A in np.geomspace(1e-3, 1e3, 8):
        for hbar in np.geomspace(1e-3, 1e3, 7):
            for n in range(300):
                c = sc.wkb_condition_check(n, float(hbar), float(A))
                assert c.rhs + c.measured == c.lhs
                assert c.rhs / 2 <= c.lhs <= 2 * c.rhs


def test_wkb_condition_over_an_integer_array_gives_the_scalar_bits():
    n = np.arange(3001)
    for hbar, A in [(1.0, 1.0), (0.37, 5.0), (1e-3, 1e3)]:
        arrays = sc.wkb_condition_check(n, hbar, A)
        scalars = [sc.wkb_condition_check(k, hbar, A) for k in n.tolist()]
        for field, column in zip(sc.WkbCondition._fields, arrays):
            assert column.tolist() == [getattr(c, field) for c in scalars], field
    assert all(type(v) is float for v in sc.wkb_condition_check(3, 0.5))
    with pytest.raises(ValueError, match="n must be a non-negative integer"):
        sc.wkb_lambda(np.array([0, -1]), 1.0)


def test_wkb_identity_makes_one_condition_call_per_hbar(monkeypatch):
    check = sc.wkb_condition_check
    calls = []
    monkeypatch.setattr(
        sc, "wkb_condition_check", lambda n, hbar: calls.append(hbar) or check(n, hbar)
    )
    (report,) = verification.run_suite(["wkb_identity"], verification.SuiteConfig())
    assert calls == [0.5, 1.0, 2.0]
    assert report.measured == max(
        abs(check(n, hbar).measured) for hbar in (0.5, 1.0, 2.0) for n in range(11)
    )


def contour_action(E: float, lam: float) -> float:
    """Loop action around the two-branch phase curve, finite-part reading:
    both momentum branches, so twice the one-pass action 2 sqrt(lam) |I|."""
    return 4.0 * math.sqrt(lam) * abs(sc.finite_part_action(math.sqrt(E / lam)).finite_part)


def test_contour_action_values():
    assert contour_action(1.0, 1.0) == pytest.approx(4.0 * math.pi, abs=1e-6)
    assert contour_action(2.0, 9.0 / 16.0) == pytest.approx(3.0 * math.pi, abs=1e-6)
    # n = 0 bookkeeping: lam_0 = 1/16 gives total loop action pi = 2 (n+1/2) hbar pi
    assert contour_action(1.0, 1.0 / 16.0) == pytest.approx(math.pi, abs=1e-6)
    # E enters only through the turning point and drops out
    assert contour_action(0.3, 1.0) == pytest.approx(contour_action(7.0, 1.0), abs=1e-6)


def test_finite_part_cache_returns_the_uncached_value():
    sc.finite_part_action.cache_clear()
    for A in (0.5, 1.0, 3.7):
        fresh = sc.finite_part_action.__wrapped__(A)
        assert sc.finite_part_action(A) == fresh
        assert sc.finite_part_action(A) is sc.finite_part_action(A)


def test_wkb_identity_computes_one_finite_part_per_distinct_A(monkeypatch):
    upper_limits = []
    real_quad = sc.quad

    def counting_quad(func, a, b, **kwargs):
        upper_limits.append(b)
        return real_quad(func, a, b, **kwargs)

    monkeypatch.setattr(sc, "quad", counting_quad)
    sc.finite_part_action.cache_clear()
    (report,) = verification.run_suite(["wkb_identity"], verification.SuiteConfig())
    assert report.status == "pass"
    # 33 (n, hbar) conditions, all at A = 1: one finite part, one quadrature per cutoff
    assert upper_limits == [1.0] * sc.EPS_COUNT
    sc.finite_part_action.cache_clear()
