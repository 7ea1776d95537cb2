"""Acceptance gate: one test per criterion, at the pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every expected value is either trivial arithmetic or computed by
the independent oracles in oracles.py.
"""

import csv
import io
import math
import time

import numpy as np
import pytest

from pdmosc import bessel, classical, cli, quantum, semiclassical
from pdmosc.classical import ModelParams
from pdmosc.quantum import ContinuumState, SingleTermOrdering
from oracles import action_exact, series_zero


def criterion(num: int, text: str):
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_1_finite_part_action():
    start = time.perf_counter()
    for A in (0.5, 1.0, 2.0, 5.0):
        result = semiclassical.finite_part_action(A)
        assert result.finite_part == pytest.approx(-math.pi, abs=1e-6)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    criterion(1, f"finite part = -pi +- 1e-6 for A in {{0.5, 1, 2, 5}} in {elapsed:.3f}s")


def test_criterion_2_wkb_quantization():
    worst = 0.0
    for hbar in (0.5, 1.0, 2.0):
        for n in range(11):
            lam = semiclassical.wkb_lambda(n, hbar)
            assert lam == pytest.approx((n + 0.5) ** 2 * hbar**2 / 4.0)
            condition = semiclassical.wkb_condition_check(n, hbar)
            worst = max(worst, abs(condition.measured))
    assert worst < 1e-6
    criterion(2, f"2 sqrt(lam_n)|I| = (n+1/2) hbar pi for n=0..10, hbar in {{0.5,1,2}}; worst {worst:.2e}")


def test_criterion_3_classical_oracle_equivalence():
    params = ModelParams(lam=1.0, c1=1.0, c2=-5.0)
    x0 = classical.exact_solution(0.0, params)
    v0 = classical.exact_momentum(0.0, params) * x0**4 / 2.0
    traj = classical.integrate_eom(x0, v0, params.lam, t_end=10.0, tol=1e-12)
    ts = np.array([s.t for s in traj])
    xs = np.array([s.x for s in traj])
    ps = np.array([s.p for s in traj])
    x_dev = float(np.max(np.abs(xs - classical.exact_solution(ts, params))))
    drift = float(np.max(np.abs(classical.hamiltonian(xs, ps, params.lam) - params.c1)))
    assert x_dev < 1e-8
    assert drift < 1e-9
    t_grid = np.linspace(0.0, 10.0, 4001)
    analytic_dev = float(
        np.max(
            np.abs(
                classical.hamiltonian(
                    classical.exact_solution(t_grid, params),
                    classical.exact_momentum(t_grid, params),
                    params.lam,
                )
                - params.c1
            )
        )
    )
    assert analytic_dev < 1e-12
    criterion(3, f"RK vs closed form {x_dev:.2e} (<1e-8); drift {drift:.2e} (<1e-9); analytic {analytic_dev:.2e} (<1e-12)")


def test_criterion_4_singularity_classification():
    rng = np.random.default_rng(20260810)
    window = (0.0, 10.0)
    ts = np.linspace(window[0], window[1], 10000)
    agree = 0
    checked_t_star = 0
    for _ in range(1000):
        params = ModelParams(
            lam=float(rng.uniform(-2.0, 2.0)),
            c1=float(rng.uniform(0.1, 3.0)),
            c2=float(rng.uniform(-6.0, 6.0)),
        )
        brute = "singular" if np.min(classical.radicand(ts, params)) <= 0.0 else "bounded"
        if classical.classify_lambda(params, window) == brute:
            agree += 1
        if params.lam < 0.0:
            t_star = classical.singularity_time(params)
            assert abs(classical.radicand(t_star, params)) < 1e-9 * max(1.0, abs(params.lam))
            checked_t_star += 1
    assert agree == 1000
    criterion(4, f"classifier vs sign scan: 1000/1000 agree; closed-form t* verified on {checked_t_star} lam<0 draws")


def test_criterion_5_ode_residual_dichotomy():
    hbar = 1.0
    worst_pass = 0.0
    for alpha_plus_gamma in (-0.75, 0.0, 1.0):
        alpha = (alpha_plus_gamma - 0.75) / 2.0
        ordering = SingleTermOrdering.from_alpha_gamma(alpha, alpha + 0.75)
        assert ordering.gamma1 - ordering.alpha1 == pytest.approx(0.75)
        for n in range(1, 7):
            lam = quantum.lambda_quantized(n, ordering, hbar)
            for E in (0.5, 1.0, 2.0):
                res = quantum.ode_residual(ContinuumState(n=n, E=E), ordering, lam, hbar)
                worst_pass = max(worst_pass, res)
    assert worst_pass < 1e-8

    worst_control = math.inf
    broken_gap = SingleTermOrdering.from_alpha_gamma(0.0, 0.5)
    for n in (1, 2, 3):
        lam = quantum.lambda_quantized(n, broken_gap, hbar)
        res = quantum.ode_residual(ContinuumState(n=n, E=1.0), broken_gap, lam, hbar)
        worst_control = min(worst_control, res)
    clean = SingleTermOrdering.from_alpha_gamma(0.0, 0.75)
    for n in (1, 2, 3):
        lam = quantum.lambda_quantized(n, clean, hbar) + 0.25
        res = quantum.ode_residual(ContinuumState(n=n, E=1.0), clean, lam, hbar)
        worst_control = min(worst_control, res)
    assert worst_control > 1e-3
    criterion(5, f"solutions residual {worst_pass:.2e} (<1e-8); negative controls >= {worst_control:.2e} (>1e-3)")


def test_criterion_6_parity_suite():
    xs = np.linspace(0.05, 12.0, 700)
    worst = 0.0
    for n in range(1, 7):
        state = ContinuumState(n=n, E=1.0)
        plus = quantum.eigenfunction(xs, state)
        minus = quantum.eigenfunction(-xs, state)
        worst = max(worst, float(np.max(np.abs(minus - (-1.0) ** n * plus))))
    assert worst <= 1e-14

    admitted = []
    for tenth in range(1, 61):  # nu = 0.1 .. 6.0
        nu = tenth / 10.0
        if quantum.parity_match(nu) is not None:
            admitted.append(nu)
    assert admitted == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert quantum.parity_match(0.0) is None
    criterion(6, f"psi(-x) = (-1)^n psi(x) to {worst:.1e}; parity admits exactly the positive integers")


def test_criterion_7_box_spectrum():
    gram = np.array(
        [
            [quantum.box_orthonormality(1, N, M, eps=0.1, hbar=1.0) for M in range(1, 6)]
            for N in range(1, 6)
        ]
    )
    gram_dev = float(np.max(np.abs(gram - np.eye(5))))
    assert gram_dev < 1e-8
    j11_oracle = series_zero(1, 1)
    states = quantum.box_spectrum(1, 1, eps=0.1, hbar=1.0)
    assert states[0].energy == pytest.approx(0.25 * j11_oracle**2 * 0.01, abs=1e-9)
    criterion(7, f"5x5 Gram vs identity {gram_dev:.2e} (<1e-8); E_1^1 matches series-bisection zero to 1e-9")


def test_criterion_8_special_function_kernel():
    xs = np.logspace(-1, 2, 60)
    worst = 0.0
    for nu in range(11):
        j, jp, _ = bessel.jv_derivatives(nu, xs)
        yp = 0.5 * (bessel.yv(nu - 1, xs) - bessel.yv(nu + 1, xs))
        wron = j * yp - jp * bessel.yv(nu, xs) - 2.0 / (math.pi * xs)
        worst = max(worst, float(np.max(np.abs(wron))))
        if nu >= 1:
            rec = (
                bessel.bessel_j(nu - 1, xs)
                + bessel.bessel_j(nu + 1, xs)
                - (2.0 * nu / xs) * bessel.bessel_j(nu, xs)
            )
            worst = max(worst, float(np.max(np.abs(rec))))
    assert worst < 1e-9
    zero_dev = 0.0
    for n in (1, 2):
        for N in (1, 2, 3):
            zero_dev = max(zero_dev, abs(bessel.bessel_zero(n, N) - series_zero(n, N)))
    assert zero_dev < 1e-9
    criterion(8, f"Wronskian/recurrence residuals {worst:.2e} (<1e-9); zeros vs oracle {zero_dev:.2e} (<1e-9)")


def test_criterion_9_hermitian_singularity_and_similarity():
    worst_ratio = math.inf
    for k in range(4, 10):
        delta = 2.0**-k
        near = np.linspace(delta / 2.0, delta, 4000)
        far = np.linspace(delta, 2.0 * delta, 4000)
        for n in (1, 2):
            m_near = np.max(np.abs(quantum.hermitian_wavefunction(near, n, 1.0)))
            m_far = np.max(np.abs(quantum.hermitian_wavefunction(far, n, 1.0)))
            worst_ratio = min(worst_ratio, float(m_near / m_far))
    assert worst_ratio >= 1.8

    disc = max(
        quantum.similarity_check(
            SingleTermOrdering.from_alpha_gamma(0.0, 0.75), lambda x: np.exp(-((x - 2.0) ** 2))
        ),
        quantum.similarity_check(
            SingleTermOrdering.from_alpha_gamma(-1.0, 0.0),
            lambda x: (x - 1.0) * np.exp(-((x - 2.5) ** 2)),
        ),
    )
    assert disc < 1e-6
    criterion(9, f"windowed maxima growth >= {worst_ratio:.3f} (>=1.8); similarity discrepancy {disc:.2e} (<1e-6)")


def test_criterion_10_figure_data(capsys):
    # trajectory: peak at t = -c2/sqrt(c1) = 5
    code = cli.main(["trajectory", "--c1", "1", "--c2", "-5", "--lambda", "1", "--t", "0:10:0.01"])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    peak = max(rows, key=lambda r: float(r["x"]))
    assert float(peak["t"]) == pytest.approx(5.0, abs=0.011)
    assert float(peak["x"]) == pytest.approx(1.0, abs=1e-4)

    # phase portrait: turning points at +-sqrt(E/lam) with p = 0 there
    code = cli.main(["phase-portrait", "--lambda", "0.5", "--energies", "0.5,1", "--points", "100"])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    for E in (0.5, 1.0):
        amp = math.sqrt(E / 0.5)
        sub = [r for r in rows if float(r["E"]) == E]
        assert max(float(r["x"]) for r in sub) == pytest.approx(amp, rel=1e-12)
        at_tp = [r for r in sub if abs(float(r["x"]) - amp) < 1e-12]
        assert all(float(r["p_plus"]) == 0.0 for r in at_tp)

    # eigenfunctions: psi_1 odd, psi_2 even; sign changes at 2 sqrt(E)/(hbar j_{n,k})
    signs = {}
    for n in (1, 2):
        code = cli.main(["eigenfunction", "--n", str(n), "--E", "1", "--x", "0.15:3:0.001"])
        out = capsys.readouterr().out
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        psi = {float(r["x"]): float(r["psi"]) for r in rows}
        for x in (0.5, 1.0, 2.0):
            assert psi[-x] == pytest.approx((-1.0) ** n * psi[x], abs=0.0)
        xs = sorted(x for x in psi if x > 0.2)
        vals = np.array([psi[x] for x in xs])
        flips = [
            0.5 * (xs[i] + xs[i + 1])
            for i in np.where(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        ]
        expected = [2.0 / series_zero(n, k) for k in (1, 2, 3)]
        expected = sorted(x for x in expected if x > 0.2)
        assert len(flips) == len(expected)
        for found, want in zip(sorted(flips), expected):
            assert found == pytest.approx(want, abs=1e-3)
        signs[n] = len(flips)
    criterion(10, f"figure data: peak t=5, turning points exact, psi_1/psi_2 crossings {signs}")
