"""Named, reproducible invariant suite spanning every module.

Each check is a pure function of a :class:`SuiteConfig` that measures one
invariant and returns its :class:`Verdict`, built by :func:`verdict`;
:func:`run_suite` turns it into a :class:`VerificationReport` under the check's
id, which only :data:`CHECKS` names.  Grids and RNG seeds are fixed by the
config, so two runs with the same config produce identical reports.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from . import bessel, classical, quantum, semiclassical

DEFAULT_SEED = 1234

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


class SuiteConfig(NamedTuple):
    params: classical.ModelParams = classical.ModelParams(lam=1.0, c1=1.0, c2=-5.0)
    ordering: quantum.SingleTermOrdering = quantum.SingleTermOrdering.from_alpha_gamma(0.0, 0.75)
    seed: int = DEFAULT_SEED
    hbar: float = 1.0  # each check that reads it refuses one not positive and finite


class Verdict(NamedTuple):
    status: str  # pass | fail | skipped
    measured: float
    tolerance: float
    provenance: str  # PAPER | TRIVIAL | DERIVED
    notes: str = ""


#: a verdict under its check's id, as run_suite returns it and verify prints it
VerificationReport = namedtuple("VerificationReport", ("check_id", *Verdict._fields))


def verdict(ok: bool | None, measured: float, tolerance: float, provenance: str,
            notes: str = "") -> Verdict:
    """A check's verdict: pass iff ok, skipped if ok is None (measured and tolerance NaN)."""
    status = SKIPPED if ok is None else PASS if ok else FAIL
    return Verdict(status, float(measured), float(tolerance), provenance, notes)


# ---------------------------------------------------------------------------
# individual checks


def check_classical_energy(cfg: SuiteConfig) -> Verdict:
    """H(x(t), p(t)) equals c1 identically along the closed-form pair."""
    p = cfg.params
    ts = np.linspace(-10.0, 10.0, 2001)
    ts = ts[classical.radicand(ts, p) > 1e-6]
    if ts.size == 0:
        return verdict(None, math.nan, math.nan, "DERIVED", "no regular times in window")
    xs = classical.exact_solution(ts, p)
    ps = classical.exact_momentum(ts, p)
    dev = float(np.max(np.abs(classical.hamiltonian(xs, ps, p.lam) - p.c1)))
    return verdict(dev <= 1e-12, dev, 1e-12, "DERIVED", f"max |H - c1| over {ts.size} times")


def check_integrator_vs_exact(cfg: SuiteConfig) -> Verdict:
    """Adaptive RK trajectory matches the closed form and conserves energy."""
    p = cfg.params
    if classical.radicand(0.0, p) <= 1e-6 or classical.classify_lambda(p, (0.0, 10.0)) == "singular":
        return verdict(None, math.nan, math.nan, "DERIVED", "trajectory singular on [0, 10]")
    # the peak x = 1/sqrt(q) sits where the radicand q, an upward parabola in t, is least on
    # [0, 10]: at its vertex, or at the nearer end; integrate_eom stops once x reaches the bound
    vertex = -p.c2 / math.sqrt(p.c1)
    if classical.radicand(min(max(vertex, 0.0), 10.0), p) <= classical.BLOWUP_BOUND**-2:
        return verdict(None, math.nan, math.nan, "DERIVED",
                       f"peak x reaches BLOWUP_BOUND = {classical.BLOWUP_BOUND:g} on [0, 10]")
    x0 = classical.exact_solution(0.0, p)
    p0 = classical.exact_momentum(0.0, p)
    v0 = p0 * x0**4 / 2.0
    traj = classical.integrate_eom(x0, v0, p.lam, t_end=10.0, tol=1e-12)
    ts, xs, ps = np.array(list(zip(*traj.states)))  # a state is the tuple (t, x, p)
    x_dev = float(np.max(np.abs(xs - classical.exact_solution(ts, p))))
    drift = float(np.max(np.abs(classical.hamiltonian(xs, ps, p.lam) - p.c1)))
    ok = x_dev < 1e-8 and drift < 1e-9
    return verdict(ok, x_dev, 1e-8, "DERIVED", f"energy drift {drift:.3e} (tol 1e-9)")


def check_finite_part(cfg: SuiteConfig) -> Verdict:
    """Finite part of the action integral is -pi, independent of A."""
    dev = max(
        abs(semiclassical.finite_part_action(A).finite_part + math.pi)
        for A in (0.5, 1.0, 2.0, 5.0)
    )
    return verdict(dev <= 1e-6, dev, 1e-6, "PAPER", "max |I + pi| over A in {0.5, 1, 2, 5}")


def check_wkb_identity(cfg: SuiteConfig) -> Verdict:
    """2 sqrt(lam_n) |I| = (n + 1/2) hbar pi for n = 0..10, hbar in {0.5, 1, 2}."""
    worst = max(
        float(np.max(np.abs(semiclassical.wkb_condition_check(np.arange(11), hbar).measured)))
        for hbar in (0.5, 1.0, 2.0)
    )
    return verdict(worst <= 1e-6, worst, 1e-6, "PAPER", "33 (n, hbar) combinations")


def check_ode_residual(cfg: SuiteConfig) -> Verdict:
    """Wave-equation residual of psi_n at quantized lam, continuous E."""
    if not cfg.ordering.reduces_cleanly:
        return verdict(
            None, math.nan, math.nan, "DERIVED",
            "ordering has gamma1 - alpha1 != 3/4 (x^d prefactor present); not applicable",
        )
    hbar = cfg.hbar
    rows = [(n, cfg.ordering, quantum.lambda_quantized(n, cfg.ordering, hbar)) for n in range(1, 7)]
    worst = max(quantum.ode_residuals(rows, E, hbar).max() for E in (0.5, 1.0, 2.0))
    # the equation's terms scale like its 4E/hbar^2 coefficient below hbar = 1
    # and stay O(1) above it, and so does their rounding
    tol = 1e-8 * max(1.0, hbar**-2)
    return verdict(
        worst <= tol, worst, tol, "DERIVED",
        "n = 1..6, E in {0.5, 1, 2}; E-independence is the continuous-energy statement",
    )


def check_residual_negative_control(cfg: SuiteConfig) -> Verdict:
    """Deliberately broken configurations must NOT solve the wave equation."""
    if not cfg.ordering.reduces_cleanly:
        return verdict(None, math.nan, math.nan, "DERIVED", "needs a cleanly reducing ordering")
    hbar = cfg.hbar
    # control 1: spoil the reduction gap (gamma1 - alpha1 = 0.5)
    broken = quantum.SingleTermOrdering.from_alpha_gamma(
        cfg.ordering.alpha1, cfg.ordering.alpha1 + 0.5
    )
    lam1 = quantum.lambda_quantized(2, broken, hbar)
    # control 2: offset lam from its quantized value, by 1/4 of the hbar^2 scale
    # lam takes in the equation (4 lam/hbar^2 moves by 1)
    lam2 = quantum.lambda_quantized(2, cfg.ordering, hbar) + 0.25 * bessel._square(hbar)
    # both controls are psi_2 at E = 1, so they share one J table
    r1, r2 = quantum.ode_residuals([(2, broken, lam1), (2, cfg.ordering, lam2)], 1.0, hbar).tolist()
    measured = min(r1, r2)
    return verdict(
        measured > 1e-3, measured, 1e-3, "DERIVED",
        "pass means both controls FAILED to solve (residual > 1e-3)",
    )


def check_parity(cfg: SuiteConfig) -> Verdict:
    """psi_n(-x) = (-1)^n psi_n(x) to machine precision."""
    xs = np.linspace(0.2, 10.0, 500)
    worst = 0.0
    for n in range(1, 7):
        state = quantum.ContinuumState(n=n, E=1.0)
        plus = quantum.eigenfunction(xs, state, cfg.hbar)
        minus = quantum.eigenfunction(-xs, state, cfg.hbar)
        worst = max(worst, float(np.max(np.abs(minus - (-1.0) ** n * plus))))
    return verdict(worst <= 1e-14, worst, 1e-14, "PAPER", "n = 1..6 on symmetric grids")


def check_pct_identity(cfg: SuiteConfig) -> Verdict:
    """strength + 1/4 = nu^2 for random orderings (fixed seed)."""
    rng = np.random.default_rng(cfg.seed)
    hbar = cfg.hbar
    worst = 0.0
    # one call draws the 300 uniforms in the order that 100 rounds of (a, g), then lam, drew them
    for a, g, lam in rng.uniform(-2.0, 2.0, size=(100, 3)).tolist():
        ordering = quantum.SingleTermOrdering.from_alpha_gamma(a, g)
        strength = quantum.pct_strength(ordering, lam, hbar)
        nu_sq = quantum.nu_squared(ordering, lam, hbar)
        worst = max(worst, abs(strength + 0.25 - nu_sq))
    return verdict(worst <= 1e-12, worst, 1e-12, "DERIVED", "100 seeded random orderings")


def check_box_orthonormality(cfg: SuiteConfig) -> Verdict:
    """Gram matrix of the first five box states is the identity."""
    worst = 0.0
    for N in range(1, 6):
        for M in range(N, 6):
            g = quantum.box_orthonormality(1, N, M, eps=0.1)
            worst = max(worst, abs(g - (1.0 if N == M else 0.0)))
    return verdict(worst <= 1e-8, worst, 1e-8, "DERIVED", "n = 1, eps = 0.1, N, M <= 5")


def hermitian_bound() -> float:
    """C with |psi(x)| <= C/x for the Hermitian state psi(x) = x^-3/2 J_1(z), z = 2/x >= 16.

    z M_1(z)^2, M_1^2 = J_1^2 + Y_1^2, decreases in z for order 1 > 1/2 (Watson, *A Treatise
    on the Theory of Bessel Functions*, §13.74), and |J_1| <= M_1, so C = sqrt(z0 M_1(z0)^2 / 2)
    at z0 = 16, times 1 + 1e-9 for the rounding of C and J's 1e-12 error."""
    z0 = 16.0
    return math.sqrt(z0 * (bessel.jv(1, z0) ** 2 + bessel.yv(1, z0) ** 2) / 2.0) * (1.0 + 1e-9)


def check_hermitian_singularity(cfg: SuiteConfig) -> Verdict:
    """Windowed maxima of the Hermitian-ordered state grow ~1/x toward 0.

    Neighbouring ratios share a window: 7 windows [2^-k, 2^(1-k)] give 6 ratios.  Each peak
    comes from a prefix of its window: z = 2/x >= 16 in every window, so |psi(x)| <= C/x with
    C = :func:`hermitian_bound`, and as C/x decreases along a window no sample past x = C/P
    exceeds a peak P already found.  psi is evaluated on the first 128 samples, then up to
    that cut-off, until the cut-off lies inside what was evaluated; psi is elementwise, so
    each peak has the bits of its whole window's maximum."""
    bound = hermitian_bound()
    peaks = []
    for k in range(4, 11):
        w = np.linspace(2.0**-k, 2.0 ** (1 - k), 4000)
        done, cut, peak = 0, 128, 0.0
        while cut > done:
            psi = quantum.hermitian_wavefunction(w[done:cut], 1, 1.0)
            done, peak = cut, max(peak, float(np.max(np.abs(psi))))
            cut = int(w.searchsorted(bound / peak, side="right"))
        peaks.append(peak)
    measured = min(near / far for far, near in zip(peaks, peaks[1:]))
    return verdict(
        measured >= 1.8, measured, 1.8, "DERIVED",
        "min over window locations 2^-4 .. 2^-9 of the per-halving growth factor",
    )


def check_similarity(cfg: SuiteConfig) -> Verdict:
    """Ordered operator agrees with its similarity-conjugated Hermitian form."""
    disc = quantum.similarity_check(
        cfg.ordering, lambda x: np.exp(-((x - 2.0) ** 2)), hbar=cfg.hbar
    )
    # at lam = 0 both operators are hbar^2/2 times their kinetic part
    tol = 1e-6 * bessel._square(cfg.hbar)
    return verdict(disc <= tol, disc, tol, "DERIVED", "Gaussian test function on [0.5, 5]")


def check_bessel_kernel(cfg: SuiteConfig) -> Verdict:
    """Wronskian, recurrence, zero residuals, and zero interlacing."""
    xs = np.logspace(-1, 2, 40)
    nus = np.arange(12.0)  # the recurrence at nu = 10 reads J_11
    j, jp, _ = bessel.jv_derivatives(nus, xs)
    y = bessel.yv(np.arange(-1.0, 12.0)[:, None], xs)  # row nu + 1 is Y_nu
    wron = j[:11] * (0.5 * (y[:-2] - y[2:])) - jp[:11] * y[1:-1] - 2.0 / (math.pi * xs)
    rec = j[:-2] + j[2:] - 2.0 * nus[1:-1, None] / xs * j[1:-1]  # nu = 1..10
    worst = max(float(np.max(np.abs(wron))), float(np.max(np.abs(rec))))
    zeros = {
        (n, N): j for n in (1, 2, 3) for N, j in enumerate(bessel.bessel_zeros(n, 3), start=1)
    }
    for (n, N), j in zeros.items():
        worst = max(worst, abs(bessel.jv(n, j)))
    interlaced = all(
        zeros[(n, N)] < zeros[(n + 1, N)] < zeros[(n, N + 1)]
        for n in (1, 2)
        for N in (1, 2)
    )
    return verdict(
        worst < 1e-9 and interlaced, worst, 1e-9, "DERIVED",
        f"orders 0..10 on log grid [0.1, 100]; interlacing {'ok' if interlaced else 'BROKEN'}",
    )


#: registry in deterministic report order
CHECKS = {
    "classical_energy_conservation": check_classical_energy,
    "integrator_vs_exact": check_integrator_vs_exact,
    "finite_part": check_finite_part,
    "wkb_identity": check_wkb_identity,
    "ode_residual": check_ode_residual,
    "residual_negative_control": check_residual_negative_control,
    "parity": check_parity,
    "pct_identity": check_pct_identity,
    "box_orthonormality": check_box_orthonormality,
    "hermitian_singularity": check_hermitian_singularity,
    "similarity": check_similarity,
    "bessel_kernel": check_bessel_kernel,
}


def all_check_ids() -> tuple[str, ...]:
    return tuple(CHECKS)


def run_suite(selection, config: SuiteConfig | None = None) -> list[VerificationReport]:
    """Run the selected checks and return their reports in registry order.

    selection is an iterable of check ids; unknown ids raise ValueError.
    The overall suite passes iff every non-skipped report passes (see
    :func:`suite_passed`).
    """
    config = config or SuiteConfig()
    wanted = set(selection)
    if not wanted:
        raise ValueError("selection must not be empty")
    unknown = wanted - set(CHECKS)
    if unknown:
        raise ValueError(f"unknown check ids: {sorted(unknown)}; known: {list(CHECKS)}")
    return [VerificationReport(cid, *fn(config)) for cid, fn in CHECKS.items() if cid in wanted]


def suite_passed(reports) -> bool:
    return all(r.status != FAIL for r in reports)
