import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from pdmosc import bessel, quantum
from pdmosc import verification as v
from pdmosc.classical import ModelParams
from pdmosc.quantum import SingleTermOrdering


def test_full_suite_passes():
    reports = v.run_suite(v.all_check_ids())
    assert len(reports) == len(v.all_check_ids())
    assert all(r.status == "pass" for r in reports)
    assert v.suite_passed(reports)


def test_single_selection_finite_part():
    reports = v.run_suite({"finite_part"})
    assert len(reports) == 1
    report = reports[0]
    assert report.check_id == "finite_part"
    assert report.status == "pass"
    assert abs(report.measured) < 1e-6
    assert report.provenance == "PAPER"


def test_negative_control_semantics():
    (report,) = v.run_suite({"residual_negative_control"})
    assert report.status == "pass"
    assert report.measured > 1e-3  # pass means the broken configuration failed to solve


def test_unknown_and_empty_selection():
    with pytest.raises(ValueError):
        v.run_suite({"finite_part", "no_such_check"})
    with pytest.raises(ValueError):
        v.run_suite(set())


def test_reports_in_registry_order():
    ids = [r.check_id for r in v.run_suite(v.all_check_ids())]
    assert ids == list(v.all_check_ids())
    # order independent of selection order
    subset = ["parity", "finite_part", "bessel_kernel"]
    got = [r.check_id for r in v.run_suite(subset)]
    assert got == [c for c in v.all_check_ids() if c in subset]


def test_determinism():
    cfg = v.SuiteConfig(seed=42)
    first = v.run_suite(v.all_check_ids(), cfg)
    second = v.run_suite(v.all_check_ids(), cfg)
    assert first == second


def test_provenance_tags_valid():
    for report in v.run_suite(v.all_check_ids()):
        assert report.provenance in ("PAPER", "TRIVIAL", "DERIVED")


def test_residual_checks_skip_for_non_reducing_ordering():
    cfg = v.SuiteConfig(ordering=SingleTermOrdering.from_alpha_gamma(0.0, 0.5))
    reports = {r.check_id: r for r in v.run_suite(v.all_check_ids(), cfg)}
    assert reports["ode_residual"].status == "skipped"
    assert reports["residual_negative_control"].status == "skipped"
    assert math.isnan(reports["ode_residual"].measured)
    # unrelated checks still run
    assert reports["finite_part"].status == "pass"
    assert v.suite_passed(reports.values())  # skipped does not fail the suite


def test_integrator_check_skips_on_singular_window():
    cfg = v.SuiteConfig(params=ModelParams(lam=-1.0, c1=1.0, c2=0.0))
    reports = {r.check_id: r for r in v.run_suite(["integrator_vs_exact"], cfg)}
    assert reports["integrator_vs_exact"].status == "skipped"


@pytest.mark.parametrize("lam, c1, skipped", [
    (1e-8, 1e8, True),  # peak 1e8 at t = 5e-4: integrate_eom stops at |x| = 1e6 by contract
    (1e-12, 1.0, True),  # peak exactly at the bound, at t = 5
    (1.0001e-12, 1.0, False),  # just under it: the check integrates
])
def test_integrator_check_skips_where_the_peak_reaches_the_blow_up_bound(lam, c1, skipped):
    cfg = v.SuiteConfig(params=ModelParams(lam=lam, c1=c1, c2=-5.0))
    (report,) = v.run_suite(["integrator_vs_exact"], cfg)
    assert (report.status == "skipped") == skipped
    if skipped:
        assert report.notes == "peak x reaches BLOWUP_BOUND = 1e+06 on [0, 10]"


@pytest.mark.parametrize("formula", ["pct_strength", "nu_squared"])
def test_pct_identity_checks_the_library_formulas(formula, monkeypatch):
    (report,) = v.run_suite(["pct_identity"])
    assert report.status == "pass"
    right = getattr(quantum, formula)
    monkeypatch.setattr(quantum, formula, lambda *args: right(*args) + 1e-9)
    (report,) = v.run_suite(["pct_identity"])
    assert report.status == "fail"


def per_iteration_pct_identity(seed, hbar):
    """check_pct_identity's measured value with its draws taken two, then one, per ordering."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        a, g = rng.uniform(-2.0, 2.0, size=2)
        ordering = SingleTermOrdering.from_alpha_gamma(a, g)
        lam = rng.uniform(-2.0, 2.0)
        strength = quantum.pct_strength(ordering, lam, hbar)
        worst = max(worst, abs(strength + 0.25 - quantum.nu_squared(ordering, lam, hbar)))
    return worst


@pytest.mark.parametrize("hbar", [1e-3, 1.0, 100.0])
def test_pct_identity_draws_the_per_iteration_stream(hbar):
    for seed in [*range(100), v.DEFAULT_SEED]:
        measured = v.check_pct_identity(v.SuiteConfig(seed=seed, hbar=hbar)).measured
        assert measured == per_iteration_pct_identity(seed, hbar), seed


def hermitian_windows():
    """The check's seven windows [2^-k, 2^(1-k)], k = 4..10, of 4000 samples each."""
    return [np.linspace(2.0**-k, 2.0 ** (1 - k), 4000) for k in range(4, 11)]


def test_hermitian_singularity_finds_each_whole_window_peak_from_a_prefix(monkeypatch):
    wavefunction = quantum.hermitian_wavefunction
    windows = hermitian_windows()
    whole_peaks = [float(np.max(np.abs(wavefunction(w, 1, 1.0)))) for w in windows]
    slices = []  # (x, psi) of every call, in call order

    def recorded(x, *args):
        slices.append((x, wavefunction(x, *args)))
        return slices[-1][1]

    monkeypatch.setattr(quantum, "hermitian_wavefunction", recorded)
    j_values = []

    def jv(nu, x):
        j_values.append(np.broadcast(nu, x).size)
        return special.jv(nu, x)

    monkeypatch.setattr(bessel, "_sp", SimpleNamespace(jv=jv, yv=special.yv))
    (report,) = v.run_suite(["hermitian_singularity"], v.SuiteConfig())
    assert report.measured == 1.981288630165693
    assert sum(j_values) <= 2000  # of the 28,000 samples
    # a window's calls start at its first sample, and together are a prefix of it
    firsts = [i for i, (x, _) in enumerate(slices) if x[0] in {w[0] for w in windows}]
    assert firsts[0] == 0 and len(firsts) == 7
    for w, whole, a, b in zip(windows, whole_peaks, firsts, firsts[1:] + [len(slices)]):
        xs = np.concatenate([x for x, _ in slices[a:b]])
        assert np.array_equal(xs, w[: xs.size]) and xs.size < w.size
        assert float(np.max(np.abs(np.concatenate([psi for _, psi in slices[a:b]])))) == whole


def test_the_hermitian_state_lies_under_c_over_x():
    xs = np.concatenate(hermitian_windows())
    scaled = np.abs(quantum.hermitian_wavefunction(xs, 1, 1.0)) * xs / v.hermitian_bound()
    assert scaled.max() <= 1.0
    assert scaled.max() > 0.999  # tight enough to cut each window short


def test_z_times_the_squared_bessel_modulus_decreases():
    # Watson §13.74: z (J_1^2 + Y_1^2) decreases in z for order 1 > 1/2; at 30 digits
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        values = [z * (mpmath.besselj(1, z) ** 2 + mpmath.bessely(1, z) ** 2)
                  for z in map(mpmath.mpf, np.logspace(4.0, 11.0, 300, base=2.0).tolist())]
    assert all(far < near for near, far in zip(values, values[1:]))


def test_hermitian_singularity_fails_on_a_bounded_state(monkeypatch):
    # x^-1/2 J_1(2/x) stays bounded toward 0: its windowed maxima do not grow
    monkeypatch.setattr(quantum, "hermitian_wavefunction",
                        lambda x, n, E, hbar=1.0: quantum.general_solution(x, n, E, -0.5, hbar))
    (report,) = v.run_suite(["hermitian_singularity"], v.SuiteConfig())
    assert report.status == v.FAIL
    assert report.measured < 1.1


@pytest.mark.parametrize("hbar", [0.001, 0.1, 10.0, 100.0])
def test_suite_passes_far_from_hbar_1(hbar):
    reports = v.run_suite(v.all_check_ids(), v.SuiteConfig(hbar=hbar))
    assert [r.check_id for r in reports if r.status == v.FAIL] == []


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(log10_hbar=st.floats(-3.0, 2.0))
def test_suite_passes_at_any_hbar_in_its_scaled_range(log10_hbar):
    # hbar spread over [1e-3, 1e2] on a log scale: the tolerances that read hbar scale with it
    reports = v.run_suite(v.all_check_ids(), v.SuiteConfig(hbar=10.0**log10_hbar))
    assert [r.check_id for r in reports if r.status == v.FAIL] == []


def test_hbar_scaling_is_exactly_1_at_hbar_1():
    tolerances = {r.check_id: r.tolerance for r in v.run_suite(v.all_check_ids())}
    assert tolerances["ode_residual"] == 1e-8
    assert tolerances["residual_negative_control"] == 1e-3
    assert tolerances["similarity"] == 1e-6


#: check id -> (owner, attribute, the wrong formula made from the right one)
WRONG_FORMULAS = {
    # lam_n from n(n + 1) instead of n^2: psi_n then solves no equation of the family
    "ode_residual": (quantum, "lambda_quantized",
                     lambda right: lambda n, o, hbar: (n * (n + 1) - o.s**2) * hbar**2 / 4.0),
    # a residual blind to lam: the coefficients always take the quantized coupling of
    # n = 2, the controls' state, so the offset control solves its equation
    "residual_negative_control": (
        quantum, "ode_coefficients",
        lambda right: lambda o, lam, E, hbar: right(o, quantum.lambda_quantized(2, o, hbar), E, hbar),
    ),
    # the similarity exponent off by 1/100
    "similarity": (SingleTermOrdering, "eta", lambda right: property(lambda o: right.fget(o) + 0.01)),
}


@pytest.mark.parametrize("hbar", [0.001, 1.0, 100.0])
@pytest.mark.parametrize("check_id", list(WRONG_FORMULAS))
def test_hbar_scaled_checks_fail_on_a_wrong_formula(check_id, hbar, monkeypatch):
    cfg = v.SuiteConfig(hbar=hbar)
    (report,) = v.run_suite([check_id], cfg)
    assert report.status == "pass"
    owner, attr, wrong = WRONG_FORMULAS[check_id]
    monkeypatch.setattr(owner, attr, wrong(vars(owner)[attr]))
    (report,) = v.run_suite([check_id], cfg)
    assert report.status == "fail"
