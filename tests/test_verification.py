import math

import numpy as np
import pytest

from pdmosc import quantum
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


@pytest.mark.parametrize("formula", ["pct_strength", "nu_squared"])
def test_pct_identity_checks_the_library_formulas(formula, monkeypatch):
    (report,) = v.run_suite(["pct_identity"])
    assert report.status == "pass"
    right = getattr(quantum, formula)
    monkeypatch.setattr(quantum, formula, lambda *args: right(*args) + 1e-9)
    (report,) = v.run_suite(["pct_identity"])
    assert report.status == "fail"


def test_hermitian_singularity_evaluates_each_window_once(monkeypatch):
    wavefunction = quantum.hermitian_wavefunction

    def peak(x):
        return float(np.max(np.abs(wavefunction(x, 1, 1.0))))

    # the growth factors as computed one window pair at a time, 12 evaluations
    reference = min(
        peak(np.linspace(2.0**-k / 2, 2.0**-k, 4000)) / peak(np.linspace(2.0**-k, 2 * 2.0**-k, 4000))
        for k in range(4, 10)
    )
    calls = []
    monkeypatch.setattr(
        quantum, "hermitian_wavefunction", lambda x, *args: calls.append(x) or wavefunction(x, *args)
    )
    (report,) = v.run_suite(["hermitian_singularity"], v.SuiteConfig())
    assert len(calls) == 7
    assert report.measured == reference == 1.981288630165693


#: hbar -> the checks that fail there on a correct library: their absolute tolerances
#: assume hbar ~ 1 (ROADMAP: scale them with hbar)
HBAR_DEFECTS = {
    0.001: "ode_residual measures 1.49e-8 against 1e-8: rounding of the 1/hbar^2 terms",
    100.0: "residual_negative_control measures 3.1e-6 against 1e-3, similarity 3.4e-6 against 1e-6",
}


@pytest.mark.parametrize("hbar", [
    pytest.param(hbar, marks=pytest.mark.xfail(strict=True, reason=f"known defect: {why}"))
    for hbar, why in HBAR_DEFECTS.items()
])
def test_suite_passes_far_from_hbar_1(hbar):
    reports = v.run_suite(v.all_check_ids(), v.SuiteConfig(hbar=hbar))
    assert [r.check_id for r in reports if r.status == v.FAIL] == []
