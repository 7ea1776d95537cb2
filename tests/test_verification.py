import math

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
