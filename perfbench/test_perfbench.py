"""Tests of the benchmark itself: oracle, negative controls, exact counts.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

ARGV = ["trajectory", "--lambda", "0.5", "--c1", "1.3", "--c2", "-2", "--t", "0:5:0.25", "--format"]


def _cli(argv, capsys):
    from pdmosc import cli

    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err.encode()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_flipped_digit_and_wrong_exit_code_fail(fmt, capsys):
    argv = ARGV + [fmt]
    code, out, err = _cli(argv, capsys)
    assert oracle.check_cli(argv, 0, code, out, err) == (21, None)
    flipped = run.flip_digit(out, out.index(b"\n") + 1 if fmt == "csv" else 0)
    assert oracle.is_wrong(oracle.check_cli(argv, 0, code, flipped, err)[1])
    wrong_code = oracle.check_cli(argv, 0, 1, out, err)[1]
    assert wrong_code is not None and not oracle.is_wrong(wrong_code)  # pdmosc reported it


def test_last_digit_flip_is_caught_by_the_digest(capsys):
    argv = ARGV + ["csv"]
    code, out, err = _cli(argv, capsys)
    last = out.rstrip(b"\n")
    flipped = run.flip_digit(out, len(last) - 1)
    assert flipped != out
    assert run.digest_cause(run._digest(code, flipped, err), 0, [run._digest(code, out, err)])
    assert run.digest_cause(run._digest(code, out, err), 0, [run._digest(code, out, err)]) is None


def test_invalid_input_contract():
    argv = ["trajectory", "--lambda", "1", "--t", "0:10", "--format", "csv"]
    msg = b"pdmosc: expected start:stop:step, got '0:10'\n"
    assert oracle.check_cli(argv, 1, 1, b"", msg)[1] is None
    assert oracle.check_cli(argv, 1, 0, b"", msg)[1] is not None
    assert oracle.check_cli(argv, 1, 1, b"", msg + b"usage: pdmosc\n")[1] is not None
    assert oracle.check_cli(argv, 1, 1, b"", b"Traceback (most recent call last):\n")[1] is not None


@pytest.fixture(scope="module")
def launcher(tmp_path_factory):
    la = run.Launcher(tmp_path_factory.mktemp("launcher"))
    yield la
    la.close()


def test_default_seed_digests_match_first_operations(launcher):
    expected = json.loads(run.DIGESTS.read_text())["cli_cold"]
    runner = run.CliRunner(launcher)
    ops = workloads.schedule("cli_cold", run.DEFAULT_SEED)
    for i in range(3):
        r = runner.execute(next(ops), i, "plain")
        assert r.cause is None
        assert r.digest == expected[i]


def test_child_peak_rss_is_the_childs_own(launcher):
    ballast = b"\x01" * (100 * 1024 * 1024)  # this process now holds > 100 MB
    r = launcher.run([sys.executable, "-c", "pass"])
    assert r.code == 0 and r.rss_mb < 50
    del ballast


@pytest.fixture(scope="module")
def kernel_runner(launcher):
    return run.KernelRunner(launcher)


def test_study_negative_control(kernel_runner):
    study = next(workloads.schedule("kernel_sweep", 7))
    r = kernel_runner.execute(study, 0, "plain")
    assert r.cause is None
    assert run.negative_control(r.sample)


def test_counts_repeat_exactly_and_tracing_keeps_results(kernel_runner):
    study = next(workloads.schedule("kernel_sweep", 7))
    a = kernel_runner.execute(study, 0, "count")
    b = kernel_runner.execute(study, 0, "count")
    timed = kernel_runner.execute(study, 0, "time")
    plain = kernel_runner.execute(study, 0, "plain")
    assert a.trace["counts"] == b.trace["counts"]
    assert a.trace["counts"]["bessel.jv_evals"] > 0
    assert not timed.trace["counts"]  # the timing tracer installs no counting wrappers
    assert {s[0] for s in timed.trace["spans"]} == {s[0] for s in a.trace["spans"]}
    assert a.digest == b.digest == timed.digest == plain.digest


def test_import_split_buckets():
    err = (b"import time: self [us] | cumulative | imported package\n"
           b"import time:       100 |        100 |       numpy.core\n"
           b"import time:        50 |        150 |     numpy\n"
           b"import time:        20 |         20 |       scipy.special._ufuncs\n"
           b"import time:        30 |        200 |   pdmosc.bessel\n"
           b"import time:        10 |        210 | pdmosc\n"
           b"pdmosc: message\n")
    split, rest = run.import_split(err)
    assert split["import.total_s"] == pytest.approx(210e-6)
    assert split["import.numpy_s"] == pytest.approx(150e-6)
    assert split["import.scipy_special_s"] == pytest.approx(20e-6)
    assert rest == b"pdmosc: message\n"


def test_speed_scale_uses_the_references_around_each_time():
    scale = run.speed_scale([(0.0, 1.0), (10.0, 2.0), (20.0, 4.0)], nominal=2.0)
    assert scale(5.0) == pytest.approx(2.0 / 1.5)
    assert scale(15.0) == pytest.approx(2.0 / 3.0)
    assert scale(25.0) == pytest.approx(0.5)


def test_tail_has_ten_samples_beyond():
    value, pct, n = run.tail([float(i) for i in range(40)], 40)
    assert (value, pct, n) == (29.0, 75.0, 40)
    assert sum(x > value for x in range(40)) == 10
    for n in (96, 112, 144):  # longer runs keep the percentile and have more samples above
        value, pct, _ = run.tail([float(i) for i in range(n)], 96)
        assert pct == 100.0 * 86 / 96 and sum(x > value for x in range(n)) >= 10


def test_replayed_failures_count_once_per_operation():
    R = lambda op, cause=None: type("R", (), {"op": op, "cause": cause})()  # noqa: E731
    one_pass = [R(0), R(1, "exit 2"), R(2)]
    replayed = one_pass + [R(0), R(1, "exit 2"), R(1, "exit 2")]
    assert run.operation_outcomes(one_pass) == run.operation_outcomes(replayed) == (3, [1])


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads(run.SPEC.read_text())
    ops = [type("R", (), {"rows": 1, "rss_mb": 1.0, "cause": None})()] * 12
    e2e = run.end_to_end([1.0], [1.0] * 12, ops, 12)
    assert {m["name"] for m in spec["end_to_end"]} <= set(e2e)
    assert spec["paths"] == ["perfbench"]


@pytest.mark.xfail(strict=True, reason="known defect: classical_energy_conservation uses an "
                   "absolute 1e-12 tolerance on H, which fails near lambda < 0 singular times")
def test_known_defect_energy_check_for_negative_lambda():
    from pdmosc import classical, verification

    cfg = verification.SuiteConfig(params=classical.ModelParams(lam=-1.36719, c1=0.725043, c2=-4.87288))
    assert verification.check_classical_energy(cfg).status == "pass"


def test_known_defect_draw_counts_as_a_reported_failure(capsys):
    argv = ["verify", "--lambda", "-1.36719", "--c1", "0.725043", "--c2", "-4.87288", "--format", "csv"]
    code, out, err = _cli(argv, capsys)
    cause = oracle.check_cli(argv, 0, code, out, err)[1]
    assert cause is not None and not oracle.is_wrong(cause)
