import collections
import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from pdmosc import classical, cli, quantum, semiclassical
from pdmosc.bessel import bessel_zero
from pdmosc.quantum import SingleTermOrdering, box_spectrum, lambda_quantized


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_trajectory_matches_closed_form(capsys):
    code, out, _ = run_cli(
        ["trajectory", "--c1", "1", "--c2", "-5", "--lambda", "1", "--t", "0:10:0.01"], capsys
    )
    assert code == 0
    rows = read_csv(out)
    assert list(rows[0]) == ["t", "x", "p", "E"]
    by_t = {row["t"]: row for row in rows}
    assert float(by_t["5"]["x"]) == pytest.approx(1.0, abs=1e-15)
    assert float(by_t["0"]["x"]) == pytest.approx(1.0 / math.sqrt(26.0), rel=1e-15)
    assert len(rows) == 1001


def test_trajectory_output_is_bit_stable(capsys):
    argv = ["trajectory", "--lambda", "1", "--c2", "-5", "--t", "0:3:0.01"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


def test_trajectory_singular_exit_code(capsys):
    code, _, err = run_cli(
        ["trajectory", "--lambda", "-1", "--c1", "1", "--c2", "0", "--t", "0:10:0.1"], capsys
    )
    assert code == 2
    assert "numerical failure" in err


def test_validation_exit_codes(capsys):
    code, _, err = run_cli(["trajectory", "--lambda", "1", "--c1", "-1"], capsys)
    assert code == 1
    code, _, err = run_cli(["trajectory", "--lambda", "1", "--c1", "0"], capsys)
    assert (code, err) == (1, "pdmosc: c1 must be positive and finite, got 0.0\n")
    code, _, err = run_cli(["eigenfunction", "--n", "0", "--E", "1"], capsys)
    assert (code, err) == (1, "pdmosc: integer order n >= 1 required, got 0\n")
    code, _, err = run_cli(["no-such-command"], capsys)
    assert code == 1
    assert "usage" in err.lower()
    code, _, err = run_cli(["trajectory", "--frobnicate"], capsys)
    assert code == 1
    code, _, err = run_cli(["phase-portrait", "--energies", "0.5"], capsys)
    assert code == 1  # missing required --lambda
    assert "--lambda" in err


def test_lambda_map_classification(capsys):
    code, out, _ = run_cli(
        ["lambda-map", "--lambda-min", "-1", "--lambda-max", "1", "--count", "5",
         "--c1", "1", "--c2", "0", "--window", "0:10"],
        capsys,
    )
    assert code == 0
    rows = read_csv(out)
    # lam = 0 with the radicand vertex inside the window is singular too:
    # x(t) = 1/|t| blows up at t = 0
    assert [r["status"] for r in rows] == ["singular", "singular", "singular", "bounded", "bounded"]
    assert float(rows[0]["singular_time"]) == pytest.approx(1.0)
    # at lam = 0 the radicand (c2 + sqrt(c1) t)^2 touches zero at its double root -c2/sqrt(c1)
    assert rows[2]["singular_time"] == "0"  # unsigned, though c2 = 0
    assert rows[-1]["singular_time"] == ""
    code, out, _ = run_cli(["lambda-map", "--lambda-min", "-1", "--lambda-max", "1", "--count", "3",
                            "--c1", "4", "--c2", "-3"], capsys)
    assert (code, out.splitlines()[2]) == (0, "0,singular,1.5")


def test_phase_portrait_turning_points(capsys):
    code, out, _ = run_cli(
        ["phase-portrait", "--lambda", "0.5", "--energies", "0.5,0.7,0.8,1", "--points", "64"],
        capsys,
    )
    assert code == 0
    rows = read_csv(out)
    energies = sorted({float(r["E"]) for r in rows})
    assert energies == [0.5, 0.7, 0.8, 1.0]
    for E in energies:
        amp = math.sqrt(E / 0.5)
        sub = [r for r in rows if float(r["E"]) == E]
        xs = [float(r["x"]) for r in sub]
        assert min(xs) == pytest.approx(-amp, rel=1e-12)
        assert max(xs) == pytest.approx(amp, rel=1e-12)
        edge = [r for r in sub if abs(abs(float(r["x"])) - amp) < 1e-12]
        assert all(float(r["p_plus"]) == 0.0 for r in edge)


def test_wkb_table(capsys):
    code, out, _ = run_cli(["wkb", "--n-max", "5", "--hbar", "0.5"], capsys)
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 6
    for row in rows:
        n = int(row["n"])
        assert float(row["lambda_n"]) == pytest.approx((n + 0.5) ** 2 * 0.25 / 4.0)
        assert float(row["rhs"]) == pytest.approx((n + 0.5) * 0.5 * math.pi)
        assert abs(float(row["residual"])) < 1e-6


def test_spectrum_table(capsys):
    code, out, _ = run_cli(["spectrum", "--alpha1", "0", "--gamma1", "0.75", "--n-max", "4"], capsys)
    assert code == 0
    rows = read_csv(out)
    ordering = SingleTermOrdering.from_alpha_gamma(0.0, 0.75)
    for row in rows:
        n = int(row["n"])
        assert float(row["lambda_n"]) == pytest.approx(lambda_quantized(n, ordering, 1.0))
        assert float(row["nu_roundtrip"]) == pytest.approx(n, abs=1e-12)


def test_eigenfunction_parity_and_zero_crossings(capsys):
    code, odd_out, _ = run_cli(["eigenfunction", "--n", "1", "--E", "1", "--x", "0.2:3:0.002"], capsys)
    assert code == 0
    rows = read_csv(odd_out)
    psi = {float(r["x"]): float(r["psi"]) for r in rows}
    for x in (0.25, 0.5, 1.0, 2.0):
        assert psi[-x] == -psi[x]
    # sign flips at x = 2 sqrt(E) / (hbar j_{1,k}) on the positive half line
    xs = sorted(x for x in psi if x > 0)
    vals = np.array([psi[x] for x in xs])
    flips = [0.5 * (xs[i] + xs[i + 1]) for i in np.where(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]]
    expected = sorted(2.0 / bessel_zero(1, k) for k in (1, 2))
    assert len(flips) == 2
    for found, want in zip(sorted(flips), expected):
        assert found == pytest.approx(want, abs=2e-3)

    code, even_out, _ = run_cli(["eigenfunction", "--n", "2", "--E", "1", "--x", "0.2:3:0.01"], capsys)
    rows = read_csv(even_out)
    psi2 = {float(r["x"]): float(r["psi"]) for r in rows}
    for x in (0.25, 0.5, 1.0, 2.0):
        assert psi2[-x] == psi2[x]


@pytest.mark.parametrize(
    "grid, xs",
    [
        ("0.5:1:0.25", [-1.0, -0.75, -0.5, 0.5, 0.75, 1.0]),
        ("-1:-0.5:0.25", [-1.0, -0.75, -0.5]),
        ("-0.75:0.75:0.5", [-0.75, -0.25, 0.25, 0.75]),
    ],
)
def test_eigenfunction_mirrors_a_grid_only_when_it_starts_above_zero(grid, xs, capsys):
    code, out, err = run_cli(["eigenfunction", "--n", "1", "--E", "1", f"--x={grid}"], capsys)
    assert (code, err) == (0, "")
    assert [float(r["x"]) for r in read_csv(out)] == xs


def test_box_spectrum_rows(capsys):
    code, out, _ = run_cli(["box-spectrum", "--n", "1", "--n-zeros", "3", "--eps", "0.1"], capsys)
    assert code == 0
    rows = read_csv(out)
    states = box_spectrum(1, 3, 0.1, 1.0)
    assert len(rows) == 3
    for row, state in zip(rows, states):
        assert int(row["N"]) == state.N
        assert float(row["E"]) == pytest.approx(state.energy, rel=1e-16)
        assert float(row["C"]) == pytest.approx(state.norm_const, rel=1e-16)


def test_json_format(capsys):
    code, out, _ = run_cli(
        ["box-spectrum", "--n", "1", "--n-zeros", "2", "--eps", "0.1", "--format", "json"], capsys
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 2
    assert records[0]["N"] == 1
    assert records[0]["E"] == pytest.approx(0.03670492660530974)


def test_verify_subcommand(capsys):
    code, out, err = run_cli(["verify", "--checks", "finite_part,parity"], capsys)
    assert code == 0
    rows = read_csv(out)
    assert [r["check_id"] for r in rows] == ["finite_part", "parity"]
    assert all(r["status"] == "pass" for r in rows)
    assert "2 passed, 0 failed" in err
    code, _, err = run_cli(["verify", "--checks", "nope"], capsys)
    assert code == 1
    assert "unknown check ids" in err


def test_config_file_and_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sample config\nlam = 1\nc2 = -5\nt = 0:10:5\n")
    code, out, _ = run_cli(["trajectory", "--config", str(cfg)], capsys)
    assert code == 0
    assert len(read_csv(out)) == 3
    # flag beats config entry
    code, out, _ = run_cli(["trajectory", "--config", str(cfg), "--t", "5:5:1"], capsys)
    rows = read_csv(out)
    assert len(rows) == 1
    assert float(rows[0]["x"]) == pytest.approx(1.0)
    # malformed config is a validation error
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not a key value pair\n")
    code, _, err = run_cli(["trajectory", "--config", str(bad)], capsys)
    assert code == 1


@pytest.mark.parametrize(
    "sub, line",
    [("trajectory", "format = json"), ("trajectory", "lamda = 3"), ("verify", "lambda = -1"),
     ("spectrum", "config = other.cfg")],
)
def test_unknown_config_key_exits_1(sub, line, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"lam = 1\nt = 0:1:0.5\n{line}\n")
    code, out, err = run_cli([sub, "--config", str(cfg)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("pdmosc: ") and err.count("\n") == 1
    assert f"unknown config key {line.split('=')[0].strip()!r}" in err


def test_config_keys_of_other_subcommands_are_allowed(tmp_path, capsys):
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("lam = 1\nt = 0:1:0.5\nfmt = json\nn-zeros = 3\nchecks = parity\n")
    code, out, _ = run_cli(["trajectory", "--config", str(cfg)], capsys)
    assert code == 0
    assert [json.loads(line)["t"] for line in out.splitlines()] == [0.0, 0.5, 1.0]


def test_output_file_and_plot_script(tmp_path, capsys):
    out_csv = tmp_path / "eig.csv"
    code, _, _ = run_cli(
        ["eigenfunction", "--n", "1", "--E", "1", "--x", "0.3:3:0.01",
         "--output", str(out_csv), "--emit-plot-script"],
        capsys,
    )
    assert code == 0
    assert out_csv.exists()
    script = tmp_path / "eig_plot.py"
    assert script.exists()
    assert "eig.csv" in script.read_text()
    # plot script without an output path is rejected
    code, _, err = run_cli(
        ["eigenfunction", "--n", "1", "--E", "1", "--x", "0.3:3:0.1", "--emit-plot-script"],
        capsys,
    )
    assert code == 1
    assert "emit-plot-script" in err


def test_full_precision_formatting(capsys):
    code, out, _ = run_cli(["box-spectrum", "--n", "1", "--n-zeros", "1", "--eps", "0.1"], capsys)
    row = read_csv(out)[0]
    assert row["eps"] == "0.10000000000000001"  # 17 significant digits round-trip
    assert float(row["E"]) == 0.25 * bessel_zero(1, 1) ** 2 * 0.01


def test_grid_parsing():
    grid = cli.parse_grid("0:1:0.25")
    assert list(grid) == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        cli.parse_grid("0:1")
    with pytest.raises(ValueError):
        cli.parse_grid("1:0:0.1")
    with pytest.raises(ValueError):
        cli.parse_grid("0:1:-0.1")


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--alpha1", "nan"],
        ["spectrum", "--gamma1", "nan"],
        ["spectrum", "--alpha1", "inf"],
        ["spectrum", "--gamma1=-inf"],
        ["verify", "--checks", "ode_residual", "--alpha1", "nan"],
        ["spectrum", "--alpha1", "1e308", "--gamma1", "1e308"],  # beta1 = -inf
    ],
)
def test_non_finite_ordering_exits_1(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("pdmosc: ") and err.count("\n") == 1
    assert "must be finite" in err


def test_ordering_far_from_the_origin_runs(capsys):
    # beta1 = -1 - alpha1 - gamma1 rounds, so alpha1 + beta1 + gamma1 misses -1 by
    # about 6e-12 here; the ordering the user gave is still a valid one
    code, out, err = run_cli(["spectrum", "--alpha1", "1e5", "--gamma1", "0.1"], capsys)
    assert (code, err) == (0, "")
    rows = read_csv(out)
    assert len(rows) == 10
    assert all(math.isfinite(float(v)) for row in rows for v in row.values())


@pytest.mark.parametrize("field", [0, 1, 2])
@pytest.mark.parametrize("token", ["inf", "-inf", "nan"])
def test_non_finite_time_grid_exits_1(field, token, capsys):
    parts = ["0", "10", "0.1"]
    parts[field] = token
    code, out, err = run_cli(["trajectory", "--lambda", "1", "--t=" + ":".join(parts)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("pdmosc: ") and err.count("\n") == 1
    assert "must be finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("spec", ["0:1e308:1e-300", "-1e308:1e308:1"])
def test_overflowing_time_grid_exits_1(spec, capsys):
    code, out, err = run_cli(["trajectory", "--lambda", "1", "--t=" + spec], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("pdmosc: ") and err.count("\n") == 1
    assert "too many grid points" in err
    assert "Traceback" not in err


class _NoArrays:
    """Stands in for numpy in cli: any array made before the cap check fails."""

    def __getattr__(self, name):
        raise AssertionError(f"np.{name} reached before the point cap was checked")


@pytest.mark.parametrize(
    "argv",
    [
        ["trajectory", "--lambda", "1", f"--t=0:{cli.MAX_POINTS}:1"],
        ["trajectory", "--lambda", "1", "--t=0:1e12:1"],
        ["eigenfunction", "--n", "1", "--E", "1", "--x=1:1e15:1"],
        ["lambda-map", "--count", str(cli.MAX_POINTS + 1)],
        ["phase-portrait", "--lambda", "1", "--points", str(cli.MAX_POINTS + 1)],
        ["wkb", "--n-max", str(cli.MAX_POINTS + 1)],
        ["spectrum", "--n-max", str(cli.MAX_POINTS + 1)],
        ["box-spectrum", "--n", "1", "--n-zeros", str(cli.MAX_POINTS + 1)],
    ],
)
def test_point_counts_above_the_cap_exit_1(argv, monkeypatch, capsys):
    monkeypatch.setattr(cli, "np", _NoArrays())
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("pdmosc: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_grid_cap_boundary(monkeypatch):
    monkeypatch.setattr(cli, "MAX_POINTS", 5)
    assert len(cli.parse_grid("0:4:1")) == 5
    with pytest.raises(ValueError, match="too many grid points"):
        cli.parse_grid("0:5:1")


# (argv without the count, flag, lowest accepted value, data rows at that value)
COUNT_OPTIONS = [
    (["lambda-map"], "--count", 2, 2),
    (["phase-portrait", "--lambda", "1", "--energies", "1"], "--points", 4, 4),
    (["wkb"], "--n-max", 0, 1),
    (["spectrum"], "--n-max", 1, 1),
    (["box-spectrum", "--n", "1"], "--n-zeros", 1, 1),
]


@pytest.mark.parametrize("argv, flag, low, low_rows", COUNT_OPTIONS)
def test_count_cap_boundary(argv, flag, low, low_rows, monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_POINTS", 5)
    code, out, _ = run_cli(argv + [flag, str(low)], capsys)
    assert (code, len(read_csv(out))) == (0, low_rows)
    assert run_cli(argv + [flag, "5"], capsys)[0] == 0
    for bad in (low - 2, low - 1, 6):
        code, out, err = run_cli(argv + [flag, str(bad)], capsys)
        assert (code, out) == (1, "")
        assert err == f"pdmosc: {flag} must be between {low} and 5, got {bad}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["phase-portrait", "--lambda", "1", "--energies", "nan"],
        ["phase-portrait", "--lambda", "1", "--energies", "0.5,inf"],
        ["phase-portrait", "--lambda", "nan"],
        ["wkb", "--hbar", "nan"],
        ["spectrum", "--hbar", "nan"],
        ["eigenfunction", "--n", "1", "--E", "nan"],
        ["eigenfunction", "--n", "1", "--E", "inf"],
        ["eigenfunction", "--n", "1", "--E", "1", "--hbar", "nan"],
        ["eigenfunction", "--n", "1", "--E", "1", "--amplitude", "nan"],
        ["box-spectrum", "--n", "1", "--eps", "nan"],
        ["box-spectrum", "--n", "1", "--eps", "inf"],
        ["box-spectrum", "--n", "1", "--hbar", "nan"],
        ["trajectory", "--lambda", "1", "--hbar", "0"],
        ["wkb", "--hbar", "0"],
        ["spectrum", "--hbar", "0"],
        ["spectrum", "--hbar", "-1"],
        ["eigenfunction", "--n", "1", "--E", "1", "--hbar", "0"],
        ["eigenfunction", "--n", "1", "--E", "1", "--hbar", "-1"],
        ["box-spectrum", "--n", "1", "--hbar", "0"],
        ["box-spectrum", "--n", "1", "--hbar", "-1"],
        ["verify", "--hbar", "0"],
    ],
)
def test_non_finite_floats_and_non_positive_hbar_exit_1(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("pdmosc: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_non_finite_config_float_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("eps = nan\n")
    code, out, err = run_cli(["box-spectrum", "--n", "1", "--config", str(cfg)], capsys)
    assert (code, out, err) == (1, "", "pdmosc: --eps must be finite, got nan\n")


@pytest.mark.parametrize("argv", [["--seed", "-1"], ["--seed", "-1", "--checks", "parity"],
                                  ["--config", "seed.cfg"]])
def test_negative_seed_exits_1_naming_the_flag(argv, tmp_path, capsys, monkeypatch):
    # refused up front, from a flag or a config file, even when no check draws from the seed
    (tmp_path / "seed.cfg").write_text("seed = -1\n")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["verify", *argv], capsys)
    assert (code, out, err) == (1, "", "pdmosc: --seed must be non-negative, got -1\n")


#: the kernels each array handler computes with, looked up as module attributes
KERNELS = {
    "lambda-map": [(classical, "classify_lambda"), (classical, "singularity_time")],
    "spectrum": [(quantum, "lambda_quantized"), (quantum, "nu_from_params")],
    "wkb": [(semiclassical, "wkb_condition_check")],
}
#: the flag that sets each handler's row count, and the value that gives `rows` rows
ROW_COUNT = {
    "lambda-map": lambda rows: ["--count", str(rows)],
    "spectrum": lambda rows: ["--n-max", str(rows)],
    "wkb": lambda rows: ["--n-max", str(rows - 1)],
}


@pytest.mark.parametrize("rows", [3, 3000])
@pytest.mark.parametrize("sub", sorted(KERNELS))
def test_each_kernel_is_called_once_per_run(sub, rows, monkeypatch, capsys):
    calls = collections.Counter()
    for module, name in KERNELS[sub]:
        kernel = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, _k=kernel, _n=name: calls.update([_n]) or _k(*args)
        )
    code, out, _ = run_cli([sub, *ROW_COUNT[sub](rows)], capsys)
    assert code == 0
    assert len(read_csv(out)) == rows
    assert calls == {name: 1 for _, name in KERNELS[sub]}


def test_build_rows_broadcasts_and_names_the_first_non_finite_cell():
    header = ["n", "name", "c", "t", "v"]
    t = np.array([1.5, None, math.inf], dtype=object)  # None is an empty cell, not NaN
    v = np.array([0.25, 0.5, math.nan])
    rows = cli.build_rows(header, [np.arange(1, 3), ("a", "b"), 2.0, t[:2], v[:2]], True)
    assert rows == [(1, "a", 2.0, 1.5, 0.25), (2, "b", 2.0, None, 0.5)]
    assert [type(x) for x in rows[0]] == [int, str, float, float, float]
    with pytest.raises(FloatingPointError, match="^non-finite t = inf in row 3$"):
        cli.build_rows(header, [np.arange(1, 4), ("a", "b", "c"), 2.0, t, v], True)
    with pytest.raises(FloatingPointError, match="^non-finite c = -inf in row 1$"):
        cli.build_rows(header, [np.arange(1, 4), ("a", "b", "c"), -math.inf, t, v], True)
    # unchecked, as verify's skipped checks need: NaN reaches the writer
    rows = cli.build_rows(header, [np.arange(1, 4), ("a", "b", "c"), 2.0, t, v], False)
    assert rows[2][3] == math.inf and math.isnan(rows[2][4])
