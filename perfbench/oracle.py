"""Independent correctness oracle for every benchmark operation.

Nothing here imports pdmosc: each check recomputes the expected values from
the closed forms with numpy, or from :func:`scipy.special.jn_zeros` and
:func:`scipy.special.jv`, and compares.  Every check returns ``None`` when
the operation is correct and a one-line cause otherwise.

A cause is a :class:`Reported` failure when pdmosc itself signalled it (an
error exit, an exception, a check row with status ``fail``), and a wrong
output otherwise: pdmosc claimed success but the oracle disagrees.  Both
count as failed operations; only wrong outputs make a run incorrect.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy import special

HEADERS = {
    "trajectory": ["t", "x", "p", "E"],
    "lambda-map": ["lambda", "status", "singular_time"],
    "phase-portrait": ["E", "x", "p_plus", "p_minus"],
    "wkb": ["n", "lambda_n", "lhs", "rhs", "residual"],
    "spectrum": ["n", "alpha1", "gamma1", "s", "lambda_n", "nu_roundtrip"],
    "eigenfunction": ["x", "psi"],
    "box-spectrum": ["n", "N", "eps", "E", "C"],
    "verify": ["check_id", "status", "measured", "tolerance", "provenance", "notes"],
}
NUMERIC = ("trajectory", "phase-portrait", "eigenfunction")
VERIFY_CHECKS = 12


class Mismatch(Exception):
    """An output disagrees with the oracle."""


class Reported(Mismatch):
    """A failure that pdmosc itself signalled."""


def is_wrong(cause) -> bool:
    """True when ``cause`` is a wrong output rather than a failure pdmosc reported."""
    return cause is not None and not isinstance(cause, Reported)


def _close(name, got, want, rtol, atol=0.0):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise Mismatch(f"{name}: {got.size} values, expected {want.size}")
    bad = ~(np.abs(got - want) <= atol + rtol * np.abs(want))
    if bad.any():
        i = int(np.argmax(bad))
        raise Mismatch(f"{name}[{i}] = {got.flat[i]!r}, expected {want.flat[i]!r}")


def _grid(spec: str) -> np.ndarray:
    start, stop, step = (float(p) for p in spec.split(":"))
    return start + step * np.arange(int(round((stop - start) / step)) + 1)


def _arg(argv, flag, cast=float, default=None):
    return cast(argv[argv.index(flag) + 1]) if flag in argv else default


def numeric_table(data: bytes, fmt: str, header: list[str]) -> np.ndarray:
    """(rows, columns) float array of a numeric CSV or JSON-lines output."""
    if fmt == "csv":
        head, _, body = data.partition(b"\n")
        if head.decode() != ",".join(header):
            raise Mismatch(f"header {head[:80]!r}")
        if not body.endswith(b"\n"):
            raise Mismatch("output does not end with a newline")
        values = np.array(body[:-1].replace(b"\n", b",").split(b","), dtype=float)
        return values.reshape(-1, len(header))
    records = json.loads(b"[" + data.rstrip(b"\n").replace(b"\n", b",") + b"]")
    if records and list(records[0]) != header:
        raise Mismatch(f"keys {list(records[0])}")
    return np.array([[r[k] for k in header] for r in records], dtype=float).reshape(-1, len(header))


def table(data: bytes, fmt: str, header: list[str]) -> list[dict]:
    """Rows of a small output as dicts; CSV cells stay strings."""
    text = data.decode()
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != header:
            raise Mismatch(f"header {rows[:1]}")
        return [dict(zip(header, r)) for r in rows[1:]]
    records = [json.loads(line) for line in text.splitlines()]
    if any(list(r) != header for r in records):
        raise Mismatch("JSON record keys differ from the header")
    return records


def _num(v) -> float:
    return math.nan if v in ("", None) else float(v)


# ---------------------------------------------------------------------------
# per-subcommand value checks


def _trajectory(argv, out, fmt):
    a = numeric_table(out, fmt, HEADERS["trajectory"])
    lam, c1, c2 = _arg(argv, "--lambda"), _arg(argv, "--c1", default=1.0), _arg(argv, "--c2", default=0.0)
    t = _grid(_arg(argv, "--t", str))
    _close("t", a[:, 0], t, 1e-15, 1e-12)
    w = c2 + math.sqrt(c1) * t
    q = lam / c1 + w * w
    _close("x", a[:, 1], 1.0 / np.sqrt(q), 1e-12)
    p = -2.0 * math.sqrt(c1) * w * np.sqrt(q)
    _close("p", a[:, 2], p, 1e-12, 1e-12 * float(np.max(np.abs(p))))
    _close("E", a[:, 3], np.full(t.size, c1), 1e-9)
    return len(t)


def _phase_portrait(argv, out, fmt):
    a = numeric_table(out, fmt, HEADERS["phase-portrait"])
    lam = _arg(argv, "--lambda")
    energies = [float(e) for e in _arg(argv, "--energies", str).split(",")]
    half_n = _arg(argv, "--points", int) // 2
    Es, xs = [], []
    for E in energies:
        amp = math.sqrt(E / lam)
        half = np.linspace(0.05 * amp, amp, half_n)
        xs.append(np.concatenate([-half[::-1], half]))
        Es.append(np.full(2 * half_n, E))
    x = np.concatenate(xs)
    _close("E", a[:, 0], np.concatenate(Es), 0.0)
    _close("x", a[:, 1], x, 1e-14)
    E = a[:, 0]
    p = np.sqrt(np.maximum(4.0 * E / x**4 - 4.0 * lam / x**2, 0.0))
    _close("p_plus", a[:, 2], p, 1e-12, 1e-10 * np.sqrt(4.0 * E) / x**2)
    _close("p_minus", a[:, 3], -a[:, 2], 0.0)
    return len(x)


def _eigenfunction(argv, out, fmt):
    a = numeric_table(out, fmt, HEADERS["eigenfunction"])
    n, E, hbar = _arg(argv, "--n", int), _arg(argv, "--E"), _arg(argv, "--hbar", default=1.0)
    half = _grid(_arg(argv, "--x", str))
    x = np.concatenate([-half[::-1], half])
    _close("x", a[:, 0], x, 0.0)
    sign = np.where(x > 0.0, 1.0, (-1.0) ** n)
    psi = sign * special.jv(n, 2.0 * math.sqrt(E) / (hbar * np.abs(x)))
    _close("psi", a[:, 1], psi, 1e-10, 1e-14)
    return len(x)


def _lambda_map(argv, out, fmt):
    rows = table(out, fmt, HEADERS["lambda-map"])
    c1, c2 = _arg(argv, "--c1", default=1.0), _arg(argv, "--c2", default=-5.0)
    t0, t1 = (float(v) for v in _arg(argv, "--window", str, "0:10").split(":"))
    lams = np.linspace(_arg(argv, "--lambda-min"), _arg(argv, "--lambda-max"), _arg(argv, "--count", int))
    if len(rows) != len(lams):
        raise Mismatch(f"{len(rows)} rows, expected {len(lams)}")
    for row, lam in zip(rows, lams):
        vertex = -c2 / math.sqrt(c1)
        if lam > 0.0:
            status = "bounded"
        elif lam == 0.0:
            status = "singular" if t0 <= vertex <= t1 else "bounded"
        else:
            half = math.sqrt(-lam / c1) / math.sqrt(c1)
            status = "singular" if t0 <= vertex + half and t1 >= vertex - half else "bounded"
        if row["status"] != status:
            raise Mismatch(f"lambda={lam!r}: status {row['status']}, expected {status}")
        _close("lambda", _num(row["lambda"]), lam, 1e-15, 1e-15)
        t_star = (math.sqrt(-lam / c1) - c2) / math.sqrt(c1) if lam < 0.0 else math.nan
        got = _num(row["singular_time"])
        if math.isnan(t_star) != math.isnan(got):
            raise Mismatch(f"lambda={lam!r}: singular_time {got!r}, expected {t_star!r}")
        if not math.isnan(t_star):
            _close("singular_time", got, t_star, 1e-12)
    return len(rows)


def _wkb(argv, out, fmt):
    rows = table(out, fmt, HEADERS["wkb"])
    n_max, hbar = _arg(argv, "--n-max", int, 10), _arg(argv, "--hbar", default=1.0)
    if [int(r["n"]) for r in rows] != list(range(n_max + 1)):
        raise Mismatch("n column")
    for r in rows:
        n = int(r["n"])
        rhs = (n + 0.5) * hbar * math.pi
        _close(f"lambda_{n}", _num(r["lambda_n"]), (n + 0.5) ** 2 * hbar**2 / 4.0, 1e-14)
        _close(f"rhs_{n}", _num(r["rhs"]), rhs, 1e-14)
        _close(f"lhs_{n}", _num(r["lhs"]), rhs, 0.0, 1e-6)  # finite part -pi within 1e-6
        _close(f"residual_{n}", _num(r["residual"]), _num(r["lhs"]) - rhs, 0.0, 1e-12 * rhs)
    return len(rows)


def _spectrum(argv, out, fmt):
    rows = table(out, fmt, HEADERS["spectrum"])
    a, g = _arg(argv, "--alpha1", default=0.0), _arg(argv, "--gamma1", default=0.75)
    n_max, hbar = _arg(argv, "--n-max", int, 10), _arg(argv, "--hbar", default=1.0)
    s = 2.0 * a + 2.0 * g + 1.5
    if [int(r["n"]) for r in rows] != list(range(1, n_max + 1)):
        raise Mismatch("n column")
    for r in rows:
        n = int(r["n"])
        _close("alpha1", _num(r["alpha1"]), a, 0.0)
        _close("gamma1", _num(r["gamma1"]), g, 0.0)
        _close("s", _num(r["s"]), s, 1e-14, 1e-14)
        _close(f"lambda_{n}", _num(r["lambda_n"]), (n * n - s * s) * hbar**2 / 4.0, 1e-12, 1e-12)
        _close(f"nu_{n}", _num(r["nu_roundtrip"]), n, 1e-12)
    return len(rows)


def _box_spectrum(argv, out, fmt):
    rows = table(out, fmt, HEADERS["box-spectrum"])
    n, k = _arg(argv, "--n", int), _arg(argv, "--n-zeros", int, 5)
    eps, hbar = _arg(argv, "--eps", default=0.1), _arg(argv, "--hbar", default=1.0)
    j = special.jn_zeros(n, k)
    if [(int(r["n"]), int(r["N"])) for r in rows] != [(n, N) for N in range(1, k + 1)]:
        raise Mismatch("(n, N) columns")
    _close("eps", [_num(r["eps"]) for r in rows], np.full(k, eps), 0.0)
    _close("E", [_num(r["E"]) for r in rows], 0.25 * hbar**2 * j * j * eps * eps, 1e-10)
    _close("C", [_num(r["C"]) for r in rows], eps / special.jv(n + 1, j), 1e-8)
    return len(rows)


def _verify(argv, out, fmt):
    rows = table(out, fmt, HEADERS["verify"])
    if len(rows) != VERIFY_CHECKS:
        raise Mismatch(f"{len(rows)} verify rows, expected {VERIFY_CHECKS}")
    bad = [(r["check_id"], r["status"]) for r in rows if r["status"] not in ("pass", "skipped")]
    if bad:
        raise (Reported if all(s == "fail" for _, s in bad) else Mismatch)(
            f"checks not passed or skipped: {bad}")
    return len(rows)


CHECKS = {
    "trajectory": _trajectory, "lambda-map": _lambda_map, "phase-portrait": _phase_portrait,
    "wkb": _wkb, "spectrum": _spectrum, "eigenfunction": _eigenfunction,
    "box-spectrum": _box_spectrum, "verify": _verify,
}


def check_cli(argv: list[str], expect_code: int, code: int, out: bytes, err: bytes):
    """Check one CLI operation; returns (rows, cause) with cause None when correct."""
    sub, fmt = argv[0], _arg(argv, "--format", str, "csv")
    lines = err.decode(errors="replace").splitlines()
    if "Traceback" in err.decode(errors="replace"):
        return 0, Reported(f"traceback on stderr: {lines[-1] if lines else ''}")
    if code != expect_code:
        return 0, (Reported if code else Mismatch)(
            f"exit code {code}, expected {expect_code}; stderr {lines[:1]}")
    if expect_code:
        if len(lines) != 1 or not lines[0].startswith("pdmosc: ") or out:
            return 0, Mismatch(f"expected one 'pdmosc:' stderr line and no output, got {lines[:3]}")
        return 0, None
    allowed = 1 if sub == "verify" else 0
    if len(lines) > allowed or (lines and not lines[0].startswith("verify: ")):
        return 0, Mismatch(f"unexpected stderr {lines[:2]}")
    try:
        return CHECKS[sub](argv, out, fmt), None
    except Mismatch as exc:
        return 0, exc
    except (ValueError, KeyError) as exc:
        return 0, Mismatch(f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# kernel_sweep study


def _lommel(n, ka, kb, R):
    """Closed form of int_0^R r J_n(ka r) J_n(kb r) dr (Lommel integrals)."""
    if ka == kb:
        u = ka * R
        jp = 0.5 * (special.jv(n - 1, u) - special.jv(n + 1, u))
        return 0.5 * R * R * (jp * jp + (1.0 - n * n / (u * u)) * special.jv(n, u) ** 2)
    a, b = ka * R, kb * R
    return R * (kb * special.jv(n, a) * special.jv(n - 1, b)
                - ka * special.jv(n - 1, a) * special.jv(n, b)) / (ka * ka - kb * kb)


def check_study(s: dict, out: dict):
    """Check one kernel_sweep study against closed forms; returns a cause or None."""
    try:
        hbar, eps, n = s["hbar"], s["eps"], s["n"]
        j = special.jn_zeros(n, s["n_max"])
        _close("box_E", out["box_E"], 0.25 * hbar**2 * j * j * eps * eps, 1e-10)
        _close("box_C", out["box_C"], eps / special.jv(n + 1, j), 1e-8)
        _close("orth", out["orth"], [float(N == M) for N, M in s["pairs"]], 0.0, 1e-8)
        _close("finite_part", out["finite_part"], -math.pi, 0.0, 1e-6)
        _close("wkb_residual", out["wkb_residual"], np.zeros(11), 0.0, 1e-6)

        e = s["eom"]
        t, x = np.array(out["eom_t"]), np.array(out["eom_x"])
        if e["lam"] > 0.0:
            if out["eom_blew_up"]:
                raise Mismatch("integrate_eom blew up for lambda > 0")
            w = e["c2"] + math.sqrt(e["c1"]) * t
            _close("eom_x", x, 1.0 / np.sqrt(e["lam"] / e["c1"] + w * w), 0.0, 1e-8)
        else:
            if not out["eom_blew_up"]:
                raise Mismatch("integrate_eom did not blow up for lambda < 0")
            _close("blow-up time", out["eom_singular_time"], e["t_minus"], 0.0, 1e-6)
            regular = t < e["t_minus"] - 0.05
            w = e["c2"] + math.sqrt(e["c1"]) * t[regular]
            _close("eom_x", x[regular], 1.0 / np.sqrt(e["lam"] / e["c1"] + w * w), 1e-7)

        o = s["overlap"]
        ka, kb = 2.0 * math.sqrt(o["E"]) / hbar, 2.0 * math.sqrt(o["E_prime"]) / hbar
        _close("overlap", out["overlap"], 2.0**0.75 * _lommel(o["n"], ka, kb, o["R"]), 1e-7, 1e-9)

        st = s["state"]
        xs = 0.02 + 0.025 * np.arange(200)
        x = np.concatenate([-xs[::-1], xs])
        sign = np.where(x > 0.0, 1.0, (-1.0) ** st["n"])
        psi = sign * special.jv(st["n"], 2.0 * math.sqrt(st["E"]) / (hbar * np.abs(x)))
        _close("psi", out["psi"], psi, 1e-10, 1e-14)
        sq = 2.0 * st["alpha1"] + 2.0 * st["gamma1"] + 1.5
        _close("ode_lambda", out["ode_lam"], (st["n"] ** 2 - sq * sq) * hbar**2 / 4.0, 1e-12, 1e-12)
        _close("ode_residual", out["ode_residual"], 0.0, 0.0, 1e-8)

        if len(out["suite"]) != VERIFY_CHECKS:
            raise Mismatch(f"{len(out['suite'])} suite reports")
        bad = [(cid, st) for cid, st, _ in out["suite"] if st not in ("pass", "skipped")]
        if bad:
            raise (Reported if all(s == "fail" for _, s in bad) else Mismatch)(
                f"suite checks not passed or skipped: {bad}")
    except Mismatch as exc:
        return exc
    return None
