"""The chunked writer prints the bytes that row tuples through csv.writer and
one json.dumps per row printed.

``reference_build_rows`` and ``reference_write_rows`` keep that row-at-a-time
path as the oracle: each case runs ``cli.main`` once with the library's
``build_rows`` and ``write_rows`` and once with these, and compares stdout,
stderr, the exit code and any ``--output`` file byte for byte.
"""

import contextlib
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmosc import cli


def reference_write_rows(header, rows, fmt, output):
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])
        text = buf.getvalue()
    else:
        lines = [json.dumps(dict(zip(header, row)), allow_nan=True) for row in rows]
        text = "\n".join(lines) + ("\n" if lines else "")
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def reference_build_rows(header, columns, refuse_non_finite):
    columns = np.broadcast_arrays(*map(np.asarray, columns))
    if refuse_non_finite:
        cells = [np.where(c == None, 0.0, c).astype(float) if c.dtype == object else c  # noqa: E711
                 for c in columns]
        bad = np.array([~np.isfinite(c) if c.dtype.kind == "f" else np.zeros(c.shape, bool)
                        for c in cells]).T
        if bad.any():
            i, j = divmod(int(np.argmax(bad)), len(columns))
            raise FloatingPointError(f"non-finite {header[j]} = {float(columns[j][i])} in row {i + 1}")
    return list(zip(*(c.tolist() for c in columns)))


def run(argv, tmp_path, name):
    """(exit code, stdout, stderr, bytes of --output or None) of one in-process run, with
    --output, if argv has it, redirected to tmp_path/name."""
    argv = [str(tmp_path / name) if a == "OUT" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    path = tmp_path / name
    return code, out.getvalue(), err.getvalue(), path.read_bytes() if path.exists() else None


def assert_same_bytes(argv, tmp_path, monkeypatch):
    new = run(argv, tmp_path, "new")
    with monkeypatch.context() as m:
        m.setattr(cli, "build_rows", reference_build_rows)
        m.setattr(cli, "write_rows", reference_write_rows)
        old = run(argv, tmp_path, "old")
    assert new == old
    return new


DEFAULT_RUNS = {
    "trajectory": ["--lambda", "1"],
    "lambda-map": [],
    "phase-portrait": ["--lambda", "1"],
    "wkb": [],
    "spectrum": [],
    "eigenfunction": ["--n", "1", "--E", "1"],
    "box-spectrum": ["--n", "1"],
    "verify": [],
}


@pytest.mark.parametrize("to", ["stdout", "file"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("sub", DEFAULT_RUNS)
def test_every_default_run_prints_the_row_writers_bytes(sub, fmt, to, tmp_path, monkeypatch):
    output = ["--output", "OUT"] if to == "file" else []
    code, out, _, written = assert_same_bytes([sub, *DEFAULT_RUNS[sub], "--format", fmt, *output],
                                              tmp_path, monkeypatch)
    assert code == 0
    assert (written if to == "file" else out.encode())  # rows were printed


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        # two checks skip at gamma1 - alpha1 != 3/4: NaN measured and tolerance
        ["verify", "--alpha1", "0.3", "--gamma1", "0.1"],
        # notes with commas, which CSV quotes
        ["verify", "--checks", "finite_part,wkb_identity,similarity"],
        # a negative zero in a repeated column, and lambda-map's empty singular_time cells
        ["spectrum", "--alpha1=-0", "--n-max", "3"],
        ["lambda-map", "--lambda-min", "-1", "--lambda-max", "1", "--count", "5", "--c2", "0"],
        # a refused non-finite row: exit 2 and one line, nothing printed
        ["trajectory", "--lambda", "1", "--c1", "1e300", "--c2", "2"],
    ],
)
def test_skipped_checks_quoted_notes_and_refusals_keep_their_bytes(argv, fmt, tmp_path,
                                                                   monkeypatch):
    assert_same_bytes([*argv, "--format", fmt], tmp_path, monkeypatch)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", [0, 1, 6, 7, 8, 50])
def test_chunk_boundaries_keep_the_bytes(rows, fmt, tmp_path, monkeypatch):
    # 7 rows per chunk: no row, part of one chunk, one chunk less a row, exactly one,
    # one and a row, and several with a short last one
    monkeypatch.setattr(cli, "CHUNK_ROWS", 7)
    header = ["n", "x", "note", "v"]
    columns = [np.arange(rows), np.linspace(-1.0, 1.0, rows), "a, \"b\"", None]
    new, old = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(new):
        cli.write_rows(header, cli.build_rows(header, columns, True), fmt, None)
    with contextlib.redirect_stdout(old):
        reference_write_rows(header, reference_build_rows(header, columns, True), fmt, None)
    assert new.getvalue() == old.getvalue()


CELL = st.one_of(
    st.floats(), st.integers(-10**6, 10**6), st.none(), st.booleans(),
    st.text(alphabet=st.sampled_from(list('ab ,"%\n\r\\é{}:')), max_size=6),
)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    fmt=st.sampled_from(["csv", "json"]),
    rows=st.integers(0, 9),
    # every table has two columns or more: csv.writer prints a lone empty cell as ""
    kinds=st.lists(st.sampled_from(["float", "int", "cells"]), min_size=2, max_size=4),
    data=st.data(),
)
def test_any_unchecked_table_keeps_the_bytes(fmt, rows, kinds, data):
    # unchecked, as verify's are: NaN and inf reach the writer, in float and mixed columns
    columns = []
    for kind in kinds:
        if kind == "float":
            columns.append(np.array(data.draw(st.lists(st.floats(), min_size=rows, max_size=rows)),
                                    dtype=float))
        elif kind == "int":
            columns.append(np.array(data.draw(st.lists(st.integers(-2**62, 2**62), min_size=rows,
                                                       max_size=rows)), dtype=np.int64))
        else:
            cells = data.draw(st.lists(CELL, min_size=rows, max_size=rows))
            column = np.empty(rows, dtype=object)
            column[:] = cells
            columns.append(column)
    header = [f"c{j}%s" for j in range(len(columns))]
    new, old = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(new):
        cli.write_rows(header, cli.build_rows(header, columns, False), fmt, None)
    with contextlib.redirect_stdout(old):
        reference_write_rows(header, reference_build_rows(header, columns, False), fmt, None)
    assert new.getvalue() == old.getvalue()


def test_a_negative_zero_prints_signed():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.write_rows(["x"], cli.build_rows(["x"], [np.array([-0.0, 0.0])], True), "csv", None)
        cli.write_rows(["x"], cli.build_rows(["x"], [np.array([-0.0])], True), "json", None)
    assert out.getvalue() == 'x\n-0\n0\n{"x": -0.0}\n'
    assert math.copysign(1.0, json.loads(out.getvalue().splitlines()[-1])["x"]) == -1.0
