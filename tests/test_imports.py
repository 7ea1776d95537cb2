"""The import graph of the package and the README's library example.

The package root re-exports nothing, so a module loads only what it imports
itself, and the README imports each name from the module that defines it.
Each CLI handler imports the pdmosc modules it computes with, so a closed
form loads no quantum layer.  scipy is imported where it is first computed
with, so a subcommand that needs no Bessel function or integrator loads no
scipy, and one that runs no Bessel quadrature loads no
``scipy.special.cython_special``.
"""

import contextlib
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_fresh(code: str, *args: str) -> str:
    """stdout of ``python -c <code> <args>`` in a fresh interpreter importing from src/."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


def modules_after_import(module: str) -> set[str]:
    """Names in ``sys.modules`` after ``import <module>`` in a fresh interpreter."""
    return set(run_fresh(f"import sys, {module}; print('\\n'.join(sys.modules))").split())


def test_bessel_loads_no_other_pdmosc_module_and_no_integrator():
    loaded = modules_after_import("pdmosc.bessel")
    assert {m for m in loaded if m.startswith("pdmosc")} == {"pdmosc", "pdmosc.bessel"}
    assert "scipy.integrate" not in loaded


def test_semiclassical_loads_only_bessel_of_pdmosc_and_no_scipy():
    # its one pdmosc import is bessel._as_result; bessel imports scipy on first use
    loaded = modules_after_import("pdmosc.semiclassical")
    pdmosc = {m for m in loaded if m.startswith("pdmosc")}
    assert pdmosc == {"pdmosc", "pdmosc.bessel", "pdmosc.semiclassical"}
    assert "scipy" not in loaded


def modules_after_cli(*command_lines: str) -> tuple[list[int], set[str]]:
    """(exit codes, names in ``sys.modules``) after ``cli.main`` ran each
    command line in turn in one fresh interpreter, its output discarded."""
    code = (
        "import contextlib, io, sys\n"
        "from pdmosc import cli\n"
        "codes = []\n"
        "for line in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "        codes.append(cli.main(line.split()))\n"
        "print(*codes)\n"
        "print('\\n'.join(sys.modules))\n"
    )
    codes, _, modules = run_fresh(code, *command_lines).partition("\n")
    return [int(c) for c in codes.split()], set(modules.split())


def pdmosc_modules(loaded: set[str]) -> set[str]:
    return {m for m in loaded if m.split(".")[0] == "pdmosc"}


def test_importing_the_cli_loads_no_library_module():
    assert pdmosc_modules(modules_after_import("pdmosc.cli")) == {"pdmosc", "pdmosc.cli"}


CLOSED_FORM = {"pdmosc.bessel", "pdmosc.classical"}
QUANTUM = {"pdmosc.bessel", "pdmosc.quantum", "pdmosc.semiclassical"}

#: a command line of each subcommand -> the library modules it loads: its handler's
#: imports and theirs (classical and semiclassical import bessel; quantum imports bessel
#: and semiclassical); only verify loads all five
LOADS = {
    "trajectory --lambda 1 --t 0:1:0.5": CLOSED_FORM,
    "lambda-map": CLOSED_FORM,
    "phase-portrait --lambda 1": CLOSED_FORM,
    "wkb": {"pdmosc.bessel", "pdmosc.semiclassical"},
    "spectrum": QUANTUM,
    "eigenfunction --n 1 --E 1": QUANTUM,
    "box-spectrum --n 1": QUANTUM,
    "verify --checks parity": CLOSED_FORM | QUANTUM | {"pdmosc.verification"},
}


@pytest.mark.parametrize("command_line", LOADS)
def test_each_subcommand_loads_only_the_library_modules_it_computes_with(command_line):
    codes, loaded = modules_after_cli(command_line)
    assert codes == [0]
    assert pdmosc_modules(loaded) == {"pdmosc", "pdmosc.cli", *LOADS[command_line]}


def test_refused_command_lines_load_no_quantum_layer():
    codes, loaded = modules_after_cli("trajectory --lambda 1 --t 0:1")  # malformed grid
    assert codes == [1]
    assert not loaded & {"pdmosc.quantum", "pdmosc.semiclassical", "pdmosc.verification"}
    codes, loaded = modules_after_cli("trajectory --frobnicate", "verify --seed=-1")
    assert codes == [1, 1]
    assert pdmosc_modules(loaded) == {"pdmosc", "pdmosc.cli"}


def test_closed_form_subcommands_and_refused_inputs_load_no_scipy():
    codes, loaded = modules_after_cli(
        "trajectory --lambda 1 --t 0:1:0.5",
        "lambda-map",
        "phase-portrait --lambda 1",
        "spectrum",
        "trajectory --lambda 1 --t 0:1",  # malformed grid: refused before computing
    )
    assert codes == [0, 0, 0, 0, 1]
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}


def test_bessel_subcommands_load_no_integrator():
    codes, loaded = modules_after_cli("eigenfunction --n 1 --E 1", "box-spectrum --n 1")
    assert codes == [0, 0]
    assert "scipy.special" in loaded
    assert "scipy.integrate" not in loaded


def test_only_quadrature_loads_the_scalar_bessel_path():
    # cython_special (about 1 MB of RSS) serves bessel._sp.jv_scalar, which only verify's
    # quadrature integrands call; the array subcommands, and verify's scalar J values (the
    # Hermitian check's bound at z = 16, the kernel check's zero residuals), never load it
    codes, loaded = modules_after_cli("eigenfunction --n 1 --E 1", "box-spectrum --n 1", "wkb",
                                      "verify --checks hermitian_singularity,bessel_kernel")
    assert codes == [0, 0, 0, 0]
    assert "scipy.special" in loaded
    assert "scipy.special.cython_special" not in loaded
    codes, loaded = modules_after_cli("verify --checks box_orthonormality")
    assert codes == [0]
    assert "scipy.special.cython_special" in loaded


def test_classical_loads_no_quantum_layer():
    loaded = modules_after_import("pdmosc.classical")
    assert "pdmosc.classical" in loaded
    assert not loaded & {"pdmosc.quantum", "pdmosc.semiclassical", "pdmosc.verification"}


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    (example,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, "README.md", "exec"), {})
    clean, residual, finite_part = out.getvalue().split()
    assert clean == "True"
    residual, finite_part = float(residual), float(finite_part)
    assert residual < 1e-8
    assert finite_part == pytest.approx(-math.pi, abs=1e-6)


def test_closed_forms_and_the_default_eigenfunction_start_no_thread():
    # no subcommand starts a thread: every J array is one ufunc call in the calling
    # thread, on a long eigenfunction grid (29,991 rows) and in verify too
    code = (
        "import contextlib, io, sys, threading\n"
        "from pdmosc import cli\n"
        "for line in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert cli.main(line.split()) == 0, line\n"
        "    print(threading.active_count())\n"
    )
    lines = ["trajectory --lambda 1", "lambda-map", "phase-portrait --lambda 1", "spectrum",
             "eigenfunction --n 1 --E 1", "eigenfunction --n 3 --E 2 --x 0.001:3:0.0001", "verify"]
    assert run_fresh(code, *lines).splitlines() == ["1"] * len(lines)
