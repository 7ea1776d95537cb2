"""The import graph of the package and the README's library example.

The package root re-exports nothing, so a module loads only what it imports
itself, and the README imports each name from the module that defines it.
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


def modules_after_import(module: str) -> set[str]:
    """Names in ``sys.modules`` after ``import <module>`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = f"import sys, {module}; print('\\n'.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def test_bessel_loads_no_other_pdmosc_module_and_no_integrator():
    loaded = modules_after_import("pdmosc.bessel")
    assert {m for m in loaded if m.startswith("pdmosc")} == {"pdmosc", "pdmosc.bessel"}
    assert "scipy.integrate" not in loaded


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
    residual, finite_part = (float(v) for v in out.getvalue().split())
    assert residual < 1e-8
    assert finite_part == pytest.approx(-math.pi, abs=1e-6)
