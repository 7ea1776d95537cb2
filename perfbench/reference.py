"""Fixed reference task that tracks the machine's current speed.

The benchmark shares its machine with other tenants, whose load changes the
speed of the same code by up to ~1.7x over minutes.  Each run therefore
times this task, which uses no pdmosc code, between its operations, and
scales each operation's time by the nominal reference time over the mean of
the two reference times around it.  The task imitates the work mix of the
operations: ``python reference.py`` (for the CLI workloads) imports numpy,
scipy.special and scipy.integrate; :func:`compute` (also run in-process for
kernel_sweep) finds Bessel zeros, calls J_n on scalars in a Python loop,
integrates a Python integrand, solves an ODE, applies ufuncs and formats
17-digit text.
"""

import json
import time


def compute() -> float:
    """Run the compute part once; returns its seconds."""
    import numpy as np
    from scipy import integrate, special

    t0 = time.perf_counter()
    zeros = special.jn_zeros(3, 40)
    total = float(zeros.sum())
    for k in range(2000):
        total += special.jv(2, 0.01 * k)
    for k in range(1, 25):
        total += integrate.quad(lambda r, a=0.1 * k: r * special.jv(2, a * r) ** 2, 0.0, 10.0)[0]
    sol = integrate.solve_ivp(lambda t, y: (y[1], -y[0] * (1.0 + 0.1 * y[0] ** 2)),
                              (0.0, 30.0), (1.0, 0.0), method="DOP853", rtol=1e-10, atol=1e-10)
    x = np.linspace(0.01, 5.0, 4000)
    v = special.jv(3, 1.0 / x)
    rows = [(float(a), float(b), float(sol.y[0, -1]), total) for a, b in zip(x, v)]
    text = "\n".join(",".join(format(c, ".17g") for c in row) for row in rows)
    text += json.dumps([dict(zip("abcd", row)) for row in rows])
    return time.perf_counter() - t0


if __name__ == "__main__":
    compute()
