"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the speed of plain Python code drifts by 15-20 % over
minutes, with the other tenants' load, so throughputs of runs made minutes
apart spread by that much whatever the program does.  The worker times this
kernel before and after every repetition; a repetition's throughput divided
by the host speed the kernel saw around it no longer carries that drift.

The kernel is the benchmark's own code and never calls into ``mrtest``, so
a change to the program moves the normalized throughput exactly as much as
the raw one.  Its three parts, about 0.1 s each, follow the work of the
workloads: interpreter arithmetic; scalar indexing and column updates of a
rotation sweep on an 8x8 matrix, the pattern of the Jacobi eigensolver and
the table code; and pivots on a 9x17 tableau, the pattern of the phase-1
simplex.
"""

from __future__ import annotations

import time

import numpy as np

PY_STEPS = 800_000
ROTATION_SWEEPS = 330
TABLEAU_SOLVES = 1100

# Median kernel time on the host the benchmark was defined on (2-core Intel
# Xeon, Python 3.11.7, numpy 2.4.6).  It only scales the normalized figures
# to read like that host's items per second; any constant would do.
REFERENCE_S = 0.27

_MATRIX = np.random.default_rng(0).standard_normal((8, 8))
_TABLEAU = np.random.default_rng(1).uniform(0.5, 1.5, (9, 17))


def kernel_seconds() -> float:
    """Run the kernel once and return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PY_STEPS):
        acc += (i * i) % 7

    a = _MATRIX.copy()
    n = a.shape[0]
    for _ in range(ROTATION_SWEEPS):
        for p in range(n - 1):
            for q in range(p + 1, n):
                x = a[p, q]
                c = 1.0 / np.sqrt(1.0 + x * x)
                s = x * c
                col_p = a[:, p].copy()
                a[:, p] = c * col_p - s * a[:, q]
                a[:, q] = s * col_p + c * a[:, q]

    rows = np.arange(_TABLEAU.shape[0] - 1)
    for _ in range(TABLEAU_SOLVES):
        t = _TABLEAU.copy()
        for _ in range(3):
            col = int(np.argmax(t[-1, :-1]))
            pos = t[:-1, col] > 1e-12
            ratios = np.where(pos, t[:-1, -1] / np.where(pos, t[:-1, col], 1.0), np.inf)
            row = int(np.argmin(ratios))
            t[row] /= t[row, col]
            others = np.append(rows != row, True)
            t[others] -= np.outer(t[others, col], t[row])
    return time.perf_counter() - t0
