"""Seeded workload inputs, made by the benchmark and never by ``mrtest``.

The parent commit and a change must receive byte-identical inputs, so the
near-boundary moment sets come from the benchmark's own closed-form margins
and not from calls into the program under test.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SWEEP_OUTPUTS = ["averages", "correlators", "margins", "witness", "d_interval", "verdicts"]
SWEEP_STEPS = 2000

MOMENT_SETS_PER_TIMES = 5000  # 3-time sets, then as many 4-time sets
NEAR_BOUNDARY_SHARE = 0.1
NEAR_BOUNDARY_BAND = 1e-8  # 10 x the default verdict epsilon

PAIRS = {3: ((0, 1), (1, 2), (0, 2)), 4: ((0, 1), (1, 2), (2, 3), (0, 3))}


def sweep_spec(shipped: Path) -> dict:
    """The shipped tau-sweep spec with more steps and every output group."""
    spec = json.loads(shipped.read_text())
    spec["steps"] = SWEEP_STEPS
    spec["outputs"] = list(SWEEP_OUTPUTS)
    return spec


def margin_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every weak-macrorealism margin as b + G x, x = (averages, correlators).

    Rows: the four two-time inequalities of each measured pair, then the
    four three-time inequalities (n = 3) or the eight four-time bounds
    (n = 4).  Scaling x by a factor moves every margin affinely.
    """
    pairs = PAIRS[n]
    width = n + len(pairs)
    b, g = [], []
    for k, (i, j) in enumerate(pairs):
        for s1 in (-1, 1):
            for s2 in (-1, 1):
                row = np.zeros(width)
                row[i], row[j], row[n + k] = s1, s2, s1 * s2
                b.append(1.0)
                g.append(row)
    if n == 3:
        for signs in ((1, 1, 1), (-1, -1, 1), (1, -1, -1), (-1, 1, -1)):
            b.append(1.0)
            g.append(np.concatenate([np.zeros(n), signs]))
    else:
        for k in range(4):
            signed = np.concatenate([np.zeros(n), [-1.0 if idx == k else 1.0 for idx in range(4)]])
            b += [2.0, 2.0]
            g += [signed, -signed]
    return np.array(b), np.array(g)


def _near_boundary(
    rng: np.random.Generator, n: int, b: np.ndarray, g: np.ndarray, delta: float
) -> np.ndarray:
    """A uniform draw scaled so its smallest margin is ``delta``.

    min_k(b_k + lam * (G x)_k) = delta is solved by the smallest positive
    lam at which any falling margin reaches delta.  Draws that no scaling
    can bring to delta inside [-1, 1] are drawn again.
    """
    while True:
        x = rng.uniform(-1.0, 1.0, size=n + len(PAIRS[n]))
        slope = g @ x
        falling = slope < 0
        if not falling.any():
            continue
        lam = float(np.min((b[falling] - delta) / -slope[falling]))
        if lam * np.abs(x).max() <= 1.0:
            return lam * x


def moment_sets(seed: int, per_times: int = MOMENT_SETS_PER_TIMES) -> list[dict]:
    """Moment-set JSON objects: ``per_times`` sets at 3 and at 4 times.

    Of each half, NEAR_BOUNDARY_SHARE have their smallest weak margin within
    +-NEAR_BOUNDARY_BAND of zero; the rest are uniform in [-1, 1].  The
    near-boundary margins are the midpoints of equal slices of the band, the
    same for every seed, so every seed puts as many sets into any part of
    the band; the moments that carry them are drawn from the seed.  The
    order is shuffled so near-boundary sets spread over the run.
    """
    rng = np.random.default_rng(seed)
    sets = []
    for n in (3, 4):
        b, g = margin_rows(n)
        near = int(round(per_times * NEAR_BOUNDARY_SHARE))
        deltas = NEAR_BOUNDARY_BAND * ((2.0 * np.arange(near) + 1.0) / near - 1.0)
        for k in range(per_times):
            if k < near:
                x = _near_boundary(rng, n, b, g, float(deltas[k]))
            else:
                x = rng.uniform(-1.0, 1.0, size=n + len(PAIRS[n]))
            sets.append(
                {
                    "n": n,
                    "avg": [float(v) for v in x[:n]],
                    "pairs": [[i + 1, j + 1] for i, j in PAIRS[n]],
                    "corr": [float(v) for v in x[n:]],
                    "D": None,
                }
            )
    order = rng.permutation(len(sets))
    return [sets[k] for k in order]

