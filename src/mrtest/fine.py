"""Existence of an underlying joint probability matching a moment set.

Two routes:

* ``d_interval``     -- three times only.  The unmeasured triple correlator
                        is the single free parameter; each outcome's
                        nonnegativity gives a one-sided bound on it, so
                        feasibility reduces to a closed-form interval test.
                        Its bounds, ``d_bounds``, broadcast over a grid of
                        moment sets.
* ``lp_feasibility`` -- three or four times.  Phase-1 simplex over the
                        outcome weights with equality rows for
                        normalization, averages and pair correlators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
from .measurement import MomentSet, Outcome, ProbabilityTable, outcomes
from .tolerances import TOL

@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a joint-probability existence test.

    ``d_interval`` is only set by the three-time closed form: bounds
    (lo, hi) on the triple correlator, with lo - hi > 2*epsilon exactly
    when infeasible.  On success ``witness_table`` is a nonnegative normalized
    joint distribution reproducing the input moments; otherwise
    ``certificate`` describes why none exists.
    """

    feasible: bool
    d_interval: tuple[float, float] | None = None
    witness_table: ProbabilityTable | None = None
    certificate: str | None = None

    def to_jsonable(self) -> dict:
        return {
            "feasible": self.feasible,
            "d_interval": list(self.d_interval) if self.d_interval is not None else None,
            "witness": self.witness_table.to_jsonable() if self.witness_table else None,
            "certificate": self.certificate,
        }


_OUTCOMES3 = outcomes(3)
_PARITY3 = np.array([s[0] * s[1] * s[2] for s in _OUTCOMES3], dtype=float)


def _expansion_base(m: MomentSet) -> tuple[list[Outcome], np.ndarray, np.ndarray]:
    """Per-outcome triple-free expansion value E(s), shape ``(8,) + batch``,
    and parity s1*s2*s3, where p(s) = (E(s) + parity * D) / 8."""
    a1, a2, a3 = m.averages
    c12, c23, c13 = m.corr(0, 1), m.corr(1, 2), m.corr(0, 2)
    e = np.array([
        1.0 + s1 * a1 + s2 * a2 + s3 * a3 + s1 * s2 * c12 + s2 * s3 * c23 + s1 * s3 * c13
        for s1, s2, s3 in _OUTCOMES3
    ])
    return _OUTCOMES3, e, _PARITY3


def triple_expansion_table(m: MomentSet, d: float) -> ProbabilityTable:
    """Three-time joint table from the moment expansion at triple
    correlator value d (must be nonnegative to validate)."""
    _, e, parity = _expansion_base(m)
    weights = ((e + parity * d) / 8.0).reshape(2, 2, 2)
    return ProbabilityTable(kind="joint", time_indices=(0, 1, 2), weights=weights)


def _require_three_time_no_triple(m: MomentSet, op: str) -> None:
    if m.n_times != 3:
        raise ValidationError(f"{op}: need 3 times, got {m.n_times}")
    if m.triple is not None:
        raise ValidationError(f"{op}: triple correlator must be unmeasured (None)")


def d_bounds(m: MomentSet):
    """Bounds (lo, hi) on the unmeasured triple correlator of a three-time
    moment set: outcomes with positive parity force D >= -E(s), negative
    parity force D <= E(s).  Floats, or arrays over the grid of ``m``."""
    _require_three_time_no_triple(m, "d_bounds")
    _, e, parity = _expansion_base(m)
    return (-e[parity > 0]).max(axis=0), e[parity < 0].min(axis=0)


def d_interval(m: MomentSet, epsilon: float = TOL.verdict) -> FeasibilityResult:
    """Closed-form feasibility for three times.

    A joint distribution exists iff the interval ``d_bounds(m)`` is
    nonempty.  The width hi - lo is twice the smallest LG2/LG3 margin, so
    the interval counts as infeasible only when it is empty by more than
    2*epsilon: the verdict equals ``mr_weak(m, epsilon).verdict``, and a
    width within 2*epsilon of zero is flagged as marginal.  The witness sits
    at the interval midpoint, which is automatically inside [-1, 1]; for an
    empty interval inside the slack its few slightly negative weights are
    clipped at 0 and the table renormalised, as ``lp_feasibility`` does.
    """
    _require_three_time_no_triple(m, "d_interval")
    lo, hi = map(float, d_bounds(m))
    width = hi - lo
    slack = 2.0 * epsilon
    marginal = " (marginal)" if abs(width) <= slack else ""
    if width < -slack:
        return FeasibilityResult(
            feasible=False,
            d_interval=(lo, hi),
            certificate=(
                f"empty interval: triple correlator must be >= {lo!r} "
                f"and <= {hi!r}{marginal}"
            ),
        )
    mid = (lo + hi) / 2.0
    if width >= 0.0:
        table = triple_expansion_table(m, mid)
    else:
        _, e, parity = _expansion_base(m)
        w = np.maximum((e + parity * mid) / 8.0, 0.0)
        w /= w.sum()
        table = ProbabilityTable(kind="joint", time_indices=(0, 1, 2), weights=w.reshape(2, 2, 2))
    return FeasibilityResult(
        feasible=True,
        d_interval=(lo, hi),
        witness_table=table,
        certificate=f"triple correlator interval [{lo!r}, {hi!r}]{marginal}" if marginal else None,
    )


# ---------------------------------------------------------------------------
# phase-1 simplex


def _phase1_simplex(a_eq: np.ndarray, b_eq: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimize the sum of artificial variables for A x = b, x >= 0.

    Dense tableau with Bland's anti-cycling rule; returns (objective, x).
    The problem sizes here are at most 9 rows by 16 columns, so robustness
    wins over speed.
    """
    m, n = a_eq.shape
    a = a_eq.copy()
    b = b_eq.astype(float).copy()
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0

    width = n + m + 1
    t = np.zeros((m + 1, width))
    t[:m, :n] = a
    t[:m, n : n + m] = np.eye(m)
    t[:m, -1] = b
    # reduced costs for cost vector (0,...,0, 1,...,1); artificials basic
    t[m, :n] = -a.sum(axis=0)
    t[m, -1] = -b.sum()
    basis = list(range(n, n + m))

    max_pivots = 200 * (n + m)
    for _ in range(max_pivots):
        enter = -1
        for j in range(n + m):
            if t[m, j] < -TOL.pivot:
                enter = j
                break
        if enter < 0:
            break
        ratios = []
        for i in range(m):
            if t[i, enter] > TOL.pivot:
                ratios.append((t[i, -1] / t[i, enter], basis[i], i))
        if not ratios:
            raise ConvergenceError("phase-1 simplex: unbounded column (numerical breakdown)")
        best = min(r for r, _, _ in ratios)
        # Bland tie-break: among rows attaining the ratio, smallest basis var
        leave_row = min(
            (i for r, _, i in ratios if r <= best + TOL.pivot),
            key=lambda i: basis[i],
        )
        piv = t[leave_row, enter]
        t[leave_row] /= piv
        for i in range(m + 1):
            if i != leave_row and t[i, enter] != 0.0:
                t[i] -= t[i, enter] * t[leave_row]
        basis[leave_row] = enter
    else:
        raise ConvergenceError("phase-1 simplex: pivot limit reached")

    objective = -t[m, -1]
    x = np.zeros(n)
    for i, var in enumerate(basis):
        if var < n:
            x[var] = t[i, -1]
    return float(objective), x


def _moment_rows(m: MomentSet) -> tuple[np.ndarray, np.ndarray, list[Outcome]]:
    outs = outcomes(m.n_times)
    signs = np.array(outs, dtype=float).T
    rows = [np.ones(len(outs)), *signs, *(signs[i] * signs[j] for i, j in m.pairs)]
    return np.vstack(rows), np.array([1.0, *m.averages, *m.correlators]), outs


def lp_feasibility(m: MomentSet) -> FeasibilityResult:
    """Existence of nonnegative weights over {-1,+1}^n with the given
    normalization, averages and pair correlators, via phase-1 simplex.

    Feasible when the phase-1 objective is below 1e-9; verdicts within a
    decade of that threshold carry a "marginal" flag in the certificate.
    """
    if m.n_times not in (3, 4):
        raise ValidationError(f"lp_feasibility: need 3 or 4 times, got {m.n_times}")
    a_eq, b_eq, _ = _moment_rows(m)
    objective, x = _phase1_simplex(a_eq, b_eq)
    marginal = " (marginal)" if 0.1 * TOL.feasibility < objective < 10.0 * TOL.feasibility else ""
    if objective > TOL.feasibility:
        return FeasibilityResult(
            feasible=False,
            certificate=f"phase-1 objective {objective:.6e} > {TOL.feasibility:.0e}{marginal}",
        )
    x = np.maximum(x, 0.0)
    x /= x.sum()
    table = ProbabilityTable(kind="joint", time_indices=tuple(range(m.n_times)), weights=x.reshape((2,) * m.n_times))
    return FeasibilityResult(
        feasible=True,
        witness_table=table,
        certificate=f"phase-1 objective {objective:.6e}{marginal}" if marginal else None,
    )
