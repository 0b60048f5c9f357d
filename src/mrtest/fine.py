"""Existence of an underlying joint probability matching a moment set
(Fine's theorem), in closed form at three and four times.

The moments leave one parameter z free, and every nonnegativity condition
on the joint is a row b + sigma*z >= 0 with slope sigma = +-1:

* three times: z is the unmeasured triple correlator D, and the rows are
  the eight outcome weights p(s) = (E(s) + s1 s2 s3 D) / 8, times 8;
* four times: z is the unmeasured chord C13 = x.  It splits the pair cycle
  {12, 23, 34, 14} into the triangles (1,2,3) and (1,3,4), and each
  triangle has a joint exactly when its LG2 and LG3 rows hold.  The rows
  that involve x are the four chord LG2 rows and the eight triangle LG3
  rows; a joint of the two triangles glues into one of all four times
  (the chordal extension behind Fine's theorem: Fine, PRL 48, 291 (1982);
  Araujo et al., PRA 88, 022118 (2013)).

``d_bounds`` is the interval [lo, hi] the rows leave for z, broadcasting
over a grid of moment sets; ``d_interval`` decides feasibility from it at
the verdict epsilon and builds a witness table at its midpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .measurement import MomentSet, ProbabilityTable, outcomes
from .tolerances import TOL

@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a joint-probability existence test.

    ``d_interval`` holds the bounds (lo, hi) on the free parameter: the
    triple correlator at three times, the chord correlator C13 at four.
    On success ``witness_table`` is a nonnegative normalized joint
    distribution reproducing the input moments; otherwise ``certificate``
    describes why none exists.
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


_PARITY3 = np.array([s[0] * s[1] * s[2] for s in outcomes(3)], dtype=float)
_SIGNS2 = outcomes(2)
#: slopes u*v of the four-time rows 1 + u*p + v*q: the chord LG2 block,
#: then the LG3 blocks of triangles (1,2,3) and (1,3,4)
_SLOPES4 = np.array([u * v for u, v in _SIGNS2] * 3, dtype=float)
#: row pairs (lower of one triangle, upper of the other): the LG4 margins
_CROSS = np.array([
    (lower, upper)
    for own, other in ((1, 2), (2, 1))
    for lower in range(4 * own, 4 * own + 4) if _SLOPES4[lower] > 0
    for upper in range(4 * other, 4 * other + 4) if _SLOPES4[upper] < 0
]).T


def _expansion(averages, correlators) -> np.ndarray:
    """Triple-free expansion values E(s), shape ``(8,) + batch``, of three
    averages and the correlators C12, C23, C13: p(s) = (E(s) + s1 s2 s3 D) / 8."""
    a1, a2, a3 = averages
    c12, c23, c13 = correlators
    return np.array([
        1.0 + s1 * a1 + s2 * a2 + s3 * a3 + s1 * s2 * c12 + s2 * s3 * c23 + s1 * s3 * c13
        for s1, s2, s3 in outcomes(3)
    ])


def _rows(m: MomentSet) -> tuple[np.ndarray, np.ndarray]:
    """Rows b, shape ``(k,) + batch``, and slopes sigma, shape ``(k,)``: the
    free parameter z is admissible iff b + sigma*z >= 0 on every row."""
    if m.n_times == 3:
        return _expansion(m.averages, m.correlators), _PARITY3
    a1, _, a3, _ = m.averages
    c12, c23, c34, c14 = m.correlators
    # chord LG2 1 + s1 a1 + s3 a3 + s1 s3 x, then the LG3 rows of (1,2,3) and (1,3,4)
    b = np.array([1.0 + u * p + v * q for p, q in ((a1, a3), (c12, c23), (c34, c14)) for u, v in _SIGNS2])
    return b, _SLOPES4


def _bounds(b: np.ndarray, sigma: np.ndarray):
    return (-b[sigma > 0]).max(axis=0), b[sigma < 0].min(axis=0)


def _require_unmeasured_triple(m: MomentSet, op: str) -> None:
    if m.triple is not None:
        raise ValidationError(f"{op}: triple correlator must be unmeasured (None)")


def triple_expansion_table(m: MomentSet, d: float) -> ProbabilityTable:
    """Three-time joint table from the moment expansion at triple
    correlator value d (must be nonnegative to validate)."""
    weights = ((_expansion(m.averages, m.correlators) + _PARITY3 * d) / 8.0).reshape(2, 2, 2)
    return ProbabilityTable(kind="joint", time_indices=(0, 1, 2), weights=weights)


def d_bounds(m: MomentSet):
    """Bounds (lo, hi) on the free parameter of a moment set: rows with
    slope +1 force z >= -b, slope -1 force z <= b.  Floats, or arrays over
    the grid of ``m``."""
    _require_unmeasured_triple(m, "d_bounds")
    return _bounds(*_rows(m))


def _smallest_margin(m: MomentSet, b: np.ndarray, lo: float, hi: float) -> float:
    """The smallest of the margins ``mr_weak`` reads, from the rows.

    At three times the width hi - lo is twice the smallest LG2/LG3 margin.
    At four times a lower row plus an upper row of different triangles is
    an LG4 margin, and every other such sum is a sum of two measured LG2
    margins, which stay constraints of their own.
    """
    if m.n_times == 3:
        return (hi - lo) / 2.0
    avg = m.averages
    lg2 = min(
        1.0 + u * avg[i] + v * avg[j] + u * v * c
        for (i, j), c in zip(m.pairs, m.correlators)
        for u, v in _SIGNS2
    )
    return min(float((b[_CROSS[0]] + b[_CROSS[1]]).min()), lg2)


def _midpoint_weights(e: np.ndarray) -> np.ndarray:
    """Three-time joint weights from the expansion values e at the midpoint
    of their triple-correlator interval.  For an empty interval the few
    slightly negative weights are clipped at 0 and the table renormalised."""
    lo, hi = _bounds(e, _PARITY3)
    w = (e + _PARITY3 * ((lo + hi) / 2.0)) / 8.0
    if hi < lo:
        w = np.maximum(w, 0.0)
        w /= w.sum()
    return w.reshape(2, 2, 2)


def _glued_weights(m: MomentSet, x: float) -> np.ndarray:
    """Four-time joint weights at chord value x: the triangle joints p123
    and p134, each at its own interval midpoint, glued as
    p(s) = p123(s1,s2,s3) p134(s1,s3,s4) / p13(s1,s3)."""
    a1, a2, a3, a4 = m.averages
    c12, c23, c34, c14 = m.correlators
    p123 = _midpoint_weights(_expansion((a1, a2, a3), (c12, c23, x)))
    p134 = _midpoint_weights(_expansion((a1, a3, a4), (x, c34, c14)))
    p13 = p134.sum(axis=2, keepdims=True)
    cond = np.divide(p134, p13, out=np.zeros_like(p134), where=p13 > 0.0)
    w = p123[:, :, :, None] * cond[:, None, :, :]
    return w / w.sum()


def d_interval(m: MomentSet, epsilon: float = TOL.verdict) -> FeasibilityResult:
    """Closed-form feasibility at three or four times.

    A joint distribution exists iff every margin ``mr_weak`` reads is
    nonnegative; here they come from the rows (see ``_smallest_margin``),
    and the set counts as feasible when the smallest is at least -epsilon,
    so the verdict equals ``mr_weak(m, epsilon).verdict``.  A smallest
    margin within epsilon of zero is flagged as marginal.  The witness sits
    at the midpoint of ``d_bounds(m)``, which lies inside [-1, 1]; at four
    times it is the glue of the two triangle joints.  Weights left slightly
    negative inside the slack are clipped at 0 and the table renormalised.
    """
    _require_unmeasured_triple(m, "d_interval")
    b, sigma = _rows(m)
    lo, hi = map(float, _bounds(b, sigma))
    margin = _smallest_margin(m, b, lo, hi)
    name = "triple correlator" if m.n_times == 3 else "chord correlator C13"
    if margin < -epsilon:
        if hi < lo:
            why = f"empty interval: {name} must be >= {lo!r} and <= {hi!r}"
        else:
            why = f"negative two-time weight: measured LG2 margin {margin!r}"
        return FeasibilityResult(feasible=False, d_interval=(lo, hi), certificate=why)
    marginal = " (marginal)" if margin <= epsilon else ""
    if m.n_times == 3:
        weights = _midpoint_weights(b)
    else:
        weights = _glued_weights(m, (lo + hi) / 2.0)
    return FeasibilityResult(
        feasible=True,
        d_interval=(lo, hi),
        witness_table=ProbabilityTable(kind="joint", time_indices=tuple(range(m.n_times)), weights=weights),
        certificate=f"{name} interval [{lo!r}, {hi!r}]{marginal}" if marginal else None,
    )


def lp_feasibility(m: MomentSet) -> FeasibilityResult:
    """``d_interval(m)`` at the default epsilon.  Kept only because the
    benchmark worker (``bench/worker.py``) calls it; it goes when the
    benchmark next changes."""
    return d_interval(m)
