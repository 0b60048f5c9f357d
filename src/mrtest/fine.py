"""Existence of an underlying joint probability matching a moment set
(Fine's theorem), in closed form at three and four times.

The moments leave one parameter z free, and every nonnegativity condition
on the joint is a row b + sigma*z >= 0 with slope sigma = +-1.  The rows
are the "fine" block of the affine row table ``conditions.ROWS``:

* three times: z is the unmeasured triple correlator D, and the rows are
  the eight expansion values E(s), with p(s) = (E(s) + s1 s2 s3 D) / 8;
* four times: z is the unmeasured chord C13 = x.  It splits the pair cycle
  {12, 23, 34, 14} into the triangles (1,2,3) and (1,3,4), and each
  triangle has a joint exactly when its LG2 and LG3 rows hold.  The rows
  that involve x are the four chord LG2 rows and the eight triangle LG3
  rows, each lifted onto the four-time columns at x = 0 with its C13
  coefficient as slope; a joint of the two triangles glues into one of all
  four times (the chordal extension behind Fine's theorem: Fine, PRL 48,
  291 (1982); Araujo et al., PRA 88, 022118 (2013)).

``d_bounds`` is the interval [lo, hi] the rows leave for z, broadcasting
over a grid of moment sets.  ``d_interval`` makes one stacked evaluation
of the weak and Fine rows, reads its verdict and smallest margin from the
weak slice (``mr_weak``'s reduction, so they agree by construction), and
builds a witness table at the midpoint of the interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conditions import ROWS, ConditionReport, affine_values
from .errors import ValidationError
from .measurement import MomentSet, ProbabilityTable
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


_EXPANSION = ROWS[3]["E"]
_SIDES = {n: (np.flatnonzero(ROWS[n]["fine"].slope > 0), np.flatnonzero(ROWS[n]["fine"].slope < 0)) for n in (3, 4)}


def _bounds(b: np.ndarray, n: int):
    up, down = _SIDES[n]
    return (-b[up]).max(axis=0), b[down].min(axis=0)


def _require_unmeasured_triple(m: MomentSet, op: str) -> None:
    if m.triple is not None:
        raise ValidationError(f"{op}: triple correlator must be unmeasured (None)")


def _require_one_set(m: MomentSet, op: str) -> None:
    if isinstance(m.averages[0], np.ndarray):
        raise ValidationError(f"{op}: needs one moment set, got a grid; d_bounds takes grids")


def triple_expansion_table(m: MomentSet, d: float) -> ProbabilityTable:
    """Three-time joint table from the moment expansion at triple
    correlator value d (must be nonnegative to validate)."""
    if m.n_times != 3:
        raise ValidationError(f"triple_expansion_table: need 3 times, got {m.n_times}")
    _require_one_set(m, "triple_expansion_table")
    weights = ((affine_values(_EXPANSION, m.averages + m.correlators) + _EXPANSION.slope * d) / 8.0).reshape(2, 2, 2)
    return ProbabilityTable(kind="joint", time_indices=(0, 1, 2), weights=weights)


def d_bounds(m: MomentSet):
    """Bounds (lo, hi) on the free parameter of a moment set: rows with
    slope +1 force z >= -b, slope -1 force z <= b.  Floats, or arrays over
    the grid of ``m``."""
    _require_unmeasured_triple(m, "d_bounds")
    return _bounds(affine_values(ROWS[m.n_times]["fine"], m.averages + m.correlators), m.n_times)


def _midpoint_weights(e: np.ndarray) -> np.ndarray:
    """Three-time joint weights from the expansion values e at the midpoint
    of their triple-correlator interval.  For an empty interval the few
    slightly negative weights are clipped at 0 and the table renormalised."""
    lo, hi = _bounds(e, 3)
    w = (e + _EXPANSION.slope * ((lo + hi) / 2.0)) / 8.0
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
    e = affine_values(_EXPANSION, [(a1, a1), (a2, a3), (a3, a4), (c12, x), (c23, c34), (x, c14)])
    p123, p134 = _midpoint_weights(e[:, 0]), _midpoint_weights(e[:, 1])
    p13 = p134.sum(axis=2, keepdims=True)
    cond = np.divide(p134, p13, out=np.zeros_like(p134), where=p13 > 0.0)
    w = p123[:, :, :, None] * cond[:, None, :, :]
    return w / w.sum()


def d_interval(m: MomentSet, epsilon: float = TOL.verdict) -> FeasibilityResult:
    """Closed-form feasibility at three or four times.

    A joint exists iff every margin ``mr_weak`` reads is nonnegative, so the
    weak slice of the stacked rows gives ``mr_weak(m, epsilon).verdict``,
    and a smallest margin within epsilon of zero is flagged as marginal.  The
    witness sits at the midpoint of ``d_bounds(m)``, inside [-1, 1]; at
    four times it glues the two triangle joints.  Weights left slightly
    negative inside the slack are clipped at 0 and the table renormalised.
    """
    _require_unmeasured_triple(m, "d_interval")
    _require_one_set(m, "d_interval")
    n, names = m.n_times, ROWS[m.n_times]["weak"].names
    values = affine_values(ROWS[n]["weak+fine"], m.averages + m.correlators)
    k = len(names)
    weak = ConditionReport(names, values[:k], np.zeros(k, bool), epsilon)
    lo, hi = map(float, _bounds(values[k:], n))
    margin = float(weak.values.min())
    name = "triple correlator" if n == 3 else "chord correlator C13"
    if not weak.verdict:
        if hi < lo:
            why = f"empty interval: {name} must be >= {lo!r} and <= {hi!r}"
        else:
            why = f"negative two-time weight: measured LG2 margin {margin!r}"
        return FeasibilityResult(feasible=False, d_interval=(lo, hi), certificate=why)
    marginal = " (marginal)" if margin <= epsilon else ""
    if n == 3:
        weights = _midpoint_weights(values[k:])
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
