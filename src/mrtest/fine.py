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

``d_bounds`` is the interval [lo, hi] the rows leave for z.  ``d_interval``
reads its verdict from the smallest weak margin (so it agrees with
``mr_weak`` by construction) and builds a witness table at the midpoint of
the interval.  Both read their rows through ``conditions._rows``, which
evaluates a set's weak and Fine rows once and memoizes them, as ``mr_weak``
does, and both broadcast over a grid of moment sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conditions import ROWS, _affine_values, _rows
from .errors import ValidationError
from .measurement import MomentSet, ProbabilityTable
from .tolerances import TOL


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a joint-probability existence test: Python floats and
    bools for one moment set, arrays over a grid of them.  ``d_interval``
    bounds (lo, hi) the free parameter: the triple correlator at three
    times, the chord correlator C13 at four.  ``margin`` is the smallest
    weak margin; ``feasible`` is margin >= -epsilon.  ``witness_table``, a
    joint reproducing the moments, is None unless every set is feasible."""

    n_times: int
    feasible: bool
    d_interval: tuple[float, float]
    margin: float
    epsilon: float
    witness_table: ProbabilityTable | None = None

    def to_jsonable(self) -> dict:
        """One moment set only; the certificate says why no joint exists, or
        flags a smallest margin within epsilon of zero as marginal."""
        if np.ndim(self.margin):
            raise ValidationError(f"to_jsonable: one moment set only, got a grid of shape {np.shape(self.margin)}")
        lo, hi = self.d_interval
        name = "triple correlator" if self.n_times == 3 else "chord correlator C13"
        if self.feasible:
            certificate = f"{name} interval [{lo!r}, {hi!r}] (marginal)" if self.margin <= self.epsilon else None
        elif hi < lo:
            certificate = f"empty interval: {name} must be >= {lo!r} and <= {hi!r}"
        else:
            certificate = f"negative two-time weight: measured LG2 margin {self.margin!r}"
        return {
            "feasible": self.feasible,
            "d_interval": [lo, hi],
            "witness": self.witness_table.to_jsonable() if self.witness_table is not None else None,
            "certificate": certificate,
        }


_EXPANSION = ROWS[3]["fine"]


def _sides(slope: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Fine rows with slope +1, then those with slope -1, and where each group starts."""
    up, down = np.flatnonzero(slope > 0), np.flatnonzero(slope < 0)
    return np.concatenate([up, down]), np.array([0, len(up)])


_SIDES = {n: _sides(ROWS[n]["fine"].slope) for n in (3, 4)}


def _bounds(b: np.ndarray, n: int):
    """lo = max(-b) over the slope +1 rows and hi = min(b) over the slope -1
    rows of the Fine values b, from one ``np.minimum.reduceat``; a row value
    is never -0.0 (each starts from b >= 1), so -min(b) is max(-b) bit for bit."""
    order, starts = _SIDES[n]
    lo, hi = np.minimum.reduceat(b[order], starts, axis=0)
    return -lo, hi


def _expansion_weights(e: np.ndarray, d) -> np.ndarray:
    """p(s) = (E(s) + s1 s2 s3 d) / 8 from the expansion values e, shape
    ``(8,) + batch``, as ``batch + (8,)``: the outcome axis last and
    contiguous, so a sum over it adds in the same order as for one set."""
    slope = _EXPANSION.slope.reshape((8,) + (1,) * (e.ndim - 1))
    return np.ascontiguousarray(np.moveaxis((e + slope * d) / 8.0, 0, -1))


def triple_expansion_table(m: MomentSet, d) -> ProbabilityTable:
    """Three-time joint table from the moment expansion at triple correlator
    d, a float or an array over the grid of ``m`` (negative weights fail)."""
    if m.n_times != 3:
        raise ValidationError(f"triple_expansion_table: need 3 times, got {m.n_times}")
    w = _expansion_weights(_rows(m, "fine"), d)
    return ProbabilityTable(kind="joint", time_indices=(0, 1, 2), weights=w.reshape(w.shape[:-1] + (2, 2, 2)))


def d_bounds(m: MomentSet):
    """Bounds (lo, hi) on the free parameter: rows with slope +1 force
    z >= -b, slope -1 force z <= b.  Python floats for one moment set, or
    arrays over the grid of ``m``."""
    lo, hi = _bounds(_rows(m, "fine"), m.n_times)
    return (lo.tolist(), hi.tolist()) if lo.ndim == 0 else (lo, hi)


def _midpoint_weights(e: np.ndarray) -> np.ndarray:
    """Three-time joint weights, shape ``batch + (2, 2, 2)``, from the
    expansion values e at the midpoint of their triple-correlator interval;
    on an empty interval, clipped at 0 and renormalised."""
    lo, hi = _bounds(e, 3)
    w = _expansion_weights(e, (lo + hi) / 2.0)
    empty = np.expand_dims(hi < lo, -1)
    if empty.any():
        clipped = np.maximum(w, 0.0)
        w = np.where(empty, clipped / clipped.sum(axis=-1, keepdims=True), w)
    return w.reshape(w.shape[:-1] + (2, 2, 2))


def _glued_weights(m: MomentSet, x) -> np.ndarray:
    """Four-time joint weights at chord value x: the triangle joints p123
    and p134 (one batch axis ahead of the grid's), each at its own interval
    midpoint, glued as p(s) = p123(s1,s2,s3) p134(s1,s3,s4) / p13(s1,s3)."""
    a1, a2, a3, a4 = m.averages
    c12, c23, c34, c14 = m.correlators
    e = _affine_values(_EXPANSION, [(a1, a1), (a2, a3), (a3, a4), (c12, x), (c23, c34), (x, c14)])
    p123, p134 = _midpoint_weights(e)
    p13 = p134.sum(axis=-1, keepdims=True)
    cond = np.divide(p134, p13, out=np.zeros_like(p134), where=p13 > 0.0)
    w = (p123[..., None] * cond[..., None, :, :]).reshape(p123.shape[:-3] + (16,))
    return (w / w.sum(axis=-1, keepdims=True)).reshape(w.shape[:-1] + (2, 2, 2, 2))


def d_interval(m: MomentSet, epsilon: float = TOL.verdict) -> FeasibilityResult:
    """Closed-form feasibility at three or four times, for one moment set
    or a grid of them.  A joint exists iff every margin ``mr_weak`` reads is
    nonnegative, so a set is feasible, as ``mr_weak(m, epsilon).verdict``,
    when its smallest weak margin is >= -epsilon.  Only when every set is
    feasible is a witness built, at the midpoint of ``d_bounds(m)`` (at four
    times, glued from the two triangle joints), with weights left slightly
    negative inside the slack clipped at 0 and the table renormalised."""
    n, fine = m.n_times, _rows(m, "fine")
    lo, hi = _bounds(fine, n)
    margin = _rows(m, "weak").min(axis=0)
    feasible = margin >= -epsilon
    one_set = fine.ndim == 1
    if one_set:
        lo, hi, margin, feasible = lo.tolist(), hi.tolist(), margin.tolist(), feasible.tolist()
    witness = None
    if feasible if one_set else feasible.all():
        w = _midpoint_weights(fine) if n == 3 else _glued_weights(m, (lo + hi) / 2.0)
        witness = ProbabilityTable(kind="joint", time_indices=tuple(range(n)), weights=w)
    return FeasibilityResult(n, feasible, (lo, hi), margin, epsilon, witness)


def lp_feasibility(m: MomentSet) -> FeasibilityResult:
    """``d_interval(m)`` at the default epsilon.  Kept only because the
    benchmark worker (``bench/worker.py``) calls it; it goes when the
    benchmark next changes."""
    return d_interval(m)
