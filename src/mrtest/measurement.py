"""Probability tables and moment sets under three measurement regimes.

Three ways of extracting two-time statistics from a model:

* piecewise single-time runs        -> averages <Q_i>, one experiment each;
* sequential projective runs        -> chained state-update tables, one per
                                       time subset, generally signaling;
* the symmetrized quasi-probability -> matches both single-time marginals
                                       exactly but may go negative.

The gap between the sequential and quasi tables is the interference term;
its absolute NSIT residual is the coherence witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import InputFormatError, ValidationError
from .quantum import QuantumModel, expectation
from .tolerances import TOL

Outcome = tuple[int, ...]


def _echo(value) -> str:
    """An input value as an error line shows it: its repr in full when
    short, else an integer's digit count or the repr cut to 60 characters."""
    text = repr(value)
    if len(text) <= 80:
        return text
    if type(value) is int:
        return f"<{len(text.lstrip('-'))}-digit integer>"
    return f"{text[:60]}... <{len(text)} characters>"


def _json_number(value, where: str) -> float:
    """A JSON number as a float; booleans, strings and integers beyond the
    float range are format errors naming ``where``."""
    if type(value) not in (int, float):
        raise InputFormatError(f"{where} must be a number, got {_echo(value)}")
    try:
        return float(value)
    except OverflowError:
        raise InputFormatError(f"{where} must be within the float range, got {_echo(value)}") from None


TABLE_KINDS = ("single", "sequential", "quasi", "joint")

#: signs of a dichotomic outcome, in serialization order (-1 before +1)
SIGNS = (-1, +1)

#: position of each sign on a table's outcome axis
_SIGN_INDEX = {-1: 0, +1: 1}


def outcomes(arity: int) -> list[Outcome]:
    """All outcome tuples in {-1,+1}^arity, lexicographic with -1 first."""
    return list(itertools.product(SIGNS, repeat=arity))


def outcome_key(outcome: Outcome) -> str:
    return "".join("+" if s > 0 else "-" for s in outcome)


# ---------------------------------------------------------------------------
# tables


@dataclass(frozen=True)
class ProbabilityTable:
    """Real weights on the outcomes {-1,+1}^k as a float array of shape
    ``batch + (2,)*k``, index 0 for s = -1: one table per grid point of
    ``batch``, which is empty for a single table.  ``kind`` fixes the
    validation class: "single"/"sequential"/"joint" weights must be
    nonnegative (down to -1e-12 rounding slack), "quasi" weights may be
    negative but stay within [-1, 1] up to slack.  Every table must sum to 1.
    """

    kind: str
    time_indices: tuple[int, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in TABLE_KINDS:
            raise ValidationError(f"table kind must be one of {TABLE_KINDS}, got {self.kind!r}")
        idx = tuple(int(i) for i in self.time_indices)
        k = len(idx)
        if not (1 <= k <= 4):
            raise ValidationError(f"table arity must be 1-4, got {k}")
        w = np.asarray(self.weights, dtype=float)
        if w.shape[w.ndim - k :] != (2,) * k:
            raise ValidationError("table weights must cover exactly {-1,+1}^arity")
        total = w.sum(axis=tuple(range(-k, 0)))
        off = ~(np.abs(total - 1.0) <= TOL.scalar)
        if off.any():
            raise ValidationError(f"table weights must sum to 1, got {float(total[off].flat[0])!r}")
        if self.kind == "quasi":
            bad = w[~((-1 - TOL.structural <= w) & (w <= 1 + TOL.structural))]
            if bad.size:
                raise ValidationError(f"quasi weight out of [-1, 1]: {float(bad[0])!r}")
        elif w.min() < -TOL.scalar:
            raise ValidationError(f"{self.kind} table weight negative: {float(w.min())!r}")
        object.__setattr__(self, "time_indices", idx)
        object.__setattr__(self, "weights", w)

    @property
    def arity(self) -> int:
        return len(self.time_indices)

    def weight(self, outcome: Outcome):
        """The weight of one outcome: a float, or an array over the grid."""
        w = self.weights[(...,) + tuple(_SIGN_INDEX[s] for s in outcome)]
        return w if w.ndim else float(w)

    def moment(self, positions: Iterable[int]):
        """Expectation of the product of outcome signs at the given
        positions (positions index into the tuple, not into model times):
        a float, or an array over the grid."""
        pos = set(positions)
        w = self.weights
        for p in reversed(range(self.arity)):
            w = w[..., 1] - w[..., 0] if p in pos else w[..., 0] + w[..., 1]
        return w if w.ndim else float(w)

    def marginal(self, time_index: int) -> "ProbabilityTable":
        """Sum out the measurement at the given model time index."""
        if time_index not in self.time_indices:
            raise ValidationError(f"time index {time_index} not in table {self.time_indices}")
        pos = self.time_indices.index(time_index)
        kept = tuple(i for i in self.time_indices if i != time_index)
        return ProbabilityTable(
            kind=self.kind, time_indices=kept, weights=self.weights.sum(axis=pos - self.arity)
        )

    def to_jsonable(self) -> dict:
        return {
            "arity": self.arity,
            "times": [i + 1 for i in self.time_indices],
            "kind": self.kind,
            "weights": dict(zip(map(outcome_key, outcomes(self.arity)), self.weights.ravel().tolist())),
        }


# ---------------------------------------------------------------------------
# moments


def pair_set(n_times: int) -> tuple[tuple[int, int], ...]:
    """Canonical measured pair set (0-based): {12,23,13} resp. {12,23,34,14}."""
    if n_times == 3:
        return ((0, 1), (1, 2), (0, 2))
    if n_times == 4:
        return ((0, 1), (1, 2), (2, 3), (0, 3))
    raise ValidationError(f"moment sets are defined for 3 or 4 times, got {_echo(n_times)}")


def _unit_values(label: str, values) -> tuple:
    """Python floats, or float arrays over a grid if any value is an array,
    each checked to lie in [-1, 1] up to TOL.scalar."""
    if any(isinstance(x, np.ndarray) for x in values):
        vals = tuple(np.asarray(x, dtype=float) for x in values)
        bad = [float(b[0]) for b in (x[~(np.abs(x) <= 1 + TOL.scalar)] for x in vals) if b.size]
    else:
        vals = tuple(float(x) for x in values)
        bad = [x for x in vals if not (-1 - TOL.scalar <= x <= 1 + TOL.scalar)]
    if bad:
        raise ValidationError(f"{label} out of [-1, 1]: {bad[0]!r}")
    return vals


@dataclass(frozen=True)
class MomentSet:
    """Averages <Q_i> and pair correlators C_ij, optional triple correlator.

    The pair set is fixed by the number of times (3 or 4); the triple
    correlator is the s1*s2*s3 coefficient and stays ``None`` for piecewise
    protocols, which never measure it.  The averages and correlators are
    floats, or arrays over a grid when the set comes from ``measure_all``
    with a grid of times.
    """

    averages: tuple[float, ...]
    correlators: tuple[float, ...]
    triple: float | None = None

    def __post_init__(self) -> None:
        avg = _unit_values("average", self.averages)
        corr = _unit_values("correlator", self.correlators)
        pairs = pair_set(len(avg))
        if len(corr) != len(pairs):
            raise ValidationError(
                f"need {len(pairs)} correlators for {len(avg)} times, got {len(corr)}"
            )
        shapes = sorted({getattr(x, "shape", ()) for x in avg + corr})
        if len(shapes) > 1:
            raise ValidationError(f"averages and correlators must share one shape, got {', '.join(map(str, shapes))}")
        if self.triple is not None and not (-1 - TOL.scalar <= self.triple <= 1 + TOL.scalar):
            raise ValidationError(f"triple correlator out of [-1, 1]: {self.triple!r}")
        object.__setattr__(self, "averages", avg)
        object.__setattr__(self, "correlators", corr)
        object.__setattr__(self, "triple", None if self.triple is None else float(self.triple))

    @property
    def n_times(self) -> int:
        return len(self.averages)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return pair_set(self.n_times)

    def corr(self, i: int, j: int) -> float:
        pair = (i, j) if i < j else (j, i)
        try:
            return self.correlators[self.pairs.index(pair)]
        except ValueError:
            raise ValidationError(f"pair {pair} not in measured pair set {self.pairs}") from None

    def to_jsonable(self) -> dict:
        return {
            "n": self.n_times,
            "avg": list(self.averages),
            "pairs": [[i + 1, j + 1] for i, j in self.pairs],
            "corr": list(self.correlators),
            "D": self.triple,
        }

    @classmethod
    def from_jsonable(cls, obj: Mapping) -> "MomentSet":
        try:
            n, avg, pairs, corr = obj["n"], obj["avg"], obj["pairs"], obj["corr"]
        except KeyError as exc:
            raise InputFormatError(f"moments: missing field {exc.args[0]!r}") from None
        except TypeError:
            raise InputFormatError(
                f"moments: expected a JSON object with fields n, avg, pairs, corr, got {type(obj).__name__}"
            ) from None
        if type(n) is not int or n not in (3, 4):
            raise InputFormatError(f"moments: n must be 3 or 4, got {_echo(n)}")
        want = pair_set(n)
        if not isinstance(avg, list):
            raise InputFormatError(f"moments: avg must be a list of numbers, got {_echo(avg)}")
        # a JSON float is a float already; anything else is typed under its indexed name
        avg = tuple(x if type(x) is float else _json_number(x, f"moments: avg[{k}]") for k, x in enumerate(avg))
        if len(avg) != n:
            raise ValidationError(f"moments: expected {n} averages, got {len(avg)}")
        if not isinstance(corr, list):
            raise InputFormatError(f"moments: corr must be a list of numbers, got {_echo(corr)}")
        corr = [x if type(x) is float else _json_number(x, f"moments: corr[{k}]") for k, x in enumerate(corr)]
        if not (isinstance(pairs, list) and len(pairs) == len(corr)):
            raise InputFormatError(f"moments: pairs must be a list as long as corr ({len(corr)})")
        triple = obj.get("D")
        triple = None if triple is None else _json_number(triple, "moments: D")
        given = {}
        for k, pair in enumerate(pairs):
            if not (isinstance(pair, list) and len(pair) == 2 and type(pair[0]) is type(pair[1]) is int):
                raise InputFormatError(f"moments: pairs[{k}] must be two time indices, got {_echo(pair)}")
            i, j = pair[0] - 1, pair[1] - 1
            key = (i, j) if i < j else (j, i)
            if key in given:
                raise InputFormatError(f"moments: pairs[{k}] repeats C{key[0] + 1}{key[1] + 1}")
            given[key] = corr[k]
        missing = [p for p in want if p not in given]
        if missing:
            names = ", ".join(f"C{i + 1}{j + 1}" for i, j in missing)
            raise ValidationError(f"moments: missing correlators for pairs: {names}")
        extra = [p for p in given if p not in want]
        if extra:
            names = ", ".join(f"C{i + 1}{j + 1}" for i, j in extra)
            raise ValidationError(f"moments: unexpected pairs: {names}")
        return cls(averages=avg, correlators=tuple(given[p] for p in want), triple=triple)


# ---------------------------------------------------------------------------
# measurement operations


def _sequential_weights(proj: np.ndarray, rho: np.ndarray, idx: tuple[int, ...]) -> np.ndarray:
    """Weights of chained projective measurements at the time indices idx,
    for projector pairs ``proj`` of shape ``batch + (n, 2, d, d)``: the
    state update per outcome is rho -> P rho P, one outcome axis per
    measurement, and each weight is the trace of the final state,
    Tr(P rho P) = Tr(P rho) for the last projector."""
    state = rho
    for depth, i in enumerate(idx):
        p = proj[..., i, :, :, :]
        p = p.reshape(p.shape[:-3] + (1,) * depth + p.shape[-3:])
        if depth == len(idx) - 1:
            return np.einsum("...ij,...ji->...", p, state[..., None, :, :]).real
        state = p @ state[..., None, :, :] @ p


def _quasi_weights(proj: np.ndarray, rho: np.ndarray, i: int, j: int) -> np.ndarray:
    """Symmetrized quasi-probability of the time indices i < j,
    q(s1, s2) = Re Tr((P_{s2}(t_j) P_{s1}(t_i) + P_{s1}(t_i) P_{s2}(t_j)) rho) / 2:
    its marginals are the single-time tables, but entries may be negative."""
    p1 = proj[..., i, :, None, :, :]
    p2 = proj[..., j, None, :, :, :]
    return 0.5 * expectation(rho, p2 @ p1 + p1 @ p2)


def sequential_moments(tables: TableSet) -> dict[tuple[str, str], float]:
    """Contextual averages/correlators from sequential three-time runs.

    Maps (quantity, context) to the value observed when the measurements
    named in the context were made earlier in the same run: <Q2^(1)>,
    <Q3^(12)>, C23^(1), C13^(2) and the triple correlator ("D", "123") from
    the full three-time run, <Q3^(1)> and <Q3^(2)> from the two-time runs.
    The context-free base is ``tables.moments``.  Floats, or arrays over
    the grid of ``tables``.
    """
    if tables.n_times != 3:
        raise ValidationError(f"sequential_moments: need exactly 3 times, got {tables.n_times}")
    chain, p13, p23 = tables.chain, tables.pairs[(0, 2)], tables.pairs[(1, 2)]
    return {
        ("Q2", "1"): chain.moment((1,)),
        ("Q3", "12"): chain.moment((2,)),
        ("C23", "1"): chain.moment((1, 2)),
        ("C13", "2"): chain.moment((0, 2)),
        ("D", "123"): chain.moment((0, 1, 2)),
        ("Q3", "1"): p13.moment((1,)),
        ("Q3", "2"): p23.moment((1,)),
    }


def interference_term(pair: ProbabilityTable, quasi: ProbabilityTable) -> float:
    """The constant T with p(s1,s2) - q(s1,s2) = T*s2 on every outcome, read
    off a sequential two-time table and the quasi table of the same times:
    a float, or an array over the grid.

    Its operator form is T = <[Q(t_i), Q(t_j)] Q(t_i)> / 8 = <Q_i Q_j Q_i - Q_j> / 8.
    """
    if pair.arity != 2 or pair.time_indices != quasi.time_indices:
        raise ValidationError(
            f"interference_term: need two tables over the same pair of times, "
            f"got {pair.time_indices} and {quasi.time_indices}"
        )
    residues = ((pair.weights - quasi.weights) * np.array(SIGNS)).reshape(pair.weights.shape[:-2] + (4,))
    spread = float(np.ptp(residues, axis=-1).max())
    if spread > TOL.scalar:
        raise ValidationError(
            f"interference residue not outcome-independent (spread {spread:.3e})"
        )
    t = residues.sum(axis=-1) / 4
    return t if t.ndim else float(t)


def witness(pair: ProbabilityTable, single: ProbabilityTable, s2: int = +1) -> float:
    """Coherence witness W = |sum_{s1} p(s1,s2) - p(s2)|: the NSIT residual of
    a sequential two-time table against the single-time table of its later time.

    Its commutator form is |<[Q_i, Q_j] Q_i>| / 4, and it does not depend on s2.
    """
    if s2 not in SIGNS:
        raise ValidationError(f"witness: s2 must be +1 or -1, got {s2!r}")
    if pair.arity != 2 or single.time_indices != pair.time_indices[1:]:
        raise ValidationError(
            f"witness: need a two-time table and the single-time table of its "
            f"later time, got {pair.time_indices} and {single.time_indices}"
        )
    return abs(sum(pair.weight((s1, s2)) for s1 in SIGNS) - single.weight((s2,)))


# ---------------------------------------------------------------------------
# bundled tables for one model


@dataclass(frozen=True)
class TableSet:
    """All measurement tables of one model, computed once and shared.

    ``moments`` holds the piecewise averages and pair correlators read off
    ``singles`` and ``pairs``: every average from a single-time run, every
    correlator C_ij from the two-time sequential run over {i, j} alone.
    """

    singles: tuple[ProbabilityTable, ...]
    pairs: Mapping[tuple[int, int], ProbabilityTable]
    chain: ProbabilityTable
    quasi: Mapping[tuple[int, int], ProbabilityTable]
    moments: MomentSet

    @property
    def n_times(self) -> int:
        return len(self.singles)


def measure_all(model: QuantumModel, times=None) -> TableSet:
    """Every table of a 3- or 4-time model: single-time, sequential pair,
    full sequential chain and quasi-probability, plus the piecewise moments.

    ``times`` (shape ``batch + (n,)``) replaces the model's own times with a
    grid of evolution times; every table and moment then carries the grid
    axes ``batch``.  The times are used as given (see
    ``QuantumModel.spectral``), so a caller passing a grid validates it first.
    """
    n = model.n_times
    if n not in (3, 4):
        raise ValidationError(f"measure_all: tables need a model with 3 or 4 times, got {n}: {model.times}")
    proj = model.spectral(times)[2]
    rho = model.rho
    single = expectation(rho, proj)
    singles = tuple(
        ProbabilityTable(kind="single", time_indices=(i,), weights=single[..., i, :]) for i in range(n)
    )
    pairs = {
        p: ProbabilityTable(kind="sequential", time_indices=p, weights=_sequential_weights(proj, rho, p))
        for p in pair_set(n)
    }
    every = tuple(range(n))
    chain = ProbabilityTable(kind="sequential", time_indices=every, weights=_sequential_weights(proj, rho, every))
    quasi = {
        p: ProbabilityTable(kind="quasi", time_indices=p, weights=_quasi_weights(proj, rho, *p))
        for p in pair_set(n)
    }
    moments = MomentSet(
        averages=tuple(t.moment((0,)) for t in singles),
        correlators=tuple(pairs[p].moment((0, 1)) for p in pair_set(n)),
    )
    return TableSet(singles=singles, pairs=pairs, chain=chain, quasi=quasi, moments=moments)
