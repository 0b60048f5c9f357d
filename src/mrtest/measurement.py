"""Probability tables and moment sets under three measurement regimes.

Three ways of extracting two-time statistics from a model:

* piecewise single-time runs        -> averages <Q_i>, one experiment each;
* sequential projective runs        -> chained state-update tables, one per
                                       time subset, generally signaling;
* the symmetrized quasi-probability -> matches both single-time marginals
                                       exactly but may go negative.

The gap between the sequential and quasi tables is the interference term;
its absolute NSIT residual is the coherence witness.

``measure_all`` builds every table from two shared stacks, P rho (one BLAS
call) and P rho P: each sequential run starts from P rho P and ends in the
trace pairing Tr(P state), and each quasi table is Re Tr(P_j P_i rho), the
symmetrized form: a validated model's Tr(P_i P_j rho) is its conjugate.  Stack
products and pairings go through ``quantum._product`` and ``quantum._pairing``:
for a qubit or qutrit, broadcast multiply-adds over stacks whose grid axis is
innermost in memory, a layout the tables keep; BLAS and ``np.einsum`` from d = 4.
``PAIR_SETS`` is the one table of the supported time counts and their pairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .errors import InputFormatError, ValidationError
from .quantum import QuantumModel, _frozen, _pairing, _product, _rebuilt, _times_matrix, expectation
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


def _json_numbers(value, where: str) -> tuple[float, ...]:
    """A JSON list of numbers as a tuple of floats: a list of JSON floats as it
    is, else each entry read by ``_json_number`` under its name ``where[k]``."""
    if not isinstance(value, list):
        raise InputFormatError(f"{where} must be a list of numbers, got {_echo(value)}")
    if set(map(type, value)) <= {float}:
        return tuple(value)
    return tuple(_json_number(x, f"{where}[{k}]") for k, x in enumerate(value))


TABLE_KINDS = ("single", "sequential", "quasi", "joint")

#: signs of a dichotomic outcome, in serialization order (-1 before +1)
SIGNS = (-1, +1)

#: the supported numbers of times, each with its canonical measured pair set (0-based)
PAIR_SETS = {3: ((0, 1), (1, 2), (0, 2)), 4: ((0, 1), (1, 2), (2, 3), (0, 3))}


def outcomes(arity: int) -> list[Outcome]:
    """All outcome tuples in {-1,+1}^arity, lexicographic with -1 first."""
    return list(itertools.product(SIGNS, repeat=arity))


def outcome_key(outcome: Outcome) -> str:
    return "".join("+" if s > 0 else "-" for s in outcome)


# ---------------------------------------------------------------------------
# tables


@dataclass(frozen=True, eq=False, slots=True)
class ProbabilityTable:
    """Real weights on the outcomes {-1,+1}^k as a float array of shape
    ``batch + (2,)*k``, index 0 for s = -1: one table per grid point of
    ``batch``, which is empty for a single table.  ``kind`` fixes the
    validation class: "single"/"sequential"/"joint" weights must be
    nonnegative (down to -1e-12 rounding slack), "quasi" weights may be
    negative but stay within [-1, 1] up to slack.  Every table must sum to 1,
    over distinct time indices.  The weights are a read-only copy of the caller's;
    tables compare and hash by identity."""

    kind: str
    time_indices: tuple[int, ...]
    weights: np.ndarray

    __reduce__ = _rebuilt

    def __post_init__(self) -> None:
        if self.kind not in TABLE_KINDS:
            raise ValidationError(f"table kind must be one of {TABLE_KINDS}, got {self.kind!r}")
        idx = tuple(map(int, self.time_indices))
        k = len(idx)
        if not (1 <= k <= 4):
            raise ValidationError(f"table arity must be 1-4, got {k}")
        if len(set(idx)) != k:
            raise ValidationError(f"table time_indices must be distinct, got {idx}")
        w = _frozen(self.weights, name="table weights")
        if w.shape[w.ndim - k :] != (2,) * k:
            raise ValidationError("table weights must cover exactly {-1,+1}^arity")
        # the outcome axes summed as slice adds, not as numpy reductions over length-2 axes
        total = w
        for _ in range(k):
            total = total[..., 0] + total[..., 1]
        if not (ok := np.abs(total - 1.0) <= TOL.scalar).all():
            raise ValidationError(f"table weights must sum to 1, got {float(total[~ok].flat[0])!r}")
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

    def moment(self, positions: Iterable[int]):
        """Expectation of the product of outcome signs at the given
        positions (in 0..arity-1: they index into the tuple, not into model
        times): a float, or an array over the grid."""
        pos, k = set(positions), self.arity
        if bad := pos.difference(range(k)):
            raise ValidationError(f"moment: position {min(bad)!r} outside 0..{k - 1} for a table of arity {k}")
        w = self.weights
        for p in reversed(range(k)):
            w = w[..., 1] - w[..., 0] if p in pos else w[..., 0] + w[..., 1]
        return w if w.ndim else float(w)

    def marginal(self, time_index: int) -> "ProbabilityTable":
        """Sum out the measurement at the given model time index, as a new validated table."""
        if time_index not in self.time_indices:
            raise ValidationError(f"time index {time_index} not in table {self.time_indices}")
        kept = tuple(i for i in self.time_indices if i != time_index)
        return ProbabilityTable(kind=self.kind, time_indices=kept, weights=self._summed_out(time_index))

    def _summed_out(self, time_index: int) -> np.ndarray:
        """The weights with ``time_index`` summed out, one slice add, unvalidated: each caller compares them."""
        rest = (slice(None),) * (self.arity - 1 - self.time_indices.index(time_index))
        return self.weights[(..., 0, *rest)] + self.weights[(..., 1, *rest)]

    def to_jsonable(self) -> dict:
        if grid := self.weights.shape[: -self.arity]:
            raise ValidationError(f"to_jsonable: one table only, got a grid of shape {grid}")
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
    try:
        return PAIR_SETS[n_times]
    except (KeyError, TypeError):
        raise ValidationError(f"moment sets are defined for 3 or 4 times, got {_echo(n_times)}") from None


_UNIT = 1 + TOL.scalar

#: the canonical pair set as a moments file writes it (1-based)
_JSON_PAIRS = {n: [[i + 1, j + 1] for i, j in pairs] for n, pairs in PAIR_SETS.items()}


def _unit_values(values: tuple, n_averages: int) -> tuple:
    """The averages then the correlators as Python floats, or as read-only
    float arrays (copies) over a grid if any value is an array, each checked
    to lie in [-1, 1] up to TOL.scalar."""
    name = "averages and correlators"
    if any(isinstance(x, np.ndarray) for x in values):
        values = tuple(_frozen(x, name=name) for x in values)
        outside = [(k, x[~(np.abs(x) <= _UNIT)]) for k, x in enumerate(values)]
        bad = [(k, float(b[0])) for k, b in outside if b.size]
    else:
        values = tuple(_frozen(values, name=name).tolist())
        bad = [(k, x) for k, x in enumerate(values) if not -_UNIT <= x <= _UNIT]
    if bad:
        k, x = bad[0]
        raise ValidationError(f"{'average' if k < n_averages else 'correlator'} out of [-1, 1]: {x!r}")
    return values


@dataclass(frozen=True, slots=True)
class MomentSet:
    """Averages <Q_i> and pair correlators C_ij, as the piecewise protocol measures them.

    The pair set is fixed by the number of times (3 or 4).  The triple
    correlator is never measured: it is the free parameter of Fine's
    theorem, so a moments file gives ``D`` as null or not at all.  The
    averages and correlators are stored as tuples of Python floats, or of
    read-only float arrays (copies of the caller's) over a grid when the set
    comes from ``measure_all`` with a grid of times.  Sets are equal when their
    values have equal shapes and are equal (one bool, for a grid set too, which is
    not hashable).  ``_record``, the set's weak and Fine rows and their minima, is
    ``conditions._evaluation``'s to set.
    """

    averages: tuple[float, ...]
    correlators: tuple[float, ...]
    _record: tuple | None = field(default=None, init=False, repr=False, compare=False)

    __reduce__ = _rebuilt

    def __post_init__(self) -> None:
        n = len(self.averages)
        given = values = (*self.averages, *self.correlators)
        # one pass for the common case, one set of Python floats in range, kept as given
        if [x for x in values if type(x) is not float or not -_UNIT <= x <= _UNIT]:
            values = _unit_values(values, n)
        pairs = pair_set(n)
        if len(values) - n != len(pairs):
            raise ValidationError(f"need {len(pairs)} correlators for {n} times, got {len(values) - n}")
        if values is not given or not type(self.averages) is type(self.correlators) is tuple:
            if isinstance(values[0], np.ndarray) and len(shapes := sorted({x.shape for x in values})) > 1:
                raise ValidationError(
                    f"averages and correlators must share one shape, got {', '.join(map(str, shapes))}"
                )
            object.__setattr__(self, "averages", values[:n])
            object.__setattr__(self, "correlators", values[n:])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = (*self.averages, *self.correlators), (*other.averages, *other.correlators)
        return len(mine) == len(theirs) and all(map(np.array_equal, mine, theirs))

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
        if isinstance(self.averages[0], np.ndarray):
            raise ValidationError(f"to_jsonable: one moment set only, got a grid of shape {self.averages[0].shape}")
        return {
            "n": self.n_times,
            "avg": list(self.averages),
            "pairs": [[i + 1, j + 1] for i, j in self.pairs],
            "corr": list(self.correlators),
            "D": None,
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
        if type(n) is not int or n not in PAIR_SETS:
            raise InputFormatError(f"moments: n must be 3 or 4, got {_echo(n)}")
        avg = _json_numbers(avg, "moments: avg")
        if len(avg) != n:
            raise ValidationError(f"moments: expected {n} averages, got {len(avg)}")
        corr = _json_numbers(corr, "moments: corr")
        if not (isinstance(pairs, list) and len(pairs) == len(corr)):
            raise InputFormatError(f"moments: pairs must be a list as long as corr ({len(corr)})")
        if (d := obj.get("D")) is not None:
            raise InputFormatError(f"moments: D must be null (the triple correlator is never measured), got {_echo(d)}")
        # pairs in the canonical order, as integers, give the correlators in that order already
        if pairs == _JSON_PAIRS[n] and {type(i) for pair in pairs for i in pair} == {int}:
            return cls(averages=avg, correlators=corr)
        given = {}
        for k, pair in enumerate(pairs):
            if not (isinstance(pair, list) and len(pair) == 2 and all(type(i) is int and 1 <= i <= n for i in pair)):
                raise InputFormatError(f"moments: pairs[{k}] must be two time indices in 1..{n}, got {_echo(pair)}")
            i, j = pair[0] - 1, pair[1] - 1
            key = (i, j) if i < j else (j, i)
            if key in given:
                raise InputFormatError(f"moments: pairs[{k}] repeats C{key[0] + 1}{key[1] + 1}")
            given[key] = corr[k]
        want = PAIR_SETS[n]
        for problem, keys in (("missing correlators for pairs", [p for p in want if p not in given]),
                              ("unexpected pairs", [p for p in given if p not in want])):
            if keys:
                raise ValidationError(f"moments: {problem}: " + ", ".join(f"C{i + 1}{j + 1}" for i, j in keys))
        return cls(averages=avg, correlators=tuple(given[p] for p in want))


# ---------------------------------------------------------------------------
# measurement operations


def _sequential_weights(proj: np.ndarray, prp: np.ndarray, idx: tuple[int, ...]) -> np.ndarray:
    """Weights of chained projective measurements at the time indices idx,
    for projector pairs ``proj`` of shape ``batch + (n, 2, d, d)`` and the
    matching stack ``prp`` of first-run states P rho P: the state update per
    outcome is rho -> P rho P, one outcome axis per measurement, and the last
    projector enters as the trace pairing Tr(P state P) = Tr(P state)."""
    state = prp[..., idx[0], :, :, :]
    for depth, i in enumerate(idx[1:], 1):
        p = proj[..., i, :, :, :]
        p = p.reshape(p.shape[:-3] + (1,) * depth + p.shape[-3:])
        if depth == len(idx) - 1:
            return _pairing(p, state[..., None, :, :]).real
        state = _product(_product(p, state[..., None, :, :]), p)


def _quasi_weights(proj: np.ndarray, p_rho: np.ndarray, i: int, j: int) -> np.ndarray:
    """Symmetrized quasi-probability of the time indices i < j, from the stack
    ``p_rho`` of P rho: q(s1, s2) = Re Tr((P_{s2}(t_j) P_{s1}(t_i) + P_{s1}(t_i) P_{s2}(t_j)) rho) / 2
    = Re Tr(P_{s2}(t_j) P_{s1}(t_i) rho), since for Hermitian P and rho the two traces are complex
    conjugates.  Its marginals are the single-time tables, but entries may be negative."""
    return _pairing(proj[..., j, None, :, :, :], p_rho[..., i, :, None, :, :]).real


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
    k = SIGNS.index(s2)
    w = np.abs(pair.weights[..., 0, k] + pair.weights[..., 1, k] - single.weights[..., k])
    return w if w.ndim else float(w)


# ---------------------------------------------------------------------------
# bundled tables for one model


@dataclass(frozen=True, eq=False, slots=True)
class TableSet:
    """All measurement tables of one model, computed once and shared, and
    ``moments``, the piecewise averages and pair correlators derived from them
    on construction: every average from a single-time run, every correlator
    C_ij from the two-time sequential run over {i, j} alone.  The maps are
    read-only copies, so the moments cannot go stale; compared and hashed by identity."""

    singles: tuple[ProbabilityTable, ...]
    pairs: Mapping[tuple[int, int], ProbabilityTable]
    chain: ProbabilityTable
    quasi: Mapping[tuple[int, int], ProbabilityTable]
    moments: MomentSet = field(init=False, repr=False)

    __reduce__ = _rebuilt

    def __post_init__(self) -> None:
        for name in ("pairs", "quasi"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        object.__setattr__(self, "moments", MomentSet(
            averages=tuple(t.moment((0,)) for t in self.singles),
            correlators=tuple(self.pairs[p].moment((0, 1)) for p in pair_set(self.n_times)),
        ))

    @property
    def n_times(self) -> int:
        return len(self.singles)


def measure_all(model: QuantumModel, times=None) -> TableSet:
    """Every table of a 3- or 4-time model: single-time, sequential pair,
    full sequential chain and quasi-probability; the piecewise moments
    derive from them (``TableSet.moments``).

    ``times`` (shape ``batch + (n,)``) replaces the model's own times with a
    grid of evolution times; every table and moment then carries the grid
    axes ``batch``.  The times are used as given (see
    ``QuantumModel.spectral``), so a caller passing a grid validates it first.
    """
    n = model.n_times
    if n not in PAIR_SETS:
        raise ValidationError(f"measure_all: tables need a model with 3 or 4 times, got {n}: {model.times}")
    return _tables(model.spectral(times)[2], model.rho)


def _tables(proj: np.ndarray, rho: np.ndarray) -> TableSet:
    """The tables of ``measure_all`` from projector pairs, shape ``batch + (n, 2, d, d)``,
    and one state, or one per leading index of ``batch`` (models of one dimension)."""
    n = proj.shape[-4]
    p_rho = _times_matrix(proj, rho)
    prp = _product(p_rho, proj)
    single = expectation(rho, proj)
    singles = tuple(
        ProbabilityTable(kind="single", time_indices=(i,), weights=single[..., i, :]) for i in range(n)
    )
    pairs = {
        p: ProbabilityTable(kind="sequential", time_indices=p, weights=_sequential_weights(proj, prp, p))
        for p in pair_set(n)
    }
    every = tuple(range(n))
    chain = ProbabilityTable(kind="sequential", time_indices=every, weights=_sequential_weights(proj, prp, every))
    quasi = {
        p: ProbabilityTable(kind="quasi", time_indices=p, weights=_quasi_weights(proj, p_rho, *p))
        for p in pair_set(n)
    }
    return TableSet(singles=singles, pairs=pairs, chain=chain, quasi=quasi)
