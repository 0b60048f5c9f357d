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
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InputFormatError, ValidationError
from .quantum import QuantumModel, expectation
from .tolerances import TOL

Outcome = tuple[int, ...]

#: value types a JSON number parses to; ``bool`` is deliberately absent
_JSON_NUMBERS = frozenset({int, float})

TABLE_KINDS = ("single", "sequential", "quasi", "joint")

#: signs of a dichotomic outcome, in serialization order (-1 before +1)
SIGNS = (-1, +1)


def outcomes(arity: int) -> list[Outcome]:
    """All outcome tuples in {-1,+1}^arity, lexicographic with -1 first."""
    return list(itertools.product(SIGNS, repeat=arity))


def outcome_key(outcome: Outcome) -> str:
    return "".join("+" if s > 0 else "-" for s in outcome)


def outcome_from_key(key: str) -> Outcome:
    if not key or any(ch not in "+-" for ch in key):
        raise ValidationError(f"outcome key must be a string of '+'/'-', got {key!r}")
    return tuple(+1 if ch == "+" else -1 for ch in key)


# ---------------------------------------------------------------------------
# tables


@dataclass(frozen=True)
class ProbabilityTable:
    """Map from outcome tuples in {-1,+1}^k to real weights.

    ``kind`` fixes the validation class: "single"/"sequential"/"joint"
    weights must be nonnegative (down to -1e-12 rounding slack), "quasi"
    weights may be negative but stay within [-1, 1] up to slack.  All kinds
    must sum to 1.
    """

    kind: str
    time_indices: tuple[int, ...]
    weights: Mapping[Outcome, float]

    def __post_init__(self) -> None:
        if self.kind not in TABLE_KINDS:
            raise ValidationError(f"table kind must be one of {TABLE_KINDS}, got {self.kind!r}")
        idx = tuple(int(i) for i in self.time_indices)
        if not (1 <= len(idx) <= 4):
            raise ValidationError(f"table arity must be 1-4, got {len(idx)}")
        expected = outcomes(len(idx))
        w = {tuple(k): float(v) for k, v in self.weights.items()}
        if sorted(w) != sorted(expected):
            raise ValidationError("table weights must cover exactly {-1,+1}^arity")
        total = sum(w.values())
        if abs(total - 1.0) > TOL.scalar:
            raise ValidationError(f"table weights must sum to 1, got {total!r}")
        if self.kind == "quasi":
            bad = [v for v in w.values() if not (-1 - TOL.structural <= v <= 1 + TOL.structural)]
            if bad:
                raise ValidationError(f"quasi weight out of [-1, 1]: {bad[0]!r}")
        else:
            neg = [v for v in w.values() if v < -TOL.scalar]
            if neg:
                raise ValidationError(f"{self.kind} table weight negative: {min(neg)!r}")
        object.__setattr__(self, "time_indices", idx)
        object.__setattr__(self, "weights", w)

    @property
    def arity(self) -> int:
        return len(self.time_indices)

    def weight(self, outcome: Outcome) -> float:
        return self.weights[tuple(outcome)]

    def moment(self, positions: Iterable[int]) -> float:
        """Expectation of the product of outcome signs at the given
        positions (positions index into the tuple, not into model times)."""
        pos = tuple(positions)
        return sum(w * float(np.prod([o[p] for p in pos])) for o, w in self.weights.items())

    def marginal(self, time_index: int) -> "ProbabilityTable":
        """Sum out the measurement at the given model time index."""
        if time_index not in self.time_indices:
            raise ValidationError(f"time index {time_index} not in table {self.time_indices}")
        pos = self.time_indices.index(time_index)
        kept = tuple(i for i in self.time_indices if i != time_index)
        acc: dict[Outcome, float] = {o: 0.0 for o in outcomes(len(kept))}
        for o, w in self.weights.items():
            acc[o[:pos] + o[pos + 1 :]] += w
        return ProbabilityTable(kind=self.kind, time_indices=kept, weights=acc)

    def to_jsonable(self) -> dict:
        return {
            "arity": self.arity,
            "times": [i + 1 for i in self.time_indices],
            "kind": self.kind,
            "weights": {outcome_key(o): self.weights[o] for o in outcomes(self.arity)},
        }

    @classmethod
    def from_jsonable(cls, obj: Mapping) -> "ProbabilityTable":
        weights = {outcome_from_key(k): v for k, v in obj["weights"].items()}
        return cls(
            kind=obj["kind"],
            time_indices=tuple(int(i) - 1 for i in obj["times"]),
            weights=weights,
        )


# ---------------------------------------------------------------------------
# moments


def pair_set(n_times: int) -> tuple[tuple[int, int], ...]:
    """Canonical measured pair set (0-based): {12,23,13} resp. {12,23,34,14}."""
    if n_times == 3:
        return ((0, 1), (1, 2), (0, 2))
    if n_times == 4:
        return ((0, 1), (1, 2), (2, 3), (0, 3))
    raise ValidationError(f"moment sets are defined for 3 or 4 times, got {n_times}")


@dataclass(frozen=True)
class MomentSet:
    """Averages <Q_i> and pair correlators C_ij, optional triple correlator.

    The pair set is fixed by the number of times (3 or 4); the triple
    correlator is the s1*s2*s3 coefficient and stays ``None`` for piecewise
    protocols, which never measure it.
    """

    averages: tuple[float, ...]
    correlators: tuple[float, ...]
    triple: float | None = None

    def __post_init__(self) -> None:
        avg = tuple(float(x) for x in self.averages)
        corr = tuple(float(x) for x in self.correlators)
        pairs = pair_set(len(avg))
        if len(corr) != len(pairs):
            raise ValidationError(
                f"need {len(pairs)} correlators for {len(avg)} times, got {len(corr)}"
            )
        for label, vals in (("average", avg), ("correlator", corr)):
            for x in vals:
                if not (-1 - TOL.scalar <= x <= 1 + TOL.scalar):
                    raise ValidationError(f"{label} out of [-1, 1]: {x!r}")
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
        n, avg, pairs, corr = obj["n"], obj["avg"], obj["pairs"], obj["corr"]
        triple = obj.get("D")
        if type(n) is not int:
            raise InputFormatError(f"moments: n must be an integer, got {n!r}")
        want = pair_set(n)
        if not (isinstance(avg, list) and _JSON_NUMBERS.issuperset(map(type, avg))):
            raise InputFormatError(f"moments: avg must be a list of numbers, got {avg!r}")
        if len(avg) != n:
            raise ValidationError(f"moments: expected {n} averages, got {len(avg)}")
        if not (isinstance(corr, list) and _JSON_NUMBERS.issuperset(map(type, corr))):
            raise InputFormatError(f"moments: corr must be a list of numbers, got {corr!r}")
        if not (isinstance(pairs, list) and len(pairs) == len(corr)):
            raise InputFormatError(f"moments: pairs must be a list as long as corr ({len(corr)})")
        if not (triple is None or type(triple) in _JSON_NUMBERS):
            raise InputFormatError(f"moments: D must be a number or null, got {triple!r}")
        given = {}
        for k, pair in enumerate(pairs):
            if not (isinstance(pair, list) and len(pair) == 2 and type(pair[0]) is type(pair[1]) is int):
                raise InputFormatError(f"moments: pairs[{k}] must be two time indices, got {pair!r}")
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
        return cls(
            averages=tuple(avg),
            correlators=tuple(given[p] for p in want),
            triple=triple,
        )


@dataclass(frozen=True)
class ContextualMoments:
    """Moments read off sequential runs, keyed by measurement context.

    ``base`` holds the no-earlier-measurement values (piecewise protocol).
    ``contextual`` maps (quantity, context) to the value observed when the
    measurements named in the context string were made earlier in the same
    run, e.g. ("Q3", "12") for the average at t3 after measuring at t1, t2.
    The triple correlator is keyed ("D", "123") since only a full sequential
    run determines it.
    """

    base: MomentSet
    contextual: Mapping[tuple[str, str], float]

    def __post_init__(self) -> None:
        ctx = {(str(q), str(c)): float(v) for (q, c), v in self.contextual.items()}
        for (q, c), v in ctx.items():
            if not (-1 - TOL.scalar <= v <= 1 + TOL.scalar):
                raise ValidationError(f"contextual value {q}^({c}) out of [-1, 1]: {v!r}")
        object.__setattr__(self, "contextual", ctx)

    def value(self, quantity: str, context: str) -> float:
        return self.contextual[(quantity, context)]

    def to_jsonable(self) -> dict:
        return {
            "base": self.base.to_jsonable(),
            "contextual": {f"{q}^({c})": v for (q, c), v in sorted(self.contextual.items())},
        }


# ---------------------------------------------------------------------------
# measurement operations


def single_time_prob(model: QuantumModel, i: int) -> ProbabilityTable:
    """p(s) = Tr(P_s(t_i) rho) = (1 + s <Q(t_i)>)/2."""
    model.check_time_index(i)
    weights = {
        (s,): expectation(model.rho, model.projector_at(i, s)) for s in SIGNS
    }
    return ProbabilityTable(kind="single", time_indices=(i,), weights=weights)


def sequential_prob(model: QuantumModel, subset: Sequence[int]) -> ProbabilityTable:
    """Chained projective measurements over the given time indices.

    State update per outcome is rho -> P rho P; the table weight is the
    trace of the final unnormalized state.
    """
    idx = tuple(int(i) for i in subset)
    if not idx:
        raise ValidationError("sequential_prob: subset must be nonempty")
    if any(j <= i for i, j in zip(idx, idx[1:])):
        raise ValidationError(f"sequential_prob: subset must be strictly increasing, got {idx}")
    for i in idx:
        model.check_time_index(i)

    weights: dict[Outcome, float] = {}
    # depth-first branch over outcomes, reusing the partial conditioned states
    stack: list[tuple[Outcome, np.ndarray]] = [((), model.rho)]
    while stack:
        prefix, state = stack.pop()
        depth = len(prefix)
        if depth == len(idx):
            tr = np.trace(state)
            weights[prefix] = float(tr.real)
            continue
        for s in SIGNS:
            p = model.projector_at(idx[depth], s)
            stack.append((prefix + (s,), p @ state @ p))
    return ProbabilityTable(kind="sequential", time_indices=idx, weights=weights)


def quasi_prob2(model: QuantumModel, i: int, j: int) -> ProbabilityTable:
    """Symmetrized two-time quasi-probability.

    q(s1, s2) = Re Tr( (P_{s2}(t_j) P_{s1}(t_i) + P_{s1}(t_i) P_{s2}(t_j)) rho ) / 2.
    Its marginals reproduce both single-time tables exactly, but entries may
    be negative.
    """
    if not i < j:
        raise ValidationError(f"quasi_prob2: need i < j, got ({i}, {j})")
    model.check_time_index(i)
    model.check_time_index(j)
    weights: dict[Outcome, float] = {}
    for s1 in SIGNS:
        p1 = model.projector_at(i, s1)
        for s2 in SIGNS:
            p2 = model.projector_at(j, s2)
            sym = p2 @ p1 + p1 @ p2
            weights[(s1, s2)] = 0.5 * expectation(model.rho, sym)
    return ProbabilityTable(kind="quasi", time_indices=(i, j), weights=weights)


def piecewise_moments(model: QuantumModel) -> MomentSet:
    """Averages and pair correlators, each from its own simulated experiment.

    Every average comes from a single-time run; every correlator C_ij from a
    two-time sequential run over {i, j} alone.  The sequential and quasi
    two-time formulas share the correlator, so one implementation serves
    both protocols.
    """
    n = model.n_times
    averages = tuple(single_time_prob(model, i).moment((0,)) for i in range(n))
    correlators = tuple(
        sequential_prob(model, pair).moment((0, 1)) for pair in pair_set(n)
    )
    return MomentSet(averages=averages, correlators=correlators)


def sequential_moments(model: QuantumModel) -> ContextualMoments:
    """Contextual averages/correlators from sequential three-time runs.

    Reads <Q2^(1)>, <Q3^(12)>, C23^(1), C13^(2) and the triple correlator
    from the full three-time run, <Q3^(1)> and <Q3^(2)> from the two-time
    runs, with piecewise values as the context-free base.
    """
    if model.n_times != 3:
        raise ValidationError(f"sequential_moments: need exactly 3 times, got {model.n_times}")
    chain = sequential_prob(model, (0, 1, 2))
    p13 = sequential_prob(model, (0, 2))
    p23 = sequential_prob(model, (1, 2))
    contextual = {
        ("Q2", "1"): chain.moment((1,)),
        ("Q3", "12"): chain.moment((2,)),
        ("C23", "1"): chain.moment((1, 2)),
        ("C13", "2"): chain.moment((0, 2)),
        ("D", "123"): chain.moment((0, 1, 2)),
        ("Q3", "1"): p13.moment((1,)),
        ("Q3", "2"): p23.moment((1,)),
    }
    return ContextualMoments(base=piecewise_moments(model), contextual=contextual)


def interference_term(model: QuantumModel, i: int, j: int) -> float:
    """The constant T with p(s1,s2) - q(s1,s2) = T*s2 on every outcome.

    Evaluated as the table residue; the operator form
    T = <[Q(t_i), Q(t_j)] Q(t_i)> / 8 = <Q_i Q_j Q_i - Q_j> / 8
    is recomputed as a cross-check and must agree to 1e-12.
    """
    if not i < j:
        raise ValidationError(f"interference_term: need i < j, got ({i}, {j})")
    p = sequential_prob(model, (i, j))
    q = quasi_prob2(model, i, j)
    residues = [
        (p.weight(o) - q.weight(o)) * o[1] for o in outcomes(2)
    ]
    value = sum(residues) / len(residues)
    spread = max(residues) - min(residues)
    if spread > TOL.scalar:
        raise ValidationError(
            f"interference residue not outcome-independent (spread {spread:.3e})"
        )
    qi = model.observable_at(i)
    qj = model.observable_at(j)
    operator_value = expectation(model.rho, qi @ qj @ qi - qj) / 8.0
    if abs(operator_value - value) > TOL.scalar:
        raise ValidationError(
            "interference term mismatch between table residue "
            f"({value!r}) and operator formula ({operator_value!r})"
        )
    return value


def witness(model: QuantumModel, i: int, j: int, s2: int = +1) -> float:
    """Coherence witness W = |sum_{s1} p(s1,s2) - p(s2)|.

    Computed both as the NSIT residual of the sequential pair table and as
    the commutator form |<[Q_i, Q_j] Q_i>| / 4; the two must agree to 1e-12
    and the value is independent of the chosen outcome s2.
    """
    if s2 not in SIGNS:
        raise ValidationError(f"witness: s2 must be +1 or -1, got {s2!r}")
    p = sequential_prob(model, (i, j))
    target = single_time_prob(model, j)
    residuals = {
        s: abs(sum(p.weight((s1, s)) for s1 in SIGNS) - target.weight((s,)))
        for s in SIGNS
    }
    if abs(residuals[+1] - residuals[-1]) > TOL.scalar:
        raise ValidationError(
            f"witness depends on s2: {residuals[+1]!r} vs {residuals[-1]!r}"
        )
    qi = model.observable_at(i)
    qj = model.observable_at(j)
    operator_value = abs(expectation(model.rho, qi @ qj @ qi - qj)) / 4.0
    if abs(operator_value - residuals[s2]) > TOL.scalar:
        raise ValidationError(
            "witness mismatch between NSIT residual "
            f"({residuals[s2]!r}) and commutator formula ({operator_value!r})"
        )
    return residuals[s2]


def pair_expansion_table(moments: MomentSet, pair: tuple[int, int]) -> ProbabilityTable:
    """Two-time table assembled from moments:
    p(s_i, s_j) = (1 + s_i <Q_i> + s_j <Q_j> + s_i s_j C_ij) / 4.

    This is the candidate probability of the piecewise protocol; entries go
    negative exactly when a two-time inequality fails, hence kind "quasi".
    """
    i, j = pair
    c = moments.corr(i, j)
    ai, aj = moments.averages[i], moments.averages[j]
    weights = {
        (s1, s2): (1.0 + s1 * ai + s2 * aj + s1 * s2 * c) / 4.0
        for s1, s2 in outcomes(2)
    }
    return ProbabilityTable(kind="quasi", time_indices=pair, weights=weights)


# ---------------------------------------------------------------------------
# bundled tables for one model


@dataclass(frozen=True)
class TableSet:
    """All measurement tables of one model, computed once and shared."""

    singles: tuple[ProbabilityTable, ...]
    pairs: Mapping[tuple[int, int], ProbabilityTable]
    chain: ProbabilityTable
    quasi: Mapping[tuple[int, int], ProbabilityTable]


def measure_all(model: QuantumModel) -> TableSet:
    n = model.n_times
    singles = tuple(single_time_prob(model, i) for i in range(n))
    pairs = {p: sequential_prob(model, p) for p in pair_set(n)}
    chain = sequential_prob(model, tuple(range(n)))
    quasi = {p: quasi_prob2(model, *p) for p in pair_set(n)}
    return TableSet(singles=singles, pairs=pairs, chain=chain, quasi=quasi)
