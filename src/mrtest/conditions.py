"""Inequality and equality families with signed margins, and the three
macrorealism verdicts composed from them.

Margin semantics are uniform: every check is either ">=0" shaped (pass when
value >= -epsilon, margin = value) or "=0" shaped (pass when |value| <=
epsilon, margin = -|value|).  Modeling assumptions that are postulated
rather than measured (piecewise non-invasiveness, induction) are carried on
reports as annotations, never as checks.

Each family serves one moment set (Python floats and bools) or a grid of
them from ``measure_all`` over a grid of times, where each check's value,
margin and pass flag and each report's verdict are arrays over the grid.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce

from .errors import ValidationError
from .measurement import MomentSet, ProbabilityTable, TableSet, outcome_key, outcomes, pair_set
from .tolerances import TOL

KIND_GE = ">=0"
KIND_EQ = "=0"

ASSUMPTION_NIM_PW = "NIM_pw: piecewise non-invasive measurability (modeling assumption)"
ASSUMPTION_IND = "Ind: future measurements cannot affect the present state (modeling assumption)"


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    kind: str
    margin: float
    passed: bool

    @classmethod
    def ge(cls, name: str, value: float, epsilon: float) -> "Check":
        return cls(name=name, value=value, kind=KIND_GE, margin=value, passed=value >= -epsilon)

    @classmethod
    def eq(cls, name: str, value: float, epsilon: float) -> "Check":
        return cls(
            name=name, value=value, kind=KIND_EQ, margin=-abs(value), passed=abs(value) <= epsilon
        )

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "kind": self.kind,
            "margin": self.margin,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class ConditionReport:
    checks: tuple[Check, ...]
    epsilon: float
    assumptions: tuple[str, ...] = ()

    @property
    def verdict(self) -> bool:
        return reduce(operator.and_, (c.passed for c in self.checks), True)

    @property
    def margins(self) -> dict[str, float]:
        return {c.name: c.margin for c in self.checks}

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def merged_with(self, *others: "ConditionReport") -> "ConditionReport":
        checks = self.checks
        assumptions = list(self.assumptions)
        for other in others:
            if other.epsilon != self.epsilon:
                raise ValidationError("cannot merge reports with different epsilons")
            checks = checks + other.checks
            for a in other.assumptions:
                if a not in assumptions:
                    assumptions.append(a)
        return ConditionReport(checks=checks, epsilon=self.epsilon, assumptions=tuple(assumptions))

    def to_jsonable(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "verdict": self.verdict,
            "assumptions": list(self.assumptions),
            "checks": [c.to_jsonable() for c in self.checks],
        }


# ---------------------------------------------------------------------------
# inequality families


def lg2(m: MomentSet, pair: tuple[int, int], epsilon: float = TOL.verdict) -> ConditionReport:
    """Four two-time inequalities for one measured pair:
    1 + s_i <Q_i> + s_j <Q_j> + s_i s_j C_ij >= 0.

    Each margin, divided by 4, is the candidate two-time probability of the
    moment expansion for that outcome.
    """
    i, j = pair
    c = m.corr(i, j)
    ai, aj = m.averages[i], m.averages[j]
    checks = tuple(
        Check.ge(
            f"LG2.{i + 1}{j + 1}.{outcome_key((s1, s2))}",
            1.0 + s1 * ai + s2 * aj + s1 * s2 * c,
            epsilon,
        )
        for s1, s2 in outcomes(2)
    )
    return ConditionReport(checks=checks, epsilon=epsilon)


def lg3(m: MomentSet, epsilon: float = TOL.verdict) -> ConditionReport:
    """The four three-time inequalities on C12, C23, C13."""
    if m.n_times != 3:
        raise ValidationError(f"lg3: need 3 times, got {m.n_times}")
    c12, c23, c13 = (m.corr(0, 1), m.corr(1, 2), m.corr(0, 2))
    values = (
        1.0 + c12 + c23 + c13,
        1.0 - c12 - c23 + c13,
        1.0 + c12 - c23 - c13,
        1.0 - c12 + c23 - c13,
    )
    checks = tuple(
        Check.ge(f"LG3.{k}", v, epsilon) for k, v in enumerate(values, start=1)
    )
    return ConditionReport(checks=checks, epsilon=epsilon)


def lg4(m: MomentSet, epsilon: float = TOL.verdict) -> ConditionReport:
    """The eight four-time bounds -2 <= +-C12 +- C23 +- C34 +- C14 <= 2 with
    exactly one minus sign.

    The k-th signed sum puts the minus on the k-th pair of {12, 23, 34, 14};
    each two-sided bound is reported as two one-sided checks so that every
    check keeps ">=0" margin semantics.
    """
    if m.n_times != 4:
        raise ValidationError(f"lg4: need 4 times, got {m.n_times}")
    cs = [m.corr(*p) for p in m.pairs]
    checks = []
    for k in range(4):
        signed = sum(-c if idx == k else c for idx, c in enumerate(cs))
        checks.append(Check.ge(f"LG4.{k + 1}.lo", signed + 2.0, epsilon))
        checks.append(Check.ge(f"LG4.{k + 1}.hi", 2.0 - signed, epsilon))
    return ConditionReport(checks=tuple(checks), epsilon=epsilon)


# ---------------------------------------------------------------------------
# no-signaling-in-time equalities


def nsit(
    table_a: ProbabilityTable,
    table_b: ProbabilityTable,
    marginalized: int,
    name: str = "NSIT",
    epsilon: float = TOL.verdict,
) -> ConditionReport:
    """Marginalizing ``marginalized`` out of table_a must reproduce table_b.

    Emits one "=0" check per outcome of the target table, named
    ``<name>.<outcome>``.
    """
    if marginalized not in table_a.time_indices:
        raise ValidationError(
            f"nsit: time index {marginalized} not measured in table {table_a.time_indices}"
        )
    kept = tuple(i for i in table_a.time_indices if i != marginalized)
    if kept != tuple(table_b.time_indices):
        raise ValidationError(
            f"nsit: incompatible index sets {table_a.time_indices} minus "
            f"{{{marginalized}}} vs {table_b.time_indices}"
        )
    marg = table_a.marginal(marginalized)
    checks = tuple(
        Check.eq(f"{name}.{outcome_key(o)}", marg.weight(o) - table_b.weight(o), epsilon)
        for o in outcomes(len(kept))
    )
    return ConditionReport(checks=checks, epsilon=epsilon)


def nsit_pairwise(tables: TableSet, epsilon: float = TOL.verdict) -> ConditionReport:
    """Two-time no-signaling checks for every measured pair: marginalizing
    the earlier measurement of the pair must reproduce the later single-time
    table.  For three times these are NSIT_(1)2, NSIT_(1)3, NSIT_(2)3."""
    reports = [
        nsit(tables.pairs[(i, j)], tables.singles[j], i, name=f"NSIT({i + 1}){j + 1}", epsilon=epsilon)
        for i, j in pair_set(tables.n_times)
    ]
    return reports[0].merged_with(*reports[1:])


# ---------------------------------------------------------------------------
# macrorealism composites


def mr_weak(m: MomentSet, epsilon: float = TOL.verdict) -> ConditionReport:
    """Weak macrorealism: every two-time inequality for the measured pairs
    plus the three-time (or four-time) family, under piecewise
    non-invasiveness and induction."""
    reports = [lg2(m, pair, epsilon) for pair in m.pairs]
    reports.append(lg3(m, epsilon) if m.n_times == 3 else lg4(m, epsilon))
    merged = reports[0].merged_with(*reports[1:])
    return ConditionReport(
        checks=merged.checks,
        epsilon=epsilon,
        assumptions=(ASSUMPTION_NIM_PW, ASSUMPTION_IND),
    )


def mr_int(tables: TableSet, epsilon: float = TOL.verdict) -> ConditionReport:
    """Intermediate macrorealism: the three pairwise no-signaling equalities
    on sequential two-time runs plus the three-time inequalities on the
    piecewise moments."""
    if tables.n_times != 3:
        raise ValidationError(f"mr_int: need 3 times, got {tables.n_times}")
    merged = nsit_pairwise(tables, epsilon).merged_with(lg3(tables.moments, epsilon))
    return ConditionReport(checks=merged.checks, epsilon=epsilon, assumptions=(ASSUMPTION_IND,))


def mr_strong(tables: TableSet, epsilon: float = TOL.verdict) -> ConditionReport:
    """Strong macrorealism: the full sequential no-signaling set.

    Marginalizing t2 out of the (2,3) run must give the t3 single-time
    table, and marginalizing t1 (resp. t2) out of the three-time run must
    give the (2,3) (resp. (1,3)) run.  When all pass, the three-time
    sequential table coincides with the context-free moment expansion.
    """
    if tables.n_times != 3:
        raise ValidationError(f"mr_strong: need 3 times, got {tables.n_times}")
    chain, p23, p13 = tables.chain, tables.pairs[(1, 2)], tables.pairs[(0, 2)]
    merged = nsit(p23, tables.singles[2], 1, name="NSIT(2)3", epsilon=epsilon).merged_with(
        nsit(chain, p23, 0, name="NSIT(1)23", epsilon=epsilon),
        nsit(chain, p13, 1, name="NSIT1(2)3", epsilon=epsilon),
    )
    return ConditionReport(checks=merged.checks, epsilon=epsilon, assumptions=(ASSUMPTION_IND,))
