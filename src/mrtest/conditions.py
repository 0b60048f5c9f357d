"""Inequality and equality families with signed margins, and the three
macrorealism verdicts composed from them.

Every inequality is a row b + G x of the moments x = (averages,
correlators); ``ROWS`` stores each row once, with its check name, in one
column-major table, and ``_affine_values`` evaluates a block of them, on one
set or a grid, as one ``np.einsum`` that adds each row's terms left to right from
b.  ``_evaluation(m)``, made by
whichever family reads a set first and kept on it, holds the set's weak and Fine
rows and, from one reduction, its smallest weak margin and Fine bounds; every
family, here and in ``fine``, reads its rows through ``_rows`` and its row groups
through ``_minima``, so only this module knows where each lies.
A ``ConditionReport`` holds names, a value array of shape ``(k,) + batch``
and a per-row equality flag.  A ">=0" row passes when value >= -epsilon
(margin = value), an "=0" row when |value| <= epsilon (margin = -|value|):
when its margin is >= -epsilon.  Margins, pass flags and verdict are array
reductions, Python floats and bools for one moment set or arrays over a grid
of them from ``measure_all``; ``to_jsonable`` writes each row of one set from
the same arrays.  Modeling assumptions (piecewise non-invasiveness,
induction) are annotations on reports, never rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .measurement import PAIR_SETS, MomentSet, ProbabilityTable, TableSet, outcome_key, outcomes, pair_set
from .quantum import _rebuilt
from .tolerances import TOL

ASSUMPTION_NIM_PW = "NIM_pw: piecewise non-invasive measurability (modeling assumption)"
ASSUMPTION_IND = "Ind: future measurements cannot affect the present state (modeling assumption)"


@dataclass(frozen=True, eq=False, slots=True)
class ConditionReport:
    """Named rows: ``values``, a float array of shape ``(k,) + batch``, has one row per name, and the
    bool array ``equality`` flags the "=0" rows (the moment families share one all-">=0" ``_INEQUALITY``).
    A report with no "=0" row has its values as margins, and ``_margin``, one set's smallest margin
    that ``mr_weak`` copies from the set's record, gives its verdict (``replace`` and copies reset it).
    Reports keep the arrays they are given, and compare and hash by identity."""

    names: tuple[str, ...]
    values: np.ndarray
    equality: np.ndarray
    epsilon: float
    assumptions: tuple[str, ...] = ()
    _margin: float | None = field(default=None, init=False, repr=False, compare=False)

    __reduce__ = _rebuilt

    def _out(self, a: np.ndarray):
        """Python floats and bools for one moment set, arrays over a grid."""
        return a.tolist() if self.values.ndim == 1 else a

    def _margins(self) -> np.ndarray:
        if not self.equality.any():
            return self.values
        eq = self.equality.reshape((-1,) + (1,) * (self.values.ndim - 1))
        return np.where(eq, -np.abs(self.values), self.values)

    @property
    def verdict(self):
        """Whether the smallest margin is >= -epsilon; a NaN margin fails."""
        if self._margin is not None:
            return self._margin >= -float(self.epsilon)
        return self._out(self._margins().min(axis=0) >= -self.epsilon)

    @property
    def margins(self) -> dict[str, float]:
        return dict(zip(self.names, self._out(self._margins())))

    def to_jsonable(self) -> dict:
        """One moment set only: each row's name, value, kind, margin and pass flag."""
        if self.values.ndim != 1:
            raise ValidationError(f"to_jsonable: one moment set only, got a grid of shape {self.values.shape[1:]}")
        margins = self._margins()
        passed = (margins >= -self.epsilon).tolist()
        rows = zip(self.names, self.values.tolist(), self.equality.tolist(), margins.tolist(), passed)
        return {
            "epsilon": self.epsilon,
            "verdict": self.verdict,
            "assumptions": list(self.assumptions),
            "checks": [
                {"name": name, "value": value, "kind": "=0" if eq else ">=0", "margin": margin, "pass": ok}
                for name, value, eq, margin, ok in rows
            ],
        }


# ---------------------------------------------------------------------------
# the affine rows


class RowBlock(NamedTuple):
    """Rows b + G x + slope*z, one name per row, as ``a = [b | G]`` and ``slope``:
    x = (averages, correlators), and z is the free parameter they leave out (the
    triple correlator D at 3 times, the chord C13 at 4), on which only Fine's rows depend."""

    names: tuple[str, ...]
    a: np.ndarray
    slope: np.ndarray
    at: slice


def _row_table(n: int) -> dict:
    """``ROWS[n]``, every row written once into one coefficient array and one
    slope vector, each key a block of views into them at its slice ``at``."""
    pairs = pair_set(n)
    names, rows, slices = [], [], {}

    def add(key, blocks) -> None:
        # columns: b, the moments x, then z; a coefficient on z goes to slope
        start = len(names)
        for block_names, b, columns, coefficients in blocks:
            a = np.zeros((len(block_names), 2 + n + len(pairs)))
            a[:, 0] = b
            a[:, [1 + c for c in columns]] = coefficients
            names.extend(block_names)
            rows.append(a)
        slices[key] = slice(start, len(names))

    lg2 = [(s1, s2, s1 * s2) for s1, s2 in outcomes(2)]
    lg3 = [(1, 1, 1), (-1, -1, 1), (1, -1, -1), (-1, 1, -1)]
    for k, (i, j) in enumerate(pairs):
        add((i, j), [([f"LG2.{i + 1}{j + 1}.{outcome_key(s)}" for s in outcomes(2)], 1.0, [i, j, n + k], lg2)])
    if n == 3:
        add("LG3", [([f"LG3.{k}" for k in range(1, 5)], 1.0, [3, 4, 5], lg3)])
        # E(s) = 1 + sum s_i <Q_i> + sum s_i s_j C_ij, and p(s) = (E(s) + s1 s2 s3 D) / 8
        e = [(s1, s2, s3, s1 * s2, s2 * s3, s1 * s3, s1 * s2 * s3) for s1, s2, s3 in outcomes(3)]
        add("fine", [([f"E.{outcome_key(s)}" for s in outcomes(3)], 1.0, range(7), e)])
    else:
        lg4 = [[side * (-1 if idx == k else 1) for idx in range(4)] for k in range(4) for side in (1, -1)]
        add("LG4", [([f"LG4.{k}.{side}" for k in range(1, 5) for side in ("lo", "hi")], 2.0, [4, 5, 6, 7], lg4)])
        # z = C13: the chord's LG2 rows and the LG3 rows of the triangles (1,2,3),
        # on (C12, C23, C13), and (1,3,4), on (C13, C34, C14)
        add("fine", [
            ([f"LG2.13.{outcome_key(s)}" for s in outcomes(2)], 1.0, [0, 2, 8], lg2),
            ([f"LG3(123).{k}" for k in range(1, 5)], 1.0, [4, 5, 8], lg3),
            ([f"LG3(134).{k}" for k in range(1, 5)], 1.0, [8, 6, 7], lg3),
        ])
    slices["weak"], slices["weak+fine"] = slice(0, slices["fine"].start), slice(0, len(names))
    table = np.vstack(rows)
    a, slope = np.asfortranarray(table[:, :-1]), table[:, -1].copy()
    return {key: RowBlock(tuple(names[s]), a[s], slope[s], s) for key, s in slices.items()}


#: the rows at 3 and 4 times: each measured pair's LG2 block (keyed by the pair), "LG3" or
#: "LG4", "weak", the LG2 blocks then the family, as ``mr_weak`` reads them, "fine", the rows
#: ``fine.d_bounds`` reads (the expansion values E(s) at 3 times), and "weak+fine", the two in
#: turn; every block is a view of the "weak+fine" rows at its ``at``.  ``_GROUPS[n][key]``: the
#: rows in group order and each group's start, "fine" as slope +1 then -1, "weak+fine" as weak then those
ROWS, _GROUPS = {}, {}
for _n in PAIR_SETS:
    ROWS[_n] = _row_table(_n)
    _slope, _w = ROWS[_n]["fine"].slope, len(ROWS[_n]["weak"].names)
    _order = np.concatenate([np.flatnonzero(_slope > 0), np.flatnonzero(_slope < 0)])
    _starts = np.array([0, np.count_nonzero(_slope > 0)])
    _GROUPS[_n] = {"fine": (_order, _starts), "weak+fine": (np.r_[:_w, _w + _order], np.r_[0, _w + _starts])}

#: the one "=0" flag array of every report of ">=0" rows (read-only, sliced to length)
_INEQUALITY = np.zeros(max(len(t["weak+fine"].names) for t in ROWS.values()), bool)
_INEQUALITY.setflags(write=False)


def _affine_values(block: RowBlock, x) -> np.ndarray:
    """b + G x, shape ``(k,) + batch``, for the moment columns x (floats for one set;
    arrays of one shape, or one array, over a batch; or pairs, two sets side by side):
    one ``np.einsum`` of ``block.a.T`` with (1, x), no array of terms built.  Every
    coefficient on x is 0 or +-1 and b meets a column of ones, so every product is exact;
    ``order="F"`` keeps the column axis outermost in einsum's loop, so each row adds
    its terms strictly left to right from b, whatever the coefficients' layout (the
    default ``order="K"`` may reorder the sum).  The result owns its memory."""
    columns = np.array((x[0], *x))
    columns[0] = 1.0  # x's first column, copied for its shape, set to the ones of (1, x)
    return np.einsum("ij,i...->j...", block.a.T, columns, order="F")


def _minima(values: np.ndarray, n: int, key):
    """The smallest value in each row group ``_GROUPS[n][key]`` of ``values``, from one
    ``np.minimum.reduceat``: a tuple of Python floats for one set, a read-only array over a grid."""
    order, starts = _GROUPS[n][key]
    minima = np.minimum.reduceat(values[order], starts, axis=0)
    minima.setflags(write=False)
    return tuple(minima.tolist()) if minima.ndim == 1 else minima


def _evaluation(m: MomentSet) -> tuple[np.ndarray, tuple | np.ndarray]:
    """m's evaluation record: its "weak+fine" rows, shape ``(k,) + batch``, and their
    ``_minima``, the smallest weak margin, -lo and hi, both read-only and set on m in one
    go by its first reader (the set's own values are read-only too, so it cannot go stale)."""
    if (record := m._record) is None:
        rows = _affine_values(ROWS[m.n_times]["weak+fine"], m.averages + m.correlators)
        rows.setflags(write=False)
        record = rows, _minima(rows, m.n_times, "weak+fine")
        object.__setattr__(m, "_record", record)
    return record


def _rows(m: MomentSet, key) -> np.ndarray:
    """The rows ``ROWS[n][key]`` on m, shape ``(k,) + batch``: a slice of its record's rows."""
    return _evaluation(m)[0][ROWS[m.n_times][key].at]


def _report(m: MomentSet, key, epsilon: float, assumptions=()) -> ConditionReport:
    names = ROWS[m.n_times][key].names
    return ConditionReport(names, _rows(m, key), _INEQUALITY[: len(names)], epsilon, assumptions)


# ---------------------------------------------------------------------------
# inequality families


def lg2(m: MomentSet, pair: tuple[int, int], epsilon: float = TOL.verdict) -> ConditionReport:
    """Four two-time inequalities for one measured pair (i, j), i < j:
    1 + s_i <Q_i> + s_j <Q_j> + s_i s_j C_ij >= 0.  Each value, divided by
    4, is the moment expansion's candidate probability p(s_i, s_j)."""
    if tuple(pair) not in m.pairs:
        raise ValidationError(f"pair {tuple(pair)} not in measured pair set {m.pairs}")
    return _report(m, tuple(pair), epsilon)


def lg3(m: MomentSet, epsilon: float = TOL.verdict) -> ConditionReport:
    """The four three-time inequalities on C12, C23, C13."""
    if m.n_times != 3:
        raise ValidationError(f"lg3: need 3 times, got {m.n_times}")
    return _report(m, "LG3", epsilon)


def lg4(m: MomentSet, epsilon: float = TOL.verdict) -> ConditionReport:
    """The eight four-time bounds -2 <= +-C12 +- C23 +- C34 +- C14 <= 2, the
    k-th with its one minus sign on the k-th pair of {12, 23, 34, 14}, as
    the ">=0" rows LG4.k.lo = 2 + sum and LG4.k.hi = 2 - sum."""
    if m.n_times != 4:
        raise ValidationError(f"lg4: need 4 times, got {m.n_times}")
    return _report(m, "LG4", epsilon)


# ---------------------------------------------------------------------------
# no-signaling-in-time equalities


def _family(blocks, tail=(), assumptions=()) -> tuple:
    """An NSIT report's constants: its blocks, each (table a's time indices, table b's, name); its row names,
    ``<name>.<outcome>`` over each b's outcomes, then the ">=0" rows ``tail``; its "=0" flags; its assumptions."""
    names = tuple(f"{name}.{outcome_key(o)}" for _, b, name in blocks for o in outcomes(len(b))) + tail
    equality = np.arange(len(names)) < len(names) - len(tail)
    equality.setflags(write=False)
    return tuple(blocks), names, equality, assumptions


#: the reports of ``nsit_pairwise`` (keyed by the number of times), ``mr_int`` and ``mr_strong``
_FAMILIES = {n: _family([((i, j), (j,), f"NSIT({i + 1}){j + 1}") for i, j in pairs]) for n, pairs in PAIR_SETS.items()}
_FAMILIES["int"] = _family(_FAMILIES[3][0], ROWS[3]["LG3"].names, (ASSUMPTION_IND,))
_FAMILIES["strong"] = _family([((1, 2), (2,), "NSIT(2)3"), ((0, 1, 2), (1, 2), "NSIT(1)23"),
                               ((0, 1, 2), (0, 2), "NSIT1(2)3")], assumptions=(ASSUMPTION_IND,))


def _nsit_report(tables, family: tuple, epsilon: float, *tail: np.ndarray) -> ConditionReport:
    """``family``'s report on validated tables (a ``TableSet``, or a dict by time indices): per block, a's weights with
    the index not in b summed out minus b's, outcomes first, then grid axes; then the rows ``tail``; one concatenate."""
    if isinstance(tables, TableSet):
        tables = {t.time_indices: t for t in (*tables.singles, *tables.pairs.values(), tables.chain)}
    values = []
    for a, b, _ in family[0]:
        diff = tables[a]._summed_out(*set(a).difference(b)) - tables[b].weights
        g = diff.ndim - len(b)
        values.append(diff.transpose(*range(g, diff.ndim), *range(g)).reshape((2 ** len(b),) + diff.shape[:g]))
    return ConditionReport(family[1], np.concatenate([*values, *tail]), family[2], epsilon, family[3])


def nsit(table_a: ProbabilityTable, table_b: ProbabilityTable, marginalized: int, name: str = "NSIT",
         epsilon: float = TOL.verdict) -> ConditionReport:
    """Marginalizing ``marginalized`` out of table_a must reproduce table_b.

    Emits one "=0" check per outcome of the target table, named ``<name>.<outcome>``,
    once both tables' time indices are checked; the families below build theirs alike.
    """
    if marginalized not in table_a.time_indices:
        raise ValidationError(f"nsit: time index {marginalized} not measured in table {table_a.time_indices}")
    kept = tuple(i for i in table_a.time_indices if i != marginalized)
    if kept != tuple(table_b.time_indices):
        raise ValidationError(f"nsit: incompatible index sets {table_a.time_indices} minus "
                              f"{{{marginalized}}} vs {table_b.time_indices}")
    tables = {table_a.time_indices: table_a, kept: table_b}
    return _nsit_report(tables, _family([(table_a.time_indices, kept, name)]), epsilon)


def nsit_pairwise(tables: TableSet, epsilon: float = TOL.verdict) -> ConditionReport:
    """Two-time no-signaling equalities for every measured pair: marginalizing
    the earlier measurement of the pair must reproduce the later single-time
    table.  For three times these are NSIT_(1)2, NSIT_(1)3, NSIT_(2)3: one
    report, its rows as ``nsit`` names them."""
    return _nsit_report(tables, _FAMILIES[tables.n_times], epsilon)


# ---------------------------------------------------------------------------
# macrorealism composites


def mr_weak(m: MomentSet, epsilon: float = TOL.verdict) -> ConditionReport:
    """Weak macrorealism: every two-time inequality for the measured pairs
    plus the three-time (or four-time) family, under piecewise
    non-invasiveness and induction."""
    report = _report(m, "weak", epsilon, (ASSUMPTION_NIM_PW, ASSUMPTION_IND))
    if report.values.ndim == 1:
        object.__setattr__(report, "_margin", _evaluation(m)[1][0])
    return report


def mr_int(tables: TableSet, epsilon: float = TOL.verdict) -> ConditionReport:
    """Intermediate macrorealism: the three pairwise no-signaling equalities
    on sequential two-time runs plus the three-time inequalities on the
    piecewise moments, as one report: ``nsit_pairwise``'s rows, then LG3's."""
    if tables.n_times != 3:
        raise ValidationError(f"mr_int: need 3 times, got {tables.n_times}")
    return _nsit_report(tables, _FAMILIES["int"], epsilon, _rows(tables.moments, "LG3"))


def mr_strong(tables: TableSet, epsilon: float = TOL.verdict) -> ConditionReport:
    """Strong macrorealism: the full sequential no-signaling set.

    Marginalizing t2 out of the (2,3) run must give the t3 single-time
    table, and marginalizing t1 (resp. t2) out of the three-time run must
    give the (2,3) (resp. (1,3)) run.  When all pass, the three-time
    sequential table coincides with the context-free moment expansion.
    One report of the three ``nsit`` row blocks NSIT(2)3, NSIT(1)23 and
    NSIT1(2)3, in that order.
    """
    if tables.n_times != 3:
        raise ValidationError(f"mr_strong: need 3 times, got {tables.n_times}")
    return _nsit_report(tables, _FAMILIES["strong"], epsilon)
