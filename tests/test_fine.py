import itertools
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from mrtest import conditions, fine
from mrtest.conditions import ROWS, _affine_values, _minima, lg2, lg3, lg4, mr_weak
from mrtest.errors import ValidationError
from mrtest.fine import (
    FeasibilityResult,
    d_bounds,
    d_interval,
    lp_feasibility,
    triple_expansion_table,
)
from mrtest.harness import sample_model
from mrtest.measurement import MomentSet, measure_all, outcomes, pair_set
from mrtest.tolerances import TOL

from conftest import (
    column_sums,
    exact_row_values,
    exact_rows,
    glued_weights,
    lp_oracle,
    moment_rows,
    precession_model,
    scan_oracle,
    triangle_fine_rows,
    weight,
)

unit = st.floats(-1.0, 1.0, allow_nan=False)


def moment_set3(values) -> MomentSet:
    return MomentSet(averages=tuple(values[:3]), correlators=tuple(values[3:6]))


def lg_margins(m: MomentSet) -> list[float]:
    out = [x for pair in m.pairs for x in lg2(m, pair).margins.values()]
    out += list(lg3(m).margins.values())
    return out


def lg_margins4(m: MomentSet) -> tuple[list[float], list[float]]:
    """The LG2 margins of the measured pairs and the LG4 margins."""
    return [x for pair in m.pairs for x in lg2(m, pair).margins.values()], list(lg4(m).margins.values())


def table_moments(result: FeasibilityResult, m: MomentSet):
    t = result.witness_table
    avg = [t.moment((i,)) for i in range(m.n_times)]
    corr = [t.moment(p) for p in m.pairs]
    return avg, corr


def stacked(sets: list[MomentSet]) -> MomentSet:
    """The moment sets as one grid: each average and correlator an array."""
    return MomentSet(
        averages=tuple(np.array(a) for a in zip(*(m.averages for m in sets))),
        correlators=tuple(np.array(c) for c in zip(*(m.correlators for m in sets))),
    )


def point(grid: MomentSet, g: int) -> MomentSet:
    """Point g of a grid of moment sets, as one set of Python floats."""
    return MomentSet(
        averages=tuple(a[g].item() for a in grid.averages),
        correlators=tuple(c[g].item() for c in grid.correlators),
    )


def assert_grid_equals_sets(grid: MomentSet, epsilon: float) -> list[bool]:
    """``d_interval`` and ``d_bounds`` on the grid against each set alone:
    flags, bounds and margins bit-equal, each set's a Python bool and Python
    floats, and a witness only when every set is feasible, its weights then
    bit-equal to each set's table.  Returns the flags."""
    r = d_interval(grid, epsilon)
    points = [point(grid, g) for g in range(len(grid.averages[0]))]
    sets = [d_interval(m, epsilon) for m in points]
    assert r.n_times == grid.n_times and r.epsilon == epsilon
    assert r.feasible.tolist() == [s.feasible for s in sets]
    assert all(type(s.feasible) is bool and {type(s.margin), *map(type, s.d_interval)} == {float} for s in sets)
    for got, want in zip((*r.d_interval, r.margin), zip(*((*s.d_interval, s.margin) for s in sets))):
        assert got.tobytes() == np.array(want).tobytes()
    bounds = [d_bounds(m) for m in points]
    assert all({type(lo), type(hi)} == {float} for lo, hi in bounds)
    for got, want in zip(d_bounds(grid), zip(*bounds)):
        assert got.tobytes() == np.array(want).tobytes()
    if all(s.feasible for s in sets):
        assert r.witness_table.weights.tobytes() == np.stack([s.witness_table.weights for s in sets]).tobytes()
    else:
        assert r.witness_table is None
    return [s.feasible for s in sets]


def near_weak_boundary3(values, target: float) -> MomentSet | None:
    """The three-time set of ``values`` shrunk so that its smallest LG2/LG3
    margin is ``target``, or None when no shrinking does that inside [-1, 1]."""
    # every margin is 1 plus a linear form in the moments, so shrinking
    # the moments by lam moves the smallest margin M to 1 + lam*(M - 1)
    smallest = min(lg_margins(moment_set3(values)))
    if smallest >= 1.0:
        return None
    lam = (1.0 - target) / (1.0 - smallest)
    scaled = [lam * v for v in values]
    return moment_set3(scaled) if all(abs(v) <= 1.0 for v in scaled) else None


def near_weak_boundary4(values, target: float) -> MomentSet | None:
    """The four-time set of ``values`` scaled so that its smallest LG2/LG4
    margin is ``target``, or None when that needs a factor above 10 or
    leaves [-1, 1]."""
    # scaling the moments by lam moves an LG2 margin M to 1 + lam*(M - 1)
    # and an LG4 margin M to 2 + lam*(M - 2); the first to reach the
    # target as lam grows fixes lam.  Large lam amplifies the rounding
    # of M - 1, so nearly zero moment sets are skipped.
    lg2s, lg4s = lg_margins4(MomentSet(averages=tuple(values[:4]), correlators=tuple(values[4:])))
    lams = [(c - target) / (c - v) for c, vs in ((1.0, lg2s), (2.0, lg4s)) for v in vs if v < c]
    if not lams or min(lams) > 10.0:
        return None
    scaled = [min(lams) * v for v in values]
    if not all(abs(v) <= 1.0 for v in scaled):
        return None
    return MomentSet(averages=tuple(scaled[:4]), correlators=tuple(scaled[4:]))


def interval_and_weak_calls(m: MomentSet, epsilon: float) -> tuple[FeasibilityResult, int]:
    """``d_interval(m, epsilon)`` and the number of calls it made to ``mr_weak``."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return mr_weak(*args, **kwargs)

    with mock.patch.object(conditions, "mr_weak", counted), mock.patch.object(fine, "mr_weak", counted, create=True):
        return d_interval(m, epsilon), len(calls)


class TestFineRows:
    """The lifted four-time block against the triangle construction it
    replaced: bit-equal values, equal slopes, and so equal bounds."""

    @given(st.lists(unit, min_size=8, max_size=8))
    def test_lifted_block_is_the_triangle_construction(self, values):
        m = MomentSet(averages=tuple(values[:4]), correlators=tuple(values[4:]))
        b, slope = triangle_fine_rows(m)
        assert _affine_values(ROWS[4]["fine"], values).tobytes() == b.tobytes()
        assert ROWS[4]["fine"].slope.tolist() == slope.tolist()

    def test_lifted_block_on_a_grid(self, rng):
        x = rng.uniform(-1.0, 1.0, size=(8, 500)) * rng.uniform(0.0, 1.0, size=500)
        m = MomentSet(averages=tuple(x[:4]), correlators=tuple(x[4:]))
        b, slope = triangle_fine_rows(m)
        assert _affine_values(ROWS[4]["fine"], m.averages + m.correlators).tobytes() == b.tobytes()
        lo, hi = d_bounds(m)
        assert lo.tobytes() == (-b[slope > 0]).max(axis=0).tobytes()
        assert hi.tobytes() == b[slope < 0].min(axis=0).tobytes()

    @pytest.mark.parametrize("n", [3, 4])
    def test_one_set_bounds_are_python_floats(self, n):
        lo, hi = d_bounds(MomentSet(averages=(0.0,) * n, correlators=(0.5,) * n))
        assert type(lo) is float and type(hi) is float
        assert (lo, hi) == d_interval(MomentSet(averages=(0.0,) * n, correlators=(0.5,) * n)).d_interval


#: moment values with exact zeros of both signs and values that cancel exactly
edgy = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]) | unit


def family_values(m: MomentSet) -> dict:
    """Every block of ``ROWS[n]`` as the public functions and the memo give it."""
    n = m.n_times
    values = {pair: lg2(m, pair).values for pair in m.pairs}
    values["LG3" if n == 3 else "LG4"] = (lg3(m) if n == 3 else lg4(m)).values
    values["weak"] = mr_weak(m).values
    values["fine"] = conditions._rows(m, "fine")
    values["weak+fine"] = conditions._rows(m, "weak+fine")
    return values


def reference_bounds(m: MomentSet):
    """The interval the Fine rows leave, as max(-b) over the slope +1 rows and
    min(b) over the slope -1 rows of the column sums; a zero lower bound is
    0.0, not -0.0 (adding 0.0 leaves every other value bit-equal)."""
    block = ROWS[m.n_times]["fine"]
    b = column_sums(block, m.averages + m.correlators)
    return (-b[block.slope > 0]).max(axis=0) + 0.0, b[block.slope < 0].min(axis=0)


def feasible_grid(rng: np.random.Generator, n: int, size: int) -> MomentSet:
    """A grid of the moments of random joints at n times: every fifth set a
    deterministic point (entries +-1) and every tenth all zeros of both signs,
    so every set is feasible."""
    s = np.array(outcomes(n), dtype=float)
    vertices = np.hstack([s, np.stack([s[:, i] * s[:, j] for i, j in pair_set(n)], axis=1)])
    x = rng.dirichlet(np.ones(len(s)), size=size) @ vertices
    x[::5] = vertices[rng.integers(len(s), size=len(x[::5]))]
    x[2::10] = rng.choice([-0.0, 0.0], size=x[2::10].shape)
    return MomentSet(averages=tuple(x.T[:n]), correlators=tuple(x.T[n:]))


class TestOneRowEvaluation:
    """A moment set's weak and Fine rows are evaluated once and memoized;
    every family reads row slices of that one array, bit-equal to the
    column sums, and ``d_interval`` reads its bounds from it."""

    @pytest.mark.parametrize(
        "n, corr", [(3, (0.0,) * 3), (3, (0.5, 0.5, -0.5)), (4, (0.0,) * 4), (4, (0.7, 0.7, 0.7, -0.7))]
    )
    def test_one_evaluation_per_set(self, n, corr):
        m = MomentSet(averages=(0.0,) * n, correlators=corr)
        calls = []

        def counted(block, x):
            calls.append((block.names, np.shape(x)))
            return _affine_values(block, x)

        with mock.patch.object(conditions, "_affine_values", counted), mock.patch.object(fine, "_affine_values", counted):
            assert mr_weak(m).verdict == (corr[0] == 0.0)
            for pair in m.pairs:
                lg2(m, pair)
            lg3(m) if n == 3 else lg4(m)
            d_bounds(m)
            result = d_interval(m)
            d_interval(m, 1e-6)
            if n == 3 and result.feasible:
                triple_expansion_table(m, 0.0)
        # each witness of a feasible four-time set evaluates the expansion rows once, on its two
        # triangles' columns side by side, shape (6, 2)
        glued = [(ROWS[3]["fine"].names, (6, 2))] * 2 if n == 4 and result.feasible else []
        assert calls == [(ROWS[n]["weak+fine"].names, (2 * n,))] + glued

    @given(st.lists(edgy, min_size=9, max_size=9))
    def test_triangle_rows_bit_equal_to_three_time_rows(self, x):
        # the four-time witness evaluates the three-time rows on both triangles' columns side by side, as pairs
        a1, a2, a3, a4, c12, c23, c34, c14, chord = x
        want = [column_sums(ROWS[3]["fine"], t) for t in ([a1, a2, a3, c12, c23, chord], [a1, a3, a4, chord, c34, c14])]
        got = _affine_values(ROWS[3]["fine"], ((a1, a1), (a2, a3), (a3, a4), (c12, chord), (c23, c34), (chord, c14)))
        assert got.tobytes() == np.stack(want, axis=1).tobytes()
        m = MomentSet(averages=(a1, a2, a3, a4), correlators=(c12, c23, c34, c14))
        with np.errstate(invalid="ignore"):  # far outside the slack the glued weights may sum to 0
            assert fine._glued_weights(m, chord).tobytes() == glued_weights(m, chord).tobytes()
        if (r := d_interval(m)).feasible:
            lo, hi = r.d_interval
            assert r.witness_table.weights.tobytes() == glued_weights(m, (lo + hi) / 2.0).tobytes()

    def test_triangle_rows_on_a_grid(self, rng):
        x = rng.uniform(-1.0, 1.0, size=(9, 2000))
        x[:, ::5] = rng.choice([-1.0, -0.0, 0.0, 1.0], size=x[:, ::5].shape)
        a1, a2, a3, a4, c12, c23, c34, c14, chord = x
        want = [column_sums(ROWS[3]["fine"], t) for t in ([a1, a2, a3, c12, c23, chord], [a1, a3, a4, chord, c34, c14])]
        got = _affine_values(ROWS[3]["fine"], ((a1, a1), (a2, a3), (a3, a4), (c12, chord), (c23, c34), (chord, c14)))
        assert got.tobytes() == np.stack(want, axis=1).tobytes()
        m = MomentSet(averages=tuple(x[:4]), correlators=tuple(x[4:8]))
        with np.errstate(invalid="ignore"):
            assert fine._glued_weights(m, chord).tobytes() == glued_weights(m, chord).tobytes()
        # a grid of joints (with deterministic points among them) is feasible everywhere, so it has a witness
        feasible = feasible_grid(rng, 4, 2000)
        r = d_interval(feasible)
        lo, hi = r.d_interval
        assert r.witness_table.weights.tobytes() == glued_weights(feasible, (lo + hi) / 2.0).tobytes()

    @given(st.lists(edgy, min_size=8, max_size=8), st.sampled_from([3, 4]))
    def test_slices_bit_equal_to_column_sums(self, x, n):
        m = MomentSet(averages=tuple(x[:n]), correlators=tuple(x[n : 2 * n]))
        for key, values in family_values(m).items():
            assert values.tobytes() == column_sums(ROWS[n][key], x[: 2 * n]).tobytes(), key
        lo, hi = reference_bounds(m)
        got = d_interval(m).d_interval
        assert np.array(got).tobytes() == np.array([lo, hi]).tobytes()
        assert np.array(d_bounds(m)).tobytes() == np.array([lo, hi]).tobytes()

    @pytest.mark.parametrize("n", [3, 4])
    def test_grid_slices_bit_equal_to_column_sums(self, rng, n):
        x = rng.uniform(-1.0, 1.0, size=(2 * n, 2000))
        # exact zeros of both signs and moments at +-1, so that rows cancel to zero
        x[:, ::7] = rng.choice([-1.0, -0.0, 0.0, 1.0], size=x[:, ::7].shape)
        m = MomentSet(averages=tuple(x[:n]), correlators=tuple(x[n:]))
        for key, values in family_values(m).items():
            assert values.tobytes() == column_sums(ROWS[n][key], x).tobytes(), key
        lo, hi = reference_bounds(m)
        got_lo, got_hi = d_interval(m).d_interval
        assert (got_lo.tobytes(), got_hi.tobytes()) == (lo.tobytes(), hi.tobytes())
        assert [a.tobytes() for a in d_bounds(m)] == [lo.tobytes(), hi.tobytes()]


class TestGridMemo:
    """A grid moment set, like one set, is evaluated once and reduced once:
    ``mr_weak``, ``d_bounds`` and ``d_interval`` read the rows and minima of
    its one record in whichever order they run, and give the same bits in every order."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_one_evaluation_and_one_reduction_in_every_order(self, rng, n):
        x = rng.uniform(-1.0, 1.0, size=(2 * n, 500)) * rng.uniform(0.0, 1.0, size=500)
        x[:, ::7] = rng.choice([-1.0, -0.0, 0.0, 1.0], size=x[:, ::7].shape)
        readers = {
            "weak": lambda m: (mr_weak(m).values, mr_weak(m).verdict, mr_weak(m, 1e-6).verdict),
            "bounds": lambda m: d_bounds(m),
            "fine": lambda m: (d_interval(m).margin, d_interval(m).feasible, *d_interval(m, 1e-6).d_interval),
        }
        fresh = None
        for order in itertools.permutations(readers):
            m = MomentSet(averages=tuple(x[:n]), correlators=tuple(x[n:]))
            evaluated, reduced = [], []

            def counted_values(block, columns):
                evaluated.append(block.names)
                return _affine_values(block, columns)

            def counted_minima(values, n_times, key):
                reduced.append((n_times, key))
                return _minima(values, n_times, key)

            with mock.patch.object(conditions, "_affine_values", counted_values), mock.patch.object(
                fine, "_affine_values", counted_values
            ), mock.patch.object(conditions, "_minima", counted_minima), mock.patch.object(fine, "_minima", counted_minima):
                got = {name: readers[name](m) for name in order}
            # a grid with infeasible sets builds no witness, so nothing else is evaluated or reduced
            assert not d_interval(m).feasible.all()
            assert evaluated == [ROWS[n]["weak+fine"].names] and reduced == [(n, "weak+fine")], order
            got = {name: [np.asarray(a).tobytes() for a in got[name]] for name in readers}
            fresh = fresh or got
            assert got == fresh, order
            assert not m._record[1].flags.writeable


def one_set_outputs(m: MomentSet, epsilon: float, order) -> dict:
    """The one-set outputs that read the memoized minima, computed in ``order``
    and keyed in the order of ``calls``."""
    calls = {
        "verdict": lambda: mr_weak(m, epsilon).verdict,
        "weak": lambda: mr_weak(m, epsilon).to_jsonable(),
        "fine": lambda: d_interval(m, epsilon).to_jsonable(),
        "bounds": lambda: d_bounds(m),
    }
    got = {name: calls[name]() for name in order}
    return {name: got[name] for name in calls if name in got}


class TestMemoizedMinima:
    """The first reader of a set keeps its rows and their minima (the smallest
    weak margin, -lo and hi) on it as one record; every reader gives what it
    gives on a fresh set, in whichever order they run, as Python bools and
    floats for one set."""

    @settings(max_examples=60)
    @given(st.lists(edgy, min_size=8, max_size=8), st.sampled_from([3, 4]), st.sampled_from([1e-9, 1e-6]))
    def test_outputs_independent_of_call_order(self, x, n, epsilon):
        averages, correlators = tuple(x[:n]), tuple(x[n : 2 * n])
        names = ("verdict", "weak", "fine", "bounds")
        fresh = {name: one_set_outputs(MomentSet(averages, correlators), epsilon, [name])[name] for name in names}
        for order in itertools.permutations(names):
            got = one_set_outputs(MomentSet(averages, correlators), epsilon, order)
            assert repr(got) == repr(fresh), order
        assert type(fresh["verdict"]) is bool and fresh["verdict"] == fresh["weak"]["verdict"]
        assert all(type(v) is float for v in fresh["bounds"]) and fresh["bounds"][0] == fresh["fine"]["d_interval"][0]
        assert fresh["verdict"] is (min(c["margin"] for c in fresh["weak"]["checks"]) >= -epsilon)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("epsilon", [1e-9, 1e-6])
    def test_near_boundary_sets_independent_of_call_order(self, n, epsilon):
        # smallest weak margins of -5e-7 (fail at 1e-9, pass at 1e-6) and exactly 0
        avg = (0.0,) * n
        corrs = [(0.5, 0.5, -5e-7), (1.0, 1.0, 1.0)] if n == 3 else [(-0.5, -0.5, -0.5, 0.5000005), (1.0,) * 4]
        for corr in corrs:
            fresh = one_set_outputs(MomentSet(avg, corr), epsilon, ("verdict", "weak", "fine", "bounds"))
            late = one_set_outputs(MomentSet(avg, corr), epsilon, ("bounds", "fine", "weak", "verdict"))
            assert repr(fresh) == repr(late)
            assert fresh["verdict"] is (corr[0] == 1.0 or epsilon == 1e-6)

    def test_zero_lower_bound_is_positive_zero(self):
        # avg 0, every correlator 1: the interval is [0, 0] at three times
        m = MomentSet((0.0,) * 3, (1.0,) * 3)
        assert repr(d_bounds(m)) == repr(d_interval(m).d_interval) == "(0.0, 0.0)"
        assert d_interval(m).to_jsonable()["certificate"] == "triple correlator interval [0.0, 0.0] (marginal)"

    def test_replace_and_merge_rederive_the_verdict(self):
        m = MomentSet((0.0,) * 3, (0.0,) * 3)
        report = mr_weak(m)
        assert report.verdict is True
        failing = replace(report, values=report.values - 2.0)
        assert failing.verdict is False and failing._margin is None
        assert replace(failing, values=report.values).verdict is True
        merged = report.merged_with(lg3(MomentSet((0.0,) * 3, (0.5, 0.5, -0.5))))
        assert merged.verdict is False and merged._margin is None

    def test_nan_margin_fails(self):
        report = mr_weak(MomentSet((0.0,) * 3, (0.0,) * 3))
        object.__setattr__(report, "_margin", float("nan"))
        assert report.verdict is False

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("grid", [False, True])
    def test_first_reader_fills_the_record_in_one_go(self, rng, n, grid):
        # whichever family reads a fresh set first evaluates its rows and reduces them
        # once; every later reader reads that record.  Only the conditions bindings are
        # counted: the four-time witness evaluates its own triangle rows in fine.
        readers = {
            "lg2": lambda m: lg2(m, (0, 1)).values,
            "lg3" if n == 3 else "lg4": lambda m: (lg3 if n == 3 else lg4)(m).values,
            "mr_weak": lambda m: mr_weak(m).verdict,
            "d_bounds": d_bounds,
            "d_interval": lambda m: d_interval(m).feasible,
        }
        x = rng.uniform(-1.0, 1.0, size=(2 * n, 50)) if grid else np.full(2 * n, 0.5)
        calls = []

        def counting(name):
            f = getattr(conditions, name)
            return lambda *args: calls.append(name) or f(*args)

        counted = {name: counting(name) for name in ("_affine_values", "_minima")}
        for first in readers:
            m = MomentSet(averages=tuple(x[:n]), correlators=tuple(x[n:]))
            with mock.patch.multiple(conditions, **counted):
                readers[first](m)
                assert calls == ["_affine_values", "_minima"], first
                for reader in readers.values():
                    reader(m)
                assert calls == ["_affine_values", "_minima"], first
            calls.clear()
            rows, minima = m._record
            assert not rows.flags.writeable and rows.tobytes() == _affine_values(ROWS[n]["weak+fine"], tuple(x)).tobytes()
            if grid:
                assert not minima.flags.writeable and mr_weak(m)._margin is None
            else:
                assert type(minima) is tuple and mr_weak(m)._margin == minima[0]
            assert np.asarray(minima).tobytes() == np.asarray(_minima(rows, n, "weak+fine")).tobytes()
            assert lg2(m, (0, 1))._margin is None


class TestDInterval:
    def test_zero_moments_full_interval(self):
        r = d_interval(MomentSet(averages=(0.0,) * 3, correlators=(0.0,) * 3))
        assert r.feasible
        assert r.d_interval == (-1.0, 1.0)
        # witness at midpoint D=0 is the uniform table
        assert all(w == pytest.approx(0.125, abs=0) for w in r.witness_table.weights.ravel())

    def test_third_turn_set_infeasible_with_crossed_bounds(self):
        r = d_interval(MomentSet(averages=(0.0,) * 3, correlators=(0.5, 0.5, -0.5)))
        assert not r.feasible
        lo, hi = r.d_interval
        assert lo == pytest.approx(0.5, abs=1e-12)
        assert hi == pytest.approx(-0.5, abs=1e-12)
        assert "empty interval" in r.to_jsonable()["certificate"]
        assert r.to_jsonable() == {
            "feasible": False,
            "d_interval": [0.5, -0.5],
            "witness": None,
            "certificate": "empty interval: triple correlator must be >= 0.5 and <= -0.5",
        }

    def test_negative_two_time_weight_names_the_margin(self):
        # LG2.12.-- is 1 - <Q1> - <Q2> + C12 = -0.5, while the chord interval stays open
        r = d_interval(MomentSet(averages=(0.5, 0.5, 0.0, 0.0), correlators=(-0.5, 0.0, 0.0, 0.0)))
        assert r.to_jsonable() == {
            "feasible": False,
            "d_interval": [-0.5, 0.5],
            "witness": None,
            "certificate": "negative two-time weight: measured LG2 margin -0.5",
        }
        assert type(r.feasible) is bool and type(r.margin) is float

    def test_perfect_correlation_point_mass(self):
        r = d_interval(MomentSet(averages=(1.0,) * 3, correlators=(1.0,) * 3))
        assert r.feasible
        assert r.d_interval == (1.0, 1.0)
        assert weight(r.witness_table, (+1, +1, +1)) == pytest.approx(1.0, abs=0)

    @pytest.mark.parametrize("n", [3, 4])
    def test_quantum_grid_equals_per_set(self, rng, n):
        model = sample_model(rng, 2, n)
        times = np.array(model.times) * np.linspace(0.5, 1.5, 7)[:, None]
        assert len(assert_grid_equals_sets(measure_all(model, times).moments, TOL.verdict)) == 7

    def test_four_times_bounds_the_chord(self):
        # every chord row is 1 +- x, and the two uniform triangles glue into the uniform joint
        r = d_interval(MomentSet(averages=(0.0,) * 4, correlators=(0.0,) * 4))
        assert r.feasible
        assert r.d_interval == (-1.0, 1.0)
        assert all(w == pytest.approx(1 / 16, abs=1e-15) for w in r.witness_table.weights.ravel())

    @given(st.lists(unit, min_size=6, max_size=6))
    def test_witness_reproduces_moments(self, values):
        m = moment_set3(values)
        r = d_interval(m)
        if r.feasible:
            avg, corr = table_moments(r, m)
            assert avg == pytest.approx(list(m.averages), abs=1e-9)
            assert corr == pytest.approx(list(m.correlators), abs=1e-9)

    @given(st.lists(unit, min_size=6, max_size=6))
    def test_equivalence_with_augmented_inequality_set(self, values):
        m = moment_set3(values)
        feasible = d_interval(m).feasible
        assert feasible == all(margin >= -1e-12 for margin in lg_margins(m))

    def test_interval_stays_inside_unit_range_when_feasible(self, rng):
        for _ in range(200):
            m = moment_set3(rng.uniform(-1, 1, 6))
            r = d_interval(m)
            if r.feasible:
                lo, hi = r.d_interval
                assert -1 - 1e-12 <= lo <= hi <= 1 + 1e-12


class TestWeakBoundary:
    """The interval verdict and the weak verdict at one epsilon, on moment
    sets whose smallest LG2/LG3 margin lies within 10 epsilon of zero."""

    @given(
        st.lists(unit, min_size=6, max_size=6),
        st.floats(-10.0, 10.0),
        st.sampled_from((TOL.verdict, 1e-6)),
    )
    def test_interval_matches_weak_verdict(self, values, scale, epsilon):
        target = scale * epsilon
        # the two routes round differently by ~1e-16 right at the threshold
        assume(abs(target + epsilon) > 1e-14)
        m = near_weak_boundary3(values, target)
        assume(m is not None)
        assert abs(min(lg_margins(m)) - target) < 1e-12
        r, weak_calls = interval_and_weak_calls(m, epsilon)
        assert weak_calls == 0
        assert r.feasible == mr_weak(m, epsilon).verdict
        if r.feasible:
            # clipping weights of at most epsilon/8 moves the moments by less than epsilon
            avg, corr = table_moments(r, m)
            assert avg == pytest.approx(list(m.averages), abs=epsilon)
            assert corr == pytest.approx(list(m.correlators), abs=epsilon)

    def test_epsilon_sized_gap_is_feasible_and_marginal(self):
        # LG3.4 margin is -5e-10: weak passes at epsilon 1e-9, so the interval must too
        m = MomentSet(averages=(0.0,) * 3, correlators=(0.5, 0.5, -5e-10))
        assert mr_weak(m).verdict
        r = d_interval(m)
        assert r.feasible
        assert "(marginal)" in r.to_jsonable()["certificate"]
        assert r.to_jsonable()["certificate"] == "triple correlator interval [5e-10, -5e-10] (marginal)"
        assert r.witness_table.weights.min() >= 0.0
        assert not d_interval(m, epsilon=1e-10).feasible


class TestFourTimeBoundary:
    """The chord interval and the weak verdict at one epsilon, on four-time
    moment sets whose smallest LG2/LG4 margin lies within 10 epsilon of zero."""

    @given(
        st.lists(unit, min_size=8, max_size=8),
        st.floats(-10.0, 10.0),
        st.sampled_from((TOL.verdict, 1e-6)),
    )
    def test_interval_matches_weak_verdict(self, values, scale, epsilon):
        target = scale * epsilon
        assume(abs(target + epsilon) > 1e-14)
        m = near_weak_boundary4(values, target)
        assume(m is not None)
        assert abs(min(min(part) for part in lg_margins4(m)) - target) < 1e-12
        r, weak_calls = interval_and_weak_calls(m, epsilon)
        assert weak_calls == 0
        assert r.feasible == mr_weak(m, epsilon).verdict
        if r.feasible:
            avg, corr = table_moments(r, m)
            assert avg == pytest.approx(list(m.averages), abs=epsilon)
            assert corr == pytest.approx(list(m.correlators), abs=epsilon)

    def test_lg4_just_past_epsilon_is_infeasible(self):
        # LG4.3.hi is -1.38e-9: the interval is empty by less than 2*epsilon,
        # yet the set fails mr_weak at epsilon 1e-9, and so does the simplex
        m = MomentSet(
            averages=(0.2551541681236259, 0.3532378892095624, 0.4599780125191328, 0.1678996368191617),
            correlators=(0.7858576711835944, 0.2359652729552364, -0.2309054258841117, 0.7472716313570577),
        )
        assert lg4(m).margins["LG4.3.hi"] == pytest.approx(-1.38e-9, abs=1e-11)
        r = d_interval(m, 1e-9)
        lo, hi = r.d_interval
        assert -2e-9 < hi - lo < -1e-9
        assert not r.feasible
        assert not mr_weak(m, 1e-9).verdict
        assert not lp_oracle(m).feasible


class TestGrid:
    """``d_interval`` on a grid of moment sets against each set alone, bit
    for bit: on random grids, on their all-feasible sub-grids, and on the
    near-boundary sets of ``TestWeakBoundary`` and ``TestFourTimeBoundary``."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_random_grid_and_its_feasible_subgrid(self, rng, n):
        x = rng.uniform(-1.0, 1.0, size=(2 * n, 3000)) * rng.uniform(0.0, 1.0, size=3000)
        feasible = assert_grid_equals_sets(MomentSet(averages=tuple(x[:n]), correlators=tuple(x[n:])), TOL.verdict)
        assert 0 < sum(feasible) < len(feasible)
        sub = x[:, feasible]
        assert all(assert_grid_equals_sets(MomentSet(averages=tuple(sub[:n]), correlators=tuple(sub[n:])), TOL.verdict))

    @pytest.mark.parametrize("epsilon", [TOL.verdict, 1e-6])
    @pytest.mark.parametrize("n", [3, 4])
    def test_near_boundary_grid_and_its_feasible_subgrid(self, rng, n, epsilon):
        near = near_weak_boundary3 if n == 3 else near_weak_boundary4
        sets = []
        while len(sets) < 300:
            m = near(rng.uniform(-1.0, 1.0, 2 * n).tolist(), rng.uniform(-10.0, 10.0) * epsilon)
            if m is not None:
                sets.append(m)
        feasible = assert_grid_equals_sets(stacked(sets), epsilon)
        assert 0 < sum(feasible) < len(feasible)
        assert all(assert_grid_equals_sets(stacked([m for m, f in zip(sets, feasible) if f]), epsilon))
        if n == 3:
            # an interval empty by at most 2*epsilon is feasible: its witness is clipped and renormalised
            assert any(f and lo > hi for f, lo, hi in zip(feasible, *d_bounds(stacked(sets))))

    def test_four_time_empty_interval_inside_the_slack(self):
        # the second set's LG4.4.lo margin is -5e-7: feasible at 1e-6 with a
        # chord interval empty by 5e-7, so its triangles are clipped
        sets = [
            MomentSet(averages=(0.0,) * 4, correlators=(0.0,) * 4),
            MomentSet(averages=(0.0,) * 4, correlators=(-0.5, -0.5, -0.5, 0.5000005)),
        ]
        assert assert_grid_equals_sets(stacked(sets), 1e-6) == [True, True]
        lo, hi = d_bounds(stacked(sets))
        assert lo[1] > hi[1]


    def test_to_jsonable_rejects_a_grid(self):
        times = np.linspace(0.0, 1.0, 15).reshape(5, 3)
        result = d_interval(measure_all(precession_model(), times).moments)
        with pytest.raises(ValidationError, match=r"one moment set only, got a grid of shape \(5,\)"):
            result.to_jsonable()


class TestLpFeasibility:
    def test_four_time_uniform(self):
        r = lp_feasibility(MomentSet(averages=(0.0,) * 4, correlators=(0.0,) * 4))
        assert r.feasible
        avg, corr = table_moments(r, MomentSet(averages=(0.0,) * 4, correlators=(0.0,) * 4))
        assert avg == pytest.approx([0.0] * 4, abs=1e-9)
        assert corr == pytest.approx([0.0] * 4, abs=1e-9)

    def test_four_time_chsh_bound_violated(self):
        s = np.sqrt(2) / 2
        r = lp_feasibility(MomentSet(averages=(0.0,) * 4, correlators=(s, s, s, -s)))
        assert not r.feasible
        # LG3 of (1,2,3) needs C13 >= 2s - 1, LG3 of (1,3,4) needs C13 <= 1 - 2s
        assert r.d_interval == pytest.approx((2 * s - 1, 1 - 2 * s), abs=1e-12)
        assert "empty interval: chord correlator C13" in r.to_jsonable()["certificate"]

    def test_delegates_to_the_interval(self, rng):
        for _ in range(50):
            vals = rng.uniform(-1, 1, 8)
            m = MomentSet(averages=tuple(vals[:4]), correlators=tuple(vals[4:]))
            assert lp_feasibility(m).to_jsonable() == d_interval(m).to_jsonable()

    def test_agrees_with_interval_on_random_sets(self, rng):
        for _ in range(500):
            m = moment_set3(rng.uniform(-1, 1, 6))
            di = d_interval(m)
            lp = lp_oracle(m)
            if lp.feasible != di.feasible:
                lo, hi = di.d_interval
                assert abs(hi - lo) <= 1e-2  # only allowed hard against the boundary
            if lp.feasible:
                avg, corr = table_moments(lp, m)
                assert avg == pytest.approx(list(m.averages), abs=1e-9)
                assert corr == pytest.approx(list(m.correlators), abs=1e-9)

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_scipy_simplex(self, rng, n):
        for _ in range(120):
            vals = rng.uniform(-1, 1, 2 * n)
            m = MomentSet(averages=tuple(vals[:n]), correlators=tuple(vals[n:]))
            a_eq, b_eq, _ = moment_rows(m)
            ref = linprog(
                np.zeros(a_eq.shape[1]), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs"
            )
            mine = lp_oracle(m).feasible
            if mine != (ref.status == 0):
                if n == 3:
                    lo, hi = d_interval(m).d_interval
                    assert abs(hi - lo) <= 1e-6
                else:
                    pytest.fail(f"simplex disagrees with reference on {m}")

    def test_four_time_weak_verdict_matches_lp(self):
        # LG2 + LG4 is necessary and sufficient at four times (n-cycle
        # theorem), checked against the simplex oracle; the chord interval
        # must agree with both and its witness reproduce the moments.
        # Uniform sets are feasible only about 2.4 % of the time, so every
        # tenth set comes from a random 4-time quantum model instead.
        rng = np.random.default_rng(20261018)
        disagreements, feasible, worst = [], 0, 0.0
        for k in range(10_000):
            if k % 10 == 0:
                m = measure_all(sample_model(rng, int(rng.integers(2, 5)), 4)).moments
            else:
                vals = rng.uniform(-1.0, 1.0, 8)
                m = MomentSet(averages=tuple(vals[:4]), correlators=tuple(vals[4:]))
            lp = lp_oracle(m).feasible
            feasible += lp
            di = d_interval(m)
            if not lp == di.feasible == mr_weak(m).verdict:
                disagreements.append(m)
            if di.feasible:
                avg, corr = table_moments(di, m)
                worst = max(worst, np.abs(np.subtract(avg + corr, m.averages + m.correlators)).max())
        assert disagreements == []
        assert 300 < feasible < 9_000
        assert worst < 1e-12

    def test_quantum_moments_always_feasible_iff_weak_passes(self, rng):
        for _ in range(60):
            mom = measure_all(sample_model(rng, int(rng.integers(2, 5)))).moments
            assert d_interval(mom).feasible == mr_weak(mom).verdict

    def test_wrong_arity(self):
        with pytest.raises(ValidationError, match="3 or 4"):
            MomentSet(averages=(0.0,) * 2, correlators=(0.0,) * 1)


class TestScanOracle:
    def test_zero_moments(self):
        r = scan_oracle(MomentSet(averages=(0.0,) * 3, correlators=(0.0,) * 3), 1e-3)
        assert r.feasible

    def test_third_turn_set_infeasible(self):
        r = scan_oracle(MomentSet(averages=(0.0,) * 3, correlators=(0.5, 0.5, -0.5)), 1e-3)
        assert not r.feasible
        assert "no grid point" in r.certificate

    def test_boundary_point_mass(self):
        r = scan_oracle(MomentSet(averages=(1.0,) * 3, correlators=(1.0,) * 3), 1e-3)
        assert r.feasible
        assert weight(r.witness_table, (+1, +1, +1)) == pytest.approx(1.0, abs=1e-12)

    def test_step_validation(self):
        m = MomentSet(averages=(0.0,) * 3, correlators=(0.0,) * 3)
        with pytest.raises(ValidationError, match="grid_step"):
            scan_oracle(m, 0.5)
        with pytest.raises(ValidationError, match="grid_step"):
            scan_oracle(m, 0.0)

    @settings(max_examples=100)
    @given(st.lists(unit, min_size=6, max_size=6))
    def test_agrees_with_interval_away_from_boundary(self, values):
        m = moment_set3(values)
        di = d_interval(m)
        lo, hi = di.d_interval
        if abs(hi - lo) > 2e-2:
            assert scan_oracle(m, 1e-2).feasible == di.feasible


class TestExpansionTable:
    def test_round_trip_through_witness(self, rng):
        for _ in range(50):
            # |moments| <= 1/6 keeps every expansion value nonnegative at D=0
            m = moment_set3(rng.uniform(-1 / 6, 1 / 6, 6))
            r = d_interval(m)
            assert r.feasible
            mid = sum(r.d_interval) / 2
            t = triple_expansion_table(m, mid)
            assert t.moment((0, 1, 2)) == pytest.approx(mid, abs=1e-12)

    def test_grid_with_array_d_equals_per_point(self, rng):
        grid = moment_set3(rng.uniform(-1 / 6, 1 / 6, (6, 200)))
        lo, hi = d_bounds(grid)
        mid = (lo + hi) / 2
        tables = triple_expansion_table(grid, mid)
        for g in range(200):
            one = triple_expansion_table(point(grid, g), mid[g].item())
            assert tables.weights[g].tobytes() == one.weights.tobytes()
        # a float d broadcasts over the grid as well
        one = triple_expansion_table(point(grid, 7), 0.0)
        assert triple_expansion_table(grid, 0.0).weights[7].tobytes() == one.weights.tobytes()

    def test_rejects_negative_expansion(self):
        m = MomentSet(averages=(1.0,) * 3, correlators=(1.0,) * 3)
        with pytest.raises(ValidationError, match="negative"):
            triple_expansion_table(m, -1.0)

    def test_rejects_four_times(self):
        m = MomentSet(averages=(0.0,) * 4, correlators=(0.0,) * 4)
        with pytest.raises(ValidationError, match="triple_expansion_table: need 3 times, got 4"):
            triple_expansion_table(m, 0.0)


def dyadic_set(rng, n: int, target: Fraction) -> MomentSet | None:
    """An n-time moment set on the 2^-8 grid with one correlator moved so that
    its exact smallest weak margin is the dyadic ``target``, or None when the
    move leaves [-1, 1] or drops another row below the target.  Its every
    row is a float sum without rounding."""
    x = [Fraction(int(v), 256) for v in rng.integers(-100, 101, 2 * n)]
    rows = [r for r in exact_rows(n) if r.block == "weak"]

    def value(row) -> Fraction:
        return row.b + sum(c * x[j] for j, c in row.coefficients.items())

    low = min(rows, key=value)
    j = max(low.coefficients)  # a correlator's column
    x[j] += (target - value(low)) / low.coefficients[j]
    if abs(x[j]) > 1 or min(map(value, rows)) != target:
        return None
    return MomentSet(averages=tuple(map(float, x[:n])), correlators=tuple(map(float, x[n:])))


class TestExactOracle:
    """Every weak and Fine row against its exact value in ``Fraction``s, built
    from the definitions and not from ``ROWS`` (``conftest.exact_rows``): each
    float row lies within (k - 1) 2^-53 sum |terms| of it, and the verdicts
    and the interval agree with the exact ones wherever that bound cannot
    decide them."""

    def check(self, m: MomentSet, epsilons) -> tuple[Fraction, bool]:
        """Checks the rows, the verdict at each epsilon and ``d_bounds``;
        returns the largest row error and the exact verdict at epsilon 0."""
        exact = exact_row_values(m)
        weak, fine_names = mr_weak(m, 0.0), ROWS[m.n_times]["fine"].names
        floats = dict(zip(weak.names + fine_names, weak.values.tolist() + conditions._rows(m, "fine").tolist()))
        assert len(weak.names) + len(fine_names) == len(floats) and floats.keys() == exact.keys()
        err = Fraction(0)
        for name, (_, value, bound) in exact.items():
            assert abs(Fraction(floats[name]) - value) <= bound, name
            err = max(err, abs(Fraction(floats[name]) - value))
        weak = [(value, bound) for row, value, bound in exact.values() if row.block == "weak"]
        margin, weak_bound = min(v for v, _ in weak), max(b for _, b in weak)
        for epsilon in epsilons:
            # the float margin is within err <= weak_bound of the exact one
            if err == 0 or abs(margin + Fraction(epsilon)) > weak_bound:
                passes = margin >= -Fraction(epsilon)
                assert mr_weak(m, epsilon).verdict == passes
                assert d_interval(m, epsilon).feasible == passes
        # lo = max(-b) over the slope +1 rows, hi = min(b) over the slope -1 rows
        fine = [(row.slope, value, bound) for row, value, bound in exact.values() if row.block == "fine"]
        lo = max(-value for slope, value, _ in fine if slope > 0)
        hi = min(value for slope, value, _ in fine if slope < 0)
        fine_bound = max(bound for _, _, bound in fine)
        for got, want in zip(d_bounds(m), (lo, hi)):
            assert abs(Fraction(got) - want) <= fine_bound
        return err, margin >= 0

    def test_near_boundary_sets(self):
        rng = np.random.default_rng(10)
        for n, near in ((3, near_weak_boundary3), (4, near_weak_boundary4)):
            verdicts = []
            for k in range(200):
                target = 0.0 if k % 10 == 0 else float(rng.uniform(-10.0, 10.0)) * (TOL.verdict, 1e-6)[k % 2]
                m = near(rng.uniform(-1.0, 1.0, 2 * n).tolist(), target)
                if m is not None:
                    verdicts.append(self.check(m, (0.0, TOL.verdict, 1e-6))[1])
            assert len(verdicts) >= 100 and 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("n", [3, 4])
    def test_dyadic_margins_decide_exactly(self, n):
        rng = np.random.default_rng(11)
        for k in (1, 9, 20, 30, 40):
            for target in (Fraction(0), Fraction(1, 2**k), -Fraction(1, 2**k)):
                m = next(m for m in (dyadic_set(rng, n, target) for _ in range(100)) if m is not None)
                # epsilon 2^-k lets the margin -2^-k pass, epsilon 0 does not
                err, passes = self.check(m, (0.0, 2.0**-k, TOL.verdict, 1e-6))
                assert err == 0 and passes == (target >= 0)
                assert mr_weak(m, 2.0**-k).verdict and d_interval(m, 2.0**-k).feasible


def half_width_residual(m: MomentSet):
    """|(hi - lo)/2 - smallest weak margin|, from ``d_bounds`` and ``mr_weak``: a number for
    one set, an array over a grid.  Zero at three times, up to rounding, by Fine's theorem."""
    lo, hi = d_bounds(m)
    return np.abs((hi - lo) / 2.0 - mr_weak(m).values.min(axis=0))


def exact_width_and_margin(m: MomentSet) -> tuple[Fraction, Fraction]:
    """hi - lo and twice the smallest weak margin in ``Fraction``s, from the rows
    as ``conftest.exact_rows`` defines them: no float rounding and no ``ROWS``."""
    exact = exact_row_values(m).values()
    lo = max(-value for row, value, _ in exact if row.block == "fine" and row.slope > 0)
    hi = min(value for row, value, _ in exact if row.block == "fine" and row.slope < 0)
    return hi - lo, 2 * min(value for row, value, _ in exact if row.block == "weak")


#: a few ulps of the rows' unit scale; 10^4 random and near-boundary sets gave at most 2 eps
FEW_ULPS = 4 * np.finfo(float).eps


class TestFineTheorem:
    """Fine's theorem at three times as an identity: two expansion rows of opposite
    slope either differ in one sign and add up to twice an LG2 row, or differ in all
    three and add up to twice an LG3 row, and every LG2 and LG3 row is such a sum;
    so the interval [lo, hi] the rows leave for the triple correlator is twice the
    smallest weak margin wide, and empty exactly when that margin is negative."""

    @given(st.lists(edgy, min_size=6, max_size=6))
    def test_width_is_twice_the_smallest_weak_margin(self, values):
        m = moment_set3(values)
        width, twice_margin = exact_width_and_margin(m)
        assert width == twice_margin
        assert half_width_residual(m) <= FEW_ULPS

    @pytest.mark.parametrize("epsilon", [TOL.verdict, 1e-6])
    def test_near_and_exact_boundary_sets_one_by_one_and_as_a_grid(self, rng, epsilon):
        sets = [
            # two sets exactly on the weak boundary (width 0), then the third-turn set (width -1)
            moment_set3([0.0, 0.0, 0.0, 1.0, 1.0, 1.0]),
            moment_set3([1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
            moment_set3([0.0, 0.0, 0.0, 0.5, 0.5, -0.5]),
        ]
        while len(sets) < 300:
            target = 0.0 if len(sets) % 10 == 0 else rng.uniform(-10.0, 10.0) * epsilon
            m = near_weak_boundary3(rng.uniform(-1.0, 1.0, 6).tolist(), target)
            if m is not None:
                sets.append(m)
        assert [exact_width_and_margin(m)[0] for m in sets[:3]] == [0, 0, -1]
        one_by_one = [half_width_residual(m) for m in sets]
        assert max(one_by_one) <= FEW_ULPS
        assert half_width_residual(stacked(sets)).tobytes() == np.array(one_by_one).tobytes()
        assert all(width == twice for width, twice in map(exact_width_and_margin, sets))

    def test_random_grid(self, rng):
        x = rng.uniform(-1.0, 1.0, size=(6, 3000)) * rng.uniform(0.0, 1.0, size=3000)
        grid = moment_set3(x)
        residual = half_width_residual(grid)
        assert residual.shape == (3000,) and residual.max() <= FEW_ULPS
        lo, hi = d_bounds(grid)
        # empty intervals and open ones both occur
        assert (hi < lo).any() and (hi > lo).any()

    def test_dyadic_sets_hold_exactly(self):
        rng = np.random.default_rng(12)
        for k in (1, 9, 20, 30, 40):
            for target in (Fraction(0), Fraction(1, 2**k), -Fraction(1, 2**k)):
                m = next(m for m in (dyadic_set(rng, 3, target) for _ in range(100)) if m is not None)
                # every row is a float sum without rounding, so the float identity is exact too
                assert exact_width_and_margin(m) == (2 * target, 2 * target)
                assert half_width_residual(m) == 0.0
                lo, hi = d_bounds(m)
                assert Fraction(hi) - Fraction(lo) == 2 * target
