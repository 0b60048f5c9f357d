from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from mrtest import conditions, fine
from mrtest.conditions import ROWS, _affine_values, lg2, lg3, lg4, mr_weak
from mrtest.errors import ValidationError
from mrtest.fine import (
    FeasibilityResult,
    d_bounds,
    d_interval,
    lp_feasibility,
    triple_expansion_table,
)
from mrtest.harness import sample_model
from mrtest.measurement import MomentSet, measure_all
from mrtest.tolerances import TOL

from conftest import column_sums, lp_oracle, moment_rows, precession_model, scan_oracle, triangle_fine_rows

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
    """``d_interval`` on the grid against each set alone: flags, bounds and
    margins bit-equal, and a witness only when every set is feasible, its
    weights then bit-equal to each set's table.  Returns the flags."""
    r = d_interval(grid, epsilon)
    sets = [d_interval(point(grid, g), epsilon) for g in range(len(grid.averages[0]))]
    assert r.n_times == grid.n_times and r.epsilon == epsilon
    assert r.feasible.tolist() == [s.feasible for s in sets]
    for got, want in zip((*r.d_interval, r.margin), zip(*((*s.d_interval, s.margin) for s in sets))):
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
    min(b) over the slope -1 rows of the column sums."""
    block = ROWS[m.n_times]["fine"]
    b = column_sums(block, m.averages + m.correlators)
    return (-b[block.slope > 0]).max(axis=0), b[block.slope < 0].min(axis=0)


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
            calls.append(block.names)
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
        # each witness of a feasible four-time set evaluates the expansion rows of its two triangles
        glued = [ROWS[3]["fine"].names] * 2 if n == 4 and result.feasible else []
        assert calls == [ROWS[n]["weak+fine"].names] + glued

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
        assert r.witness_table.weight((+1, +1, +1)) == pytest.approx(1.0, abs=0)

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
        assert r.witness_table.weight((+1, +1, +1)) == pytest.approx(1.0, abs=1e-12)

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
