import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from mrtest.conditions import lg2, lg3, lg4, mr_weak
from mrtest.errors import ValidationError
from mrtest.fine import (
    FeasibilityResult,
    d_interval,
    lp_feasibility,
    triple_expansion_table,
)
from mrtest.harness import sample_model
from mrtest.measurement import MomentSet, piecewise_moments
from mrtest.tolerances import TOL

from conftest import lp_oracle, moment_rows, scan_oracle

unit = st.floats(-1.0, 1.0, allow_nan=False)


def moment_set3(values) -> MomentSet:
    return MomentSet(averages=tuple(values[:3]), correlators=tuple(values[3:6]))


def lg_margins(m: MomentSet) -> list[float]:
    out = [c.margin for pair in m.pairs for c in lg2(m, pair).checks]
    out += [c.margin for c in lg3(m).checks]
    return out


def table_moments(result: FeasibilityResult, m: MomentSet):
    t = result.witness_table
    avg = [t.moment((i,)) for i in range(m.n_times)]
    corr = [t.moment(p) for p in m.pairs]
    return avg, corr


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
        assert "empty interval" in r.certificate

    def test_perfect_correlation_point_mass(self):
        r = d_interval(MomentSet(averages=(1.0,) * 3, correlators=(1.0,) * 3))
        assert r.feasible
        assert r.d_interval == (1.0, 1.0)
        assert r.witness_table.weight((+1, +1, +1)) == pytest.approx(1.0, abs=0)

    def test_rejects_triple_given(self):
        m = MomentSet(averages=(0.0,) * 3, correlators=(0.0,) * 3, triple=0.2)
        with pytest.raises(ValidationError, match="triple"):
            d_interval(m)

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
        # every margin is 1 plus a linear form in the moments, so shrinking
        # the moments by lam moves the smallest margin M to 1 + lam*(M - 1)
        smallest = min(lg_margins(moment_set3(values)))
        assume(smallest < 1.0)
        target = scale * epsilon
        # the two routes round differently by ~1e-16 right at the threshold
        assume(abs(target + epsilon) > 1e-14)
        lam = (1.0 - target) / (1.0 - smallest)
        scaled = [lam * v for v in values]
        assume(all(abs(v) <= 1.0 for v in scaled))
        m = moment_set3(scaled)
        assert abs(min(lg_margins(m)) - target) < 1e-12
        r = d_interval(m, epsilon)
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
        assert "(marginal)" in r.certificate
        assert r.witness_table.weights.min() >= 0.0
        assert not d_interval(m, epsilon=1e-10).feasible


def lg_margins4(m: MomentSet) -> tuple[list[float], list[float]]:
    """The LG2 margins of the measured pairs and the LG4 margins."""
    return [c.margin for pair in m.pairs for c in lg2(m, pair).checks], [c.margin for c in lg4(m).checks]


class TestFourTimeBoundary:
    """The chord interval and the weak verdict at one epsilon, on four-time
    moment sets whose smallest LG2/LG4 margin lies within 10 epsilon of zero."""

    @given(
        st.lists(unit, min_size=8, max_size=8),
        st.floats(-10.0, 10.0),
        st.sampled_from((TOL.verdict, 1e-6)),
    )
    def test_interval_matches_weak_verdict(self, values, scale, epsilon):
        # scaling the moments by lam moves an LG2 margin M to 1 + lam*(M - 1)
        # and an LG4 margin M to 2 + lam*(M - 2); the first to reach the
        # target as lam grows fixes lam.  Large lam amplifies the rounding
        # of M - 1, so nearly zero moment sets are skipped.
        target = scale * epsilon
        assume(abs(target + epsilon) > 1e-14)
        lg2s, lg4s = lg_margins4(MomentSet(averages=tuple(values[:4]), correlators=tuple(values[4:])))
        lams = [(c - target) / (c - v) for c, vs in ((1.0, lg2s), (2.0, lg4s)) for v in vs if v < c]
        assume(lams and min(lams) <= 10.0)
        scaled = [min(lams) * v for v in values]
        assume(all(abs(v) <= 1.0 for v in scaled))
        m = MomentSet(averages=tuple(scaled[:4]), correlators=tuple(scaled[4:]))
        assert abs(min(min(part) for part in lg_margins4(m)) - target) < 1e-12
        r = d_interval(m, epsilon)
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
        assert lg4(m).check("LG4.3.hi").margin == pytest.approx(-1.38e-9, abs=1e-11)
        r = d_interval(m, 1e-9)
        lo, hi = r.d_interval
        assert -2e-9 < hi - lo < -1e-9
        assert not r.feasible
        assert not mr_weak(m, 1e-9).verdict
        assert not lp_oracle(m).feasible


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
        assert "empty interval: chord correlator C13" in r.certificate

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
                m = piecewise_moments(sample_model(rng, int(rng.integers(2, 5)), 4))
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
            model = sample_model(rng, int(rng.integers(2, 5)))
            mom = piecewise_moments(model)
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

    def test_rejects_negative_expansion(self):
        m = MomentSet(averages=(1.0,) * 3, correlators=(1.0,) * 3)
        with pytest.raises(ValidationError, match="negative"):
            triple_expansion_table(m, -1.0)
