import re

import numpy as np
import pytest

from mrtest.conditions import lg2
from mrtest.errors import InputFormatError, ValidationError
from mrtest.harness import sample_model
from mrtest.measurement import (
    MomentSet,
    ProbabilityTable,
    interference_term,
    measure_all,
    outcome_key,
    outcomes,
    pair_set,
    sequential_moments,
    witness,
)
from mrtest.quantum import QuantumModel, expectation

from conftest import SZ, point_tables, precession_model

RHO_UP = np.diag([1.0, 0.0]).astype(complex)


class TestProbabilityTable:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            ProbabilityTable(kind="single", time_indices=(0,), weights=np.array([0.2, 0.2]))

    def test_rejects_negative_sequential(self):
        with pytest.raises(ValidationError, match="negative"):
            ProbabilityTable(kind="sequential", time_indices=(0, 1), weights=np.array([[0.6, 0.6], [-0.1, -0.1]]))

    def test_quasi_may_be_negative(self):
        t = ProbabilityTable(kind="quasi", time_indices=(0, 1), weights=np.array([[0.6, 0.6], [-0.1, -0.1]]))
        assert t.weight((+1, +1)) == -0.1
        with pytest.raises(ValidationError, match=r"quasi weight out of \[-1, 1\]: 1.5"):
            ProbabilityTable(kind="quasi", time_indices=(0, 1), weights=np.array([[1.5, -0.5], [0.0, 0.0]]))

    def test_rejects_incomplete_outcomes(self):
        with pytest.raises(ValidationError, match="cover"):
            ProbabilityTable(kind="single", time_indices=(0,), weights=np.array([1.0]))
        with pytest.raises(ValidationError, match="cover"):
            ProbabilityTable(kind="sequential", time_indices=(0, 1), weights=np.full(4, 0.25))

    def test_outcome_keys(self):
        assert outcome_key((-1, +1, -1)) == "-+-"

    def test_lexicographic_order_minus_first(self):
        assert outcomes(2) == [(-1, -1), (-1, +1), (+1, -1), (+1, +1)]


class TestSingleTime:
    def test_eigenstate_is_deterministic(self):
        m = QuantumModel(hamiltonian=np.zeros((2, 2)), rho=RHO_UP, observable=SZ, times=(0.0, 1.0, 2.0))
        t = measure_all(m).singles[0]
        assert t.weight((+1,)) == pytest.approx(1.0, abs=1e-14)
        assert t.weight((-1,)) == pytest.approx(0.0, abs=1e-14)

    def test_maximally_mixed_is_even(self, mixed_qubit):
        for t in measure_all(mixed_qubit).singles:
            assert t.weight((+1,)) == pytest.approx(0.5, abs=1e-14)

    def test_quarter_turn(self):
        # <Q(t)> = cos(wt) for rho = |0><0|; at wt = pi/2 both outcomes even
        m = precession_model(times=(np.pi / 2, np.pi, 3 * np.pi / 2), rho=RHO_UP)
        t = measure_all(m).singles[0]
        assert t.weight((+1,)) == pytest.approx(0.5, abs=1e-12)

    def test_matches_moment_expansion(self, mixed_qubit):
        for t in measure_all(mixed_qubit).singles:
            avg = t.moment((0,))
            for s in (-1, +1):
                assert t.weight((s,)) == pytest.approx((1 + s * avg) / 2, abs=1e-12)


class TestSequential:
    def test_repeated_time_reproduces_single(self):
        tables = measure_all(precession_model(times=(0.5, 0.5, 1.0)))
        t, single = tables.pairs[(0, 1)], tables.singles[0]
        for s in (-1, +1):
            assert t.weight((s, s)) == pytest.approx(single.weight((s,)), abs=1e-14)
            assert t.weight((s, -s)) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("tau", [0.4, np.pi / 3, 2.0])
    def test_maximally_mixed_closed_form(self, tau):
        # p(s1, s2) = (1 + s1 s2 cos(w tau)) / 4 for rho = I/2
        t = measure_all(precession_model(times=(0.0, tau, 2 * tau))).pairs[(0, 1)]
        for s1, s2 in outcomes(2):
            assert t.weight((s1, s2)) == pytest.approx((1 + s1 * s2 * np.cos(tau)) / 4, abs=1e-12)

    def test_frozen_hamiltonian_chain(self):
        m = QuantumModel(hamiltonian=np.zeros((2, 2)), rho=RHO_UP, observable=SZ, times=(0.0, 1.0, 2.0))
        t = measure_all(m).chain
        assert t.weight((+1, +1, +1)) == pytest.approx(1.0, abs=1e-14)
        assert sum(abs(t.weight(o)) for o in outcomes(3) if o != (1, 1, 1)) < 1e-14

    def test_marginalizing_last_time_drops_measurement(self, rng):
        for k in range(20):
            tables = measure_all(sample_model(rng, int(rng.integers(2, 5))))
            marg, pair = tables.chain.marginal(2), tables.pairs[(0, 1)]
            assert max(abs(marg.weight(o) - pair.weight(o)) for o in outcomes(2)) < 1e-12


class TestQuasi:
    def test_equals_sequential_for_maximally_mixed(self, mixed_qubit):
        tables = measure_all(mixed_qubit)
        p, q = tables.pairs[(0, 1)], tables.quasi[(0, 1)]
        assert max(abs(q.weight(o) - p.weight(o)) for o in outcomes(2)) < 1e-12

    def test_equals_sequential_for_commuting(self):
        m = QuantumModel(hamiltonian=1.3 * SZ, rho=np.diag([0.7, 0.3]).astype(complex),
                         observable=SZ, times=(0.0, 1.0, 2.0))
        tables = measure_all(m)
        p, q = tables.pairs[(0, 1)], tables.quasi[(0, 1)]
        assert max(abs(q.weight(o) - p.weight(o)) for o in outcomes(2)) < 1e-14

    def test_eigenstate_kills_minus_branch(self):
        # rho in the Q(t1)=+1 eigenspace: q(-1, s2) = 0 from the expansion
        m = precession_model(times=(0.0, np.pi / 3, 2 * np.pi / 3), rho=RHO_UP)
        q = measure_all(m).quasi[(0, 1)]
        assert q.weight((-1, -1)) == pytest.approx(0.0, abs=1e-12)
        assert q.weight((-1, +1)) == pytest.approx(0.0, abs=1e-12)
        # and the +1 branch matches 1/4 (2 + s2) at c = 1/2
        assert q.weight((+1, +1)) == pytest.approx(0.75, abs=1e-12)
        assert q.weight((+1, -1)) == pytest.approx(0.25, abs=1e-12)

    def test_negative_entry_case(self):
        # frozen: rho = |0><0|, times (2pi/3, 4pi/3) -> q(+,+) = -1/8
        m = precession_model(times=(2 * np.pi / 3, 4 * np.pi / 3, 2 * np.pi), rho=RHO_UP)
        q = measure_all(m).quasi[(0, 1)]
        assert q.weight((+1, +1)) == pytest.approx(-0.125, abs=1e-12)

    def test_marginals_match_single_time(self, rng):
        for _ in range(25):
            tables = measure_all(sample_model(rng, int(rng.integers(2, 5))))
            for i, j in pair_set(3):
                q = tables.quasi[(i, j)]
                si, sj = tables.singles[i], tables.singles[j]
                for s in (-1, +1):
                    assert q.marginal(j).weight((s,)) == pytest.approx(si.weight((s,)), abs=1e-12)
                    assert q.marginal(i).weight((s,)) == pytest.approx(sj.weight((s,)), abs=1e-12)


class TestPiecewiseMoments:
    def test_static_eigenstate(self):
        m = QuantumModel(hamiltonian=np.zeros((2, 2)), rho=RHO_UP, observable=SZ, times=(0.0, 1.0, 2.0))
        mom = measure_all(m).moments
        assert mom.averages == pytest.approx((1.0, 1.0, 1.0), abs=1e-14)
        assert mom.correlators == pytest.approx((1.0, 1.0, 1.0), abs=1e-14)

    @pytest.mark.parametrize("tau", [0.3, np.pi / 3, np.pi / 2])
    def test_equal_gap_closed_form(self, tau):
        mom = measure_all(precession_model(times=(0.0, tau, 2 * tau))).moments
        assert mom.averages == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)
        assert mom.corr(0, 1) == pytest.approx(np.cos(tau), abs=1e-12)
        assert mom.corr(1, 2) == pytest.approx(np.cos(tau), abs=1e-12)
        assert mom.corr(0, 2) == pytest.approx(np.cos(2 * tau), abs=1e-12)

    def test_quarter_turn_special_case(self):
        mom = measure_all(precession_model(times=(0.0, np.pi / 2, np.pi))).moments
        assert mom.corr(0, 1) == pytest.approx(0.0, abs=1e-12)
        assert mom.corr(1, 2) == pytest.approx(0.0, abs=1e-12)
        assert mom.corr(0, 2) == pytest.approx(-1.0, abs=1e-12)

    def test_correlator_equals_quasi_correlator(self, rng):
        for _ in range(20):
            tables = measure_all(sample_model(rng, int(rng.integers(2, 5))))
            for i, j in pair_set(3):
                assert tables.moments.corr(i, j) == pytest.approx(tables.quasi[(i, j)].moment((0, 1)), abs=1e-12)

    def test_four_time_pair_set(self):
        mom = measure_all(precession_model(times=(0.0, 1.0, 2.0, 3.0))).moments
        assert mom.pairs == ((0, 1), (1, 2), (2, 3), (0, 3))
        assert mom.corr(0, 3) == pytest.approx(np.cos(3.0), abs=1e-12)

    def test_two_time_model_error_names_the_times(self, rng):
        message = "measure_all: tables need a model with 3 or 4 times, got 2: (0.0, 1.0)"
        with pytest.raises(ValidationError, match=re.escape(message)):
            measure_all(precession_model(times=(0.0, 1.0)))
        with pytest.raises(ValidationError, match=r"measure_all: .* got 2: \("):
            measure_all(sample_model(rng, 2, n_times=2))


class TestSequentialMoments:
    def test_commuting_contextual_equals_base(self):
        m = QuantumModel(hamiltonian=0.8 * SZ, rho=np.diag([0.6, 0.4]).astype(complex),
                         observable=SZ, times=(0.0, 1.0, 2.0))
        tables = measure_all(m)
        ctx, base = sequential_moments(tables), tables.moments
        assert ctx[("Q2", "1")] == pytest.approx(base.averages[1], abs=1e-14)
        assert ctx[("Q3", "12")] == pytest.approx(base.averages[2], abs=1e-14)
        assert ctx[("C23", "1")] == pytest.approx(base.corr(1, 2), abs=1e-14)
        assert ctx[("C13", "2")] == pytest.approx(base.corr(0, 2), abs=1e-14)

    def test_first_measurement_harmless_for_diagonal_rho(self, rng):
        model = sample_model(rng, 3, rho_mode="q1_diagonal")
        tables = measure_all(model)
        assert sequential_moments(tables)[("Q2", "1")] == pytest.approx(tables.moments.averages[1], abs=1e-12)

    def test_intermediate_measurement_disturbs_generic_state(self):
        model = precession_model(times=(0.7, 1.4, 2.1), rho=RHO_UP)
        tables = measure_all(model)
        shift = abs(sequential_moments(tables)[("Q3", "2")] - tables.moments.averages[2])
        assert shift > 1e-3
        # per-outcome residual of the (2,3) run against p3 equals the witness
        p23, p3 = tables.pairs[(1, 2)], tables.singles[2]
        residual = abs(sum(p23.weight((s2, +1)) for s2 in (-1, +1)) - p3.weight((+1,)))
        assert residual == pytest.approx(witness(p23, p3), abs=1e-12)

    def test_triple_correlator_recorded(self, mixed_qubit):
        tables = measure_all(mixed_qubit)
        ctx = sequential_moments(tables)
        assert ctx[("D", "123")] == pytest.approx(tables.chain.moment((0, 1, 2)), abs=1e-14)

    def test_needs_three_times(self):
        with pytest.raises(ValidationError, match="3 times"):
            sequential_moments(measure_all(precession_model(times=(0.0, 1.0, 2.0, 3.0))))

    def test_grid_matches_scalar_calls(self, rng):
        model = sample_model(rng, 3)
        times = np.sort(rng.uniform(0.0, 3.0, size=(6, 3)), axis=1)
        tables = measure_all(model, times)
        grid = sequential_moments(tables)
        for g in range(len(times)):
            point = sequential_moments(point_tables(tables, g))
            assert {k: v[g] for k, v in grid.items()} == point

    def test_grid_values_are_range_checked(self):
        # a contextual value is a moment of a validated table: a grid chain with
        # <Q2^(1)> = 1.5 at its second point needs negative weights and is rejected
        w = np.full((2, 2, 2, 2), 1 / 8)
        w[1, :, 0, :], w[1, :, 1, :] = -1 / 16, 5 / 16
        assert w[1, :, 1, :].sum() - w[1, :, 0, :].sum() == 1.5
        with pytest.raises(ValidationError, match=r"sequential table weight negative: -0.0625"):
            ProbabilityTable(kind="sequential", time_indices=(0, 1, 2), weights=w)


class TestInterference:
    def test_commuting_is_zero(self):
        m = QuantumModel(hamiltonian=1.1 * SZ, rho=np.diag([0.7, 0.3]).astype(complex),
                         observable=SZ, times=(0.0, 1.0, 2.0))
        tables = measure_all(m)
        assert interference_term(tables.pairs[(0, 1)], tables.quasi[(0, 1)]) == pytest.approx(0.0, abs=1e-14)

    def test_maximally_mixed_is_zero(self, rng):
        for _ in range(10):
            tables = measure_all(sample_model(rng, int(rng.integers(2, 5)), rho_mode="maximally_mixed"))
            t = interference_term(tables.pairs[(0, 1)], tables.quasi[(0, 1)])
            assert t == pytest.approx(0.0, abs=1e-13)

    def test_frozen_value(self):
        # rho = |0><0|, times (pi/4, pi/2): T = <Q1 Q2 Q1 - Q2>/8 = 1/8
        tables = measure_all(precession_model(times=(np.pi / 4, np.pi / 2, 3 * np.pi / 4), rho=RHO_UP))
        assert interference_term(tables.pairs[(0, 1)], tables.quasi[(0, 1)]) == pytest.approx(0.125, abs=1e-12)

    def test_equals_table_subtraction(self):
        tables = measure_all(precession_model(times=(np.pi / 4, np.pi / 2, 3 * np.pi / 4), rho=RHO_UP))
        p, q = tables.pairs[(0, 1)], tables.quasi[(0, 1)]
        t = interference_term(p, q)
        for s1, s2 in outcomes(2):
            assert p.weight((s1, s2)) - q.weight((s1, s2)) == pytest.approx(t * s2, abs=1e-12)

    def test_residue_identity_on_random_models(self, rng):
        for _ in range(50):
            tables = measure_all(sample_model(rng, int(rng.integers(2, 5))))
            for i, j in pair_set(3):
                p, q = tables.pairs[(i, j)], tables.quasi[(i, j)]
                t = interference_term(p, q)
                resid = max(abs(p.weight(o) - q.weight(o) - t * o[1]) for o in outcomes(2))
                assert resid < 1e-12

    def test_matches_operator_form(self, rng):
        # table residue against T = <Q_i Q_j Q_i - Q_j> / 8
        for _ in range(30):
            model = sample_model(rng, int(rng.integers(2, 5)))
            tables = measure_all(model)
            for i, j in pair_set(3):
                qi, qj = model.observable_at(i), model.observable_at(j)
                t_op = expectation(model.rho, qi @ qj @ qi - qj) / 8.0
                t = interference_term(tables.pairs[(i, j)], tables.quasi[(i, j)])
                assert abs(t - t_op) < 1e-12

    def test_rejects_tables_of_different_times(self, mixed_qubit):
        tables = measure_all(mixed_qubit)
        with pytest.raises(ValidationError, match="same pair"):
            interference_term(tables.pairs[(0, 1)], tables.quasi[(1, 2)])

    def test_grid_matches_scalar_calls(self, rng):
        model = sample_model(rng, 3)
        times = np.sort(rng.uniform(0.0, 3.0, size=(6, 3)), axis=1)
        tables = measure_all(model, times)
        for p in pair_set(3):
            grid = interference_term(tables.pairs[p], tables.quasi[p])
            assert grid.shape == (len(times),)
            for g in range(len(times)):
                point = point_tables(tables, g)
                assert grid[g] == interference_term(point.pairs[p], point.quasi[p])

    def test_grid_rejects_an_outcome_dependent_point(self):
        quasi = ProbabilityTable(kind="quasi", time_indices=(0, 1), weights=np.full((2, 2, 2), 0.25))
        # point 0 is outcome-independent (T = 0), point 1 is not
        weights = np.array([[[0.25, 0.25], [0.25, 0.25]], [[0.4, 0.1], [0.1, 0.4]]])
        pair = ProbabilityTable(kind="sequential", time_indices=(0, 1), weights=weights)
        with pytest.raises(ValidationError, match="not outcome-independent"):
            interference_term(pair, quasi)


class TestWitness:
    def test_commuting_is_zero(self):
        m = QuantumModel(hamiltonian=1.1 * SZ, rho=np.diag([0.7, 0.3]).astype(complex),
                         observable=SZ, times=(0.0, 1.0, 2.0))
        tables = measure_all(m)
        assert witness(tables.pairs[(0, 1)], tables.singles[1]) == pytest.approx(0.0, abs=1e-14)

    def test_twice_interference_magnitude(self):
        tables = measure_all(precession_model(times=(np.pi / 4, np.pi / 2, 3 * np.pi / 4), rho=RHO_UP))
        p = tables.pairs[(0, 1)]
        w = witness(p, tables.singles[1])
        assert w == pytest.approx(2 * abs(interference_term(p, tables.quasi[(0, 1)])), abs=1e-12)

    def test_independent_of_s2(self, rng):
        tables = measure_all(sample_model(rng, 3))
        p, p2 = tables.pairs[(0, 1)], tables.singles[1]
        assert witness(p, p2, +1) == pytest.approx(witness(p, p2, -1), abs=1e-14)

    def test_bounded_interference_implies_nonnegative_quasi(self, rng):
        checked = 0
        for _ in range(60):
            tables = measure_all(sample_model(rng, int(rng.integers(2, 5))))
            for i, j in pair_set(3):
                p = tables.pairs[(i, j)]
                w = witness(p, tables.singles[j])
                if 0.5 * w <= p.weights.min():
                    checked += 1
                    assert tables.quasi[(i, j)].weights.min() >= -1e-12
        assert checked > 0

    def test_unbounded_case_exists_with_negative_quasi(self):
        tables = measure_all(precession_model(times=(2 * np.pi / 3, 4 * np.pi / 3, 2 * np.pi), rho=RHO_UP))
        p = tables.pairs[(0, 1)]
        assert 0.5 * witness(p, tables.singles[1]) > p.weights.min()
        assert tables.quasi[(0, 1)].weights.min() < -1e-3

    def test_matches_commutator_form(self, rng):
        # NSIT residual against W = |<Q_i Q_j Q_i - Q_j>| / 4
        for _ in range(30):
            model = sample_model(rng, int(rng.integers(2, 5)))
            tables = measure_all(model)
            for i, j in pair_set(3):
                qi, qj = model.observable_at(i), model.observable_at(j)
                w_op = abs(expectation(model.rho, qi @ qj @ qi - qj)) / 4.0
                for s2 in (-1, +1):
                    assert abs(witness(tables.pairs[(i, j)], tables.singles[j], s2) - w_op) < 1e-12

    def test_rejects_single_table_of_wrong_time(self, mixed_qubit):
        tables = measure_all(mixed_qubit)
        with pytest.raises(ValidationError, match="later time"):
            witness(tables.pairs[(0, 1)], tables.singles[0])
        with pytest.raises(ValidationError, match="s2"):
            witness(tables.pairs[(0, 1)], tables.singles[1], 0)


class TestMomentSet:
    def test_pair_lookup_and_symmetry(self):
        m = MomentSet(averages=(0.1, 0.2, 0.3), correlators=(0.4, 0.5, 0.6))
        assert m.corr(1, 0) == 0.4
        assert m.corr(0, 2) == 0.6

    def test_unknown_pair(self):
        m = MomentSet(averages=(0.0,) * 4, correlators=(0.0,) * 4)
        with pytest.raises(ValidationError, match="pair"):
            m.corr(0, 2)

    def test_range_validation(self):
        with pytest.raises(ValidationError, match="out of"):
            MomentSet(averages=(1.5, 0.0, 0.0), correlators=(0.0, 0.0, 0.0))

    @pytest.mark.parametrize(
        "averages, correlators, shapes",
        [
            ((np.zeros(3), 0.0, 0.0), (0.0,) * 3, "(), (3,)"),
            ((np.zeros(3), np.zeros(2), 0.0), (0.0,) * 3, "(), (2,), (3,)"),
            ((np.zeros(3),) * 3, (0.0,) * 3, "(), (3,)"),
            ((np.zeros(3),) * 3, (np.zeros(2),) * 3, "(2,), (3,)"),
        ],
    )
    def test_grid_values_share_one_shape(self, averages, correlators, shapes):
        # before the check, mr_weak and d_bounds failed on these with a numpy ValueError
        with pytest.raises(ValidationError, match=rf"must share one shape, got {re.escape(shapes)}$"):
            MomentSet(averages=averages, correlators=correlators)

    def test_json_round_trip_with_triple(self):
        m = MomentSet(averages=(0.1, -0.2, 0.3), correlators=(0.0, 0.25, -0.5), triple=0.125)
        back = MomentSet.from_jsonable(m.to_jsonable())
        assert back == m

    def test_missing_pair_listed(self):
        obj = {"n": 3, "avg": [0, 0, 0], "pairs": [[1, 2], [2, 3]], "corr": [0.0, 0.0], "D": None}
        with pytest.raises(ValidationError, match="C13"):
            MomentSet.from_jsonable(obj)

    def test_missing_field_or_non_object_named(self):
        with pytest.raises(InputFormatError, match="missing field 'n'"):
            MomentSet.from_jsonable({})
        with pytest.raises(InputFormatError, match="missing field 'corr'"):
            MomentSet.from_jsonable({"n": 3, "avg": [0, 0, 0], "pairs": [[1, 2], [2, 3], [1, 3]]})
        with pytest.raises(InputFormatError, match="expected a JSON object"):
            MomentSet.from_jsonable([])


class TestExpansionTable:
    """The moment expansion p(s_i, s_j) of a measured pair is its LG2 block
    divided by 4, in outcome order."""

    def test_matches_quasi_for_model_moments(self, rng):
        # the moment expansion over a measured pair reproduces the quasi table
        for _ in range(10):
            tables = measure_all(sample_model(rng, 2))
            for pair in pair_set(3):
                expanded = lg2(tables.moments, pair).values / 4
                q = tables.quasi[pair]
                assert max(abs(expanded[k] - q.weight(o)) for k, o in enumerate(outcomes(2))) < 1e-12

    def test_compatibility_with_single_time_marginals(self, rng):
        # moment-expansion pair tables obey every marginal compatibility relation
        vals = rng.uniform(-0.4, 0.4, 6)
        mom = MomentSet(averages=tuple(vals[:3]), correlators=tuple(vals[3:]))
        for i, j in pair_set(3):
            t = (lg2(mom, (i, j)).values / 4).reshape(2, 2)  # axes (s_i, s_j), -1 first
            for k, s in enumerate((-1, +1)):
                assert t[k, :].sum() == pytest.approx((1 + s * mom.averages[i]) / 2, abs=1e-12)
                assert t[:, k].sum() == pytest.approx((1 + s * mom.averages[j]) / 2, abs=1e-12)


def test_measure_all_bundles_everything(mixed_qubit):
    tables = measure_all(mixed_qubit)
    assert len(tables.singles) == 3
    assert set(tables.pairs) == {(0, 1), (1, 2), (0, 2)}
    assert tables.chain.time_indices == (0, 1, 2)
    assert set(tables.quasi) == {(0, 1), (1, 2), (0, 2)}


def test_pair_tables_depend_only_on_their_own_times(rng):
    # the tables over times {0, 1} do not see the third time, so they are the
    # tables of the 2-time model (t0, t1)
    models = [precession_model(rho=RHO_UP)] + [sample_model(rng, int(rng.integers(2, 5))) for _ in range(5)]
    for model, tau in zip(models, [0.3, 0.7, 1.1, 1.9, 2.6, 4.0]):
        a, b = (
            measure_all(QuantumModel(hamiltonian=model.hamiltonian, rho=model.rho, observable=model.observable,
                                     times=(0.0, tau, k * tau)))
            for k in (2, 5)
        )
        for ta, tb in [(a.singles[0], b.singles[0]), (a.singles[1], b.singles[1]),
                       (a.pairs[(0, 1)], b.pairs[(0, 1)]), (a.quasi[(0, 1)], b.quasi[(0, 1)])]:
            assert (ta.kind, ta.time_indices) == (tb.kind, tb.time_indices)
            assert np.abs(ta.weights - tb.weights).max() <= 1e-14


@pytest.mark.parametrize("times", [(0.0, 0.4, 1.1), (0.0, 0.4, 1.1, 1.9)])
def test_measure_all_moments_read_off_its_tables(times):
    model = precession_model(times=times, rho=RHO_UP)
    tables = measure_all(model)
    assert tables.moments.averages == tuple(t.moment((0,)) for t in tables.singles)
    assert tables.moments.correlators == tuple(tables.pairs[p].moment((0, 1)) for p in pair_set(len(times)))


def loop_tables(model):
    """Reference tables the loop way, one outcome at a time from U(t_i) built
    per time: the depth-first sequential runs, the quasi-probabilities and
    the single-time tables, each weight a trace of dense matrix products."""
    n, rho = model.n_times, model.rho
    lam, vec = np.linalg.eigh(model.hamiltonian)

    def proj(i, s):
        u = vec @ np.diag(np.exp(-1j * lam * model.times[i])) @ vec.conj().T
        q = u.conj().T @ model.observable @ u
        plus = 0.5 * (np.eye(model.dim) + q)
        return plus if s > 0 else np.eye(model.dim) - plus

    def sequential(idx):
        weights, stack = {}, [((), rho)]
        while stack:
            prefix, state = stack.pop()
            if len(prefix) == len(idx):
                weights[prefix] = float(np.trace(state).real)
                continue
            for s in (-1, +1):
                p = proj(idx[len(prefix)], s)
                stack.append((prefix + (s,), p @ state @ p))
        return weights

    quasi = {
        (i, j): {
            (s1, s2): 0.5 * float(np.trace((proj(j, s2) @ proj(i, s1) + proj(i, s1) @ proj(j, s2)) @ rho).real)
            for s1, s2 in outcomes(2)
        }
        for i, j in pair_set(n)
    }
    singles = [{(s,): float(np.trace(proj(i, s) @ rho).real) for s in (-1, +1)} for i in range(n)]
    pairs = {p: sequential(p) for p in pair_set(n)}
    return singles, pairs, sequential(tuple(range(n))), quasi


class TestArrayTablesAgainstLoops:
    """measure_all's whole-array tables, moments and marginals against the
    per-outcome loops they replaced, within 1e-12."""

    @staticmethod
    def assert_table(table, weights):
        assert max(abs(table.weight(o) - w) for o, w in weights.items()) < 1e-12

    @pytest.mark.parametrize("n_times", [3, 4])
    def test_random_models(self, rng, n_times):
        for _ in range(15):
            model = sample_model(rng, int(rng.integers(2, 6)), n_times)
            tables = measure_all(model)
            singles, pairs, chain, quasi = loop_tables(model)
            for table, weights in zip(tables.singles, singles):
                self.assert_table(table, weights)
            for p in pair_set(n_times):
                self.assert_table(tables.pairs[p], pairs[p])
                self.assert_table(tables.quasi[p], quasi[p])
            self.assert_table(tables.chain, chain)
            for positions in [(0,), (1,), (0, 1), (0, 2), (0, 1, 2), tuple(range(n_times))]:
                want = sum(w * np.prod([o[k] for k in positions]) for o, w in chain.items())
                assert abs(tables.chain.moment(positions) - want) < 1e-12
            for drop in range(n_times):
                marg = {}
                for o, w in chain.items():
                    key = o[:drop] + o[drop + 1:]
                    marg[key] = marg.get(key, 0.0) + w
                self.assert_table(tables.chain.marginal(drop), marg)
