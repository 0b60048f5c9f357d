import copy
import dataclasses
import functools
import importlib
import itertools
import json
import pickle
import pkgutil
import re

import numpy as np
import pytest

import mrtest
from mrtest.conditions import lg2, mr_weak
from mrtest.errors import InputFormatError, ValidationError
from mrtest.fine import d_interval
from mrtest.harness import _model_block, default_model_path, load_model, load_sweep_spec, model_from_jsonable, sample_model
from mrtest.measurement import (
    PAIR_SETS,
    MomentSet,
    ProbabilityTable,
    TableSet,
    interference_term,
    measure_all,
    outcome_key,
    outcomes,
    pair_set,
    sequential_moments,
    witness,
)
from mrtest.measurement import SIGNS, _quasi_weights, _tables
from mrtest.quantum import QuantumModel, _spectral, expectation
from mrtest.tolerances import TOL

from conftest import SX, SZ, at_time, point_tables, precession_model, weight

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
        assert weight(t, (+1, +1)) == -0.1
        with pytest.raises(ValidationError, match=r"quasi weight out of \[-1, 1\]: 1.5"):
            ProbabilityTable(kind="quasi", time_indices=(0, 1), weights=np.array([[1.5, -0.5], [0.0, 0.0]]))

    def test_rejects_incomplete_outcomes(self):
        with pytest.raises(ValidationError, match="cover"):
            ProbabilityTable(kind="single", time_indices=(0,), weights=np.array([1.0]))
        with pytest.raises(ValidationError, match="cover"):
            ProbabilityTable(kind="sequential", time_indices=(0, 1), weights=np.full(4, 0.25))

    @pytest.mark.parametrize("kind, indices, weights, named", [
        ("classical", (0,), [0.5, 0.5], "table kind must be one of"),
        ("single", (), 1.0, "table arity must be 1-4, got 0"),
        ("joint", tuple(range(5)), np.full((2,) * 5, 1 / 32), "table arity must be 1-4, got 5"),
    ])
    def test_rejects_kind_and_arity(self, kind, indices, weights, named):
        with pytest.raises(ValidationError, match=named):
            ProbabilityTable(kind=kind, time_indices=indices, weights=weights)

    def test_unnormalized_grid_names_its_first_total(self):
        w = np.full((4, 2, 2, 2), 0.125)
        w[1, 0, 1, 1] = w[2, 1, 1, 0] = 0.5
        with pytest.raises(ValidationError, match=r"^table weights must sum to 1, got 1\.375$"):
            ProbabilityTable(kind="sequential", time_indices=(0, 1, 2), weights=w)

    def test_marginal_bit_equal_to_the_axis_sum(self):
        """Adding the two slices of the summed-out axis, against numpy's sum
        over it, on a sweep block of the shipped tau spec, a 12-model dim-16
        campaign block, and every sequential and quasi table of both."""
        spec = json.loads(default_model_path().with_name("tau_sweep_lg3.json").read_text())
        model = model_from_jsonable(spec["model"])
        taus = np.linspace(spec["from"], spec["to"], 819)
        h, rho, q, times = _model_block([np.random.default_rng(k) for k in range(12)], 16)
        lam, vec = np.linalg.eigh(h)
        for tables in (measure_all(model, model.times[0] + np.arange(3) * taus[:, None]),
                       _tables(_spectral(lam, vec, q, times)[2], rho)):
            for table in (*tables.pairs.values(), tables.chain, *tables.quasi.values()):
                for pos, i in enumerate(table.time_indices):
                    want = table.weights.sum(axis=pos - table.arity)
                    assert table.marginal(i).weights.tobytes() == want.tobytes(), (table.kind, i)

    def test_to_jsonable_refuses_a_grid(self):
        # before the check, a grid table wrote its first point's weights as if it were one table
        model = precession_model()
        tables = measure_all(model, np.array([model.times, (0.0, 0.5, 1.0)]))
        with pytest.raises(ValidationError, match=r"^to_jsonable: one table only, got a grid of shape \(2,\)$"):
            tables.chain.to_jsonable()
        assert measure_all(model).chain.to_jsonable()["arity"] == 3

    @pytest.mark.parametrize("positions, bad", [((3,), "3"), ((0, 7), "7"), ((-1, 1), "-1")])
    def test_moment_rejects_a_position_outside_the_table(self, positions, bad):
        # such positions were skipped: moment((3,)) read 1.0 and moment((0, 7)) read 0.0 on this table
        t = ProbabilityTable(kind="joint", time_indices=(0, 1, 2), weights=np.full((2, 2, 2), 0.125))
        with pytest.raises(ValidationError, match=rf"^moment: position {bad} outside 0\.\.2 for a table of arity 3$"):
            t.moment(positions)

    def test_rejects_repeated_time_indices(self):
        # such a table used to build, and its marginal(0) then failed on an unrelated sum
        with pytest.raises(ValidationError, match=r"^table time_indices must be distinct, got \(0, 0, 1\)$"):
            ProbabilityTable(kind="joint", time_indices=(0, 0, 1), weights=np.full((2, 2, 2), 0.125))

    @pytest.mark.parametrize("n", [3, 4])
    def test_every_built_table_has_distinct_time_indices(self, rng, n):
        model = sample_model(rng, 3, n_times=n)
        tables = measure_all(model)
        built = [*tables.singles, *tables.pairs.values(), tables.chain, *tables.quasi.values()]
        built.append(d_interval(MomentSet(averages=(0.0,) * n, correlators=(0.0,) * n)).witness_table)
        built += [t.marginal(i) for t in built for i in t.time_indices if t.arity > 1]
        assert all(len(set(t.time_indices)) == t.arity for t in built)

    def test_marginal_of_an_unmeasured_time(self):
        t = ProbabilityTable(kind="sequential", time_indices=(0, 1), weights=np.full((2, 2), 0.25))
        with pytest.raises(ValidationError, match=r"time index 2 not in table \(0, 1\)"):
            t.marginal(2)

    def test_outcome_keys(self):
        assert outcome_key((-1, +1, -1)) == "-+-"

    def test_lexicographic_order_minus_first(self):
        assert outcomes(2) == [(-1, -1), (-1, +1), (+1, -1), (+1, +1)]


class TestSingleTime:
    def test_eigenstate_is_deterministic(self):
        m = QuantumModel(hamiltonian=np.zeros((2, 2)), rho=RHO_UP, observable=SZ, times=(0.0, 1.0, 2.0))
        t = measure_all(m).singles[0]
        assert weight(t, (+1,)) == pytest.approx(1.0, abs=1e-14)
        assert weight(t, (-1,)) == pytest.approx(0.0, abs=1e-14)

    def test_maximally_mixed_is_even(self, mixed_qubit):
        for t in measure_all(mixed_qubit).singles:
            assert weight(t, (+1,)) == pytest.approx(0.5, abs=1e-14)

    def test_quarter_turn(self):
        # <Q(t)> = cos(wt) for rho = |0><0|; at wt = pi/2 both outcomes even
        m = precession_model(times=(np.pi / 2, np.pi, 3 * np.pi / 2), rho=RHO_UP)
        t = measure_all(m).singles[0]
        assert weight(t, (+1,)) == pytest.approx(0.5, abs=1e-12)

    def test_matches_moment_expansion(self, mixed_qubit):
        for t in measure_all(mixed_qubit).singles:
            avg = t.moment((0,))
            for s in (-1, +1):
                assert weight(t, (s,)) == pytest.approx((1 + s * avg) / 2, abs=1e-12)


class TestSequential:
    def test_repeated_time_reproduces_single(self):
        tables = measure_all(precession_model(times=(0.5, 0.5, 1.0)))
        t, single = tables.pairs[(0, 1)], tables.singles[0]
        for s in (-1, +1):
            assert weight(t, (s, s)) == pytest.approx(weight(single, (s,)), abs=1e-14)
            assert weight(t, (s, -s)) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("tau", [0.4, np.pi / 3, 2.0])
    def test_maximally_mixed_closed_form(self, tau):
        # p(s1, s2) = (1 + s1 s2 cos(w tau)) / 4 for rho = I/2
        t = measure_all(precession_model(times=(0.0, tau, 2 * tau))).pairs[(0, 1)]
        for s1, s2 in outcomes(2):
            assert weight(t, (s1, s2)) == pytest.approx((1 + s1 * s2 * np.cos(tau)) / 4, abs=1e-12)

    def test_frozen_hamiltonian_chain(self):
        m = QuantumModel(hamiltonian=np.zeros((2, 2)), rho=RHO_UP, observable=SZ, times=(0.0, 1.0, 2.0))
        t = measure_all(m).chain
        assert weight(t, (+1, +1, +1)) == pytest.approx(1.0, abs=1e-14)
        assert sum(abs(weight(t, o)) for o in outcomes(3) if o != (1, 1, 1)) < 1e-14

    def test_marginalizing_last_time_drops_measurement(self, rng):
        for k in range(20):
            tables = measure_all(sample_model(rng, int(rng.integers(2, 5))))
            marg, pair = tables.chain.marginal(2), tables.pairs[(0, 1)]
            assert max(abs(weight(marg, o) - weight(pair, o)) for o in outcomes(2)) < 1e-12


class TestQuasi:
    def test_equals_sequential_for_maximally_mixed(self, mixed_qubit):
        tables = measure_all(mixed_qubit)
        p, q = tables.pairs[(0, 1)], tables.quasi[(0, 1)]
        assert max(abs(weight(q, o) - weight(p, o)) for o in outcomes(2)) < 1e-12

    def test_equals_sequential_for_commuting(self):
        m = QuantumModel(hamiltonian=1.3 * SZ, rho=np.diag([0.7, 0.3]).astype(complex),
                         observable=SZ, times=(0.0, 1.0, 2.0))
        tables = measure_all(m)
        p, q = tables.pairs[(0, 1)], tables.quasi[(0, 1)]
        assert max(abs(weight(q, o) - weight(p, o)) for o in outcomes(2)) < 1e-14

    def test_eigenstate_kills_minus_branch(self):
        # rho in the Q(t1)=+1 eigenspace: q(-1, s2) = 0 from the expansion
        m = precession_model(times=(0.0, np.pi / 3, 2 * np.pi / 3), rho=RHO_UP)
        q = measure_all(m).quasi[(0, 1)]
        assert weight(q, (-1, -1)) == pytest.approx(0.0, abs=1e-12)
        assert weight(q, (-1, +1)) == pytest.approx(0.0, abs=1e-12)
        # and the +1 branch matches 1/4 (2 + s2) at c = 1/2
        assert weight(q, (+1, +1)) == pytest.approx(0.75, abs=1e-12)
        assert weight(q, (+1, -1)) == pytest.approx(0.25, abs=1e-12)

    def test_negative_entry_case(self):
        # frozen: rho = |0><0|, times (2pi/3, 4pi/3) -> q(+,+) = -1/8
        m = precession_model(times=(2 * np.pi / 3, 4 * np.pi / 3, 2 * np.pi), rho=RHO_UP)
        q = measure_all(m).quasi[(0, 1)]
        assert weight(q, (+1, +1)) == pytest.approx(-0.125, abs=1e-12)

    def test_marginals_match_single_time(self, rng):
        for _ in range(25):
            tables = measure_all(sample_model(rng, int(rng.integers(2, 5))))
            for i, j in pair_set(3):
                q = tables.quasi[(i, j)]
                si, sj = tables.singles[i], tables.singles[j]
                for s in (-1, +1):
                    assert weight(q.marginal(j), (s,)) == pytest.approx(weight(si, (s,)), abs=1e-12)
                    assert weight(q.marginal(i), (s,)) == pytest.approx(weight(sj, (s,)), abs=1e-12)


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
        residual = abs(sum(weight(p23, (s2, +1)) for s2 in (-1, +1)) - weight(p3, (+1,)))
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
            assert weight(p, (s1, s2)) - weight(q, (s1, s2)) == pytest.approx(t * s2, abs=1e-12)

    def test_residue_identity_on_random_models(self, rng):
        for _ in range(50):
            tables = measure_all(sample_model(rng, int(rng.integers(2, 5))))
            for i, j in pair_set(3):
                p, q = tables.pairs[(i, j)], tables.quasi[(i, j)]
                t = interference_term(p, q)
                resid = max(abs(weight(p, o) - weight(q, o) - t * o[1]) for o in outcomes(2))
                assert resid < 1e-12

    def test_matches_operator_form(self, rng):
        # table residue against T = <Q_i Q_j Q_i - Q_j> / 8
        for _ in range(30):
            model = sample_model(rng, int(rng.integers(2, 5)))
            tables = measure_all(model)
            for i, j in pair_set(3):
                qi, qj = at_time(model, i).observable, at_time(model, j).observable
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
                qi, qj = at_time(model, i).observable, at_time(model, j).observable
                w_op = abs(expectation(model.rho, qi @ qj @ qi - qj)) / 4.0
                for s2 in (-1, +1):
                    assert abs(witness(tables.pairs[(i, j)], tables.singles[j], s2) - w_op) < 1e-12

    def test_bit_equal_to_the_outcome_sum(self, rng):
        """One array sum over the first outcome axis, against the per-outcome
        Python sum, on one model, a sweep grid and a campaign block."""
        model = precession_model(times=(0.3, 1.1, 2.9), rho=RHO_UP)
        h, rho, q, times = _model_block([np.random.default_rng(k) for k in range(12)], 4)
        lam, vec = np.linalg.eigh(h)
        shapes = [
            measure_all(model),
            measure_all(model, np.linspace(0.0, 2 * np.pi, 600).reshape(200, 3)),
            measure_all(sample_model(rng, 3), rng.uniform(0.0, 5.0, size=(4, 6, 3))),
            _tables(_spectral(lam, vec, q, times)[2], rho),
        ]
        for tables in shapes:
            for i, j in pair_set(3):
                pair, single = tables.pairs[(i, j)], tables.singles[j]
                for s2 in SIGNS:
                    want = abs(sum(weight(pair, (s1, s2)) for s1 in SIGNS) - weight(single, (s2,)))
                    got = witness(pair, single, s2)
                    assert type(got) is type(want)
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_rejects_single_table_of_wrong_time(self, mixed_qubit):
        tables = measure_all(mixed_qubit)
        with pytest.raises(ValidationError, match="later time"):
            witness(tables.pairs[(0, 1)], tables.singles[0])
        with pytest.raises(ValidationError, match="s2"):
            witness(tables.pairs[(0, 1)], tables.singles[1], 0)


class TestMomentSet:
    @pytest.mark.parametrize(
        "n, want", [(3.0, ((0, 1), (1, 2), (0, 2))), (np.int64(4), ((0, 1), (1, 2), (2, 3), (0, 3)))]
    )
    def test_pair_set_of_a_number_equal_to_3_or_4(self, n, want):
        assert pair_set(n) == want == PAIR_SETS[int(n)]

    @pytest.mark.parametrize("n", [2, True, [3]])
    def test_pair_set_rejects_other_counts(self, n):
        with pytest.raises(ValidationError, match=re.escape(f"moment sets are defined for 3 or 4 times, got {n!r}")):
            pair_set(n)

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

    def test_correlator_count(self):
        with pytest.raises(ValidationError, match="need 3 correlators for 3 times, got 2"):
            MomentSet(averages=(0.0,) * 3, correlators=(0.0,) * 2)

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

    @pytest.mark.parametrize(
        "averages, correlators",
        [
            ([0, 1, -1], [0.5, 0, 0]),
            ((np.float64(0.1), np.float64(-0.2), 0), [np.float64(0.3)] * 3),
            (np.array([0.1, 0.2, 0.3]), (1, 0.0, -1)),
            ([0.0] * 4, [0.25, -0.25, 0, 1]),
        ],
    )
    def test_one_set_stores_tuples_of_python_floats(self, averages, correlators):
        m = MomentSet(averages=averages, correlators=correlators)
        assert type(m.averages) is tuple and type(m.correlators) is tuple
        assert all(type(x) is float for x in m.averages + m.correlators)
        assert m.averages + m.correlators == tuple(float(x) for x in [*averages, *correlators])

    @pytest.mark.parametrize(
        "value, text", [(float("nan"), "nan"), (float("inf"), "inf"), (-float("inf"), "-inf"), (1 + 2e-12, "1.000000000002")]
    )
    def test_out_of_range_named_alike_for_floats_and_grids(self, value, text):
        for grid in (False, True):
            def at(x):
                return np.full(2, x) if grid else x

            with pytest.raises(ValidationError, match=rf"^average out of \[-1, 1\]: {re.escape(text)}$"):
                MomentSet(averages=(at(0.0), at(value), at(0.0)), correlators=(at(value),) + (at(0.0),) * 2)
            with pytest.raises(ValidationError, match=rf"^correlator out of \[-1, 1\]: {re.escape(text)}$"):
                MomentSet(averages=(at(0.0),) * 4, correlators=(at(0.0),) * 3 + (at(value),))
        # a moments file, its pairs in canonical order or not
        for pairs, corr in (([[1, 2], [2, 3], [1, 3]], [value, 0.0, 0.0]), ([[1, 3], [2, 3], [2, 1]], [0.0, 0.0, value])):
            obj = {"n": 3, "avg": [0.0] * 3, "pairs": pairs, "corr": corr}
            with pytest.raises(ValidationError, match=rf"^correlator out of \[-1, 1\]: {re.escape(text)}$"):
                MomentSet.from_jsonable(obj)

    def test_grid_values_are_copied_read_only(self, rng):
        x = rng.uniform(-0.5, 0.5, size=(6, 5))
        columns = list(x.copy())
        m = MomentSet(averages=tuple(columns[:3]), correlators=tuple(columns[3:]))
        before = mr_weak(m).values.copy()
        for column in columns:
            column[:] = 1.0  # writes the caller's arrays, not the set's
        assert mr_weak(m).values.tobytes() == before.tobytes()
        assert mr_weak(MomentSet(averages=tuple(x[:3]), correlators=tuple(x[3:]))).values.tobytes() == before.tobytes()
        for value in m.averages + m.correlators + (mr_weak(m).values,):
            assert not value.flags.writeable

    def test_file_order_of_pairs_does_not_matter(self):
        canonical = {"n": 4, "avg": [0.1, 0.2, 0.3, 0.4], "pairs": [[1, 2], [2, 3], [3, 4], [1, 4]], "corr": [0.5, 0.6, 0.7, 0.8]}
        shuffled = {"n": 4, "avg": [0.1, 0.2, 0.3, 0.4], "pairs": [[4, 1], [3, 2], [2, 1], [4, 3]], "corr": [0.8, 0.6, 0.5, 0.7]}
        m = MomentSet.from_jsonable(canonical)
        assert MomentSet.from_jsonable(shuffled) == m
        assert m.correlators == (0.5, 0.6, 0.7, 0.8)
        # JSON integers are numbers in either order
        ints = {"n": 3, "avg": [0, 1, -1], "pairs": [[1, 2], [2, 3], [1, 3]], "corr": [0, 1, -1]}
        assert MomentSet.from_jsonable(ints).averages == (0.0, 1.0, -1.0)
        # every order of the pairs, each pair in either orientation, D absent or null, floats or integers
        files = {3: [([0.1, -0.2, 0.3], [0.5, -0.25, 0.125]), ([0, 1, -1], [1, -1, 0])],
                 4: [([0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.7, 0.8]), ([0, 1, -1, 0], [1, 0, -1, 1])]}
        for n, values in files.items():
            pairs = [[i + 1, j + 1] for i, j in PAIR_SETS[n]]
            for avg, corr in values:
                want = MomentSet.from_jsonable({"n": n, "avg": avg, "pairs": pairs, "corr": corr})
                assert want == MomentSet(averages=tuple(avg), correlators=tuple(corr))
                assert {type(x) for x in want.averages + want.correlators} == {float}
                for order in itertools.permutations(range(len(pairs))):
                    for flips in itertools.product((False, True), repeat=len(pairs)):
                        obj = {"n": n, "avg": avg, "corr": [corr[k] for k in order],
                               "pairs": [pairs[k][::-1] if flip else pairs[k] for k, flip in zip(order, flips)]}
                        for d in ({}, {"D": None}):
                            got = MomentSet.from_jsonable({**obj, **d})
                            assert got == want and {type(x) for x in got.averages + got.correlators} == {float}

    @pytest.mark.parametrize("pair", [[True, 2], [1.0, 2], [1, 2.0]])
    def test_canonical_pairs_must_be_integers(self, pair):
        obj = {"n": 3, "avg": [0.0] * 3, "pairs": [pair, [2, 3], [1, 3]], "corr": [0.0] * 3}
        with pytest.raises(InputFormatError, match=re.escape(f"pairs[0] must be two time indices in 1..3, got {pair!r}")):
            MomentSet.from_jsonable(obj)

    def test_to_jsonable_refuses_a_grid(self):
        # before the check, a grid moment set returned arrays, which json.dumps rejects
        model = precession_model()
        moments = measure_all(model, np.array([model.times, (0.0, 0.5, 1.0)])).moments
        with pytest.raises(ValidationError, match=r"^to_jsonable: one moment set only, got a grid of shape \(2,\)$"):
            moments.to_jsonable()
        assert measure_all(model).moments.to_jsonable()["n"] == 3

    def test_json_round_trip_writes_null_triple(self):
        m = MomentSet(averages=(0.1, -0.2, 0.3), correlators=(0.0, 0.25, -0.5))
        obj = m.to_jsonable()
        assert obj["D"] is None
        assert MomentSet.from_jsonable(obj) == m

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


def assert_same_tables(a: TableSet, b: TableSet) -> None:
    """Every table of a and b bit for bit, and their moments equal."""
    for x, y in zip((*a.singles, *a.pairs.values(), a.chain, *a.quasi.values()),
                    (*b.singles, *b.pairs.values(), b.chain, *b.quasi.values()), strict=True):
        assert (x.kind, x.time_indices) == (y.kind, y.time_indices)
        assert x.weights.tobytes() == y.weights.tobytes()
    assert a.moments == b.moments


MODEL_FIELDS = ("hamiltonian", "rho", "observable", "times")


def contents(x):
    """What a value holds, field by field, to compare values that compare by identity."""
    if dataclasses.is_dataclass(x):
        return type(x), tuple(contents(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (tuple, list)):
        return tuple(map(contents, x))
    return x


class TestDerivedValues:
    """Models and tables copy their inputs read-only and derive the rest, so a
    model made by ``dataclasses.replace`` measures as a freshly built one."""

    @pytest.mark.parametrize("field, value", [("times", (0.0, 2.0, 4.0)), ("hamiltonian", SX / 4 + SZ / 3)])
    @pytest.mark.parametrize("replaced_first", [False, True])
    def test_replace_measures_as_a_fresh_model(self, field, value, replaced_first):
        m = load_model(default_model_path())
        replaced = dataclasses.replace(m, **{field: value})
        measured = {id(x): measure_all(x) for x in ((replaced, m) if replaced_first else (m, replaced))}
        fresh = QuantumModel(**{**{f: getattr(m, f) for f in MODEL_FIELDS}, field: value})
        assert_same_tables(measured[id(replaced)], measure_all(fresh))
        assert_same_tables(measured[id(m)], measure_all(load_model(default_model_path())))
        assert measured[id(replaced)].moments != measured[id(m)].moments

    def test_derived_arrays_are_read_only(self):
        m = load_model(default_model_path())
        tables = measure_all(m)
        for a in (*m.hamiltonian_eig, tables.chain.weights):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        # spectral() builds new arrays on every call, so writing into them cannot
        # reach the next tables (two shared copies of diag(1, 0) would sum to 2)
        m.spectral()[2][1] = np.diag([1.0, 0.0])
        for a in m.spectral():
            a[...] = 0
        assert_same_tables(measure_all(m), tables)

    def test_grid_moment_sets_compare_as_one_bool(self):
        m = load_model(default_model_path())
        times = m.times[0] + np.arange(3) * np.linspace(0.0, 3.0, 7)[:, None]
        a, b = measure_all(m, times).moments, measure_all(m, times).moments
        assert a == b and not a != b
        assert a != measure_all(m, times[::-1]).moments
        # a different grid shape, one set, and a set with the same values and no grid are not equal
        assert a != measure_all(m, times[:6]).moments and a != measure_all(m).moments
        assert measure_all(m, times[:1]).moments != measure_all(m, times[0]).moments
        with pytest.raises(TypeError):
            hash(a)

    def test_a_moment_set_is_never_equal_to_another_type(self):
        # __eq__ defers to the other operand, so == falls back to identity and is False
        m = MomentSet(averages=(0.0,) * 3, correlators=(0.5,) * 3)
        assert m.__eq__(1) is NotImplemented and m.__eq__((0.0,) * 3 + (0.5,) * 3) is NotImplemented
        assert (m == 1) is False and (m == object()) is False and (m != (0.0,) * 3 + (0.5,) * 3) is True

    def test_values_holding_arrays_compare_and_hash_by_identity(self):
        path = default_model_path()
        a, b = load_model(path), load_model(path)
        assert a != b and a == a and b == b
        ta, tb = measure_all(a), measure_all(b)
        spec = path.with_name("tau_sweep_lg3.json")
        assert load_sweep_spec(spec) != load_sweep_spec(spec)
        values = (a, ta.chain, ta, mr_weak(ta.moments), d_interval(ta.moments))
        for x, y in zip(values, (b, tb.chain, tb, mr_weak(tb.moments), d_interval(tb.moments))):
            assert x != y and x == x and hash(x) == hash(x)
        assert len(set(values)) == 5
        # one moment set keeps value equality
        assert ta.moments == tb.moments and hash(ta.moments) == hash(tb.moments)

    def test_value_classes_hold_only_their_fields(self):
        """Every mrtest dataclass with no ``cached_property`` is slotted; the two with
        one keep the instance dict it caches in.  A slotted value refuses an undeclared
        attribute and survives pickle, deepcopy and ``dataclasses.replace``."""
        modules = [importlib.import_module(f"mrtest.{info.name}") for info in pkgutil.iter_modules(mrtest.__path__)]
        classes = {
            cls for module in modules for cls in vars(module).values()
            if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
        }
        caching = {cls for cls in classes if any(isinstance(v, functools.cached_property) for v in vars(cls).values())}
        assert caching == {QuantumModel, TableSet}
        m = load_model(default_model_path())
        tables = measure_all(m)
        for value, name in ((m, "hamiltonian_eig"), (tables, "moments")):
            assert not hasattr(type(value), "__slots__")
            assert getattr(value, name) is getattr(value, name) is vars(value)[name]
        report = mr_weak(tables.moments)
        assert report._margin is not None and tables.moments._record is not None
        spec = load_sweep_spec(default_model_path().with_name("tau_sweep_lg3.json"))
        values = [tables.chain, tables.moments, report, d_interval(tables.moments), spec, TOL]
        assert {type(x) for x in values} == classes - caching
        for x in values:
            cls, fields = type(x), dataclasses.fields(x)
            assert cls.__slots__ == tuple(f.name for f in fields) and not hasattr(x, "__dict__"), cls
            with pytest.raises(AttributeError):
                object.__setattr__(x, "extra", 0)
            for copied in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
                assert type(copied) is cls and contents(copied) == contents(x), cls
            # replace builds through __init__, so what was derived after construction is reset
            replaced = dataclasses.replace(x)
            for f in fields:
                assert contents(getattr(replaced, f.name)) == (contents(getattr(x, f.name)) if f.init else None), cls
        # mr_weak's copied margin is reset, and the verdict read from the values again
        assert dataclasses.replace(report).verdict is report.verdict is False

    def test_table_maps_are_read_only_copies(self):
        tables = measure_all(load_model(default_model_path()))
        c12 = tables.moments.corr(0, 1)
        # once the moments are cached, swapping a table would leave them stale
        for tables_map in (tables.pairs, tables.quasi):
            with pytest.raises(TypeError):
                tables_map[(0, 1)] = tables_map[(0, 2)]
        given = dict(tables.pairs)
        copied = TableSet(singles=tables.singles, pairs=given, chain=tables.chain, quasi=tables.quasi)
        given[(0, 1)] = given[(0, 2)]
        assert copied.pairs[(0, 1)] is tables.pairs[(0, 1)]
        assert tables.moments.corr(0, 1) == copied.moments.corr(0, 1) == c12

    def test_caller_arrays_stay_writable_and_unshared(self):
        h, w = SX / 2, np.array([0.25, 0.75])
        m = QuantumModel(hamiltonian=h, rho=np.eye(2) / 2, observable=SZ.copy(), times=(0.0, 1.0, 2.0))
        t = ProbabilityTable(kind="single", time_indices=(0,), weights=w)
        for given, stored in ((h, m.hamiltonian), (w, t.weights)):
            assert given.flags.writeable and not stored.flags.writeable
            assert stored is not given and not np.shares_memory(stored, given)

    def test_derived_values_are_not_constructor_fields(self):
        m = load_model(default_model_path())
        with pytest.raises(TypeError, match="_cache"):
            QuantumModel(**{f: getattr(m, f) for f in MODEL_FIELDS}, _cache={})
        t = measure_all(m)
        with pytest.raises(TypeError, match="moments"):
            TableSet(singles=t.singles, pairs=t.pairs, chain=t.chain, quasi=t.quasi, moments=t.moments)


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
                assert max(abs(expanded[k] - weight(q, o)) for k, o in enumerate(outcomes(2))) < 1e-12

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
    per-outcome loops they replaced, within 1e-12: for one model at a time,
    and point by point over a grid of times."""

    @staticmethod
    def assert_table(table, weights, point=()):
        assert max(abs(np.asarray(weight(table, o))[point] - w) for o, w in weights.items()) < 1e-12

    def assert_tables(self, tables, model, point=()):
        singles, pairs, chain, quasi = loop_tables(model)
        for table, weights in zip(tables.singles, singles):
            self.assert_table(table, weights, point)
        for p in pair_set(model.n_times):
            self.assert_table(tables.pairs[p], pairs[p], point)
            self.assert_table(tables.quasi[p], quasi[p], point)
        self.assert_table(tables.chain, chain, point)
        return chain

    @pytest.mark.parametrize("n_times", [3, 4])
    def test_random_models(self, rng, n_times):
        # d = 2 and 3 take the unrolled stack contractions, d = 4 and 5 the BLAS ones
        for dim in [2, 3, 4, 5] * 4:
            model = sample_model(rng, dim, n_times)
            tables = measure_all(model)
            chain = self.assert_tables(tables, model)
            for positions in [(0,), (1,), (0, 1), (0, 2), (0, 1, 2), tuple(range(n_times))]:
                want = sum(w * np.prod([o[k] for k in positions]) for o, w in chain.items())
                assert abs(tables.chain.moment(positions) - want) < 1e-12
            for drop in range(n_times):
                marg = {}
                for o, w in chain.items():
                    key = o[:drop] + o[drop + 1:]
                    marg[key] = marg.get(key, 0.0) + w
                self.assert_table(tables.chain.marginal(drop), marg)

    @pytest.mark.parametrize("n_times", [3, 4])
    def test_dim16_models(self, rng, n_times):
        for _ in range(3):
            model = sample_model(rng, 16, n_times)
            self.assert_tables(measure_all(model), model)

    @pytest.mark.parametrize("n_times", [3, 4])
    @pytest.mark.parametrize("dim", [2, 4, 16])
    def test_grid_of_times_point_by_point(self, rng, dim, n_times):
        model = sample_model(rng, dim, n_times)
        times = np.sort(rng.uniform(-3.0, 3.0, size=(2, 3, n_times)), axis=-1)
        times[0, 0] = times[0, 0, :1]  # one point of back-to-back measurements at a single time
        tables = measure_all(model, times)
        for point in np.ndindex(times.shape[:-1]):
            at = QuantumModel(hamiltonian=model.hamiltonian, rho=model.rho, observable=model.observable,
                              times=tuple(times[point]))
            self.assert_tables(tables, at, point)


class TestQuasiResidueCheck:
    """The quasi kernel's one pairing, Re Tr(P_j P_i rho), equals the
    symmetrized operator form that ``expectation`` traces."""

    def test_unperturbed_stack_gives_the_tables(self):
        model = precession_model(times=(0.3, 1.1, 2.0), rho=np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]))
        rho, proj = model.rho, model.spectral()[2]
        q = _quasi_weights(proj, proj @ rho, 0, 1)
        sym = 0.5 * expectation(rho, proj[1][None, :] @ proj[0][:, None] + proj[0][:, None] @ proj[1][None, :])
        assert np.abs(q - sym).max() < 1e-15
