import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from mrtest import conditions, measurement
from mrtest.conditions import (
    ROWS,
    ConditionReport,
    _affine_values,
    lg2,
    lg3,
    lg4,
    mr_int,
    mr_strong,
    mr_weak,
    nsit,
    nsit_pairwise,
)
from mrtest.errors import ValidationError
from mrtest.fine import triple_expansion_table
from mrtest import harness
from mrtest.harness import _model_block, default_model_path, load_model, sample_model, sweep_blocks, sweep_spec_from_jsonable
from mrtest.measurement import (
    PAIR_SETS,
    MomentSet,
    ProbabilityTable,
    measure_all,
    outcome_key,
    outcomes,
    pair_set,
    sequential_moments,
    witness,
)
from mrtest.quantum import QuantumModel, _spectral
from mrtest.tolerances import TOL

from conftest import SZ, column_sums, nsit_families_reference, point_tables, precession_model, sweep_specs, weight

RHO_UP = np.diag([1.0, 0.0]).astype(complex)


def one_row(value, equality: bool, epsilon: float):
    """(margin, verdict, kind) of a one-row report: scalars, or arrays over a
    grid for an array value, whose kind is None (its JSON is for one set)."""
    value = np.asarray(value)
    report = ConditionReport(names=("x",), values=value[None], equality=np.array([equality]), epsilon=epsilon)
    kind = report.to_jsonable()["checks"][0]["kind"] if value.ndim == 0 else None
    return report.margins["x"], report.verdict, kind


class TestCheckSemantics:
    @given(st.floats(-2, 2), st.floats(1e-12, 1e-3))
    def test_ge_margin_rule(self, value, epsilon):
        margin, passed, kind = one_row(value, False, epsilon)
        assert kind == ">=0"
        assert margin == value
        assert passed == (value >= -epsilon)
        v = np.array([value, -value, epsilon, -epsilon, -2 * epsilon])
        margin, passed, _ = one_row(v, False, epsilon)
        assert np.array_equal(margin, v)
        assert np.array_equal(passed, v >= -epsilon)

    @given(st.floats(-2, 2), st.floats(1e-12, 1e-3))
    def test_eq_margin_rule(self, value, epsilon):
        margin, passed, kind = one_row(value, True, epsilon)
        assert kind == "=0"
        assert margin == -abs(value)
        assert passed == (abs(value) <= epsilon)
        v = np.array([value, -value, epsilon, -epsilon, -2 * epsilon])
        margin, passed, _ = one_row(v, True, epsilon)
        assert np.array_equal(margin, -np.abs(v))
        assert np.array_equal(passed, np.abs(v) <= epsilon)

    def test_report_verdict_is_conjunction(self):
        ge = np.array([False, False])
        r = ConditionReport(names=("a", "b"), values=np.array([1.0, -1.0]), equality=ge, epsilon=1e-9)
        assert not r.verdict
        assert r.margins["a"] >= -r.epsilon
        # over a grid of two points: column 0 fails through "a", column 1 passes
        grid = ConditionReport(
            names=("a", "b"), values=np.array([[1.0, 1.0], [-1.0, 0.0]]), equality=np.array([False, True]), epsilon=1e-9
        )
        assert grid.verdict.tolist() == [False, True]

    def test_nan_margin_fails(self):
        # the verdict is the smallest margin >= -epsilon, and a NaN smallest margin fails
        for equality in (False, True):
            r = ConditionReport(names=("a", "b"), values=np.array([1.0, np.nan]), equality=np.array([False, equality]), epsilon=1e-9)
            assert r.verdict is False
            assert r.to_jsonable()["verdict"] is False
        grid = ConditionReport(
            names=("a", "b"), values=np.array([[0.0, np.nan], [np.nan, 0.0]]), equality=np.array([False, True]), epsilon=1e-9
        )
        assert grid.verdict.tolist() == [False, False]


class TestEqualityRowsSigned:
    """Only a report with no "=0" row reads its values as margins; every
    report with "=0" rows gives them -|value| margins, a NaN row included
    (whose margin is NaN and fails)."""

    @staticmethod
    def assert_signed(r: ConditionReport) -> None:
        assert r.equality.base is not conditions._INEQUALITY
        want = np.where(r.equality, -np.abs(r.values), r.values)
        assert np.array(list(r.margins.values())).tobytes() == want.tobytes()
        assert [row["margin"] for row in r.to_jsonable()["checks"]] == pytest.approx(want.tolist(), nan_ok=True)
        assert r.verdict is bool(want.min() >= -r.epsilon)

    @staticmethod
    def with_nan_row(r: ConditionReport) -> ConditionReport:
        """r with its first "=0" row NaN and its second 0.25, so that only
        the sign rule makes that row's margin negative."""
        first, second = np.flatnonzero(r.equality)[:2]
        values = r.values.copy()
        values[first], values[second] = np.nan, 0.25
        return replace(r, values=values)

    @pytest.mark.parametrize("family", [mr_int, mr_strong])
    def test_nsit_composites(self, family):
        tables = measure_all(precession_model(times=(0.7, 1.4, 2.1), rho=RHO_UP))
        r = family(tables)
        assert r.equality.any()
        self.assert_signed(r)
        nan_row = self.with_nan_row(r)
        self.assert_signed(nan_row)
        second = np.flatnonzero(r.equality)[1]
        assert nan_row.margins[r.names[second]] == -0.25
        assert nan_row.verdict is False

    def test_hand_built_flags(self):
        values = np.array([0.5, 0.25, np.nan])
        for equality in ([False, True, True], [True, False, False], [False, False, False]):
            r = ConditionReport(("a", "b", "c"), values, np.array(equality), 1e-9)
            self.assert_signed(r)
        # a grid, with the "=0" row's points of both signs
        r = ConditionReport(("a", "b"), np.array([[1.0, 1.0], [0.5, -0.5]]), np.array([False, True]), 1e-9)
        assert r.margins["b"].tolist() == [-0.5, -0.5]

    def test_shared_flags_read_values(self):
        m = MomentSet(averages=(0.0,) * 3, correlators=(0.5, 0.5, -0.5))
        for r in (mr_weak(m), lg3(m), lg2(m, (0, 1))):
            assert r.equality.base is conditions._INEQUALITY and not r.equality.any()
            assert np.array(list(r.margins.values())).tobytes() == r.values.tobytes()


class TestLg2:
    def test_boundary_anticorrelated(self):
        m = MomentSet(averages=(0.0, 0.0, 0.0), correlators=(-1.0, 0.0, 0.0))
        r = lg2(m, (0, 1))
        assert list(r.margins.values()) == [0.0, 2.0, 2.0, 0.0]
        assert r.verdict

    def test_contradictory_moments_fail(self):
        m = MomentSet(averages=(1.0, 1.0, 0.0), correlators=(-1.0, 0.0, 0.0))
        r = lg2(m, (0, 1))
        assert r.margins["LG2.12.--"] == pytest.approx(-2.0)
        assert not r.verdict

    def test_eigenstate_precession_margins(self):
        # rho in Q(t1)=+1 eigenspace at w tau = pi/3: <Q1>=1, <Q2>=C12=1/2;
        # margins over (--, -+, +-, ++) are (0, 0, 1, 3)
        mom = measure_all(precession_model(times=(0.0, np.pi / 3, 2 * np.pi / 3), rho=RHO_UP)).moments
        assert mom.averages[0] == pytest.approx(1.0, abs=1e-12)
        assert mom.averages[1] == pytest.approx(0.5, abs=1e-12)
        assert mom.corr(0, 1) == pytest.approx(0.5, abs=1e-12)
        r = lg2(mom, (0, 1))
        assert list(r.margins.values()) == pytest.approx([0.0, 0.0, 1.0, 3.0], abs=1e-12)
        assert r.verdict

    def test_margins_quarter_the_expansion_probabilities(self, rng):
        tables = measure_all(sample_model(rng, 3))
        r = lg2(tables.moments, (0, 2))
        q = tables.quasi[(0, 2)]
        for (s1, s2), margin in zip(outcomes(2), r.margins.values()):
            assert margin / 4 == pytest.approx(weight(q, (s1, s2)), abs=1e-12)

    def test_unknown_pair(self):
        m = MomentSet(averages=(0.0,) * 4, correlators=(0.0,) * 4)
        with pytest.raises(ValidationError, match="pair"):
            lg2(m, (0, 2))


class TestLg3:
    def test_perfect_correlation_boundary(self):
        r = lg3(MomentSet(averages=(0.0,) * 3, correlators=(1.0, 1.0, 1.0)))
        assert list(r.margins.values()) == [4.0, 0.0, 0.0, 0.0]
        assert r.verdict

    def test_total_anticorrelation_fails(self):
        r = lg3(MomentSet(averages=(0.0,) * 3, correlators=(-1.0, -1.0, -1.0)))
        assert r.margins["LG3.1"] == pytest.approx(-2.0)
        assert not r.verdict

    def test_third_turn_violation(self):
        # piecewise qubit moments at w tau = pi/3: (1/2, 1/2, -1/2);
        # second inequality margin 1 - 1/2 - 1/2 - 1/2 = -1/2
        mom = measure_all(precession_model(times=(0.0, np.pi / 3, 2 * np.pi / 3))).moments
        r = lg3(mom)
        assert r.margins["LG3.2"] == pytest.approx(-0.5, abs=1e-12)
        assert not r.verdict

    def test_wrong_arity(self):
        with pytest.raises(ValidationError, match="3 times"):
            lg3(MomentSet(averages=(0.0,) * 4, correlators=(0.0,) * 4))


class TestLg4:
    def test_all_zero_passes_with_margin_two(self):
        r = lg4(MomentSet(averages=(0.0,) * 4, correlators=(0.0,) * 4))
        assert all(margin == 2.0 for margin in r.margins.values())
        assert r.verdict

    def test_chsh_style_violation(self):
        r = lg4(MomentSet(averages=(0.0,) * 4, correlators=(1.0, 1.0, 1.0, -1.0)))
        assert r.margins["LG4.4.hi"] == pytest.approx(-2.0)
        assert not r.verdict

    def test_eighth_turn_strongest_violation(self):
        # equal gaps at w tau = pi/4: signed sum 3 cos(pi/4) - cos(3 pi/4) = 2 sqrt 2
        mom = measure_all(precession_model(times=(0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4))).moments
        r = lg4(mom)
        assert r.margins["LG4.4.hi"] == pytest.approx(2 - 2 * np.sqrt(2), abs=1e-12)

    def test_wrong_arity(self):
        with pytest.raises(ValidationError, match="4 times"):
            lg4(MomentSet(averages=(0.0,) * 3, correlators=(0.0,) * 3))


class TestNsit:
    def test_quasi_table_formally_satisfies_nsit(self, rng):
        tables = measure_all(sample_model(rng, 3))
        r = nsit(tables.quasi[(0, 1)], tables.singles[1], 0, name="NSIT(1)2")
        assert r.verdict
        assert all(abs(v) < 1e-12 for v in r.values.tolist())

    def test_commuting_sequential_tables(self):
        m = QuantumModel(hamiltonian=0.9 * SZ, rho=np.diag([0.8, 0.2]).astype(complex),
                         observable=SZ, times=(0.0, 1.0, 2.0))
        tables = measure_all(m)
        r = nsit(tables.pairs[(0, 1)], tables.singles[1], 0)
        assert all(abs(v) < 1e-12 for v in r.values.tolist())

    def test_residual_equals_witness(self):
        tables = measure_all(precession_model(times=(0.6, 1.9, 3.2), rho=RHO_UP))
        r = nsit(tables.pairs[(0, 1)], tables.singles[1], 0)
        w = witness(tables.pairs[(0, 1)], tables.singles[1])
        assert w > 1e-3
        for v in r.values.tolist():
            assert abs(v) == pytest.approx(w, abs=1e-12)

    def test_check_names_carry_outcomes(self, mixed_qubit):
        tables = measure_all(mixed_qubit)
        r = nsit(tables.chain, tables.pairs[(1, 2)], 0, name="NSIT(1)23")
        assert list(r.names) == [
            "NSIT(1)23.--", "NSIT(1)23.-+", "NSIT(1)23.+-", "NSIT(1)23.++",
        ]

    def test_incompatible_index_sets(self, mixed_qubit):
        tables = measure_all(mixed_qubit)
        p12, p3 = tables.pairs[(0, 1)], tables.singles[2]
        with pytest.raises(ValidationError, match="incompatible"):
            nsit(p12, p3, 0)
        with pytest.raises(ValidationError, match="not measured"):
            nsit(p12, p3, 2)


class TestMrWeak:
    def test_all_zero_moments_pass(self):
        r = mr_weak(MomentSet(averages=(0.0,) * 3, correlators=(0.0,) * 3))
        assert r.verdict
        assert len(r.names) == 16

    def test_assumptions_annotated_not_checked(self):
        r = mr_weak(MomentSet(averages=(0.0,) * 3, correlators=(0.0,) * 3))
        assert any("NIM_pw" in a for a in r.assumptions)
        assert any("Ind" in a for a in r.assumptions)
        assert all("NIM" not in name and "Ind" not in name for name in r.names)

    def test_third_turn_fails_through_lg3(self):
        mom = measure_all(precession_model(times=(0.0, np.pi / 3, 2 * np.pi / 3))).moments
        r = mr_weak(mom)
        assert not r.verdict
        failing = [name for name, margin in r.margins.items() if not margin >= -r.epsilon]
        assert failing == ["LG3.2"]

    def test_deterministic_constant_signal_passes_at_extremes(self):
        m = QuantumModel(hamiltonian=np.zeros((2, 2)), rho=RHO_UP, observable=SZ,
                         times=(0.0, 1.0, 2.0))
        r = mr_weak(measure_all(m).moments)
        assert r.verdict
        assert r.margins["LG2.12.++"] == pytest.approx(4.0, abs=1e-12)
        assert r.margins["LG2.12.--"] == pytest.approx(0.0, abs=1e-12)

    def test_four_time_uses_lg4(self):
        mom = measure_all(precession_model(times=(0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4))).moments
        r = mr_weak(mom)
        assert len(r.names) == 16 + 8
        assert not r.verdict


class TestMrInt:
    def test_commuting_model_passes(self):
        m = QuantumModel(hamiltonian=0.9 * SZ, rho=np.diag([0.8, 0.2]).astype(complex),
                         observable=SZ, times=(0.0, 1.0, 2.0))
        assert mr_int(measure_all(m)).verdict

    def test_mixed_state_third_turn_fails_only_lg3(self):
        model = precession_model(times=(0.0, np.pi / 3, 2 * np.pi / 3))
        r = mr_int(measure_all(model))
        assert not r.verdict
        failing = {name for name, margin in r.margins.items() if not margin >= -r.epsilon}
        assert failing == {"LG3.2"}
        nsit_margins = [margin for name, margin in r.margins.items() if name.startswith("NSIT")]
        assert len(nsit_margins) == 6
        assert all(margin >= -r.epsilon for margin in nsit_margins)

    def test_mixed_state_quarter_turn_passes(self):
        model = precession_model(times=(0.0, np.pi / 2, np.pi))
        r = mr_int(measure_all(model))
        assert r.verdict
        margins = [r.margins[f"LG3.{k}"] for k in (1, 2, 3, 4)]
        assert margins == pytest.approx([0.0, 0.0, 2.0, 2.0], abs=1e-12)

    def test_needs_three_times(self):
        with pytest.raises(ValidationError, match="3 times"):
            mr_int(measure_all(precession_model(times=(0.0, 1.0, 2.0, 3.0))))


class TestMrStrong:
    def test_commuting_model_passes(self):
        m = QuantumModel(hamiltonian=0.9 * SZ, rho=np.diag([0.8, 0.2]).astype(complex),
                         observable=SZ, times=(0.0, 1.0, 2.0))
        r = mr_strong(measure_all(m))
        assert r.verdict
        assert max(abs(v) for v in r.values.tolist()) < 1e-12

    def test_zero_hamiltonian_passes(self, rng):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = z @ z.conj().T
        rho /= np.trace(rho).real
        m = QuantumModel(hamiltonian=np.zeros((2, 2)), rho=rho, observable=SZ, times=(0.0, 1.0, 2.0))
        assert mr_strong(measure_all(m)).verdict

    def test_generic_pure_state_fails_with_witness_scale_residuals(self):
        model = precession_model(times=(0.7, 1.4, 2.1), rho=RHO_UP)
        tables = measure_all(model)
        r = mr_strong(tables)
        assert not r.verdict
        w23 = witness(tables.pairs[(1, 2)], tables.singles[2])
        for name, value in zip(r.names, r.values.tolist()):
            if name.startswith("NSIT(2)3"):
                assert abs(value) == pytest.approx(w23, abs=1e-12)

    def test_pass_implies_context_free_expansion(self):
        m = QuantumModel(hamiltonian=0.9 * SZ, rho=np.diag([0.8, 0.2]).astype(complex),
                         observable=SZ, times=(0.0, 1.0, 2.0))
        tables = measure_all(m)
        assert mr_strong(tables).verdict
        ctx = sequential_moments(tables)
        reconstructed = triple_expansion_table(tables.moments, ctx[("D", "123")])
        assert max(abs(weight(reconstructed, o) - weight(tables.chain, o)) for o in outcomes(3)) < 1e-12

    def test_needs_three_times(self):
        with pytest.raises(ValidationError, match="3 times"):
            mr_strong(measure_all(precession_model(times=(0.0, 1.0, 2.0, 3.0))))


class TestPairwiseNsit:
    def test_maximally_mixed_qubit_all_pass(self, mixed_qubit):
        r = nsit_pairwise(measure_all(mixed_qubit))
        assert r.verdict
        assert max(abs(v) for v in r.values.tolist()) < 1e-12

    def test_four_time_families(self):
        model = precession_model(times=(0.0, 1.0, 2.0, 3.0))
        r = nsit_pairwise(measure_all(model))
        families = {name.rsplit(".", 1)[0] for name in r.names}
        assert families == {"NSIT(1)2", "NSIT(2)3", "NSIT(3)4", "NSIT(1)4"}


def nsit_family_cases():
    """(id, tables) pairs: both shipped models, every table set the ``sweep_specs`` sweeps
    measure, block by block (3 and 4 times, d = 2 to 4), and a 12-model dim-16 campaign block."""
    for name in ("qubit_precession.json", "qubit_precession_4t.json"):
        yield name, measure_all(load_model(default_model_path().with_name(name)))
    for name, spec in sweep_specs().items():
        measured = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "measure_all", lambda *args: measured.append(measure_all(*args)) or measured[-1])
            list(sweep_blocks(sweep_spec_from_jsonable(spec)))
        yield from ((f"sweep-{name}-block{k}", tables) for k, tables in enumerate(measured))
    h, rho, q, times = _model_block([np.random.default_rng(k) for k in range(12)], 16)
    lam, vec = np.linalg.eigh(h)
    yield "campaign-dim16", harness._tables(_spectral(lam, vec, q, times)[2], rho)


class TestNsitFamilies:
    """``nsit_pairwise``, ``mr_int`` and ``mr_strong`` build one report each, from one
    concatenate; each must equal, block by block and bit for bit, the standalone
    ``nsit`` and ``lg3`` reports of ``conftest.nsit_families_reference``."""

    @pytest.mark.parametrize("epsilon", [TOL.verdict, 1e-7])
    def test_one_step_reports_equal_the_merged_reference(self, epsilon):
        families = {"nsit_pairwise": nsit_pairwise, "mr_int": mr_int, "mr_strong": mr_strong}
        seen = set()
        for case, tables in nsit_family_cases():
            want = nsit_families_reference(tables, epsilon)
            seen.add((tables.n_times, tables.chain.weights.ndim - tables.n_times))
            for name, (blocks, assumptions) in want.items():
                got = families[name](tables, epsilon)
                start = 0
                for block in blocks:
                    where = (case, name, block.names[0])
                    rows = slice(start, start + len(block.names))
                    start = rows.stop
                    assert got.names[rows] == block.names, where
                    values = got.values[rows]
                    assert values.shape == block.values.shape and values.dtype == block.values.dtype, where
                    assert values.tobytes() == block.values.tobytes(), where
                    assert got.equality.dtype == block.equality.dtype, where
                    assert got.equality[rows].tolist() == block.equality.tolist(), where
                where = (case, name)
                assert start == len(got.names) == len(got.values) == len(got.equality), where
                assert got.epsilon == epsilon and got.assumptions == assumptions, where
                verdict = np.logical_and.reduce([np.asarray(block.verdict) for block in blocks])
                assert np.array_equal(got.verdict, verdict), where
        # one table set and grids, at 3 and 4 times
        assert seen == {(3, 0), (4, 0), (3, 1), (4, 1)}

    def test_rows_are_read_only_constants(self, mixed_qubit):
        tables = measure_all(mixed_qubit)
        # the families share their "=0" flags between reports, so none may write them
        for report in (nsit_pairwise(tables), mr_int(tables), mr_strong(tables), nsit(tables.chain, tables.pairs[(1, 2)], 0)):
            with pytest.raises(ValueError, match="read-only"):
                report.equality[0] = False


class TestFixedInitialStateReduction:
    def test_reduction_to_two_time_family(self, rng):
        # rho supported in the Q(t1)=+1 eigenspace: C12 = <Q2>, C13 = <Q3>,
        # the lg3 margins coincide with the lg2(2,3) family, and the
        # remaining lg2 margins reduce to |<Q_i>| <= 1 forms
        mapping = {  # LG3.k -> (s2, s3) of the matching lg2(2,3) check
            1: (+1, +1), 2: (-1, +1), 3: (+1, -1), 4: (-1, -1),
        }
        for _ in range(10):
            model = sample_model(rng, int(rng.integers(2, 5)), rho_mode="plus_eigenspace")
            mom = measure_all(model).moments
            assert mom.corr(0, 1) == pytest.approx(mom.averages[1], abs=1e-12)
            assert mom.corr(0, 2) == pytest.approx(mom.averages[2], abs=1e-12)
            r3 = lg3(mom)
            r2 = lg2(mom, (1, 2))
            for k, (s2, s3) in mapping.items():
                name = f"LG2.23.{'+' if s2 > 0 else '-'}{'+' if s3 > 0 else '-'}"
                assert r3.margins[f"LG3.{k}"] == pytest.approx(r2.margins[name], abs=1e-12)
            for pair in ((0, 1), (0, 2)):
                j = pair[1]
                r = lg2(mom, pair)
                margins = sorted(r.margins.values())
                expected = sorted(
                    [0.0, 0.0, 2 * (1 - mom.averages[j]), 2 * (1 + mom.averages[j])]
                )
                assert margins == pytest.approx(expected, abs=1e-12)


#: ``mr_weak`` of the third-turn set: avg (0, 0, 0), corr (1/2, 1/2, -1/2)
WEAK_THIRD_TURN_JSON = """\
{
  "epsilon": 1e-09,
  "verdict": false,
  "assumptions": [
    "NIM_pw: piecewise non-invasive measurability (modeling assumption)",
    "Ind: future measurements cannot affect the present state (modeling assumption)"
  ],
  "checks": [
    {
      "name": "LG2.12.--",
      "value": 1.5,
      "kind": ">=0",
      "margin": 1.5,
      "pass": true
    },
    {
      "name": "LG2.12.-+",
      "value": 0.5,
      "kind": ">=0",
      "margin": 0.5,
      "pass": true
    },
    {
      "name": "LG2.12.+-",
      "value": 0.5,
      "kind": ">=0",
      "margin": 0.5,
      "pass": true
    },
    {
      "name": "LG2.12.++",
      "value": 1.5,
      "kind": ">=0",
      "margin": 1.5,
      "pass": true
    },
    {
      "name": "LG2.23.--",
      "value": 1.5,
      "kind": ">=0",
      "margin": 1.5,
      "pass": true
    },
    {
      "name": "LG2.23.-+",
      "value": 0.5,
      "kind": ">=0",
      "margin": 0.5,
      "pass": true
    },
    {
      "name": "LG2.23.+-",
      "value": 0.5,
      "kind": ">=0",
      "margin": 0.5,
      "pass": true
    },
    {
      "name": "LG2.23.++",
      "value": 1.5,
      "kind": ">=0",
      "margin": 1.5,
      "pass": true
    },
    {
      "name": "LG2.13.--",
      "value": 0.5,
      "kind": ">=0",
      "margin": 0.5,
      "pass": true
    },
    {
      "name": "LG2.13.-+",
      "value": 1.5,
      "kind": ">=0",
      "margin": 1.5,
      "pass": true
    },
    {
      "name": "LG2.13.+-",
      "value": 1.5,
      "kind": ">=0",
      "margin": 1.5,
      "pass": true
    },
    {
      "name": "LG2.13.++",
      "value": 0.5,
      "kind": ">=0",
      "margin": 0.5,
      "pass": true
    },
    {
      "name": "LG3.1",
      "value": 1.5,
      "kind": ">=0",
      "margin": 1.5,
      "pass": true
    },
    {
      "name": "LG3.2",
      "value": -0.5,
      "kind": ">=0",
      "margin": -0.5,
      "pass": false
    },
    {
      "name": "LG3.3",
      "value": 1.5,
      "kind": ">=0",
      "margin": 1.5,
      "pass": true
    },
    {
      "name": "LG3.4",
      "value": 1.5,
      "kind": ">=0",
      "margin": 1.5,
      "pass": true
    }
  ]
}"""

#: an NSIT(1)23 report with one shifted weight, then the rows of the third-turn ``lg3``
NSIT_LG3_JSON = """\
{
  "epsilon": 1e-09,
  "verdict": false,
  "assumptions": [],
  "checks": [
    {
      "name": "NSIT(1)23.--",
      "value": 0.125,
      "kind": "=0",
      "margin": -0.125,
      "pass": false
    },
    {
      "name": "NSIT(1)23.-+",
      "value": -0.125,
      "kind": "=0",
      "margin": -0.125,
      "pass": false
    },
    {
      "name": "NSIT(1)23.+-",
      "value": 0.0,
      "kind": "=0",
      "margin": -0.0,
      "pass": true
    },
    {
      "name": "NSIT(1)23.++",
      "value": 0.0,
      "kind": "=0",
      "margin": -0.0,
      "pass": true
    },
    {
      "name": "LG3.1",
      "value": 1.5,
      "kind": ">=0",
      "margin": 1.5,
      "pass": true
    },
    {
      "name": "LG3.2",
      "value": -0.5,
      "kind": ">=0",
      "margin": -0.5,
      "pass": false
    },
    {
      "name": "LG3.3",
      "value": 1.5,
      "kind": ">=0",
      "margin": 1.5,
      "pass": true
    },
    {
      "name": "LG3.4",
      "value": 1.5,
      "kind": ">=0",
      "margin": 1.5,
      "pass": true
    }
  ]
}"""


class TestSerialization:
    def test_report_json_shape(self, mixed_qubit):
        r = mr_int(measure_all(mixed_qubit))
        obj = r.to_jsonable()
        assert set(obj) == {"epsilon", "verdict", "assumptions", "checks"}
        names = [c["name"] for c in obj["checks"]]
        for expected in ("NSIT(1)2.-", "NSIT(1)3.+", "NSIT(2)3.-", "LG3.1", "LG3.4"):
            assert expected in names
        for c in obj["checks"]:
            assert set(c) == {"name", "value", "kind", "margin", "pass"}
            assert c["kind"] in (">=0", "=0")
        assert len(obj["checks"]) == 6 + 4  # NSIT pairs, LG3

    def test_epsilon_controls_verdict(self):
        # LG3.2 margin is exactly -1e-6 here: fails tight, passes loose
        mom = MomentSet(averages=(0.0,) * 3, correlators=(1.0, 1.0, 1.0 - 1e-6))
        assert not lg3(mom, epsilon=1e-9).verdict
        assert lg3(mom, epsilon=1e-3).verdict

    def test_third_turn_weak_report_json_text(self):
        r = mr_weak(MomentSet(averages=(0.0, 0.0, 0.0), correlators=(0.5, 0.5, -0.5)))
        assert json.dumps(r.to_jsonable(), indent=2) == WEAK_THIRD_TURN_JSON

    def test_nsit_and_lg3_report_json_text(self):
        # dyadic weights, so every value is exact: marginalizing t1 out of the
        # chain moves 1/8 from outcome -+ to -- of the uniform (2,3) table
        chain = np.full((2, 2, 2), 0.125)
        chain[0, 0, 0], chain[0, 0, 1] = 0.25, 0.0
        a = ProbabilityTable(kind="sequential", time_indices=(0, 1, 2), weights=chain)
        b = ProbabilityTable(kind="sequential", time_indices=(1, 2), weights=np.full((2, 2), 0.25))
        third = MomentSet(averages=(0.0, 0.0, 0.0), correlators=(0.5, 0.5, -0.5))
        first, second = nsit(a, b, 0, name="NSIT(1)23"), lg3(third)
        r = ConditionReport(first.names + second.names, np.concatenate([first.values, second.values]),
                            np.concatenate([first.equality, second.equality]), first.epsilon)
        assert json.dumps(r.to_jsonable(), indent=2) == NSIT_LG3_JSON

    def test_to_jsonable_builds_margins_once(self, monkeypatch):
        calls = []
        margins = ConditionReport._margins
        monkeypatch.setattr(ConditionReport, "_margins", lambda self: calls.append(self) or margins(self))
        r = mr_weak(MomentSet(averages=(0.0, 0.0, 0.0), correlators=(0.5, 0.5, -0.5)))
        assert r.to_jsonable()["verdict"] is False
        assert len(calls) == 1

    def test_to_jsonable_rejects_a_grid(self):
        times = np.linspace(0.0, 1.0, 15).reshape(5, 3)
        report = mr_weak(measure_all(precession_model(), times).moments)
        with pytest.raises(ValidationError, match=r"one moment set only, got a grid of shape \(5,\)"):
            report.to_jsonable()


class TestRowFormulas:
    """Every row of the affine table against the formula its name denotes,
    written out left to right: bit-equal where the table sums the same terms
    in the same order, within 4 ulp of 4 for LG4, whose formula adds the
    correlators first and the constant last (partial sums stay below 8)."""

    @given(st.lists(st.floats(-1, 1), min_size=8, max_size=8), st.sampled_from([3, 4]))
    def test_each_value_is_its_formula(self, x, n):
        pairs = pair_set(n)
        a, cs = x[:n], x[n : n + len(pairs)]
        c = dict(zip(pairs, cs))
        want = {}
        for i, j in pairs:
            for s1, s2 in outcomes(2):
                want[f"LG2.{i + 1}{j + 1}.{outcome_key((s1, s2))}"] = 1.0 + s1 * a[i] + s2 * a[j] + s1 * s2 * c[(i, j)]
        if n == 3:
            c12, c23, c13 = cs
            want["LG3.1"] = 1.0 + c12 + c23 + c13
            want["LG3.2"] = 1.0 - c12 - c23 + c13
            want["LG3.3"] = 1.0 + c12 - c23 - c13
            want["LG3.4"] = 1.0 - c12 + c23 - c13
        else:
            for k in range(4):
                signed = sum(-v if idx == k else v for idx, v in enumerate(cs))
                want[f"LG4.{k + 1}.lo"] = signed + 2.0
                want[f"LG4.{k + 1}.hi"] = 2.0 - signed
        got = mr_weak(MomentSet(averages=tuple(a), correlators=tuple(cs))).margins
        assert list(got) == list(want)
        for name, value in got.items():
            if name.startswith("LG4"):
                assert abs(value - want[name]) <= 4 * np.spacing(4.0), name
            else:
                assert value.hex() == want[name].hex(), name
        if n == 3:
            expansion = _affine_values(ROWS[3]["fine"], a + cs).tolist()
            for (s1, s2, s3), value in zip(outcomes(3), expansion):
                e = 1.0 + s1 * a[0] + s2 * a[1] + s3 * a[2] + s1 * s2 * c12 + s2 * s3 * c23 + s1 * s3 * c13
                assert value.hex() == e.hex()


class TestAffineValues:
    """``_affine_values`` against the column-at-a-time loop, on every block."""

    @given(st.lists(st.floats(-1, 1), min_size=8, max_size=8), st.sampled_from([3, 4]))
    def test_bit_equal_to_the_column_loop(self, x, n):
        for key, block in ROWS[n].items():
            width = block.a.shape[1] - 1
            want = column_sums(block, x[:width]).tobytes()
            assert _affine_values(block, x[:width]).tobytes() == want, key
            # whatever the coefficients' memory layout: the table's column-major one, or row-major
            for layout in (np.asfortranarray, np.ascontiguousarray):
                assert _affine_values(block._replace(a=layout(block.a)), x[:width]).tobytes() == want, key

    def test_grid_bit_equal_and_owns_its_memory(self, rng):
        # a view of the terms array would keep it alive inside every report
        for n in (3, 4):
            for key, block in ROWS[n].items():
                width = block.a.shape[1] - 1
                for x in (list(rng.uniform(-1, 1, width)), tuple(rng.uniform(-1, 1, (width, 7)))):
                    values = _affine_values(block, x)
                    assert values.base is None, key
                    assert not any(np.shares_memory(values, xj) for xj in x if isinstance(xj, np.ndarray))
                    assert values.tobytes() == column_sums(block, x).tobytes(), key


def address(a: np.ndarray) -> int:
    """Where an array's first element lies in memory."""
    return a.__array_interface__["data"][0]


class TestRowTable:
    """Each weak and Fine row is stored once, column-major: every block of ``ROWS[n]``
    is a view into "weak+fine", whose "weak" rows come first, then its "fine" rows."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_each_row_stored_once(self, n):
        whole = ROWS[n]["weak+fine"]
        # column-major, so that one set's terms are one contiguous product
        assert whole.a.T.flags.c_contiguous
        for key, block in ROWS[n].items():
            assert np.shares_memory(block.a, whole.a) and np.shares_memory(block.slope, whole.slope), key
        weak, fine = ROWS[n]["weak"], ROWS[n]["fine"]
        assert weak.names + fine.names == whole.names
        k = len(weak.names)
        for part, rows in ((weak, slice(0, k)), (fine, slice(k, None))):
            assert address(part.a) == address(whole.a[rows]) and address(part.slope) == address(whole.slope[rows])

    def test_every_time_count_table_is_keyed_by_pair_sets(self):
        for table in (measurement._JSON_PAIRS, ROWS, conditions._GROUPS):
            assert table.keys() == PAIR_SETS.keys()
        assert conditions._FAMILIES.keys() - {"int", "strong"} == PAIR_SETS.keys()
        for n, pairs in PAIR_SETS.items():
            assert measurement._JSON_PAIRS[n] == [[i + 1, j + 1] for i, j in pairs]
            # nsit_pairwise's blocks, one per measured pair, each the pair's table against its later time's
            assert [(a, b) for a, b, _ in conditions._FAMILIES[n][0]] == [(pair, pair[1:]) for pair in pairs]
            assert ROWS[n]["weak"].names[: 4 * len(pairs)] == sum((ROWS[n][p].names for p in pairs), ())


def deterministic_points(n: int) -> np.ndarray:
    """The 2^n deterministic moment points at n times, as integers: s_i, then
    s_i s_j over the measured pairs."""
    s = np.array(outcomes(n))
    return np.hstack([s, np.stack([s[:, i] * s[:, j] for i, j in pair_set(n)], axis=1)])


def integer_row(a: np.ndarray) -> tuple[int, ...]:
    """a scaled so that its smallest nonzero entry is +-1, which must leave integers."""
    scaled = a / np.abs(a[np.abs(a) > 1e-9]).min()
    assert np.allclose(scaled, np.round(scaled), rtol=0.0, atol=1e-9)
    return tuple(np.round(scaled).astype(int).tolist())


class TestWeakFacets:
    """The weak rows are exactly the facets of the convex hull of the
    deterministic moment points, so a set passes them all iff it is a mixture
    of those points, a joint: Fine's theorem made concrete."""

    @pytest.mark.parametrize("n, count", [(3, 16), (4, 24)])
    def test_hull_facets_are_the_weak_rows(self, n, count):
        # qhull's facets are e . v + c <= 0 inside (one per simplex of a facet), so c + e . v <= 0 is a row -(c, e)
        hull = ConvexHull(deterministic_points(n))
        facets = {integer_row(-np.roll(e, 1)) for e in hull.equations}
        assert len(facets) == count
        assert facets == {integer_row(a) for a in ROWS[n]["weak"].a}

    @pytest.mark.parametrize("n, rank", [(3, 6), (4, 8)])
    def test_every_weak_row_is_a_facet_in_integers(self, n, rank):
        # a row >= 0 on every vertex, zero on vertices of an affine rank one below the moment space's
        homogenized = np.hstack([np.ones((2**n, 1), dtype=int), deterministic_points(n)])
        assert homogenized.shape[1] == rank + 1
        for name, a in zip(ROWS[n]["weak"].names, ROWS[n]["weak"].a):
            row = a.astype(int)
            assert (row == a).all(), name
            values = homogenized @ row
            assert (values >= 0).all(), name
            assert np.linalg.matrix_rank(homogenized[values == 0]) == rank, name


class TestStrongNsitByRank:
    """At three times the weights of the seven tables that ``measure_all``
    builds are 26 unknowns.  Given the marginal identities that every quantum
    model satisfies (dropping a run's last time gives the shorter run), the
    rows of ``mr_strong`` imply every one- and two-time NSIT equality the
    tables allow, and none of its three rows can be dropped."""

    TABLES = ((0,), (1,), (2,), (0, 1), (1, 2), (0, 2), (0, 1, 2))
    UNKNOWNS = 26
    #: each table's first unknown
    START = dict(zip(TABLES, np.cumsum([0] + [2 ** len(t) for t in TABLES[:-1]]).tolist()))
    IDENTITIES = (((0, 1, 2), (0, 1)), ((0, 1), (0,)), ((0, 2), (0,)), ((1, 2), (1,)))
    STRONG = {"NSIT(2)3": ((1, 2), (2,)), "NSIT(1)23": ((0, 1, 2), (1, 2)), "NSIT1(2)3": ((0, 1, 2), (0, 2))}
    IMPLIED = {
        "NSIT(1)2": ((0, 1), (1,)), "NSIT(1)3": ((0, 2), (2,)), "NSIT(2)3": ((1, 2), (2,)),
        "NSIT(12)3": ((0, 1, 2), (2,)), "NSIT(1)23": ((0, 1, 2), (1, 2)), "NSIT1(2)3": ((0, 1, 2), (0, 2)),
    }

    @classmethod
    def rows(cls, longer, shorter) -> np.ndarray:
        """One row per outcome of ``shorter``: the weights of ``longer`` summed
        over its other times, minus the weight of ``shorter``."""
        kept = [longer.index(i) for i in shorter]
        out = np.zeros((2 ** len(shorter), cls.UNKNOWNS))
        for k, o in enumerate(outcomes(len(longer))):
            out[outcomes(len(shorter)).index(tuple(o[p] for p in kept)), cls.START[longer] + k] += 1
        out[np.arange(len(out)), cls.START[shorter] + np.arange(len(out))] -= 1
        return out

    def stack(self, *pairs) -> np.ndarray:
        return np.vstack([self.rows(*pair) for pair in pairs])

    def test_rows_are_the_tables_equalities(self, rng):
        # on a model's tables the identities hold, and each strong row block gives mr_strong's values
        tables = measure_all(sample_model(rng, 3))
        by_times = {t.time_indices: t for t in (*tables.singles, *tables.pairs.values(), tables.chain)}
        w = np.concatenate([by_times[t].weights.ravel() for t in self.TABLES])
        assert w.size == self.UNKNOWNS
        assert np.abs(self.stack(*self.IDENTITIES) @ w).max() < 1e-12
        report = mr_strong(tables)
        for name, pair in self.STRONG.items():
            values = report.values[[k for k, n in enumerate(report.names) if n.rsplit(".", 1)[0] == name]]
            assert np.abs(self.rows(*pair) @ w - values).max() < 1e-15, name
        assert {n.rsplit(".", 1)[0] for n in report.names} == set(self.STRONG)

    @staticmethod
    def implies(given: np.ndarray, row: np.ndarray) -> bool:
        return np.linalg.matrix_rank(np.vstack([given, row])) == np.linalg.matrix_rank(given)

    def test_strong_set_implies_every_nsit(self):
        given = self.stack(*self.IDENTITIES, *self.STRONG.values())
        for name, pair in self.IMPLIED.items():
            assert self.implies(given, self.rows(*pair)), name

    @pytest.mark.parametrize("dropped", list(STRONG))
    def test_each_strong_row_is_needed(self, dropped):
        given = self.stack(*self.IDENTITIES, *(pair for name, pair in self.STRONG.items() if name != dropped))
        lost = [name for name, pair in self.IMPLIED.items() if not self.implies(given, self.rows(*pair))]
        assert dropped in lost


class TestGridMatchesPoints:
    """A grid TableSet gives, for each family, the names of the per-point
    reports and, at every grid point, bit-equal values and verdicts."""

    @settings(max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([3, 4]), st.integers(2, 4), st.integers(1, 5))
    def test_reports_bit_equal_per_point(self, seed, n_times, dim, size):
        rng = np.random.default_rng(seed)
        model = sample_model(rng, dim, n_times)
        times = np.sort(rng.uniform(0.0, 4.0, size=(size, n_times)), axis=1)
        tables = measure_all(model, times)
        families = [lambda t, eps: mr_weak(t.moments, eps), nsit_pairwise]
        if n_times == 3:
            families += [mr_int, mr_strong]
        for epsilon in (1e-9, 1e-3):
            for family in families:
                grid = family(tables, epsilon)
                assert grid.values.shape == (len(grid.names), size)
                for g in range(size):
                    point = family(point_tables(tables, g), epsilon)
                    assert grid.names == point.names
                    assert grid.values[:, g].tobytes() == point.values.tobytes()
                    assert grid.verdict[g] == point.verdict
                    assert [m[g] >= -epsilon for m in grid.margins.values()] == [m >= -epsilon for m in point.margins.values()]
