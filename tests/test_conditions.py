import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mrtest.conditions import (
    Check,
    ConditionReport,
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
from mrtest.harness import sample_model
from mrtest.measurement import (
    MomentSet,
    measure_all,
    outcomes,
    piecewise_moments,
    quasi_prob2,
    sequential_moments,
    sequential_prob,
    single_time_prob,
    witness,
)
from mrtest.quantum import QuantumModel

from conftest import SZ, precession_model

RHO_UP = np.diag([1.0, 0.0]).astype(complex)


class TestCheckSemantics:
    @given(st.floats(-2, 2), st.floats(1e-12, 1e-3))
    def test_ge_margin_rule(self, value, epsilon):
        c = Check.ge("x", value, epsilon)
        assert c.margin == value
        assert c.passed == (value >= -epsilon)

    @given(st.floats(-2, 2), st.floats(1e-12, 1e-3))
    def test_eq_margin_rule(self, value, epsilon):
        c = Check.eq("x", value, epsilon)
        assert c.margin == -abs(value)
        assert c.passed == (abs(value) <= epsilon)

    def test_report_verdict_is_conjunction(self):
        r = ConditionReport(
            checks=(Check.ge("a", 1.0, 1e-9), Check.ge("b", -1.0, 1e-9)), epsilon=1e-9
        )
        assert not r.verdict
        assert r.check("a").passed


class TestLg2:
    def test_boundary_anticorrelated(self):
        m = MomentSet(averages=(0.0, 0.0, 0.0), correlators=(-1.0, 0.0, 0.0))
        r = lg2(m, (0, 1))
        assert [c.margin for c in r.checks] == [0.0, 2.0, 2.0, 0.0]
        assert r.verdict

    def test_contradictory_moments_fail(self):
        m = MomentSet(averages=(1.0, 1.0, 0.0), correlators=(-1.0, 0.0, 0.0))
        r = lg2(m, (0, 1))
        assert r.check("LG2.12.--").margin == pytest.approx(-2.0)
        assert not r.verdict

    def test_eigenstate_precession_margins(self):
        # rho in Q(t1)=+1 eigenspace at w tau = pi/3: <Q1>=1, <Q2>=C12=1/2;
        # margins over (--, -+, +-, ++) are (0, 0, 1, 3)
        mom = piecewise_moments(precession_model(times=(0.0, np.pi / 3, 2 * np.pi / 3), rho=RHO_UP))
        assert mom.averages[0] == pytest.approx(1.0, abs=1e-12)
        assert mom.averages[1] == pytest.approx(0.5, abs=1e-12)
        assert mom.corr(0, 1) == pytest.approx(0.5, abs=1e-12)
        r = lg2(mom, (0, 1))
        assert [c.margin for c in r.checks] == pytest.approx([0.0, 0.0, 1.0, 3.0], abs=1e-12)
        assert r.verdict

    def test_margins_quarter_the_expansion_probabilities(self, rng):
        model = sample_model(rng, 3)
        mom = piecewise_moments(model)
        r = lg2(mom, (0, 2))
        q = quasi_prob2(model, 0, 2)
        for (s1, s2), c in zip(outcomes(2), r.checks):
            assert c.margin / 4 == pytest.approx(q.weight((s1, s2)), abs=1e-12)

    def test_unknown_pair(self):
        m = MomentSet(averages=(0.0,) * 4, correlators=(0.0,) * 4)
        with pytest.raises(ValidationError, match="pair"):
            lg2(m, (0, 2))


class TestLg3:
    def test_perfect_correlation_boundary(self):
        r = lg3(MomentSet(averages=(0.0,) * 3, correlators=(1.0, 1.0, 1.0)))
        assert [c.margin for c in r.checks] == [4.0, 0.0, 0.0, 0.0]
        assert r.verdict

    def test_total_anticorrelation_fails(self):
        r = lg3(MomentSet(averages=(0.0,) * 3, correlators=(-1.0, -1.0, -1.0)))
        assert r.check("LG3.1").margin == pytest.approx(-2.0)
        assert not r.verdict

    def test_third_turn_violation(self):
        # piecewise qubit moments at w tau = pi/3: (1/2, 1/2, -1/2);
        # second inequality margin 1 - 1/2 - 1/2 - 1/2 = -1/2
        mom = piecewise_moments(precession_model(times=(0.0, np.pi / 3, 2 * np.pi / 3)))
        r = lg3(mom)
        assert r.check("LG3.2").margin == pytest.approx(-0.5, abs=1e-12)
        assert not r.verdict

    def test_wrong_arity(self):
        with pytest.raises(ValidationError, match="3 times"):
            lg3(MomentSet(averages=(0.0,) * 4, correlators=(0.0,) * 4))


class TestLg4:
    def test_all_zero_passes_with_margin_two(self):
        r = lg4(MomentSet(averages=(0.0,) * 4, correlators=(0.0,) * 4))
        assert all(c.margin == 2.0 for c in r.checks)
        assert r.verdict

    def test_chsh_style_violation(self):
        r = lg4(MomentSet(averages=(0.0,) * 4, correlators=(1.0, 1.0, 1.0, -1.0)))
        assert r.check("LG4.4.hi").margin == pytest.approx(-2.0)
        assert not r.verdict

    def test_eighth_turn_strongest_violation(self):
        # equal gaps at w tau = pi/4: signed sum 3 cos(pi/4) - cos(3 pi/4) = 2 sqrt 2
        mom = piecewise_moments(precession_model(times=(0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4)))
        r = lg4(mom)
        assert r.check("LG4.4.hi").margin == pytest.approx(2 - 2 * np.sqrt(2), abs=1e-12)

    def test_wrong_arity(self):
        with pytest.raises(ValidationError, match="4 times"):
            lg4(MomentSet(averages=(0.0,) * 3, correlators=(0.0,) * 3))


class TestNsit:
    def test_quasi_table_formally_satisfies_nsit(self, rng):
        model = sample_model(rng, 3)
        q = quasi_prob2(model, 0, 1)
        r = nsit(q, single_time_prob(model, 1), 0, name="NSIT(1)2")
        assert r.verdict
        assert all(abs(c.value) < 1e-12 for c in r.checks)

    def test_commuting_sequential_tables(self):
        m = QuantumModel(hamiltonian=0.9 * SZ, rho=np.diag([0.8, 0.2]).astype(complex),
                         observable=SZ, times=(0.0, 1.0))
        r = nsit(sequential_prob(m, (0, 1)), single_time_prob(m, 1), 0)
        assert all(abs(c.value) < 1e-12 for c in r.checks)

    def test_residual_equals_witness(self):
        model = precession_model(times=(0.6, 1.9), rho=RHO_UP)
        r = nsit(sequential_prob(model, (0, 1)), single_time_prob(model, 1), 0)
        w = witness(sequential_prob(model, (0, 1)), single_time_prob(model, 1))
        assert w > 1e-3
        for c in r.checks:
            assert abs(c.value) == pytest.approx(w, abs=1e-12)

    def test_check_names_carry_outcomes(self, mixed_qubit):
        chain = sequential_prob(mixed_qubit, (0, 1, 2))
        p23 = sequential_prob(mixed_qubit, (1, 2))
        r = nsit(chain, p23, 0, name="NSIT(1)23")
        assert [c.name for c in r.checks] == [
            "NSIT(1)23.--", "NSIT(1)23.-+", "NSIT(1)23.+-", "NSIT(1)23.++",
        ]

    def test_incompatible_index_sets(self, mixed_qubit):
        p12 = sequential_prob(mixed_qubit, (0, 1))
        p3 = single_time_prob(mixed_qubit, 2)
        with pytest.raises(ValidationError, match="incompatible"):
            nsit(p12, p3, 0)
        with pytest.raises(ValidationError, match="not measured"):
            nsit(p12, p3, 2)


class TestMrWeak:
    def test_all_zero_moments_pass(self):
        r = mr_weak(MomentSet(averages=(0.0,) * 3, correlators=(0.0,) * 3))
        assert r.verdict
        assert len(r.checks) == 16

    def test_assumptions_annotated_not_checked(self):
        r = mr_weak(MomentSet(averages=(0.0,) * 3, correlators=(0.0,) * 3))
        assert any("NIM_pw" in a for a in r.assumptions)
        assert any("Ind" in a for a in r.assumptions)
        assert all("NIM" not in c.name and "Ind" not in c.name for c in r.checks)

    def test_third_turn_fails_through_lg3(self):
        mom = piecewise_moments(precession_model(times=(0.0, np.pi / 3, 2 * np.pi / 3)))
        r = mr_weak(mom)
        assert not r.verdict
        failing = [c.name for c in r.checks if not c.passed]
        assert failing == ["LG3.2"]

    def test_deterministic_constant_signal_passes_at_extremes(self):
        m = QuantumModel(hamiltonian=np.zeros((2, 2)), rho=RHO_UP, observable=SZ,
                         times=(0.0, 1.0, 2.0))
        r = mr_weak(piecewise_moments(m))
        assert r.verdict
        assert r.check("LG2.12.++").margin == pytest.approx(4.0, abs=1e-12)
        assert r.check("LG2.12.--").margin == pytest.approx(0.0, abs=1e-12)

    def test_four_time_uses_lg4(self):
        mom = piecewise_moments(precession_model(times=(0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4)))
        r = mr_weak(mom)
        assert len(r.checks) == 16 + 8
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
        failing = {c.name for c in r.checks if not c.passed}
        assert failing == {"LG3.2"}
        nsit_checks = [c for c in r.checks if c.name.startswith("NSIT")]
        assert len(nsit_checks) == 6
        assert all(c.passed for c in nsit_checks)

    def test_mixed_state_quarter_turn_passes(self):
        model = precession_model(times=(0.0, np.pi / 2, np.pi))
        r = mr_int(measure_all(model))
        assert r.verdict
        margins = [r.check(f"LG3.{k}").margin for k in (1, 2, 3, 4)]
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
        assert max(abs(c.value) for c in r.checks) < 1e-12

    def test_zero_hamiltonian_passes(self, rng):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = z @ z.conj().T
        rho /= np.trace(rho).real
        m = QuantumModel(hamiltonian=np.zeros((2, 2)), rho=rho, observable=SZ, times=(0.0, 1.0, 2.0))
        assert mr_strong(measure_all(m)).verdict

    def test_generic_pure_state_fails_with_witness_scale_residuals(self):
        model = precession_model(times=(0.7, 1.4, 2.1), rho=RHO_UP)
        r = mr_strong(measure_all(model))
        assert not r.verdict
        w23 = witness(sequential_prob(model, (1, 2)), single_time_prob(model, 2))
        for c in r.checks:
            if c.name.startswith("NSIT(2)3"):
                assert abs(c.value) == pytest.approx(w23, abs=1e-12)

    def test_pass_implies_context_free_expansion(self):
        m = QuantumModel(hamiltonian=0.9 * SZ, rho=np.diag([0.8, 0.2]).astype(complex),
                         observable=SZ, times=(0.0, 1.0, 2.0))
        assert mr_strong(measure_all(m)).verdict
        ctx = sequential_moments(measure_all(m))
        reconstructed = triple_expansion_table(ctx.base, ctx.value("D", "123"))
        chain = sequential_prob(m, (0, 1, 2))
        assert max(abs(reconstructed.weight(o) - chain.weight(o)) for o in outcomes(3)) < 1e-12

    def test_needs_three_times(self):
        with pytest.raises(ValidationError, match="3 times"):
            mr_strong(measure_all(precession_model(times=(0.0, 1.0, 2.0, 3.0))))


class TestPairwiseNsit:
    def test_maximally_mixed_qubit_all_pass(self, mixed_qubit):
        r = nsit_pairwise(measure_all(mixed_qubit))
        assert r.verdict
        assert max(abs(c.value) for c in r.checks) < 1e-12

    def test_four_time_families(self):
        model = precession_model(times=(0.0, 1.0, 2.0, 3.0))
        r = nsit_pairwise(measure_all(model))
        families = {c.name.rsplit(".", 1)[0] for c in r.checks}
        assert families == {"NSIT(1)2", "NSIT(2)3", "NSIT(3)4", "NSIT(1)4"}


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
            mom = piecewise_moments(model)
            assert mom.corr(0, 1) == pytest.approx(mom.averages[1], abs=1e-12)
            assert mom.corr(0, 2) == pytest.approx(mom.averages[2], abs=1e-12)
            r3 = lg3(mom)
            r2 = lg2(mom, (1, 2))
            for k, (s2, s3) in mapping.items():
                name = f"LG2.23.{'+' if s2 > 0 else '-'}{'+' if s3 > 0 else '-'}"
                assert r3.check(f"LG3.{k}").margin == pytest.approx(
                    r2.check(name).margin, abs=1e-12
                )
            for pair in ((0, 1), (0, 2)):
                j = pair[1]
                r = lg2(mom, pair)
                margins = sorted(c.margin for c in r.checks)
                expected = sorted(
                    [0.0, 0.0, 2 * (1 - mom.averages[j]), 2 * (1 + mom.averages[j])]
                )
                assert margins == pytest.approx(expected, abs=1e-12)


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

    def test_epsilon_controls_verdict(self):
        # LG3.2 margin is exactly -1e-6 here: fails tight, passes loose
        mom = MomentSet(averages=(0.0,) * 3, correlators=(1.0, 1.0, 1.0 - 1e-6))
        assert not lg3(mom, epsilon=1e-9).verdict
        assert lg3(mom, epsilon=1e-3).verdict

    def test_merge_rejects_mixed_epsilon(self):
        a = lg3(MomentSet(averages=(0.0,) * 3, correlators=(0.0,) * 3), epsilon=1e-9)
        b = lg3(MomentSet(averages=(0.0,) * 3, correlators=(0.0,) * 3), epsilon=1e-6)
        with pytest.raises(ValidationError, match="epsilon"):
            a.merged_with(b)
