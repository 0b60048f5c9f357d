import numpy as np
import pytest

from mrtest.errors import InvalidObservableError, ValidationError
from mrtest.harness import haar_unitary
from mrtest.quantum import QuantumModel, eig_hermitian, expectation

from conftest import I2, SX, SY, SZ, precession_model, random_hermitian


def model_at(t, hamiltonian=None, observable=SZ) -> QuantumModel:
    """A maximally mixed model measured twice at time t: its time index 0
    gives U(t), Q(t) and the projectors P_s(t).  H defaults to zero."""
    dim = observable.shape[0]
    h = np.zeros((dim, dim)) if hamiltonian is None else hamiltonian
    return QuantumModel(hamiltonian=h, rho=np.eye(dim) / dim, observable=observable, times=(t, t))


def random_dichotomic(rng, dim):
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    pattern = np.array([1.0 if k % 2 == 0 else -1.0 for k in range(dim)])
    q = u @ np.diag(pattern) @ u.conj().T
    return (q + q.conj().T) / 2


class TestProjector:
    def test_diagonal_observable(self):
        m = model_at(0.0)
        assert np.array_equal(m.projector_at(0, +1), np.diag([1.0, 0.0]).astype(complex))
        assert np.array_equal(m.projector_at(0, -1), np.diag([0.0, 1.0]).astype(complex))

    def test_sigma_x_gives_half_entries(self):
        assert np.allclose(model_at(0.0, observable=SX).projector_at(0, +1), np.full((2, 2), 0.5), atol=0)

    def test_pair_sums_to_identity_bitwise(self, rng):
        for dim in (2, 3, 4, 5):
            for t in (0.0, float(rng.uniform(-5, 5))):
                m = model_at(t, random_hermitian(rng, dim), random_dichotomic(rng, dim))
                total = m.projector_at(0, +1) + m.projector_at(0, -1)
                assert np.array_equal(total, np.eye(dim, dtype=complex))

    def test_idempotent_and_hermitian(self, rng):
        p = model_at(0.0, observable=SX.copy()).projector_at(0, -1)
        assert np.abs(p @ p - p).max() < 1e-10
        assert np.abs(p - p.conj().T).max() < 1e-12

    def test_rejects_non_dichotomic(self):
        with pytest.raises(InvalidObservableError):
            model_at(0.0, observable=np.diag([2.0, -1.0]).astype(complex))

    def test_rejects_bad_sign(self):
        with pytest.raises(ValidationError):
            model_at(0.0).projector_at(0, 0)


class TestEigHermitian:
    def test_identity(self):
        lam, v = eig_hermitian(np.eye(3))
        assert np.allclose(lam, 1.0, atol=0)
        assert np.abs(v @ v.conj().T - np.eye(3)).max() < 1e-12

    def test_diagonal_sorted_ascending(self):
        lam, _ = eig_hermitian(np.diag([3.0, -1.0]))
        assert np.allclose(lam, [-1.0, 3.0], atol=0)

    def test_sigma_x_hand_diagonalization(self):
        # characteristic polynomial lam^2 - 1 = 0 -> eigenvalues -1, +1;
        # eigenvectors (1, -1)/sqrt(2) and (1, 1)/sqrt(2) up to phase
        lam, v = eig_hermitian(SX)
        assert np.allclose(lam, [-1.0, 1.0], atol=1e-14)
        for k, target in enumerate((np.array([1, -1]) / np.sqrt(2), np.array([1, 1]) / np.sqrt(2))):
            overlap = abs(np.vdot(target, v[:, k]))
            assert overlap == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
    def test_reconstruction_and_unitarity(self, rng, dim):
        a = random_hermitian(rng, dim)
        lam, v = eig_hermitian(a)
        assert np.abs(v @ np.diag(lam) @ v.conj().T - a).max() < 1e-10
        assert np.abs(v.conj().T @ v - np.eye(dim)).max() < 1e-10
        assert np.all(np.diff(lam) >= -1e-14)

    @pytest.mark.parametrize("dim", [2, 4, 9])
    def test_matches_lapack_eigenvalues(self, rng, dim):
        a = random_hermitian(rng, dim)
        lam, _ = eig_hermitian(a)
        assert np.abs(lam - np.linalg.eigvalsh(a)).max() < 1e-10

    def test_degenerate_spectrum(self):
        a = np.diag([2.0, 2.0, -1.0]).astype(complex)
        a[0, 1] = a[1, 0] = 0.0
        lam, v = eig_hermitian(a)
        assert np.allclose(sorted(lam), [-1.0, 2.0, 2.0], atol=1e-13)
        assert np.abs(v @ np.diag(lam) @ v.conj().T - a).max() < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_dim16_dichotomic_eightfold_degenerate(self, rng):
        u = haar_unitary(rng, 16)
        q = u @ np.diag([1.0, -1.0] * 8) @ u.conj().T
        q = (q + q.conj().T) / 2
        lam, v = eig_hermitian(q)
        assert np.abs(lam - np.repeat([-1.0, 1.0], 8)).max() < 1e-12
        assert np.abs(v @ np.diag(lam) @ v.conj().T - q).max() < 1e-12
        assert np.abs(v.conj().T @ v - np.eye(16)).max() < 1e-12


class TestEvolveOperator:
    """U(t_i) = exp(-iHt_i) through ``QuantumModel.unitary_at``."""

    def test_zero_hamiltonian(self):
        assert np.array_equal(model_at(3.7).unitary_at(0), np.eye(2, dtype=complex))

    def test_zero_time_exact_identity(self, rng):
        m = model_at(0.0, random_hermitian(rng, 4), np.diag([1.0, -1.0, 1.0, -1.0]))
        assert np.array_equal(m.unitary_at(0), np.eye(4, dtype=complex))

    def test_pi_pulse_flips_population(self):
        # omega * t = pi about x maps |0><0| to |1><1| under conjugation
        u = model_at(np.pi, SX / 2).unitary_at(0)
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert np.abs(u @ rho @ u.conj().T - np.diag([0.0, 1.0])).max() < 1e-12

    def test_inverse(self, rng):
        m = QuantumModel(hamiltonian=random_hermitian(rng, 3), rho=np.eye(3) / 3,
                         observable=np.diag([1.0, -1.0, 1.0]), times=(-1.3, 1.3))
        u = m.unitary_at(1) @ m.unitary_at(0)
        assert np.abs(u - np.eye(3)).max() < 1e-10

    def test_group_property(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            h = random_hermitian(rng, dim)
            q = np.diag([1.0 if k % 2 == 0 else -1.0 for k in range(dim)])
            t1, t2 = rng.uniform(-10, 10, 2)
            lhs = model_at(t1 + t2, h, q).unitary_at(0)
            rhs = model_at(t1, h, q).unitary_at(0) @ model_at(t2, h, q).unitary_at(0)
            assert np.abs(lhs - rhs).max() < 1e-9


class TestHeisenberg:
    """Q(t_i) = U(t_i)^dag Q U(t_i) through ``QuantumModel.observable_at``."""

    def test_commuting_hamiltonian_leaves_observable(self):
        qt = model_at(1.7, 2.5 * SZ).observable_at(0)
        assert np.abs(qt - SZ).max() < 1e-12

    def test_zero_time(self, rng):
        qt = model_at(0.0, random_hermitian(rng, 2), SX).observable_at(0)
        assert np.abs(qt - SX).max() == 0.0

    @pytest.mark.parametrize("theta", [0.3, np.pi / 3, 2.1])
    def test_precession_closed_form(self, theta):
        # Q(t) = cos(wt) sigma_z + sin(wt) sigma_y, checked entrywise
        qt = model_at(theta, SX / 2).observable_at(0)
        assert np.abs(qt - (np.cos(theta) * SZ + np.sin(theta) * SY)).max() < 1e-12

    def test_stays_dichotomic(self, rng):
        for _ in range(25):
            dim = int(rng.integers(2, 5))
            q = random_dichotomic(rng, dim)
            qt = model_at(float(rng.uniform(-5, 5)), random_hermitian(rng, dim), q).observable_at(0)
            assert np.linalg.norm(qt @ qt - np.eye(dim)) < 1e-10


class TestExpectation:
    def test_identity_gives_trace(self, mixed_qubit):
        assert expectation(mixed_qubit.rho, np.eye(2)) == pytest.approx(1.0, abs=1e-14)

    def test_traceless_in_maximally_mixed(self):
        assert expectation(I2 / 2, SX) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_case(self):
        assert expectation(np.diag([1.0, 0.0]), SZ) == pytest.approx(1.0, abs=0)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            expectation(np.eye(2), np.eye(3))

    def test_observable_expectation_in_unit_interval(self, rng):
        for _ in range(20):
            z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            rho = z @ z.conj().T
            rho /= np.trace(rho).real
            q = model_at(
                float(rng.uniform(0, 4)),
                random_hermitian(rng, 3),
                np.diag([1.0, -1.0, 1.0]).astype(complex),
            ).observable_at(0)
            assert abs(expectation(rho, q)) <= 1 + 1e-10


class TestQuantumModel:
    def test_valid_model(self, mixed_qubit):
        assert mixed_qubit.dim == 2
        assert mixed_qubit.n_times == 3

    def test_cached_observable_matches_direct(self, mixed_qubit):
        direct = model_at(mixed_qubit.times[1], SX / 2).observable_at(0)
        assert np.abs(mixed_qubit.observable_at(1) - direct).max() < 1e-14

    def test_projector_cache_sums_to_identity(self, mixed_qubit):
        total = mixed_qubit.projector_at(2, +1) + mixed_qubit.projector_at(2, -1)
        assert np.array_equal(total, np.eye(2, dtype=complex))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            QuantumModel(hamiltonian=SX, rho=I2, observable=SZ, times=(0.0, 1.0))

    def test_rejects_non_psd_rho(self):
        rho = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValidationError, match="positive semidefinite"):
            QuantumModel(hamiltonian=SX, rho=rho, observable=SZ, times=(0.0, 1.0))

    def test_rejects_non_dichotomic_observable(self):
        with pytest.raises(InvalidObservableError):
            QuantumModel(hamiltonian=SX, rho=I2 / 2, observable=SX + SZ, times=(0.0, 1.0))

    @pytest.mark.parametrize("floor, accepted", [(-1e-11, True), (-1e-9, False)])
    def test_psd_floor_rank_deficient_dim16(self, rng, floor, accepted):
        # rank 8 plus one eigenvalue just below zero; the weights sum to 1
        w = np.zeros(16)
        w[8:] = (1.0 - floor) / 8
        w[0] = floor
        u = haar_unitary(rng, 16)
        rho = u @ np.diag(w) @ u.conj().T
        rho = (rho + rho.conj().T) / 2
        args = dict(
            hamiltonian=np.diag(np.arange(16.0)),
            rho=rho,
            observable=np.diag([1.0, -1.0] * 8),
            times=(0.0, 1.0, 2.0),
        )
        if accepted:
            assert QuantumModel(**args).dim == 16
        else:
            with pytest.raises(ValidationError, match="positive semidefinite"):
                QuantumModel(**args)

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValidationError, match="non-decreasing"):
            precession_model(times=(0.0, 2.0, 1.0))

    def test_allows_repeated_times(self):
        m = precession_model(times=(0.0, 0.5, 0.5))
        assert m.times == (0.0, 0.5, 0.5)

    def test_rejects_wrong_time_count(self):
        with pytest.raises(ValidationError, match="2-4"):
            precession_model(times=(0.0,))
        with pytest.raises(ValidationError, match="2-4"):
            precession_model(times=(0.0, 1.0, 2.0, 3.0, 4.0))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="mismatch"):
            QuantumModel(hamiltonian=np.zeros((3, 3)), rho=I2 / 2, observable=SZ, times=(0.0, 1.0))

    def test_arrays_frozen(self, mixed_qubit):
        with pytest.raises(ValueError):
            mixed_qubit.rho[0, 0] = 9.0

    def test_time_index_range(self, mixed_qubit):
        with pytest.raises(ValidationError, match="out of range"):
            mixed_qubit.check_time_index(3)
