import re
import warnings
from unittest import mock

import numpy as np
import pytest

from mrtest import quantum
from mrtest.errors import InvalidObservableError, ValidationError
from mrtest.harness import haar_unitary, sample_model
from mrtest.measurement import measure_all
from mrtest.quantum import QuantumModel, eig_hermitian, expectation, require_dichotomic, require_hermitian
from mrtest.quantum import _UNROLL_MAX_DIM, _hermitian_part, _pairing, _product, _times_matrix, _validate

from conftest import I2, SX, SY, SZ, at_time, complex_gaussian, near_hermitian_inputs, precession_model, random_hermitian
from conftest import times_matrix_reference


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
        assert np.array_equal(at_time(m, 0).projector(+1), np.diag([1.0, 0.0]).astype(complex))
        assert np.array_equal(at_time(m, 0).projector(-1), np.diag([0.0, 1.0]).astype(complex))

    def test_sigma_x_gives_half_entries(self):
        assert np.allclose(at_time(model_at(0.0, observable=SX), 0).projector(+1), np.full((2, 2), 0.5), atol=0)

    def test_pair_sums_to_identity_bitwise(self, rng):
        for dim in (2, 3, 4, 5):
            for t in (0.0, float(rng.uniform(-5, 5))):
                m = model_at(t, random_hermitian(rng, dim), random_dichotomic(rng, dim))
                total = at_time(m, 0).projector(+1) + at_time(m, 0).projector(-1)
                assert np.array_equal(total, np.eye(dim, dtype=complex))

    def test_idempotent_and_hermitian(self, rng):
        p = at_time(model_at(0.0, observable=SX.copy()), 0).projector(-1)
        assert np.abs(p @ p - p).max() < 1e-10
        assert np.abs(p - p.conj().T).max() < 1e-12

    def test_rejects_non_dichotomic(self):
        with pytest.raises(InvalidObservableError):
            model_at(0.0, observable=np.diag([2.0, -1.0]).astype(complex))

    def test_rejects_bad_sign(self):
        with pytest.raises(ValidationError):
            at_time(model_at(0.0), 0).projector(0)

    def test_nan_deviation_is_not_dichotomic(self):
        with pytest.raises(InvalidObservableError, match=r"not dichotomic, \|\|Q\^2 - I\|\| = nan"):
            require_dichotomic(np.full((2, 2), np.nan, dtype=complex))


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
        u = haar_unitary(complex_gaussian(rng, 16))
        q = u @ np.diag([1.0, -1.0] * 8) @ u.conj().T
        q = (q + q.conj().T) / 2
        lam, v = eig_hermitian(q)
        assert np.abs(lam - np.repeat([-1.0, 1.0], 8)).max() < 1e-12
        assert np.abs(v @ np.diag(lam) @ v.conj().T - q).max() < 1e-12
        assert np.abs(v.conj().T @ v - np.eye(16)).max() < 1e-12


class TestHermitianPart:
    def test_bit_equal_to_the_halved_sum(self, rng):
        for scale in 10.0 ** np.arange(-5, 6):
            for dim in (2, 5, 16):
                for _ in range(10):
                    a = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) * scale
                    assert _hermitian_part(a).tobytes() == ((a + a.conj().T) / 2.0).tobytes()

    @pytest.mark.parametrize("length", [4, 3, 6])
    def test_stack_matrix_by_matrix(self, rng, length):
        # a stack as long as the matrix dimension (4), and shorter and longer ones
        a = rng.standard_normal((length, 4, 4)) + 1j * rng.standard_normal((length, 4, 4))
        got = _hermitian_part(a)
        assert [got[k].tobytes() for k in range(length)] == [_hermitian_part(a[k]).tobytes() for k in range(length)]


class TestRequireHermitianOnStacks:
    """A stack is checked matrix by matrix, whether or not its length equals
    the matrix dimension (4): the one non-Hermitian matrix is caught."""

    @pytest.mark.parametrize("length", [4, 3, 6])
    def test_passes_a_hermitian_stack(self, rng, length):
        require_hermitian(np.stack([random_hermitian(rng, 4) for _ in range(length)]))

    @pytest.mark.parametrize("length", [4, 3, 6])
    def test_catches_the_one_non_hermitian_matrix(self, rng, length):
        stack = np.stack([random_hermitian(rng, 4) for _ in range(length)])
        bad = length - 2
        stack[bad, 0, 1] += 0.5
        with pytest.raises(ValidationError, match=r"^rho: not Hermitian \(max deviation 5\.000e-01 > 1e-12\)$"):
            require_hermitian(stack, name="rho")


class TestTimesMatrix:
    """``_times_matrix`` against ``np.matmul`` one matrix at a time, bit for
    bit, for one shared factor and for one factor per model, on stacks
    shaped as ``_evolve_from_eig``, ``_spectral`` and ``_tables`` pass them."""

    @pytest.mark.parametrize("dim", [2, 4, 16])
    @pytest.mark.parametrize("shared", [True, False])
    def test_bit_equal_to_per_matrix_matmul(self, rng, dim, shared):
        models, n = 5, 4

        def matrices(*shape):
            return rng.standard_normal(shape + (dim, dim)) + 1j * rng.standard_normal(shape + (dim, dim))

        m = matrices() if shared else matrices(models)
        stacks = {
            "V times phases": matrices(models, n),
            "U^dag, a strided view": np.swapaxes(matrices(models, n).conj(), -1, -2),
            "projector pairs": matrices(models, n, 2),
        }
        if shared:
            stacks["one model's projector pairs"] = matrices(n, 2)
        for name, stack in stacks.items():
            got = _times_matrix(stack, m)
            assert got.shape == stack.shape and got.tobytes() == times_matrix_reference(stack, m).tobytes(), name


class TestEvolveOperator:
    """U(t_i) = exp(-iHt_i) through ``at_time``."""

    def test_zero_hamiltonian(self):
        assert np.array_equal(at_time(model_at(3.7), 0).unitary, np.eye(2, dtype=complex))

    def test_zero_time_exact_identity(self, rng):
        m = model_at(0.0, random_hermitian(rng, 4), np.diag([1.0, -1.0, 1.0, -1.0]))
        assert np.array_equal(at_time(m, 0).unitary, np.eye(4, dtype=complex))

    def test_pi_pulse_flips_population(self):
        # omega * t = pi about x maps |0><0| to |1><1| under conjugation
        u = at_time(model_at(np.pi, SX / 2), 0).unitary
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert np.abs(u @ rho @ u.conj().T - np.diag([0.0, 1.0])).max() < 1e-12

    def test_inverse(self, rng):
        m = QuantumModel(hamiltonian=random_hermitian(rng, 3), rho=np.eye(3) / 3,
                         observable=np.diag([1.0, -1.0, 1.0]), times=(-1.3, 1.3))
        u = at_time(m, 1).unitary @ at_time(m, 0).unitary
        assert np.abs(u - np.eye(3)).max() < 1e-10

    def test_group_property(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            h = random_hermitian(rng, dim)
            q = np.diag([1.0 if k % 2 == 0 else -1.0 for k in range(dim)])
            t1, t2 = rng.uniform(-10, 10, 2)
            lhs = at_time(model_at(t1 + t2, h, q), 0).unitary
            rhs = at_time(model_at(t1, h, q), 0).unitary @ at_time(model_at(t2, h, q), 0).unitary
            assert np.abs(lhs - rhs).max() < 1e-9


class TestNonFiniteEvolution:
    """An H whose entries are near the float limit: diagonalising it stays
    finite, and an evolution whose phases leave the float range is named."""

    H = np.array([[0.0, 1e308 + 1e308j], [1e308 - 1e308j, 0.0]])

    def test_eig_hermitian_does_not_overflow(self):
        lam, v = eig_hermitian(self.H)
        assert np.isfinite(lam).all() and np.isfinite(v).all()
        assert lam[1] == pytest.approx(np.sqrt(2) * 1e308, rel=1e-12)

    def test_overflowing_phases_name_the_evolution(self):
        m = QuantumModel(hamiltonian=self.H, rho=I2 / 2, observable=SZ, times=(0.0, 1.0, 2.0))
        with pytest.raises(ValidationError, match=r"evolution: H eigenvalue times t overflows the float range"):
            m.spectral()

    def test_time_zero_alone_stays_exact(self):
        m = QuantumModel(hamiltonian=self.H, rho=I2 / 2, observable=SZ, times=(0.0, 0.0))
        assert np.array_equal(at_time(m, 1).unitary, I2)


class TestStackContractions:
    """``_product`` and ``_pairing`` against ``@`` and ``np.einsum`` on both sides
    of their dispatch: within 1e-14 where d <= ``_UNROLL_MAX_DIM`` (broadcast
    multiply-adds), bit for bit above it (the same calls), on complex stacks
    shaped as ``_sequential_weights`` and ``_quasi_weights`` pass them."""

    @staticmethod
    def operand_pairs(rng, dim):
        def matrices(*shape):
            shape += (dim, dim)
            return rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)

        return {
            "one matrix each": (matrices(), matrices()),
            "same-shape stacks": (matrices(5, 3, 2), matrices(5, 3, 2)),
            "projector against first-run states, P_j against P_i rho": (matrices(5, 1, 2), matrices(5, 2, 1)),
            "projector against two-outcome states": (matrices(5, 1, 1, 2), matrices(5, 2, 2, 1)),
            "P_i against P_j rho": (matrices(5, 2, 1), matrices(5, 1, 2)),
            "one state against a stack": (matrices(5, 4, 2), matrices(5, 1, 1)),
        }

    @pytest.mark.parametrize("dim", [2, 3, 4, 16])
    def test_matches_matmul_and_einsum(self, rng, dim):
        for name, (a, b) in self.operand_pairs(rng, dim).items():
            for got, want in ((_product(a, b), a @ b), (_pairing(a, b), np.einsum("...ij,...ji->...", a, b))):
                assert np.shape(got) == np.shape(want), name
                if dim > _UNROLL_MAX_DIM:
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name
                else:
                    assert np.abs(got - want).max() <= 1e-14, name

    @pytest.mark.parametrize("dim", [2, 3])
    def test_bit_equal_on_either_layout(self, rng, dim):
        # C-ordered operands, and copies laid out as ``_stack`` lays out the spectral and table stacks
        for name, pair in self.operand_pairs(rng, dim).items():
            inner = []
            for x in pair:
                inner.append(quantum._stack(x.shape, x.dtype))
                inner[-1][...] = x
                assert x.ndim < 3 or inner[-1].strides[0] == x.itemsize, name
            for f in (_product, _pairing):
                want = np.asarray(f(*pair)).tobytes()
                for a, b in ((inner[0], pair[1]), (pair[0], inner[1]), inner):
                    assert np.asarray(f(a, b)).tobytes() == want, (name, f.__name__)

    @pytest.mark.parametrize("dim", [2, 3, 4, 16])
    @pytest.mark.parametrize("scale", [1.0, 1e-200, 1e-310])
    def test_finite_inputs_raise_no_warning(self, rng, dim, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, b in self.operand_pairs(rng, dim).values():
                _product(scale * a, b)
                _pairing(scale * a, scale * b)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_pairing_overflows_silently_as_einsum_does(self, rng, dim):
        a, b = self.operand_pairs(rng, dim)["same-shape stacks"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = np.einsum("...ij,...ji->...", 1e200 * a, 1e200 * b)
            got = _pairing(1e200 * a, 1e200 * b)
        assert np.array_equal(np.isfinite(got), np.isfinite(want))


class TestStackLayout:
    """Up to ``_UNROLL_MAX_DIM`` the spectral stacks and the tables built from
    them keep their leading axis (the grid, or the model's times) innermost in
    memory, so the multiply-adds run over it; above it every matrix is C-contiguous
    for ``@`` and BLAS."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 16])
    @pytest.mark.parametrize("grid", [True, False])
    def test_leading_axis_innermost_up_to_the_unrolled_size(self, dim, grid):
        model = sample_model(np.random.default_rng(dim), dim)
        times = model.times[0] + np.arange(3) * np.linspace(0.1, 2.0, 5)[:, None] if grid else None
        tables = measure_all(model, times)
        weights = [t.weights for t in (*tables.singles, *tables.pairs.values(), tables.chain, *tables.quasi.values())]
        for a in model.spectral(times):
            if dim <= _UNROLL_MAX_DIM:
                assert a.strides[0] == min(a.strides) == a.itemsize
            else:
                assert a.strides[-2:] == (dim * a.itemsize, a.itemsize)
        for w in weights if grid else ():
            assert w.strides[0] == min(w.strides) if dim <= _UNROLL_MAX_DIM else w.flags.c_contiguous


class TestHugeEntries:
    """Entries near the float limit fail their invariant with its message and
    no numpy warning (pyproject raises RuntimeWarnings as errors)."""

    def test_hamiltonian_is_not_hermitian(self):
        h = np.array([[0.0, 1e308], [-1e308, 0.0]], dtype=complex)
        with pytest.raises(ValidationError, match=r"^hamiltonian: not Hermitian \(max deviation inf > 1e-12\)$"):
            QuantumModel(hamiltonian=h, rho=I2 / 2, observable=SZ.copy(), times=(0.0, 1.0))

    def test_observable_is_not_dichotomic(self):
        q = np.array([[1.0, 1e308], [1e308, -1.0]], dtype=complex)
        with pytest.raises(InvalidObservableError, match=r"^observable: not dichotomic, \|\|Q\^2 - I\|\| = nan > 1e-10$"):
            QuantumModel(hamiltonian=SX / 2, rho=I2 / 2, observable=q, times=(0.0, 1.0))

    def test_nan_deviation_is_not_hermitian(self):
        with pytest.raises(ValidationError, match=r"not Hermitian \(max deviation nan"):
            require_hermitian(np.full((2, 2), np.nan, dtype=complex))


class TestHeisenberg:
    """Q(t_i) = U(t_i)^dag Q U(t_i) through ``at_time``."""

    def test_commuting_hamiltonian_leaves_observable(self):
        qt = at_time(model_at(1.7, 2.5 * SZ), 0).observable
        assert np.abs(qt - SZ).max() < 1e-12

    def test_zero_time(self, rng):
        qt = at_time(model_at(0.0, random_hermitian(rng, 2), SX), 0).observable
        assert np.abs(qt - SX).max() == 0.0

    @pytest.mark.parametrize("theta", [0.3, np.pi / 3, 2.1])
    def test_precession_closed_form(self, theta):
        # Q(t) = cos(wt) sigma_z + sin(wt) sigma_y, checked entrywise
        qt = at_time(model_at(theta, SX / 2), 0).observable
        assert np.abs(qt - (np.cos(theta) * SZ + np.sin(theta) * SY)).max() < 1e-12

    def test_stays_dichotomic(self, rng):
        for _ in range(25):
            dim = int(rng.integers(2, 5))
            q = random_dichotomic(rng, dim)
            qt = at_time(model_at(float(rng.uniform(-5, 5)), random_hermitian(rng, dim), q), 0).observable
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

    def test_rejects_an_imaginary_trace(self):
        # Tr(A rho) = A_01 rho_10 = -0.5j for a non-Hermitian A and a pure state
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        rho = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
        for ops in (a, np.stack([np.eye(2), a])):
            with pytest.raises(ValidationError, match=re.escape("expectation: imaginary residue 5.000e-01 exceeds 1e-12")):
                expectation(rho, ops)

    def test_one_state_per_leading_index(self, rng):
        # a stack of two states against a (2, 3) stack of operators: state k
        # pairs with the operators in row k, as one state does with each alone
        rho = np.stack([np.diag([0.25, 0.75]), I2 / 2]).astype(complex)
        ops = np.stack([random_hermitian(rng, 2) for _ in range(6)]).reshape(2, 3, 2, 2)
        want = [[expectation(rho[k], op) for op in ops[k]] for k in range(2)]
        assert np.abs(expectation(rho, ops) - want).max() <= 1e-15
        for bad in (np.stack([rho, rho]), rho[:1].repeat(3, axis=0)):
            with pytest.raises(ValidationError, match="shape mismatch"):
                expectation(bad, ops)

    def test_observable_expectation_in_unit_interval(self, rng):
        for _ in range(20):
            z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            rho = z @ z.conj().T
            rho /= np.trace(rho).real
            m = model_at(float(rng.uniform(0, 4)), random_hermitian(rng, 3), np.diag([1.0, -1.0, 1.0]).astype(complex))
            q = at_time(m, 0).observable
            assert abs(expectation(rho, q)) <= 1 + 1e-10


class TestBlockValidation:
    """``_validate`` on a block of five models where model 3 alone breaks one
    invariant: the error that model raises alone, naming index 3."""

    @pytest.mark.parametrize("case, error, text", [
        ("non-Hermitian H", ValidationError, "hamiltonian: not Hermitian"),
        ("non-dichotomic Q", InvalidObservableError, "observable: not dichotomic"),
        ("trace 1.1", ValidationError, "rho: trace must be 1"),
        ("negative eigenvalue", ValidationError, "rho: not positive semidefinite"),
        ("decreasing times", ValidationError, "times: must be non-decreasing"),
    ])
    def test_names_the_failing_model(self, rng, case, error, text):
        models = [sample_model(rng, 3) for _ in range(5)]
        h, rho, q = (np.stack([getattr(m, f) for m in models]) for f in ("hamiltonian", "rho", "observable"))
        times = np.array([m.times for m in models])
        _validate(h, rho, q, times)
        if case == "non-Hermitian H":
            h[3, 0, 1] += 0.5
        elif case == "non-dichotomic Q":
            q[3] *= 2.0
        elif case == "trace 1.1":
            rho[3] *= 1.1
        elif case == "negative eigenvalue":
            rho[3] = np.diag([1.5, -0.5, 0.0])
        else:
            times[3] = times[3][::-1]
        with pytest.raises(error) as alone:
            QuantumModel(hamiltonian=h[3], rho=rho[3], observable=q[3], times=tuple(times[3]))
        with pytest.raises(error) as block:
            _validate(h, rho, q, times)
        assert type(block.value) is type(alone.value)
        assert str(alone.value).startswith(text)
        assert str(block.value) == f"index 3: {alone.value}"

    @pytest.mark.parametrize("shape", [(4, 3), (3,), (5, 1, 3)])
    def test_needs_one_row_of_times_per_model(self, rng, shape):
        models = [sample_model(rng, 3) for _ in range(5)]
        h, rho, q = (np.stack([getattr(m, f) for m in models]) for f in ("hamiltonian", "rho", "observable"))
        text = f"times: need one row of times per model, of shape (5, n), got shape {shape}"
        with pytest.raises(ValidationError, match=f"^{re.escape(text)}$"):
            _validate(h, rho, q, np.zeros(shape))


class TestQuantumModel:
    def test_valid_model(self, mixed_qubit):
        assert mixed_qubit.dim == 2
        assert mixed_qubit.n_times == 3

    def test_cached_observable_matches_direct(self, mixed_qubit):
        direct = at_time(model_at(mixed_qubit.times[1], SX / 2), 0).observable
        assert np.abs(at_time(mixed_qubit, 1).observable - direct).max() < 1e-14

    def test_projector_cache_sums_to_identity(self, mixed_qubit):
        total = at_time(mixed_qubit, 2).projector(+1) + at_time(mixed_qubit, 2).projector(-1)
        assert np.array_equal(total, np.eye(2, dtype=complex))

    def test_rejects_bad_trace(self):
        # the trace as a Python float, not numpy's np.float64(2.0)
        with pytest.raises(ValidationError, match=r"^rho: trace must be 1, got 2\.0$"):
            QuantumModel(hamiltonian=SX, rho=I2, observable=SZ, times=(0.0, 1.0))

    def test_rejects_non_psd_rho(self):
        rho = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValidationError, match=r"^rho: not positive semidefinite \(min eigenvalue -5\.000e-01\)$"):
            QuantumModel(hamiltonian=SX, rho=rho, observable=SZ, times=(0.0, 1.0))

    def test_one_eigendecomposition_per_model(self, rng):
        # validating rho needs its eigenvalues only; H is diagonalized once, on first use
        with mock.patch.object(quantum, "eig_hermitian", side_effect=eig_hermitian) as counted:
            model = sample_model(rng, 16)
            assert counted.call_count == 0
            model.hamiltonian_eig
            model.spectral()
            assert counted.call_count == 1

    def test_rejects_non_dichotomic_observable(self):
        with pytest.raises(InvalidObservableError):
            QuantumModel(hamiltonian=SX, rho=I2 / 2, observable=SX + SZ, times=(0.0, 1.0))

    @pytest.mark.parametrize("floor, accepted", [(-1e-11, True), (-1e-9, False)])
    def test_psd_floor_rank_deficient_dim16(self, rng, floor, accepted):
        # rank 8 plus one eigenvalue just below zero; the weights sum to 1
        w = np.zeros(16)
        w[8:] = (1.0 - floor) / 8
        w[0] = floor
        u = haar_unitary(complex_gaussian(rng, 16))
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

    @pytest.mark.parametrize("times, shape", [
        (1.0, "()"),
        ([[0.0, 1.0, 2.0]], "(1, 3)"),
        ([[0, 1], [0, 2], [1, 3]], "(3, 2)"),
    ])
    def test_rejects_anything_but_one_row_of_times(self, times, shape):
        # before the check: a bare IndexError, a one-time model, and a three-time model of pairs
        text = f"times: need one row of times per model, of shape (n,), got shape {shape}"
        with pytest.raises(ValidationError, match=f"^{re.escape(text)}$"):
            QuantumModel(hamiltonian=SX / 2, rho=I2 / 2, observable=SZ, times=times)

    @pytest.mark.parametrize("times", [[[0, 1], [0, 1, 2]], "abc", [0, 1j, 2], [0, 1, 10**400]],
                             ids=["ragged", "text", "complex", "huge-int"])
    def test_rejects_times_that_are_not_real_numbers(self, times):
        # before the check: numpy's bare ValueError, TypeError or OverflowError
        text = "times: need real numbers, in one row of times per model"
        with pytest.raises(ValidationError, match=f"^{re.escape(text)}$"):
            QuantumModel(hamiltonian=SX / 2, rho=I2 / 2, observable=SZ, times=times)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="mismatch"):
            QuantumModel(hamiltonian=np.zeros((3, 3)), rho=I2 / 2, observable=SZ, times=(0.0, 1.0))

    def test_rejects_non_square_matrix(self):
        with pytest.raises(ValidationError, match=r"hamiltonian: expected a square matrix, got shape \(2, 3\)"):
            QuantumModel(hamiltonian=np.zeros((2, 3)), rho=I2 / 2, observable=SZ.copy(), times=(0.0, 1.0))

    @pytest.mark.parametrize("dim", [4, 16])
    def test_stores_hermitian_parts(self, dim):
        # rho passes validation 9.8e-13 off Hermitian; its traces must then come out real
        raw = near_hermitian_inputs(dim)
        model = QuantumModel(**raw)
        assert measure_all(model).moments.averages == pytest.approx([1 - 2 / dim] * 3, abs=1e-12)
        assert np.array_equal(model.rho, raw["rho"].real)
        for key in ("hamiltonian", "observable"):
            assert np.array_equal(getattr(model, key), raw[key]), key

    def test_exactly_hermitian_inputs_keep_their_bits(self, rng):
        h, q = random_hermitian(rng, 3), random_dichotomic(rng, 3)
        z = complex_gaussian(rng, 3)
        rho = _hermitian_part(z @ z.conj().T)
        rho /= np.trace(rho).real
        model = QuantumModel(hamiltonian=h, rho=rho, observable=q, times=(0.0, 1.0, 2.0))
        for key, a in (("hamiltonian", h), ("rho", rho), ("observable", q)):
            assert getattr(model, key).tobytes() == a.tobytes(), key

    def test_arrays_frozen(self, mixed_qubit):
        with pytest.raises(ValueError):
            mixed_qubit.rho[0, 0] = 9.0

    def test_time_index_range(self, mixed_qubit):
        with pytest.raises(ValidationError, match="out of range"):
            at_time(mixed_qubit, 3)
