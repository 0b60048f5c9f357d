"""Dense complex Hermitian linear algebra for small dimensions.

Everything here works on plain ``numpy`` complex arrays of dimension 2..16.
The eigensolver is LAPACK's Hermitian ``eigh`` (through ``numpy.linalg``);
its eigenvectors are orthonormal to rounding, so ``exp(-iHt)`` built from
them stays unitary up to rounding.

``QuantumModel`` bundles a Hamiltonian, a density matrix, a dichotomic
observable and 2-4 measurement times, validates all invariants on
construction, and memoizes the spectral data the measurement layer needs:
the unitary evolution U(t) generated by H (hbar = 1), the
Heisenberg-picture observable Q(t) and its two spectral projectors.  H is
diagonalised once per model; ``spectral`` then evaluates all three for a
whole array of times, so a sweep over a grid of times, or over a scale
omega of H (exp(-i omega H t) = V exp(-i omega lambda t) V^dag), reuses
that one eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .errors import InvalidObservableError, ValidationError
from .tolerances import TOL

MAX_DIM = 16


# ---------------------------------------------------------------------------
# validation helpers


def as_complex_matrix(entries, *, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex128 array, 2 <= dim <= 16."""
    a = np.asarray(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name}: expected a square matrix, got shape {a.shape}")
    if not (2 <= a.shape[0] <= MAX_DIM):
        raise ValidationError(f"{name}: dimension must be in [2, {MAX_DIM}], got {a.shape[0]}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValidationError(f"{name}: entries must be finite")
    return a


def require_hermitian(a: np.ndarray, *, name: str = "matrix", tol: float = TOL.scalar) -> None:
    dev = np.abs(a - a.conj().T).max()
    if dev > tol:
        raise ValidationError(f"{name}: not Hermitian (max deviation {dev:.3e} > {tol:.0e})")


def require_dichotomic(q: np.ndarray, *, name: str = "observable") -> None:
    """Observable must square to the identity (eigenvalues +1/-1); a stack
    of observables is checked matrix by matrix."""
    dev = np.linalg.norm(q @ q - np.eye(q.shape[-1]), axis=(-2, -1)).max()
    if dev > TOL.structural:
        raise InvalidObservableError(
            f"{name}: not dichotomic, ||Q^2 - I|| = {dev:.3e} > {TOL.structural:.0e}"
        )


def check_times(times) -> np.ndarray:
    """Times as a float array: a row of 2-4 finite, non-decreasing times
    per grid point, or one row for one model."""
    t = np.asarray(times, dtype=float)
    if not (2 <= t.shape[-1] <= 4):
        raise ValidationError(f"times: need 2-4 measurement times, got {t.shape[-1]}")
    if not np.isfinite(t).all():
        raise ValidationError("times: entries must be finite")
    bad = (np.diff(t, axis=-1) < 0).any(axis=-1)
    if bad.any():
        raise ValidationError(f"times: must be non-decreasing, got {tuple(t[bad][0].tolist())}")
    return t


# ---------------------------------------------------------------------------
# eigensolver


def eig_hermitian(a) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a Hermitian matrix with LAPACK ``eigh``.

    Returns ``(eigenvalues, V)`` with eigenvalues ascending, the columns of
    ``V`` the matching orthonormal eigenvectors, and
    ``a = V diag(eigenvalues) V^dag`` up to rounding.  Eigenvector phases
    are not canonicalized.
    """
    a = as_complex_matrix(a, name="eig_hermitian input")
    require_hermitian(a, name="eig_hermitian input")
    lam, vec = np.linalg.eigh((a + a.conj().T) / 2.0)
    return lam, vec


# ---------------------------------------------------------------------------
# operations


def _evolve_from_eig(lam: np.ndarray, vec: np.ndarray, t) -> np.ndarray:
    """exp(-i H t) from the eigendecomposition of H, for a time or an array
    of times (shape ``t.shape + (d, d)``); t = 0 gives the exact identity."""
    t = np.asarray(t, dtype=float)
    phases = np.exp(-1j * lam * t[..., None])
    u = (vec * phases[..., None, :]) @ vec.conj().T
    u[t == 0.0] = np.eye(vec.shape[0])
    return u


def expectation(rho, a):
    """Real part of Tr(A rho), for one operator A or a stack of them (a float
    or an array over the leading axes); every imaginary residue must be
    negligible."""
    rho = np.asarray(rho, dtype=complex)
    a = np.asarray(a, dtype=complex)
    if rho.ndim != 2 or a.shape[-2:] != rho.shape:
        raise ValidationError(f"expectation: shape mismatch {a.shape} vs {rho.shape}")
    val = np.einsum("...ij,ji->...", a, rho)
    worst = np.abs(val.imag).max()
    if worst > TOL.scalar:
        raise ValidationError(
            f"expectation: imaginary residue {worst:.3e} exceeds {TOL.scalar:.0e}"
        )
    return float(val.real) if val.ndim == 0 else val.real


# ---------------------------------------------------------------------------
# model


@dataclass(frozen=True)
class QuantumModel:
    """A dichotomic-variable experiment: (H, rho, Q) plus 2-4 measurement times.

    Invariants checked on construction:

    * hamiltonian, rho, observable are dim x dim Hermitian, 2 <= dim <= 16;
    * rho has unit trace and no eigenvalue below -1e-10;
    * the observable squares to the identity;
    * times are non-decreasing (repeated times model back-to-back
      measurements, the tau -> 0 limit of a vanishing gap).

    Arrays are copied and frozen read-only; instances are safe to share.
    """

    hamiltonian: np.ndarray
    rho: np.ndarray
    observable: np.ndarray
    times: tuple[float, ...]
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        h = as_complex_matrix(self.hamiltonian, name="hamiltonian")
        r = as_complex_matrix(self.rho, name="rho")
        q = as_complex_matrix(self.observable, name="observable")
        if not (h.shape == r.shape == q.shape):
            raise ValidationError(
                f"dimension mismatch: hamiltonian {h.shape}, rho {r.shape}, observable {q.shape}"
            )
        require_hermitian(h, name="hamiltonian")
        require_hermitian(r, name="rho")
        require_hermitian(q, name="observable")
        require_dichotomic(q)
        tr = np.trace(r).real
        if abs(tr - 1.0) > TOL.scalar:
            raise ValidationError(f"rho: trace must be 1, got {tr!r}")
        lam, _ = eig_hermitian(r)
        if lam[0] < -TOL.psd:
            raise ValidationError(f"rho: not positive semidefinite (min eigenvalue {lam[0]:.3e})")
        times = tuple(check_times(self.times).tolist())
        for arr in (h, r, q):
            arr.setflags(write=False)
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "rho", r)
        object.__setattr__(self, "observable", q)
        object.__setattr__(self, "times", times)

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    @property
    def n_times(self) -> int:
        return len(self.times)

    def check_time_index(self, i: int) -> int:
        if not (0 <= i < self.n_times):
            raise ValidationError(f"time index {i} out of range for {self.n_times} times")
        return i

    def hamiltonian_eig(self) -> tuple[np.ndarray, np.ndarray]:
        if "heig" not in self._cache:
            self._cache["heig"] = eig_hermitian(self.hamiltonian)
        return self._cache["heig"]

    def spectral(self, times=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """U(t), Q(t) and the projector pairs P_s(t) (s = -1, +1) for an array
        of times, with shapes ``times.shape + (d, d)`` and ``+ (2, d, d)``;
        ``times=None`` means the model's own times, memoized.  The times are
        not checked for order (an omega sweep passes omega * t); every Q(t)
        must stay dichotomic."""
        if times is None:
            if "spectral" not in self._cache:
                self._cache["spectral"] = self.spectral(np.array(self.times))
            return self._cache["spectral"]
        u = _evolve_from_eig(*self.hamiltonian_eig(), times)
        q = np.swapaxes(u.conj(), -1, -2) @ self.observable @ u
        require_dichotomic(q, name="evolved observable")
        eye = np.eye(self.dim, dtype=complex)
        plus = 0.5 * (eye + q)
        return u, q, np.stack([eye - plus, plus], axis=-3)

    def unitary_at(self, i: int) -> np.ndarray:
        """U(t_i) = exp(-i H t_i)."""
        return self.spectral()[0][self.check_time_index(i)]

    def observable_at(self, i: int) -> np.ndarray:
        """Heisenberg observable Q(t_i) = U(t_i)^dag Q U(t_i)."""
        return self.spectral()[1][self.check_time_index(i)]

    def projector_at(self, i: int, s: int) -> np.ndarray:
        """Projector onto outcome s of a measurement at time t_i."""
        if s not in (+1, -1):
            raise ValidationError(f"sign must be +1 or -1, got {s!r}")
        return self.spectral()[2][self.check_time_index(i), (s + 1) // 2]
