"""Dense complex Hermitian linear algebra for small dimensions.

Everything here works on plain ``numpy`` complex arrays of dimension 2..16.
The eigensolver is LAPACK's Hermitian ``eigh`` (through ``numpy.linalg``);
its eigenvectors are orthonormal to rounding, so ``exp(-iHt)`` built from
them stays unitary up to rounding.

``QuantumModel`` bundles a Hamiltonian, a density matrix, a dichotomic
observable and 2-4 measurement times, validates all invariants on
construction with ``_validate`` (which the property campaign runs on whole
blocks of sampled models), stores the Hermitian parts of the matrices, and
derives the spectral data the measurement layer needs, which is not checked
again: the unitary evolution U(t) generated by H (hbar = 1), the
Heisenberg-picture observable Q(t) and its two spectral projectors.  H is
diagonalised once per model, on construction, and kept read-only; ``spectral``
then evaluates all three for a whole array of times, so a sweep over a grid
of times, or over a scale omega of H (exp(-i omega H t) = V exp(-i omega
lambda t) V^dag), reuses that one eigendecomposition.

For d <= ``_UNROLL_MAX_DIM``, products of two stacks of matrices (``_product``) and
trace pairings Tr(A B) (``_pairing``) are broadcast multiply-adds of entry slices over
stacks that ``_stack`` lays out with the leading axis (grid points, or models) innermost
in memory, so each multiply loops over that axis, not over length-2 outcome axes; above
it they are ``@`` and ``np.einsum`` on C-ordered stacks.  A product with one fixed factor
is one BLAS call on C-ordered rows (``_times_matrix``), its result laid out as ``_stack``
does.  The input model's own checks in ``_validate`` use ``@``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from types import MappingProxyType
import numpy as np

from .errors import InvalidObservableError, ValidationError
from .tolerances import TOL

MAX_DIM = 16


# ---------------------------------------------------------------------------
# validation helpers


def _frozen(x, dtype=float, name: str = "values") -> np.ndarray:
    """A read-only copy of x as a ``dtype`` array (None keeps x's dtype); a float
    copy of anything but real numbers, such as complex or text entries, is refused."""
    a = np.asarray(x)
    if dtype is float and a.dtype.kind not in "biuf":
        raise ValidationError(f"{name} must be real numbers, got {a.dtype.type.__name__.rstrip('_')} entries")
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


def _rebuilt(value) -> tuple:
    """``__reduce__`` of the frozen value classes: pickle and ``copy`` rebuild a value
    through its constructor from its init fields (a read-only map passed as a dict), so
    a copy is validated and frozen again and derives the rest, as ``dataclasses.replace`` does."""
    args = (getattr(value, f.name) for f in fields(value) if f.init)
    return type(value), tuple(dict(a) if isinstance(a, MappingProxyType) else a for a in args)


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


def require_hermitian(a: np.ndarray, *, name: str = "matrix") -> None:
    """a = a^dag up to rounding; a stack is checked matrix by matrix."""
    with np.errstate(over="ignore", invalid="ignore"):
        dev = np.abs(a - _dagger(a)).max()
    if not dev <= TOL.scalar:
        raise ValidationError(f"{name}: not Hermitian (max deviation {dev:.3e} > {TOL.scalar:.0e})")


def require_dichotomic(q: np.ndarray, *, name: str = "observable") -> None:
    """Observable must square to the identity (eigenvalues +1/-1); a stack
    of observables is checked matrix by matrix."""
    with np.errstate(over="ignore", invalid="ignore"):
        dev = np.linalg.norm(q @ q - np.eye(q.shape[-1]), axis=(-2, -1)).max()
    if not dev <= TOL.structural:
        raise InvalidObservableError(
            f"{name}: not dichotomic, ||Q^2 - I|| = {dev:.3e} > {TOL.structural:.0e}"
        )


def check_times(times) -> np.ndarray:
    """Times as a float array: a row of 2-4 finite, non-decreasing times
    per grid point or model, or one row for one model."""
    t = np.asarray(times, dtype=float)
    if not (2 <= (n := t.shape[-1] if t.ndim else 1) <= 4):
        raise ValidationError(f"times: need 2-4 measurement times, got {n}")
    if not np.isfinite(t).all():
        raise ValidationError("times: entries must be finite")
    bad = (np.diff(t, axis=-1) < 0).any(axis=-1)
    if bad.any():
        raise ValidationError(f"times: must be non-decreasing, got {tuple(t[bad][0].tolist())}")
    return t


def _validate(h: np.ndarray, rho: np.ndarray, q: np.ndarray, times) -> np.ndarray:
    """Check one row of times per model, then ``QuantumModel``'s invariants in its
    order, on one model or on models of one dimension along a leading axis, where
    the first model failing alone names its index; returns ``check_times``'s times."""
    try:
        rows, times = h.shape[:-2], np.asarray(times, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError("times: need real numbers, in one row of times per model") from None
    if times.ndim != len(rows) + 1 or times.shape[:-1] != rows:
        want = str(rows + ("n",)).replace("'", "")
        raise ValidationError(f"times: need one row of times per model, of shape {want}, got shape {times.shape}")
    try:
        require_hermitian(h, name="hamiltonian")
        require_hermitian(rho, name="rho")
        require_hermitian(q, name="observable")
        require_dichotomic(q)
        with np.errstate(over="ignore"):
            tr = np.trace(rho, axis1=-2, axis2=-1).real
        if (abs(tr - 1.0) > TOL.scalar).any():
            raise ValidationError(f"rho: trace must be 1, got {tr.tolist()!r}")
        lam = np.linalg.eigvalsh(rho)[..., 0].min()
        if lam < -TOL.psd:
            raise ValidationError(f"rho: not positive semidefinite (min eigenvalue {lam:.3e})")
        return check_times(times)
    except ValidationError:
        for k in range(len(h) if h.ndim > 2 else 0):
            try:
                _validate(h[k], rho[k], q[k], times[k])
            except ValidationError as one:
                raise type(one)(f"index {k}: {one}") from None
        raise


# ---------------------------------------------------------------------------
# eigensolver


def _dagger(a: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(a.conj(), -1, -2)


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a^dag) / 2 as a / 2 + a^dag / 2: halving first cannot overflow, and is exact for normal floats."""
    return a / 2.0 + _dagger(a) / 2.0


def eig_hermitian(a) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a Hermitian matrix with LAPACK ``eigh``.

    Returns ``(eigenvalues, V)`` with eigenvalues ascending, the columns of
    ``V`` the matching orthonormal eigenvectors, and
    ``a = V diag(eigenvalues) V^dag`` up to rounding.  Eigenvector phases
    are not canonicalized.
    """
    a = as_complex_matrix(a, name="eig_hermitian input")
    require_hermitian(a, name="eig_hermitian input")
    return tuple(np.linalg.eigh(_hermitian_part(a)))


# ---------------------------------------------------------------------------
# operations


#: the largest matrix size d whose stacks keep the leading axis innermost and whose products and
#: pairings are multiply-adds of entry slices; ``@`` and ``np.einsum`` are faster above it (README)
_UNROLL_MAX_DIM = 3


def _stack(shape: tuple[int, ...], dtype=complex) -> np.ndarray:
    """An empty stack of d x d matrices: for d <= ``_UNROLL_MAX_DIM`` its leading axis (grid points,
    or models) innermost in memory and its matrix axes outermost, so each entry slice of the stack
    is one contiguous run; C order above it, where ``@`` needs each matrix contiguous."""
    k = len(shape)
    if shape[-1] > _UNROLL_MAX_DIM or k < 3:
        return np.empty(shape, dtype)
    return np.empty(shape[-2:] + shape[1:-2] + shape[:1], dtype).transpose(k - 1, *range(2, k - 1), 0, 1)


def _times_matrix(stack: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``stack @ m`` for one fixed d x d matrix m, or one m per leading index of
    the stack (models of one dimension): one BLAS call per factor, over its rows,
    its result in ``_stack``'s layout."""
    d = m.shape[-1]
    m = m.reshape(-1, d, d)
    product = (stack.reshape(len(m), -1, d) @ m).reshape(stack.shape[:-1] + (d,))
    out = product if d > _UNROLL_MAX_DIM else _stack(product.shape, product.dtype)
    out[...] = product  # no copy when out is product
    return out


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for two stacks of d x d matrices with broadcast leading axes.
    For d <= ``_UNROLL_MAX_DIM``, where ``@`` would make one BLAS call per
    matrix, each entry (i, k) is d multiply-adds of the entry slices a_ij and
    b_jk over the whole stack, through one term buffer; ``@`` above it."""
    d = a.shape[-1]
    if d > _UNROLL_MAX_DIM:
        return a @ b
    out = _stack(np.broadcast_shapes(a.shape, b.shape), np.result_type(a, b))
    term = np.empty_like(out[..., 0, 0])
    for i, k in np.ndindex(d, d):
        entry = out[..., i, k]
        np.multiply(a[..., i, 0], b[..., 0, k], out=entry)
        for j in range(1, d):
            entry += np.multiply(a[..., i, j], b[..., j, k], out=term)
    return out


def _pairing(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tr(A B) over the last two axes of two stacks of d x d matrices with
    broadcast leading axes: for d <= ``_UNROLL_MAX_DIM``, the d^2 products of
    entry slices a_ij b_ji over the whole stack, added through one term
    buffer; ``np.einsum`` above it.  Like ``np.einsum``, it gives no overflow
    warning: a non-finite trace is the caller's to judge."""
    d = a.shape[-1]
    if d > _UNROLL_MAX_DIM:
        return np.einsum("...ij,...ji->...", a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.multiply(a[..., 0, 0], b[..., 0, 0])
        term = np.empty_like(out)
        for i, j in list(np.ndindex(d, d))[1:]:
            out += np.multiply(a[..., i, j], b[..., j, i], out=term)
    return out


def _evolve_from_eig(lam: np.ndarray, vec: np.ndarray, t) -> np.ndarray:
    """exp(-i H t), shape ``t.shape + (d, d)``, from the eigendecomposition of
    H, or of one H per leading index of t; t = 0 gives the exact identity."""
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        angles = lam[..., None, :] * t[..., None]
    if not np.isfinite(angles).all():
        raise ValidationError("evolution: H eigenvalue times t overflows the float range")
    u = _times_matrix(vec[..., None, :, :] * np.exp(-1j * angles)[..., None, :], _dagger(vec))
    u[t == 0.0] = np.eye(vec.shape[-1])
    return u


def _spectral(lam: np.ndarray, vec: np.ndarray, q: np.ndarray, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``QuantumModel.spectral`` from the eigendecomposition (lam, vec) of H and the observable q of
    one model, or of one model per leading index of t; Q(t)^2 - I = U^dag (Q^2 - I) U is not checked."""
    u = _evolve_from_eig(lam, vec, t)
    q = _product(_times_matrix(_dagger(u), q), u)
    eye = np.eye(q.shape[-1], dtype=complex)
    proj = _stack(q.shape[:-2] + (2,) + q.shape[-2:])
    np.subtract(eye, np.multiply(0.5, eye + q, out=proj[..., 1, :, :]), out=proj[..., 0, :, :])
    return u, q, proj


def expectation(rho, a):
    """Real part of Tr(A rho), for one operator A or a stack of them (a float
    or an array over the leading axes) and one state, or one per leading index
    of the stack; every imaginary residue must be negligible."""
    rho = np.asarray(rho, dtype=complex)
    a = np.asarray(a, dtype=complex)
    if not 2 <= rho.ndim <= a.ndim or rho.shape != a.shape[: rho.ndim - 2] + a.shape[-2:]:
        raise ValidationError(f"expectation: shape mismatch {a.shape} vs {rho.shape}")
    rho = rho.reshape(rho.shape[:-2] + (1,) * (a.ndim - rho.ndim) + rho.shape[-2:])
    val = _pairing(a, rho)
    worst = np.abs(val.imag).max()
    if worst > TOL.scalar:
        raise ValidationError(f"expectation: imaginary residue {worst:.3e} exceeds {TOL.scalar:.0e}")
    return float(val.real) if val.ndim == 0 else val.real


# ---------------------------------------------------------------------------
# model


@dataclass(frozen=True, eq=False, slots=True)
class QuantumModel:
    """A dichotomic-variable experiment: (H, rho, Q) plus 2-4 measurement times.

    Invariants checked on construction by ``_validate``, as on campaign blocks:

    * hamiltonian, rho, observable are dim x dim Hermitian, 2 <= dim <= 16;
    * rho has unit trace and no eigenvalue below -1e-10;
    * the observable squares to the identity;
    * times are one row of 2-4 finite, non-decreasing times (repeated
      times model back-to-back measurements, the tau -> 0 limit of a
      vanishing gap).

    The validated matrices' Hermitian parts (exact for a Hermitian input) are
    stored read-only, so every trace against rho is real to rounding, and so is
    ``hamiltonian_eig``, H's ``eig_hermitian`` eigenvalues and eigenvectors, derived
    on construction; instances are safe to share, compared by identity."""

    hamiltonian: np.ndarray
    rho: np.ndarray
    observable: np.ndarray
    times: tuple[float, ...]
    hamiltonian_eig: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    __reduce__ = _rebuilt

    def __post_init__(self) -> None:
        h = as_complex_matrix(self.hamiltonian, name="hamiltonian")
        r = as_complex_matrix(self.rho, name="rho")
        q = as_complex_matrix(self.observable, name="observable")
        if not (h.shape == r.shape == q.shape):
            raise ValidationError(
                f"dimension mismatch: hamiltonian {h.shape}, rho {r.shape}, observable {q.shape}"
            )
        object.__setattr__(self, "times", tuple(_validate(h, r, q, self.times).tolist()))
        for key, a in (("hamiltonian", h), ("rho", r), ("observable", q)):
            object.__setattr__(self, key, _frozen(_hermitian_part(a), complex))
        object.__setattr__(self, "hamiltonian_eig", tuple(_frozen(a, None) for a in eig_hermitian(self.hamiltonian)))

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    @property
    def n_times(self) -> int:
        return len(self.times)

    def spectral(self, times=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """U(t), Q(t) and the projector pairs P_s(t) (s = -1, +1) for an array
        of times, with shapes ``times.shape + (d, d)`` and ``+ (2, d, d)``;
        ``times=None`` means the model's own times; new arrays on each call.  The
        times are not checked for order (an omega sweep passes omega * t), nor
        is any Q(t), the validated Q conjugated by a unitary."""
        return _spectral(*self.hamiltonian_eig, self.observable, self.times if times is None else times)
