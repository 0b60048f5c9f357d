import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from mrtest.errors import ValidationError
from mrtest.fine import _PARITY3, FeasibilityResult, _expansion
from mrtest.measurement import MomentSet, Outcome, ProbabilityTable, outcomes, pair_set
from mrtest.quantum import QuantumModel
from mrtest.tolerances import TOL

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("ci")

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


@pytest.fixture
def pauli():
    return {"x": SX, "y": SY, "z": SZ, "i": I2}


def precession_model(times=(0.0, 1.0, 2.0), omega=1.0, rho=None) -> QuantumModel:
    """Qubit testbed: Q = sigma_z, H = (omega/2) sigma_x, default rho = I/2."""
    if rho is None:
        rho = I2 / 2
    return QuantumModel(
        hamiltonian=(omega / 2) * SX,
        rho=np.asarray(rho, dtype=complex),
        observable=SZ.copy(),
        times=tuple(times),
    )


@pytest.fixture
def mixed_qubit():
    return precession_model()


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def random_hermitian(rng, dim, scale=1.0):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (z + z.conj().T) / 2


def apply_parameter(template: QuantumModel, parameter: str, value: float) -> QuantumModel:
    """The sweep template instantiated at one grid point, as a new model.

    The per-point reference that the batched sweep is checked against:
    ``measure_all(apply_parameter(spec.model, spec.parameter, value))``.
    """
    h, rho, q = template.hamiltonian, template.rho, template.observable
    times = template.times
    if parameter == "tau":
        times = tuple(times[0] + k * value for k in range(len(times)))
    elif parameter == "t2":
        times = (times[0], value) + times[2:]
    elif parameter == "t3":
        times = times[:2] + (value,) + times[3:]
    elif parameter == "omega":
        h = value * h
    else:
        raise ValueError(f"unknown sweep parameter {parameter!r}")
    return QuantumModel(hamiltonian=h, rho=rho, observable=q, times=times)


def scan_oracle(m: MomentSet, grid_step: float) -> FeasibilityResult:
    """Brute-force feasibility: scan the triple correlator over [-1, 1].

    Feasible iff some grid point makes all eight expansion values
    nonnegative (down to 1e-12 slack).  An independent cross-check of the
    closed-form interval; intervals narrower than the step can be missed.
    """
    if m.n_times != 3 or m.triple is not None:
        raise ValidationError("scan_oracle: need 3 times and an unmeasured triple correlator")
    if not (0.0 < grid_step <= 0.1):
        raise ValidationError(f"scan_oracle: grid_step must be in (0, 0.1], got {grid_step!r}")
    outs, e, parity = outcomes(3), _expansion(m.averages, m.correlators), _PARITY3
    n_points = int(round(2.0 / grid_step)) + 1
    grid = np.linspace(-1.0, 1.0, n_points)
    values = (e[:, None] + parity[:, None] * grid[None, :]) / 8.0
    worst = values.min(axis=0)
    best = int(np.argmax(worst))
    if worst[best] < -TOL.scalar:
        return FeasibilityResult(
            feasible=False,
            certificate=(
                f"no grid point admits a nonnegative expansion "
                f"(step {grid_step!r}, best min weight {worst[best]:.6e})"
            ),
        )
    weights = {s: float(values[k, best]) for k, s in enumerate(outs)}
    table = ProbabilityTable(kind="joint", time_indices=(0, 1, 2), weights=weights)
    return FeasibilityResult(feasible=True, witness_table=table)


#: pivot threshold of ``lp_oracle``'s simplex
LP_PIVOT = 1e-11
#: phase-1 objective below which ``lp_oracle`` counts a set as feasible
LP_FEASIBILITY = 1e-9


def _phase1_simplex(a_eq: np.ndarray, b_eq: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimize the sum of artificial variables for A x = b, x >= 0.

    Dense tableau with Bland's anti-cycling rule; returns (objective, x).
    The problem sizes here are at most 9 rows by 16 columns, so robustness
    wins over speed; each pivot is a handful of whole-row numpy operations.
    """
    m, n = a_eq.shape
    a = a_eq.copy()
    b = b_eq.astype(float).copy()
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0

    width = n + m + 1
    t = np.zeros((m + 1, width))
    t[:m, :n] = a
    t[:m, n : n + m] = np.eye(m)
    t[:m, -1] = b
    # reduced costs for cost vector (0,...,0, 1,...,1); artificials basic
    t[m, :n] = -a.sum(axis=0)
    t[m, -1] = -b.sum()
    basis = np.arange(n, n + m)

    max_pivots = 200 * (n + m)
    for _ in range(max_pivots):
        # Bland: the first column with a negative reduced cost enters
        negative = (t[m, : n + m] < -LP_PIVOT).nonzero()[0]
        if not negative.size:
            break
        enter = negative[0]
        rows = (t[:m, enter] > LP_PIVOT).nonzero()[0]
        if not rows.size:
            raise RuntimeError("phase-1 simplex: unbounded column (numerical breakdown)")
        ratios = t[rows, -1] / t[rows, enter]
        # Bland tie-break: among rows attaining the ratio, smallest basis var
        ties = rows[ratios <= ratios.min() + LP_PIVOT]
        leave_row = ties[basis[ties].argmin()]
        t[leave_row] /= t[leave_row, enter]
        factors = t[:, enter].copy()
        factors[leave_row] = 0.0
        t -= factors[:, None] * t[leave_row]
        basis[leave_row] = enter
    else:
        raise RuntimeError("phase-1 simplex: pivot limit reached")

    objective = -t[m, -1]
    x = np.zeros(n)
    for i, var in enumerate(basis):
        if var < n:
            x[var] = t[i, -1]
    return float(objective), x


@functools.cache
def _moment_matrix(n_times: int) -> tuple[np.ndarray, list[Outcome]]:
    outs = outcomes(n_times)
    signs = np.array(outs, dtype=float).T
    rows = [np.ones(len(outs)), *signs, *(signs[i] * signs[j] for i, j in pair_set(n_times))]
    matrix = np.vstack(rows)
    matrix.flags.writeable = False
    return matrix, outs


def moment_rows(m: MomentSet) -> tuple[np.ndarray, np.ndarray, list[Outcome]]:
    """Equality rows A w = b over the outcome weights w: normalization,
    averages and pair correlators."""
    matrix, outs = _moment_matrix(m.n_times)
    return matrix, np.array([1.0, *m.averages, *m.correlators]), outs


def lp_oracle(m: MomentSet) -> FeasibilityResult:
    """Existence of nonnegative weights over {-1,+1}^n with the given
    normalization, averages and pair correlators, via phase-1 simplex.

    An independent cross-check of the closed-form ``d_interval``, pinned
    against scipy's ``linprog``.  Feasible when the phase-1 objective is
    below ``LP_FEASIBILITY``.
    """
    a_eq, b_eq, _ = moment_rows(m)
    objective, x = _phase1_simplex(a_eq, b_eq)
    if objective > LP_FEASIBILITY:
        return FeasibilityResult(
            feasible=False, certificate=f"phase-1 objective {objective:.6e} > {LP_FEASIBILITY:.0e}"
        )
    x = np.maximum(x, 0.0)
    x /= x.sum()
    table = ProbabilityTable(kind="joint", time_indices=tuple(range(m.n_times)), weights=x.reshape((2,) * m.n_times))
    return FeasibilityResult(feasible=True, witness_table=table)
