import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from mrtest.errors import ValidationError
from mrtest.fine import FeasibilityResult, _expansion_base, _require_three_time_no_triple
from mrtest.measurement import MomentSet, ProbabilityTable
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


def scan_oracle(m: MomentSet, grid_step: float) -> FeasibilityResult:
    """Brute-force feasibility: scan the triple correlator over [-1, 1].

    Feasible iff some grid point makes all eight expansion values
    nonnegative (down to 1e-12 slack).  An independent cross-check of the
    closed-form interval; intervals narrower than the step can be missed.
    """
    _require_three_time_no_triple(m, "scan_oracle")
    if not (0.0 < grid_step <= 0.1):
        raise ValidationError(f"scan_oracle: grid_step must be in (0, 0.1], got {grid_step!r}")
    outs, e, parity = _expansion_base(m)
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
