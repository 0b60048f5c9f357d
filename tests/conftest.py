import functools
import json
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from mrtest import harness
from mrtest.conditions import (
    ASSUMPTION_IND,
    ROWS,
    RowBlock,
    lg3,
    mr_int,
    mr_strong,
    mr_weak,
    nsit,
)
from mrtest.errors import ValidationError
from mrtest.fine import d_bounds
from mrtest.harness import default_model_path, model_to_jsonable, sample_model
from mrtest.measurement import (
    SIGNS,
    MomentSet,
    Outcome,
    ProbabilityTable,
    TableSet,
    measure_all,
    outcome_key,
    outcomes,
    pair_set,
    sequential_moments,
    witness,
)
from mrtest.quantum import QuantumModel, _evolve_from_eig, eig_hermitian
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


def point_tables(tables: TableSet, g: int) -> TableSet:
    """Point g of a grid ``TableSet`` as a one-point TableSet: the same
    weights, and moments derived from them, as floats instead of arrays
    over the grid."""

    def at(t: ProbabilityTable) -> ProbabilityTable:
        return ProbabilityTable(kind=t.kind, time_indices=t.time_indices, weights=t.weights[g])

    return TableSet(
        singles=tuple(map(at, tables.singles)),
        pairs={p: at(t) for p, t in tables.pairs.items()},
        chain=at(tables.chain),
        quasi={p: at(t) for p, t in tables.quasi.items()},
    )


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


class TimeSlice(NamedTuple):
    """U(t_i), Q(t_i) and the projector pair (P_-(t_i), P_+(t_i)) at one time
    index of a model's own times."""

    unitary: np.ndarray
    observable: np.ndarray
    projectors: np.ndarray

    def projector(self, s: int) -> np.ndarray:
        """The projector onto outcome s = +1 or -1."""
        if s not in (+1, -1):
            raise ValidationError(f"sign must be +1 or -1, got {s!r}")
        return self.projectors[(s + 1) // 2]


def at_time(model: QuantumModel, i: int) -> TimeSlice:
    """Time index i of ``model.spectral()``: the per-matrix route that tests
    compare with the stacked arrays."""
    if not (0 <= i < model.n_times):
        raise ValidationError(f"time index {i} out of range for {model.n_times} times")
    return TimeSlice(*(a[i] for a in model.spectral()))


def weight(table: ProbabilityTable, outcome: Outcome):
    """The weight of one outcome of ``table.weights``: a float, or an array
    over the grid."""
    w = table.weights[(...,) + tuple(SIGNS.index(s) for s in outcome)]
    return w if w.ndim else float(w)


def near_hermitian_inputs(dim: int) -> dict:
    """Raw model inputs whose rho passes validation but is not exactly
    Hermitian: H = diag(0, ..., dim - 1), Q = I - 2 v v^T with v the unit
    all-ones vector, and rho = I/dim + i 4.9e-13 (J - I), J the all-ones
    matrix, whose largest deviation from Hermitian is 9.8e-13; times (0, 1, 2)."""
    v = np.ones(dim) / np.sqrt(dim)
    return {
        "hamiltonian": np.diag(np.arange(dim, dtype=float)).astype(complex),
        "rho": np.eye(dim) / dim + 1j * 4.9e-13 * (np.ones((dim, dim)) - np.eye(dim)),
        "observable": (np.eye(dim) - 2 * np.outer(v, v)).astype(complex),
        "times": (0.0, 1.0, 2.0),
    }


def complex_gaussian(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_hermitian(rng, dim, scale=1.0):
    z = complex_gaussian(rng, dim)
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


#: the pairwise NSIT blocks at 3 and 4 times, written out: each measured pair (i, j)
#: and the block's name, in the order of ``nsit_pairwise``'s rows
NSIT_PAIRWISE_BLOCKS = {
    3: (((0, 1), "NSIT(1)2"), ((1, 2), "NSIT(2)3"), ((0, 2), "NSIT(1)3")),
    4: (((0, 1), "NSIT(1)2"), ((1, 2), "NSIT(2)3"), ((2, 3), "NSIT(3)4"), ((0, 3), "NSIT(1)4")),
}


def nsit_families_reference(tables: TableSet, epsilon: float = TOL.verdict) -> dict:
    """``nsit_pairwise`` and, at 3 times, ``mr_int`` and ``mr_strong``, each as its
    row blocks in order and its assumptions: one standalone ``nsit`` report per pair
    of tables, named here, and ``lg3`` for ``mr_int``'s tail."""
    pairwise = [nsit(tables.pairs[pair], tables.singles[pair[1]], pair[0], name=name, epsilon=epsilon)
                for pair, name in NSIT_PAIRWISE_BLOCKS[tables.n_times]]
    reports = {"nsit_pairwise": (pairwise, ())}
    if tables.n_times == 3:
        reports["mr_int"] = (pairwise + [lg3(tables.moments, epsilon)], (ASSUMPTION_IND,))
        chain, p23, p13 = tables.chain, tables.pairs[(1, 2)], tables.pairs[(0, 2)]
        strong = [
            nsit(p23, tables.singles[2], 1, name="NSIT(2)3", epsilon=epsilon),
            nsit(chain, p23, 0, name="NSIT(1)23", epsilon=epsilon),
            nsit(chain, p13, 1, name="NSIT1(2)3", epsilon=epsilon),
        ]
        reports["mr_strong"] = (strong, (ASSUMPTION_IND,))
    return reports


def csv_rows_reference(columns) -> list[str]:
    """The CSV rows of one sweep block, one Python '%' format per row: '%.17g'
    for each float column and '%d' for each bool column.  The reference that
    ``sweep_csv_lines`` must match byte for byte."""
    row = ",".join("%d" if c.dtype == bool else "%.17g" for c in columns.values())
    return [row % values for values in zip(*(c.tolist() for c in columns.values()))]


def csv_reference(blocks) -> str:
    """The whole CSV text of a sweep's blocks by ``csv_rows_reference``."""
    blocks = list(blocks)
    rows = [",".join(blocks[0]), *(row for block in blocks for row in csv_rows_reference(block))]
    return "".join(row + "\n" for row in rows)


def sweep_specs() -> dict[str, dict]:
    """Sweep specs whose CSVs are checked against ``csv_reference`` and, run
    twice through the console script, against each other: the shipped spec and
    an omega sweep of its model, the shipped 4-time model over one turn of tau,
    and sampled dim-3 and dim-4 models with every output group, on either side
    of the size up to which stack products and trace pairings are broadcast
    multiply-adds.  The sampled 4-time dim-3 model has the largest stacks of
    that kind, and its 500 steps span three blocks."""
    data = default_model_path().parent
    turn = {"parameter": "tau", "from": 0.0, "to": 2 * math.pi, "steps": 500}
    shipped = json.loads((data / "tau_sweep_lg3.json").read_text())
    specs = {
        "shipped": shipped,
        "omega": {**shipped, "parameter": "omega", "from": 0.25, "to": 4.0, "steps": 500},
        "4-time": {"model": json.loads((data / "qubit_precession_4t.json").read_text()), **turn},
    }
    outputs = ["averages", "correlators", "margins", "witness", "d_interval", "verdicts"]
    for name, dim, n_times in (("dim3", 3, 3), ("dim4", 4, 3), ("dim3-4-time", 3, 4)):
        model = model_to_jsonable(sample_model(np.random.default_rng(dim), dim, n_times))
        specs[name] = {"model": model, **turn, "outputs": outputs}
    return specs


def column_sums(block: RowBlock, x) -> np.ndarray:
    """b + G x added one whole column at a time, left to right, from b: the
    loop that ``_affine_values`` must match bit for bit."""
    x = np.array(x, dtype=float)
    a = block.a.T.reshape(block.a.T.shape + (1,) * (x.ndim - 1))
    values = a[0] + a[1] * x[0]
    for column, xj in zip(a[2:], x[1:]):
        values = values + column * xj
    return values


def triangle_fine_rows(m: MomentSet) -> tuple[np.ndarray, np.ndarray]:
    """The four-time Fine rows and slopes built from three-time blocks: the
    triangles (1,2,3) and (1,3,4) side by side as three-time moments at
    C13 = 0, the chord's LG2 rows on the first, then each triangle's LG3
    rows; a row's slope is its C13 coefficient.  The reference for the
    lifted block ``ROWS[4]["fine"]``."""
    chord, lg3 = ROWS[3][(0, 2)], ROWS[3]["LG3"]
    a1, a2, a3, a4 = m.averages
    c12, c23, c34, c14 = m.correlators
    zero = np.zeros(np.shape(a1))
    x = [(a1, a1), (a2, a3), (a3, a4), (c12, zero), (c23, c34), (zero, c14)]
    triangles = column_sums(lg3, x)
    b = [column_sums(chord, [t[0] for t in x]), triangles[:, 0], triangles[:, 1]]
    # C13 is the last three-time column of the first triangle and the fourth of the second
    return np.concatenate(b), np.concatenate([chord.a[:, 6], lg3.a[:, 6], lg3.a[:, 4]])


def glued_weights(m: MomentSet, x) -> np.ndarray:
    """The four-time witness weights at chord value x, glued from the two
    triangles (1,2,3) and (1,3,4): each triangle's expansion rows as column
    sums on its own three-time columns, its joint p(s) = (E(s) + s1 s2 s3 z) / 8
    at the midpoint z of its own interval (clipped at 0 and renormalised when
    that is empty), then p(s) = p123(s1,s2,s3) p134(s1,s3,s4) / p13(s1,s3),
    renormalised.  The reference for ``fine``'s four-time witness."""
    block = ROWS[3]["fine"]
    (a1, a2, a3, a4), (c12, c23, c34, c14) = m.averages, m.correlators
    joints = []
    for columns in ([a1, a2, a3, c12, c23, x], [a1, a3, a4, x, c34, c14]):
        # the outcome axis last and contiguous, so each sum over it adds as fine's does
        e = np.ascontiguousarray(np.moveaxis(column_sums(block, columns), 0, -1))
        lo, hi = -e[..., block.slope > 0].min(axis=-1), e[..., block.slope < 0].min(axis=-1)
        p = (e + block.slope * ((lo + hi) / 2.0)[..., None]) / 8.0
        clipped = np.maximum(p, 0.0)
        p = np.where((hi < lo)[..., None], clipped / clipped.sum(axis=-1, keepdims=True), p)
        joints.append(p.reshape(p.shape[:-1] + (2, 2, 2)))
    p123, p134 = joints
    p13 = p134.sum(axis=-1, keepdims=True)
    conditional = np.divide(p134, p13, out=np.zeros(p134.shape), where=p13 > 0.0)
    w = np.einsum("...abc,...acd->...abcd", p123, conditional).reshape(p123.shape[:-3] + (16,))
    return (w / w.sum(axis=-1, keepdims=True)).reshape(w.shape[:-1] + (2, 2, 2, 2))


class OracleResult(NamedTuple):
    """An oracle's verdict, its witness table when it found one, and why it
    found none otherwise."""

    feasible: bool
    witness_table: ProbabilityTable | None = None
    certificate: str | None = None


def scan_oracle(m: MomentSet, grid_step: float) -> OracleResult:
    """Brute-force feasibility: scan the triple correlator over [-1, 1].

    Feasible iff some grid point makes all eight expansion values
    nonnegative (down to 1e-12 slack).  An independent cross-check of the
    closed-form interval; intervals narrower than the step can be missed.
    """
    if m.n_times != 3:
        raise ValidationError("scan_oracle: need 3 times")
    if not (0.0 < grid_step <= 0.1):
        raise ValidationError(f"scan_oracle: grid_step must be in (0, 0.1], got {grid_step!r}")
    (a1, a2, a3), (c12, c23, c13) = m.averages, m.correlators
    outs = outcomes(3)
    parity = np.array([s1 * s2 * s3 for s1, s2, s3 in outs], dtype=float)
    e = np.array([
        1.0 + s1 * a1 + s2 * a2 + s3 * a3 + s1 * s2 * c12 + s2 * s3 * c23 + s1 * s3 * c13
        for s1, s2, s3 in outs
    ])
    n_points = int(round(2.0 / grid_step)) + 1
    grid = np.linspace(-1.0, 1.0, n_points)
    values = (e[:, None] + parity[:, None] * grid[None, :]) / 8.0
    worst = values.min(axis=0)
    best = int(np.argmax(worst))
    if worst[best] < -TOL.scalar:
        return OracleResult(
            feasible=False,
            certificate=(
                f"no grid point admits a nonnegative expansion "
                f"(step {grid_step!r}, best min weight {worst[best]:.6e})"
            ),
        )
    table = ProbabilityTable(kind="joint", time_indices=(0, 1, 2), weights=values[:, best].reshape(2, 2, 2))
    return OracleResult(feasible=True, witness_table=table)


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


def lp_oracle(m: MomentSet) -> OracleResult:
    """Existence of nonnegative weights over {-1,+1}^n with the given
    normalization, averages and pair correlators, via phase-1 simplex.

    An independent cross-check of the closed-form ``d_interval``, pinned
    against scipy's ``linprog``.  Feasible when the phase-1 objective is
    below ``LP_FEASIBILITY``.
    """
    a_eq, b_eq, _ = moment_rows(m)
    objective, x = _phase1_simplex(a_eq, b_eq)
    if objective > LP_FEASIBILITY:
        return OracleResult(
            feasible=False, certificate=f"phase-1 objective {objective:.6e} > {LP_FEASIBILITY:.0e}"
        )
    x = np.maximum(x, 0.0)
    x /= x.sum()
    table = ProbabilityTable(kind="joint", time_indices=tuple(range(m.n_times)), weights=x.reshape((2,) * m.n_times))
    return OracleResult(feasible=True, witness_table=table)


# ---------------------------------------------------------------------------
# exact-arithmetic row oracle

#: the unit roundoff of a float64
UNIT_ROUNDOFF = Fraction(1, 2**53)

#: (C12, C23, C13) sign patterns of LG3.1..LG3.4: 1 + s1 s2 C12 + s2 s3 C23 + s1 s3 C13 >= 0
LG3_SIGNS = ((1, 1, 1), (-1, -1, 1), (1, -1, -1), (-1, 1, -1))


class ExactRow(NamedTuple):
    """One row b + sum_j coefficients[j] x_j (+ slope z), written from its
    definition: x = (averages, correlators in canonical pair order), z the
    free correlator of Fine's rows.  ``block`` is "weak" or "fine"."""

    block: str
    name: str
    b: int
    coefficients: dict
    slope: int = 0


@functools.cache
def exact_rows(n: int) -> tuple[ExactRow, ...]:
    """Every weak row, then every Fine row, at n times, as the README and the
    docstrings define them, with no use of the row table ``ROWS``: each
    measured pair's four LG2 rows; LG3.1..4 (n = 3) or LG4.k.lo/hi = 2 +- the
    k-th signed sum (n = 4); the expansion values E(s) with slope s1 s2 s3
    (n = 3), or the chord's LG2 rows and the LG3 rows of the triangles
    (1,2,3) and (1,3,4) at C13 = 0 with their C13 coefficient as slope (n = 4)."""
    col = {p: n + k for k, p in enumerate(pair_set(n))}
    rows = []
    for i, j in pair_set(n):
        for s in outcomes(2):
            coefficients = {i: s[0], j: s[1], col[(i, j)]: s[0] * s[1]}
            rows.append(ExactRow("weak", f"LG2.{i + 1}{j + 1}.{outcome_key(s)}", 1, coefficients))
    if n == 3:
        c12, c23, c13 = col[(0, 1)], col[(1, 2)], col[(0, 2)]
        for k, (x, y, z) in enumerate(LG3_SIGNS, 1):
            rows.append(ExactRow("weak", f"LG3.{k}", 1, {c12: x, c23: y, c13: z}))
        for s1, s2, s3 in outcomes(3):
            coefficients = {0: s1, 1: s2, 2: s3, c12: s1 * s2, c23: s2 * s3, c13: s1 * s3}
            rows.append(ExactRow("fine", f"E.{outcome_key((s1, s2, s3))}", 1, coefficients, s1 * s2 * s3))
        return tuple(rows)
    cycle = [col[p] for p in ((0, 1), (1, 2), (2, 3), (0, 3))]
    for k in range(4):
        signs = [-1 if idx == k else 1 for idx in range(4)]
        for side, sigma in (("lo", 1), ("hi", -1)):
            rows.append(ExactRow("weak", f"LG4.{k + 1}.{side}", 2, {c: sigma * s for c, s in zip(cycle, signs)}))
    c12, c23, c34, c14 = cycle
    for s1, s3 in outcomes(2):
        rows.append(ExactRow("fine", f"LG2.13.{outcome_key((s1, s3))}", 1, {0: s1, 2: s3}, s1 * s3))
    for k, (x, y, z) in enumerate(LG3_SIGNS, 1):
        # triangle (1,2,3) on (C12, C23, C13), triangle (1,3,4) on (C13, C34, C14)
        rows.append(ExactRow("fine", f"LG3(123).{k}", 1, {c12: x, c23: y}, z))
        rows.append(ExactRow("fine", f"LG3(134).{k}", 1, {c34: y, c14: z}, x))
    return tuple(rows)


def exact_row_values(m: MomentSet) -> dict[str, tuple[ExactRow, Fraction, Fraction]]:
    """Each row of ``exact_rows`` on one moment set of floats, by name, as
    (row, exact value, rounding bound): the value in ``Fraction``s, and
    (k - 1) 2^-53 sum |terms| for its k nonzero terms (b included), which
    bounds the rounding of any left-to-right float sum of them, since every
    coefficient is +-1 and every product is exact."""
    x = [Fraction(v) for v in (*m.averages, *m.correlators)]
    out = {}
    for row in exact_rows(m.n_times):
        terms = [Fraction(row.b)] + [c * x[j] for j, c in row.coefficients.items() if x[j]]
        out[row.name] = (row, sum(terms), (len(terms) - 1) * UNIT_ROUNDOFF * sum(map(abs, terms)))
    return out


def times_matrix_reference(stack: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``stack @ m`` one d x d matrix at a time with ``np.matmul``: each matrix
    of the stack times m, or times the m of its leading index."""
    out = np.empty(stack.shape, dtype=np.result_type(stack, m))
    for idx in np.ndindex(stack.shape[:-2]):
        out[idx] = np.matmul(stack[idx], m if m.ndim == 2 else m[idx[0]])
    return out


# ---------------------------------------------------------------------------
# per-model sampler and campaign references


def reference_model(rng: np.random.Generator, dim: int, n_times: int, commuting: bool, rho_mode: str):
    """One random model drawn and built matrix by matrix, as ``sample_model``
    did before it became the one-model case of the stacked campaign sampler,
    with its Hamiltonian's ``eig_hermitian``: ``(model, (lam, vec))``.  The
    per-model reference that the stacked sampler must match bit for bit."""

    def haar_unitary(rng, dim):
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        return q * (d / np.abs(d))

    def hermitian_part(a):
        return a / 2.0 + a.conj().T / 2.0

    u_h = haar_unitary(rng, dim)
    u_q = u_h if commuting else haar_unitary(rng, dim)
    h = hermitian_part(u_h @ np.diag(np.arange(dim, dtype=float)) @ u_h.conj().T)
    q = hermitian_part(u_q @ np.diag(np.resize([1.0, -1.0], dim)) @ u_q.conj().T)

    gaps = rng.uniform(0.3, 1.2, size=n_times - 1)
    times = tuple(np.concatenate([[0.0], np.cumsum(gaps)]))

    if rho_mode == "maximally_mixed":
        rho = np.eye(dim, dtype=complex) / dim
    else:
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = hermitian_part(z @ z.conj().T)
        rho /= np.trace(rho).real
        # t1 = 0, so Q(t1) = Q
        if rho_mode == "plus_eigenspace":
            p_plus = 0.5 * (np.eye(dim) + q)
            rho = hermitian_part(p_plus @ rho @ p_plus)
            rho /= np.trace(rho).real
        elif rho_mode == "q1_diagonal":
            _, v = eig_hermitian(q)
            w = rng.uniform(0.05, 1.0, size=dim)
            w /= w.sum()
            rho = hermitian_part(v @ np.diag(w) @ v.conj().T)
        elif rho_mode != "generic":
            raise ValidationError(f"unknown rho_mode {rho_mode!r}")

    model = QuantumModel(hamiltonian=h, rho=rho, observable=q, times=times)
    return model, model.hamiltonian_eig


def reference_sample(rng: np.random.Generator, dim: int, epsilon: float):
    """Each check on one random model as ``(name, residual, tolerance)``,
    model by model: its own ``measure_all`` tables, its own operators and
    scalar conditions.  The reference that the stacked campaign is checked
    against; it draws the model and then its time pair from ``rng``."""
    model = sample_model(rng, dim)
    tables = measure_all(model)
    moments = tables.moments

    q = model.spectral()[1]
    yield "dichotomy_preserved", np.linalg.norm(q @ q - np.eye(dim), axis=(-2, -1)).max(), TOL.structural
    yield "expectation_range", max(abs(a) for a in moments.averages) - 1.0, TOL.structural

    ta, tb = rng.uniform(-10.0, 10.0, size=2)
    ua, ub, uab = _evolve_from_eig(*model.hamiltonian_eig, [ta, tb, ta + tb])
    yield "unitary_group_property", float(np.linalg.norm(uab - ua @ ub)), 1e-9

    for (i, j), quasi in tables.quasi.items():
        p = tables.pairs[(i, j)]
        qi, qj = at_time(model, i).observable, at_time(model, j).observable
        commutator = float(np.trace((qi @ qj @ qi - qj) @ model.rho).real)
        t_op = commutator / 8.0
        yield "p_minus_q_identity", np.abs(p.weights - quasi.weights - t_op * np.array(SIGNS)).max(), TOL.scalar

        w_res = witness(p, tables.singles[j])
        w_op = abs(commutator) / 4.0
        yield "witness_formula_agreement", abs(w_res - w_op), TOL.scalar
        yield "witness_s2_independence", abs(w_res - witness(p, tables.singles[j], -1)), TOL.scalar

        if 0.5 * w_op <= p.weights.min():
            yield "bounded_interference_nonneg", -quasi.weights.min(), TOL.scalar

        marg = [np.abs(quasi.marginal(b).weights - tables.singles[a].weights).max() for a, b in ((i, j), (j, i))]
        yield "quasi_marginals", max(marg), TOL.scalar

        yield "piecewise_equals_quasi_correlator", abs(moments.corr(i, j) - quasi.moment((0, 1))), TOL.scalar

    last = tables.chain.time_indices[-1]
    shorter = tables.pairs.get(tuple(tables.chain.time_indices[:-1]))
    if shorter is not None:
        resid = np.abs(tables.chain.marginal(last).weights - shorter.weights).max()
        yield "sequential_last_marginal", resid, TOL.scalar

    yield "contextual_in_range", max(abs(v) for v in sequential_moments(tables).values()) - 1.0, TOL.scalar

    weak = mr_weak(moments, epsilon)
    mint = mr_int(tables, epsilon)
    strong = mr_strong(tables, epsilon)
    chain_ok = (not strong.verdict or mint.verdict) and (not mint.verdict or weak.verdict)
    yield "implication_chain", 0.0 if chain_ok else 1.0, 0.5
    # Fine's theorem: the triple correlator's interval is twice the smallest weak margin wide
    lo, hi = d_bounds(moments)
    yield "fine_matches_mr_weak", abs((hi - lo) / 2.0 - min(weak.margins.values())), TOL.scalar


def reference_campaign(seed: int, count: int, dim_min: int = 2, dim_max: int = 4, epsilon: float = TOL.verdict) -> dict:
    """``run_campaign``'s summary folded one model at a time, in index order."""
    checks: dict[str, dict] = {}
    violations = []
    for index, stream in enumerate(np.random.SeedSequence(seed).spawn(count)):
        rng = np.random.default_rng(stream)
        dim = int(rng.integers(dim_min, dim_max + 1))
        for name, residual, tol in reference_sample(rng, dim, epsilon):
            residual = float(residual)
            stats = checks.setdefault(name, {"samples": 0, "violations": 0, "max_residual": 0.0})
            stats["samples"] += 1
            stats["max_residual"] = max(stats["max_residual"], residual)
            if not residual <= tol:
                stats["violations"] += 1
                violations.append({"check": name, "seed": seed, "index": index, "dim": dim, "residual": residual})
    return {
        "seed": seed,
        "count": count,
        "dim_range": [dim_min, dim_max],
        "passed": not violations,
        "checks": dict(sorted(checks.items())),
        "violations": violations,
    }


def check_by_check_campaign(seed: int, count: int, dim_min: int = 2, dim_max: int = 4,
                            epsilon: float = TOL.verdict) -> dict:
    """``run_campaign`` with each block's checks folded one at a time, as it
    did before it folded a block as one residual array: the same blocks from
    ``harness._campaign_block``, so the two summaries must match byte for
    byte under ``json.dumps``."""
    checks: dict[str, dict] = {}
    violations = []

    def fold(dim: int, block: list) -> None:
        indices, rngs = np.array([index for index, _ in block]), [rng for _, rng in block]
        h, rho, q, times = harness._model_block(rngs, dim)
        models = (*np.linalg.eigh(h), rho, q, harness._validate(h, rho, q, times))
        shifts = np.array([rng.uniform(-10.0, 10.0, size=2) for rng in rngs])
        for order, (name, residual, tol, *premise) in enumerate(harness._campaign_block(*models, shifts, epsilon)):
            ran = premise[0] if premise else slice(None)
            values, where = np.broadcast_to(residual, indices.shape)[ran].astype(float), indices[ran]
            if values.size:
                stats = checks.setdefault(name, {"samples": 0, "violations": 0, "max_residual": 0.0})
                # a NaN residual is a violation, and never the largest
                bad, numbers = ~(values <= tol), values[~np.isnan(values)]
                stats["samples"] += values.size
                stats["violations"] += int(bad.sum())
                stats["max_residual"] = max(stats["max_residual"], float(numbers.max(initial=-np.inf)))
                violations.extend(
                    (index, order, {"check": name, "seed": seed, "index": index, "dim": dim, "residual": value})
                    for index, value in zip(where[bad].tolist(), values[bad].tolist())
                )

    pending: dict[int, list] = {}
    for index, stream in enumerate(np.random.SeedSequence(seed).spawn(count)):
        rng = np.random.default_rng(stream)
        dim = int(rng.integers(dim_min, dim_max + 1))
        pending.setdefault(dim, []).append((index, rng))
        if len(pending[dim]) == harness._block_size(dim, 3):
            fold(dim, pending.pop(dim))
    for dim, block in pending.items():
        fold(dim, block)
    return {
        "seed": seed,
        "count": count,
        "dim_range": [dim_min, dim_max],
        "passed": not violations,
        "checks": dict(sorted(checks.items())),
        "violations": [v for _, _, v in sorted(violations, key=lambda v: v[:2])],
    }


def assert_same_summary(got: dict, want: dict, tol: float = 1e-12) -> None:
    """Two campaign summaries alike: every field equal but the residuals (the
    largest of each check, and each violation's), which agree within tol."""

    def without_residuals(summary: dict) -> dict:
        return {
            **summary,
            "checks": {name: {**stats, "max_residual": None} for name, stats in summary["checks"].items()},
            "violations": [{**v, "residual": None} for v in summary["violations"]],
        }

    assert without_residuals(got) == without_residuals(want)
    pairs = [(got["checks"][name]["max_residual"], stats["max_residual"]) for name, stats in want["checks"].items()]
    pairs += [(a["residual"], b["residual"]) for a, b in zip(got["violations"], want["violations"])]
    assert all(abs(a - b) <= tol for a, b in pairs), pairs
