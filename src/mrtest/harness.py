"""Model ingestion, parameter sweeps and random-model property campaigns.

This layer reads the model and sweep spec JSON files (a moments file is
parsed by ``MomentSet.from_jsonable``), writes the sweep CSV, and owns the
reproducible random-model sampling used by the property campaign.  A
sweep is a lazy sequence of blocks, each an ordered map from CSV column
name to an array over the block's points; ``OUTPUT_GROUPS`` maps each
output group to its columns, and the CSV writer only formats the maps.
Everything is deterministic: identical inputs, including the seed, produce
byte-identical outputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .conditions import mr_int, mr_strong, mr_weak, nsit_pairwise
from .errors import InputFormatError, ValidationError
from .fine import d_bounds, d_interval
from .measurement import (
    _echo,
    _json_number,
    SIGNS,
    MomentSet,
    measure_all,
    pair_set,
    sequential_moments,
    witness,
)
from .quantum import QuantumModel, check_times, eig_hermitian, _evolve_from_eig
from .tolerances import TOL

SWEEP_PARAMETERS = ("tau", "t2", "t3", "omega")
#: the sweep's output groups in their default order, each mapped to the
#: columns it takes from one block's tables and condition reports
OUTPUT_GROUPS = {
    "averages": lambda tables, reports: {f"avg_{i + 1}": a for i, a in enumerate(tables.moments.averages)},
    "correlators": lambda tables, reports: {
        f"C_{i + 1}{j + 1}": c for (i, j), c in zip(pair_set(tables.n_times), tables.moments.correlators)
    },
    "margins": lambda tables, reports: {k: v for r in reports.values() for k, v in r.margins.items()},
    "witness": lambda tables, reports: {
        f"W_{i + 1}{j + 1}": witness(tables.pairs[(i, j)], tables.singles[j]) for i, j in pair_set(tables.n_times)
    },
    "d_interval": lambda tables, reports: dict(zip(("d_lo", "d_hi"), d_bounds(tables.moments))),
    "verdicts": lambda tables, reports: {
        f"verdict_{k}": reports[k].verdict for k in ("weak", "int", "strong") if k in reports
    },
}


# ---------------------------------------------------------------------------
# JSON model files


def _json_int(value, where: str) -> int:
    """A JSON integer; booleans and floats such as 2.5 are format errors."""
    if type(value) is not int:
        raise InputFormatError(f"{where} must be an integer, got {_echo(value)}")
    return value


def _complex_entry(value, where: str) -> complex:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(*(_json_number(x, where) for x in value))
    raise InputFormatError(f"{where}: matrix entries must be [re, im] pairs, got {_echo(value)}")


def _matrix_from_jsonable(rows, dim: int, name: str) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != dim:
        raise InputFormatError(f"{name}: expected {_echo(dim)} rows")
    out = np.empty((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise InputFormatError(f"{name}: row {i} must have {dim} entries")
        for j, entry in enumerate(row):
            out[i, j] = _complex_entry(entry, f"{name}[{i}][{j}]")
    return out


def _matrix_to_jsonable(a: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in a]


def model_from_jsonable(obj: Mapping) -> QuantumModel:
    if not isinstance(obj, Mapping):
        raise InputFormatError("model: expected a JSON object")
    missing = [k for k in ("dim", "hamiltonian", "rho", "observable", "times") if k not in obj]
    if missing:
        raise InputFormatError(f"model: missing fields: {', '.join(missing)}")
    dim = _json_int(obj["dim"], "model: dim")
    times = obj["times"]
    if not isinstance(times, list):
        raise InputFormatError("model: times must be a list of numbers")
    return QuantumModel(
        hamiltonian=_matrix_from_jsonable(obj["hamiltonian"], dim, "hamiltonian"),
        rho=_matrix_from_jsonable(obj["rho"], dim, "rho"),
        observable=_matrix_from_jsonable(obj["observable"], dim, "observable"),
        times=tuple(_json_number(t, f"model: times[{k}]") for k, t in enumerate(times)),
    )


def model_to_jsonable(model: QuantumModel) -> dict:
    return {
        "dim": model.dim,
        "hamiltonian": _matrix_to_jsonable(model.hamiltonian),
        "rho": _matrix_to_jsonable(model.rho),
        "observable": _matrix_to_jsonable(model.observable),
        "times": list(model.times),
    }


def _load_json(path) -> object:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # not UTF-8, an integer literal past the int-string conversion limit, or nesting too deep
        raise InputFormatError(f"{path}: unreadable JSON: {exc}") from exc


def load_model(path) -> QuantumModel:
    return model_from_jsonable(_load_json(path))


def load_moments(path) -> MomentSet:
    return MomentSet.from_jsonable(_load_json(path))


def default_model_path() -> Path:
    """Bundled qubit precession testbed (sigma_z observable, sigma_x/2
    Hamiltonian, maximally mixed state, unit gaps)."""
    return Path(str(resources.files("mrtest").joinpath("data/qubit_precession.json")))


# ---------------------------------------------------------------------------
# simulate


def simulate(model: QuantumModel) -> dict:
    """All tables and moments of a model, as one JSON-ready mapping."""
    tables = measure_all(model)
    n = model.n_times

    def key(indices) -> str:
        return "".join(str(i + 1) for i in indices)

    moments = tables.moments.to_jsonable()
    contextual = None
    if n == 3:
        # the piecewise moments as the context-free base, then each contextual value
        ctx = sorted(sequential_moments(tables).items())
        contextual = {"base": moments, "contextual": {f"{q}^({c})": v for (q, c), v in ctx}}
    return {
        "times": list(model.times),
        "moments": moments,
        "contextual": contextual,
        "tables": {
            "single": {key((i,)): t.to_jsonable() for i, t in enumerate(tables.singles)},
            "sequential": {
                **{key(p): tables.pairs[p].to_jsonable() for p in pair_set(n)},
                key(range(n)): tables.chain.to_jsonable(),
            },
            "quasi": {key(p): tables.quasi[p].to_jsonable() for p in pair_set(n)},
        },
    }


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepSpec:
    """A one-parameter grid over a template model.

    ``parameter`` is one of "tau" (equal gaps from the template's first
    time), "t2"/"t3" (move one measurement time) or "omega" (scale the
    template Hamiltonian).  ``outputs`` selects column groups.
    """

    model: QuantumModel
    parameter: str
    start: float
    stop: float
    steps: int
    outputs: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.parameter not in SWEEP_PARAMETERS:
            raise InputFormatError(
                f"sweep: unknown parameter {_echo(self.parameter)}, expected one of {SWEEP_PARAMETERS}"
            )
        for name, value in (("from", self.start), ("to", self.stop)):
            if not math.isfinite(value):
                raise InputFormatError(f"sweep: {name} must be a finite number, got {value!r}")
        if not self.start < self.stop:
            raise InputFormatError("sweep: need from < to")
        if not (2 <= self.steps <= 10**6):
            raise InputFormatError(f"sweep: steps must be in [2, 10^6], got {_echo(self.steps)}")
        unknown = [o for o in self.outputs if o not in OUTPUT_GROUPS]
        if unknown:
            raise InputFormatError(
                f"sweep: unknown output name(s) {_echo(unknown)}, expected subset of {tuple(OUTPUT_GROUPS)}"
            )
        n = self.model.n_times
        if self.parameter == "tau" and self.start < 0:
            raise InputFormatError("sweep: tau must start at 0 or above")
        if self.parameter == "t3" and n < 3:
            raise InputFormatError("sweep: parameter t3 needs at least 3 times")
        if n not in (3, 4):
            raise InputFormatError(f"sweep: template must have 3 or 4 times, got {n}")

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


def sweep_spec_from_jsonable(obj: Mapping) -> SweepSpec:
    if not isinstance(obj, Mapping):
        raise InputFormatError("sweep: expected a JSON object")
    missing = [k for k in ("model", "parameter", "from", "to", "steps") if k not in obj]
    if missing:
        raise InputFormatError(f"sweep: missing fields: {', '.join(missing)}")
    model = model_from_jsonable(obj["model"])
    outputs = obj.get("outputs")
    if outputs is None:
        outputs = tuple(OUTPUT_GROUPS)
    elif not (isinstance(outputs, list) and all(isinstance(o, str) for o in outputs)):
        raise InputFormatError(f"sweep: outputs must be a list of group names, got {_echo(outputs)}")
    return SweepSpec(
        model=model,
        parameter=obj["parameter"],
        start=_json_number(obj["from"], "sweep: from"),
        stop=_json_number(obj["to"], "sweep: to"),
        steps=_json_int(obj["steps"], "sweep: steps"),
        outputs=tuple(outputs),
    )


def load_sweep_spec(path) -> SweepSpec:
    return sweep_spec_from_jsonable(_load_json(path))


#: bytes of complex work arrays one sweep block may use; fixes the block
#: size, so a sweep's memory stays bounded whatever its number of steps
SWEEP_BLOCK_BYTES = 1 << 24


def _block_columns(spec: SweepSpec, values: np.ndarray, times: np.ndarray, epsilon: float) -> dict[str, np.ndarray]:
    """One sweep block as ordered columns over its points: the parameter,
    then each requested output group in the spec's order.  The only place
    that names and orders the sweep's columns."""
    tables = measure_all(spec.model, times)
    reports = {}
    if {"margins", "verdicts"} & set(spec.outputs):
        reports["weak"] = mr_weak(tables.moments, epsilon)
        if tables.n_times == 3:
            reports.update(int=mr_int(tables, epsilon), strong=mr_strong(tables, epsilon))
        else:
            reports["nsit"] = nsit_pairwise(tables, epsilon)
    columns = {spec.parameter: values}
    for group in spec.outputs:
        columns.update(OUTPUT_GROUPS[group](tables, reports))
    return columns


def sweep_blocks(spec: SweepSpec, epsilon: float = TOL.verdict) -> Iterator[dict[str, np.ndarray]]:
    """The sweep as one column map per block, computed lazily one block at
    a time; every block has the same columns, in the same order.

    The evolution times of the whole grid are built and checked once, up
    front; an omega sweep scales the model's times instead of H.  Each block
    then measures the one template model at its slice of the grid, so the
    sweep shares one eigendecomposition of H.  A block holds as many points
    as fit ``SWEEP_BLOCK_BYTES`` at about 32 d^2 (2^n + 4n) bytes of states
    and projectors per point.
    """
    model = spec.model
    # overflow shows up as non-finite times, which the validation below names
    with np.errstate(over="ignore", invalid="ignore"):
        values = spec.grid
        times = np.tile(np.array(model.times), (len(values), 1))
        if spec.parameter == "tau":
            times = times[:, :1] + np.arange(model.n_times) * values[:, None]
        elif spec.parameter in ("t2", "t3"):
            times[:, int(spec.parameter[1]) - 1] = values
        times = check_times(times)
        if spec.parameter == "omega":
            # exp(-i omega H t) = V exp(-i omega lambda t) V^dag: omega scales the evolution times
            times = values[:, None] * times
    if not np.isfinite(times).all():
        name, value = max((("from", spec.start), ("to", spec.stop)), key=lambda item: abs(item[1]))
        raise InputFormatError(f"sweep: omega {name} = {value!r} scales the times {model.times} past the float range")
    size = max(1, SWEEP_BLOCK_BYTES // (32 * model.dim**2 * (2**model.n_times + 4 * model.n_times)))
    # a lazy map, not a generator, which bench/tracer.py would count once per block
    return map(
        lambda k: _block_columns(spec, values[k : k + size], times[k : k + size], epsilon),
        range(0, len(values), size),
    )


def sweep_csv_lines(columns: Mapping[str, np.ndarray]) -> list[str]:
    """The CSV rows of one ``sweep_blocks`` block: '.' decimals, 17
    significant digits, bool columns (the verdicts) as 1/0."""
    row = ",".join("%d" if c.dtype == bool else "%.17g" for c in columns.values())
    return [row % values for values in zip(*(c.tolist() for c in columns.values()))]


def write_sweep_csv(blocks: Iterable[Mapping[str, np.ndarray]], path) -> None:
    """Write ``sweep_blocks`` as CSV one block at a time, so a sweep streams
    through in bounded memory; the header is the first block's column names."""
    with open(path, "w") as fh:
        for k, columns in enumerate(blocks):
            if k == 0:
                fh.write(",".join(columns) + "\n")
            fh.write("\n".join(sweep_csv_lines(columns)) + "\n")


# ---------------------------------------------------------------------------
# random model sampling


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-like random unitary: QR of a complex Gaussian matrix with the
    standard phase fix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _dichotomic_pattern(dim: int) -> np.ndarray:
    return np.array([1.0 if k % 2 == 0 else -1.0 for k in range(dim)])


def _hermitize(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2.0


def sample_model(
    rng: np.random.Generator,
    dim: int,
    n_times: int = 3,
    *,
    commuting: bool = False,
    rho_mode: str = "generic",
) -> QuantumModel:
    """Random model: Haar-like unitaries conjugating fixed diagonal patterns
    (energies 0..dim-1 for H, alternating +1/-1 for Q), a random full-rank
    mixed state, and mildly random measurement gaps.

    ``commuting=True`` conjugates H and Q by the same unitary so [H, Q] = 0.
    ``rho_mode`` picks the state family: "generic" (A A^dag normalized),
    "maximally_mixed", "plus_eigenspace" (supported on the Q(t1) = +1
    eigenspace) or "q1_diagonal" (diagonal in the Q(t1) eigenbasis).
    """
    u_h = haar_unitary(rng, dim)
    u_q = u_h if commuting else haar_unitary(rng, dim)
    h = _hermitize(u_h @ np.diag(np.arange(dim, dtype=float)) @ u_h.conj().T)
    q = _hermitize(u_q @ np.diag(_dichotomic_pattern(dim)) @ u_q.conj().T)

    gaps = rng.uniform(0.3, 1.2, size=n_times - 1)
    times = tuple(np.concatenate([[0.0], np.cumsum(gaps)]))

    if rho_mode == "maximally_mixed":
        rho = np.eye(dim, dtype=complex) / dim
    else:
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = _hermitize(z @ z.conj().T)
        rho /= np.trace(rho).real
        # t1 = 0, so Q(t1) = Q
        if rho_mode == "plus_eigenspace":
            p_plus = 0.5 * (np.eye(dim) + q)
            rho = _hermitize(p_plus @ rho @ p_plus)
            rho /= np.trace(rho).real
        elif rho_mode == "q1_diagonal":
            _, v = eig_hermitian(q)
            w = rng.uniform(0.05, 1.0, size=dim)
            w /= w.sum()
            rho = _hermitize(v @ np.diag(w) @ v.conj().T)
        elif rho_mode != "generic":
            raise ValidationError(f"unknown rho_mode {rho_mode!r}")

    return QuantumModel(hamiltonian=h, rho=rho, observable=q, times=times)


# ---------------------------------------------------------------------------
# property campaign


@dataclass
class CheckStats:
    samples: int = 0
    violations: int = 0
    max_residual: float = 0.0

    def record(self, residual: float, tol: float) -> bool:
        self.samples += 1
        self.max_residual = max(self.max_residual, residual)
        ok = residual <= tol
        if not ok:
            self.violations += 1
        return ok


@dataclass
class CampaignSummary:
    seed: int
    count: int
    dim_min: int
    dim_max: int
    checks: dict[str, CheckStats] = field(default_factory=dict)
    reproducers: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.reproducers

    def stats(self, name: str) -> CheckStats:
        return self.checks.setdefault(name, CheckStats())

    def record(self, name: str, index: int, dim: int, residual: float, tol: float) -> None:
        if not self.stats(name).record(residual, tol):
            self.reproducers.append(
                {"check": name, "seed": self.seed, "index": index, "dim": dim, "residual": residual}
            )

    def to_jsonable(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "dim_range": [self.dim_min, self.dim_max],
            "passed": self.passed,
            "checks": {
                name: {
                    "samples": st.samples,
                    "violations": st.violations,
                    "max_residual": st.max_residual,
                }
                for name, st in sorted(self.checks.items())
            },
            "violations": self.reproducers,
        }


def _campaign_sample(
    summary: CampaignSummary, index: int, rng: np.random.Generator, dim: int, epsilon: float
) -> None:
    model = sample_model(rng, dim)
    tables = measure_all(model)
    moments = tables.moments

    def rec(name: str, residual: float, tol: float) -> None:
        summary.record(name, index, dim, float(residual), tol)

    # dichotomy and expectation range of evolved observables
    q = model.spectral()[1]
    rec("dichotomy_preserved", np.linalg.norm(q @ q - np.eye(dim), axis=(-2, -1)).max(), TOL.structural)
    rec("expectation_range", max(abs(a) for a in moments.averages) - 1.0, TOL.structural)

    # unitary group property on a random time pair
    ta, tb = rng.uniform(-10.0, 10.0, size=2)
    ua, ub, uab = _evolve_from_eig(*model.hamiltonian_eig(), [ta, tb, ta + tb])
    rec("unitary_group_property", float(np.linalg.norm(uab - ua @ ub)), 1e-9)

    # p - q = T*s2, witness identities, bounded interference, quasi marginals
    for (i, j), quasi in tables.quasi.items():
        p = tables.pairs[(i, j)]
        qi, qj = model.observable_at(i), model.observable_at(j)
        # commutator form <[Q_i, Q_j] Q_i> = <Q_i Q_j Q_i - Q_j>, traced once for T and W
        commutator = float(np.trace((qi @ qj @ qi - qj) @ model.rho).real)
        t_op = commutator / 8.0
        rec("p_minus_q_identity", np.abs(p.weights - quasi.weights - t_op * np.array(SIGNS)).max(), TOL.scalar)

        w_res = witness(p, tables.singles[j])
        w_op = abs(commutator) / 4.0
        rec("witness_formula_agreement", abs(w_res - w_op), TOL.scalar)
        rec("witness_s2_independence", abs(w_res - witness(p, tables.singles[j], -1)), TOL.scalar)

        if 0.5 * w_op <= p.weights.min():
            rec("bounded_interference_nonneg", -quasi.weights.min(), TOL.scalar)

        marg = [np.abs(quasi.marginal(b).weights - tables.singles[a].weights).max() for a, b in ((i, j), (j, i))]
        rec("quasi_marginals", max(marg), TOL.scalar)

        rec("piecewise_equals_quasi_correlator", abs(moments.corr(i, j) - quasi.moment((0, 1))), TOL.scalar)

    # marginalizing the last measured time reproduces the shorter run
    last = tables.chain.time_indices[-1]
    shorter = tables.pairs.get(tuple(tables.chain.time_indices[:-1]))
    if shorter is not None:
        resid = np.abs(tables.chain.marginal(last).weights - shorter.weights).max()
        rec("sequential_last_marginal", resid, TOL.scalar)

    # contextual values stay in [-1, 1]
    rec("contextual_in_range", max(abs(v) for v in sequential_moments(tables).values()) - 1.0, TOL.scalar)

    # implication chain; weak verdict must match joint feasibility end to end
    weak = mr_weak(moments, epsilon)
    mint = mr_int(tables, epsilon)
    strong = mr_strong(tables, epsilon)
    chain_ok = (not strong.verdict or mint.verdict) and (not mint.verdict or weak.verdict)
    rec("implication_chain", 0.0 if chain_ok else 1.0, 0.5)
    fine_ok = d_interval(moments, epsilon).feasible == weak.verdict
    rec("fine_matches_mr_weak", 0.0 if fine_ok else 1.0, 0.5)


def run_campaign(
    seed: int,
    count: int,
    dim_min: int = 2,
    dim_max: int = 4,
    epsilon: float = TOL.verdict,
) -> CampaignSummary:
    """Sample ``count`` random models and assert every module-level identity
    on each.  Deterministic under the seed; sample k draws from its own
    spawned stream, so a reproducer is fully described by (seed, index)."""
    if seed < 0:
        raise ValidationError(f"campaign: seed must be nonnegative, got {seed}")
    if count > 10**5:
        raise ValidationError(f"campaign: count must be <= 10^5, got {count}")
    if count < 0:
        raise ValidationError(f"campaign: count must be nonnegative, got {count}")
    if not (2 <= dim_min <= dim_max <= 16):
        raise ValidationError(f"campaign: need 2 <= dim_min <= dim_max <= 16, got [{dim_min}, {dim_max}]")
    summary = CampaignSummary(seed=seed, count=count, dim_min=dim_min, dim_max=dim_max)
    if count == 0:
        return summary
    streams = np.random.SeedSequence(seed).spawn(count)
    for index, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        dim = int(rng.integers(dim_min, dim_max + 1))
        _campaign_sample(summary, index, rng, dim, epsilon)
    return summary
