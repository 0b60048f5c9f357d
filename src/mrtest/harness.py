"""Model ingestion, parameter sweeps and random-model property campaigns.

This layer owns the file formats (model JSON, moments JSON, sweep spec
JSON, CSV output) and the reproducible random-model sampling used by the
property campaign.  Everything is deterministic: identical inputs,
including the seed, produce byte-identical outputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .conditions import (
    mr_int_from_tables,
    mr_strong_from_tables,
    mr_weak,
    nsit,
)
from .errors import InputFormatError, ValidationError
from .fine import d_interval
from .measurement import (
    _JSON_NUMBERS,
    MomentSet,
    measure_all,
    outcomes,
    pair_set,
    piecewise_moments,
    sequential_moments,
)
from .quantum import QuantumModel, eig_hermitian, _evolve_from_eig
from .tolerances import TOL

SWEEP_PARAMETERS = ("tau", "t2", "t3", "omega")
OUTPUT_GROUPS = ("averages", "correlators", "margins", "witness", "d_interval", "verdicts")


# ---------------------------------------------------------------------------
# JSON model files


def _json_number(value, where: str) -> float:
    """A JSON number as a float; booleans and strings are format errors."""
    if type(value) not in _JSON_NUMBERS:
        raise InputFormatError(f"{where} must be a number, got {value!r}")
    return float(value)


def _json_int(value, where: str) -> int:
    """A JSON integer; booleans and floats such as 2.5 are format errors."""
    if type(value) is not int:
        raise InputFormatError(f"{where} must be an integer, got {value!r}")
    return value


def _complex_entry(value, where: str) -> complex:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        if _JSON_NUMBERS.issuperset(map(type, value)):
            return complex(*value)
    raise InputFormatError(f"{where}: matrix entries must be [re, im] pairs, got {value!r}")


def _matrix_from_jsonable(rows, dim: int, name: str) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != dim:
        raise InputFormatError(f"{name}: expected {dim} rows")
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
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def load_model(path) -> QuantumModel:
    return model_from_jsonable(_load_json(path))


def load_moments(path) -> MomentSet:
    obj = _load_json(path)
    if not isinstance(obj, Mapping):
        raise InputFormatError(f"{path}: expected a JSON object with moment fields")
    for key in ("n", "avg", "pairs", "corr"):
        if key not in obj:
            raise InputFormatError(f"{path}: missing field {key!r}")
    return MomentSet.from_jsonable(obj)


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

    out: dict = {
        "times": list(model.times),
        "moments": piecewise_moments(model).to_jsonable(),
        "contextual": sequential_moments(model).to_jsonable() if n == 3 else None,
        "tables": {
            "single": {key((i,)): t.to_jsonable() for i, t in enumerate(tables.singles)},
            "sequential": {
                **{key(p): tables.pairs[p].to_jsonable() for p in pair_set(n)},
                key(range(n)): tables.chain.to_jsonable(),
            },
            "quasi": {key(p): tables.quasi[p].to_jsonable() for p in pair_set(n)},
        },
    }
    return out


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
                f"sweep: unknown parameter {self.parameter!r}, expected one of {SWEEP_PARAMETERS}"
            )
        if not self.start < self.stop:
            raise InputFormatError("sweep: need from < to")
        if not (2 <= self.steps <= 10**6):
            raise InputFormatError(f"sweep: steps must be in [2, 10^6], got {self.steps}")
        unknown = [o for o in self.outputs if o not in OUTPUT_GROUPS]
        if unknown:
            raise InputFormatError(
                f"sweep: unknown output name(s) {unknown}, expected subset of {OUTPUT_GROUPS}"
            )
        n = self.model.n_times
        if self.parameter == "tau" and self.start < 0:
            raise InputFormatError("sweep: tau must start at 0 or above")
        if self.parameter == "t3" and n < 3:
            raise InputFormatError("sweep: parameter t3 needs at least 3 times")
        if n == 4 and "d_interval" in self.outputs:
            raise InputFormatError("sweep: d_interval output is only defined for 3-time models")
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
        # default to every group the template supports
        outputs = [o for o in OUTPUT_GROUPS if o != "d_interval" or model.n_times == 3]
    elif not (isinstance(outputs, list) and all(isinstance(o, str) for o in outputs)):
        raise InputFormatError(f"sweep: outputs must be a list of group names, got {outputs!r}")
    return SweepSpec(
        model=model,
        parameter=str(obj["parameter"]),
        start=_json_number(obj["from"], "sweep: from"),
        stop=_json_number(obj["to"], "sweep: to"),
        steps=_json_int(obj["steps"], "sweep: steps"),
        outputs=tuple(outputs),
    )


def load_sweep_spec(path) -> SweepSpec:
    return sweep_spec_from_jsonable(_load_json(path))


def apply_parameter(template: QuantumModel, parameter: str, value: float) -> QuantumModel:
    """Instantiate the template at one grid point."""
    h, rho, q = template.hamiltonian, template.rho, template.observable
    times = template.times
    if parameter == "tau":
        t0 = times[0]
        times = tuple(t0 + k * value for k in range(len(times)))
    elif parameter == "t2":
        times = (times[0], value) + times[2:]
    elif parameter == "t3":
        times = times[:2] + (value,) + times[3:]
    elif parameter == "omega":
        h = value * h
    else:  # pragma: no cover - guarded by SweepSpec
        raise InputFormatError(f"unknown sweep parameter {parameter!r}")
    return QuantumModel(hamiltonian=h, rho=rho, observable=q, times=times)


@dataclass(frozen=True)
class RunRecord:
    """One sweep grid point: the parameter value plus every quantity the
    sweep's output list asked for."""

    parameter_value: float
    moments: MomentSet
    margins: dict[str, float]
    witnesses: dict[str, float]
    interval: tuple[float, float] | None
    verdicts: dict[str, bool]


def _point_record(
    model: QuantumModel, value: float, outputs: Sequence[str], epsilon: float
) -> RunRecord:
    n = model.n_times
    tables = measure_all(model)
    moments = MomentSet(
        averages=tuple(t.moment((0,)) for t in tables.singles),
        correlators=tuple(tables.pairs[p].moment((0, 1)) for p in pair_set(n)),
    )

    margins: dict[str, float] = {}
    verdicts: dict[str, bool] = {}
    need_margins = "margins" in outputs
    need_verdicts = "verdicts" in outputs
    if need_margins or need_verdicts:
        weak = mr_weak(moments, epsilon)
        verdicts["verdict_weak"] = weak.verdict
        margins.update(weak.margins)
        if n == 3:
            mint = mr_int_from_tables(tables.singles, tables.pairs, moments, epsilon)
            strong = mr_strong_from_tables(tables.singles, tables.pairs, tables.chain, epsilon)
            verdicts["verdict_int"] = mint.verdict
            verdicts["verdict_strong"] = strong.verdict
            for rep in (mint, strong):
                margins.update(rep.margins)
        else:
            for i, j in pair_set(n):
                rep = nsit(
                    tables.pairs[(i, j)],
                    tables.singles[j],
                    i,
                    name=f"NSIT({i + 1}){j + 1}",
                    epsilon=epsilon,
                )
                margins.update(rep.margins)

    witnesses: dict[str, float] = {}
    if "witness" in outputs:
        for i, j in pair_set(n):
            p = tables.pairs[(i, j)]
            single = tables.singles[j]
            witnesses[f"W_{i + 1}{j + 1}"] = abs(
                sum(p.weight((s1, +1)) for s1 in (-1, +1)) - single.weight((+1,))
            )

    interval = None
    if "d_interval" in outputs and n == 3:
        interval = d_interval(moments).d_interval

    return RunRecord(
        parameter_value=value,
        moments=moments,
        margins=margins,
        witnesses=witnesses,
        interval=interval,
        verdicts=verdicts,
    )


def run_sweep(spec: SweepSpec, epsilon: float = TOL.verdict) -> list[RunRecord]:
    return [
        _point_record(apply_parameter(spec.model, spec.parameter, float(v)), float(v), spec.outputs, epsilon)
        for v in spec.grid
    ]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def sweep_csv_lines(spec: SweepSpec, records: Sequence[RunRecord]) -> list[str]:
    """Deterministic CSV: '.' decimals, 17 significant digits, verdicts as
    1/0, columns fixed by the outputs list (in its given order)."""
    n = spec.model.n_times
    if not records:
        raise ValidationError("sweep produced no records")
    first = records[0]
    header: list[str] = [spec.parameter]
    for group in spec.outputs:
        if group == "averages":
            header += [f"avg_{i + 1}" for i in range(n)]
        elif group == "correlators":
            header += [f"C_{i + 1}{j + 1}" for i, j in pair_set(n)]
        elif group == "margins":
            header += list(first.margins)
        elif group == "witness":
            header += list(first.witnesses)
        elif group == "d_interval":
            header += ["d_lo", "d_hi"]
        elif group == "verdicts":
            header += list(first.verdicts)
    lines = [",".join(header)]
    for rec in records:
        row: list[str] = [_fmt(rec.parameter_value)]
        for group in spec.outputs:
            if group == "averages":
                row += [_fmt(a) for a in rec.moments.averages]
            elif group == "correlators":
                row += [_fmt(c) for c in rec.moments.correlators]
            elif group == "margins":
                row += [_fmt(rec.margins[k]) for k in first.margins]
            elif group == "witness":
                row += [_fmt(rec.witnesses[k]) for k in first.witnesses]
            elif group == "d_interval":
                lo, hi = rec.interval if rec.interval is not None else (float("nan"), float("nan"))
                row += [_fmt(lo), _fmt(hi)]
            elif group == "verdicts":
                row += ["1" if rec.verdicts[k] else "0" for k in first.verdicts]
        lines.append(",".join(row))
    return lines


def write_sweep_csv(spec: SweepSpec, records: Sequence[RunRecord], path) -> None:
    Path(path).write_text("\n".join(sweep_csv_lines(spec, records)) + "\n")


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
    t1 = times[0]

    if rho_mode == "maximally_mixed":
        rho = np.eye(dim, dtype=complex) / dim
    else:
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = _hermitize(z @ z.conj().T)
        rho /= np.trace(rho).real
        if rho_mode == "plus_eigenspace":
            lam, vec = eig_hermitian(h)
            u1 = _evolve_from_eig(lam, vec, t1)
            q1 = u1.conj().T @ q @ u1
            p_plus = 0.5 * (np.eye(dim) + q1)
            rho = _hermitize(p_plus @ rho @ p_plus)
            rho /= np.trace(rho).real
        elif rho_mode == "q1_diagonal":
            lam, vec = eig_hermitian(h)
            u1 = _evolve_from_eig(lam, vec, t1)
            q1 = _hermitize(u1.conj().T @ q @ u1)
            _, v = eig_hermitian(q1)
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
    n = model.n_times
    tables = measure_all(model)
    moments = piecewise_moments(model)

    def rec(name: str, residual: float, tol: float) -> None:
        summary.record(name, index, dim, float(residual), tol)

    # dichotomy and expectation range of evolved observables
    dich = max(
        float(np.linalg.norm(model.observable_at(i) @ model.observable_at(i) - np.eye(dim)))
        for i in range(n)
    )
    rec("dichotomy_preserved", dich, TOL.structural)
    rec("expectation_range", max(abs(a) for a in moments.averages) - 1.0, TOL.structural)

    # unitary group property on a random time pair
    ta, tb = rng.uniform(-10.0, 10.0, size=2)
    lam, vec = model.hamiltonian_eig()
    ua = _evolve_from_eig(lam, vec, float(ta))
    ub = _evolve_from_eig(lam, vec, float(tb))
    uab = _evolve_from_eig(lam, vec, float(ta + tb))
    rec("unitary_group_property", float(np.linalg.norm(uab - ua @ ub)), 1e-9)

    # p - q = T*s2, witness identities, bounded interference, quasi marginals
    for (i, j), quasi in tables.quasi.items():
        p = tables.pairs[(i, j)]
        qi, qj = model.observable_at(i), model.observable_at(j)
        t_op = float(np.trace((qi @ qj @ qi - qj) @ model.rho).real) / 8.0
        resid = max(abs(p.weight(o) - quasi.weight(o) - t_op * o[1]) for o in outcomes(2))
        rec("p_minus_q_identity", resid, TOL.scalar)

        w_res = abs(sum(p.weight((s1, +1)) for s1 in (-1, +1)) - tables.singles[j].weight((+1,)))
        w_op = abs(float(np.trace((qi @ qj @ qi - qj) @ model.rho).real)) / 4.0
        rec("witness_formula_agreement", abs(w_res - w_op), TOL.scalar)
        w_minus = abs(sum(p.weight((s1, -1)) for s1 in (-1, +1)) - tables.singles[j].weight((-1,)))
        rec("witness_s2_independence", abs(w_res - w_minus), TOL.scalar)

        if 0.5 * w_op <= min(p.weights.values()):
            rec("bounded_interference_nonneg", -min(quasi.weights.values()), TOL.scalar)

        marg = max(
            max(abs(quasi.marginal(j).weight(o) - tables.singles[i].weight(o)) for o in outcomes(1)),
            max(abs(quasi.marginal(i).weight(o) - tables.singles[j].weight(o)) for o in outcomes(1)),
        )
        rec("quasi_marginals", marg, TOL.scalar)

        rec(
            "piecewise_equals_quasi_correlator",
            abs(moments.corr(i, j) - quasi.moment((0, 1))),
            TOL.scalar,
        )

    # marginalizing the last measured time reproduces the shorter run
    last = tables.chain.time_indices[-1]
    shorter = tables.pairs.get(tuple(tables.chain.time_indices[:-1]))
    if shorter is not None:
        marg = tables.chain.marginal(last)
        resid = max(abs(marg.weight(o) - shorter.weight(o)) for o in outcomes(n - 1))
        rec("sequential_last_marginal", resid, TOL.scalar)

    # contextual values stay in range (validated on construction; residual 0)
    ctx = sequential_moments(model)
    rec(
        "contextual_in_range",
        max(abs(v) for v in ctx.contextual.values()) - 1.0,
        TOL.scalar,
    )

    # implication chain; weak verdict must match joint feasibility end to end
    weak = mr_weak(moments, epsilon)
    mint = mr_int_from_tables(tables.singles, tables.pairs, moments, epsilon)
    strong = mr_strong_from_tables(tables.singles, tables.pairs, tables.chain, epsilon)
    chain_ok = (not strong.verdict or mint.verdict) and (not mint.verdict or weak.verdict)
    rec("implication_chain", 0.0 if chain_ok else 1.0, 0.5)
    fine_ok = d_interval(moments).feasible == weak.verdict
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
