"""Model ingestion, parameter sweeps and random-model property campaigns.

This layer reads the model and sweep spec JSON files (a moments file is
parsed by ``MomentSet.from_jsonable``), writes the sweep CSV, and owns the
reproducible random-model sampling used by the property campaign.  A
sweep is a lazy sequence of blocks, each an ordered map from CSV column
name to an array over the block's points; ``OUTPUT_GROUPS`` maps each
output group to its columns, and the CSV writer only formats the maps: it
makes each block's '%.17g' text in numpy, from tables of digits, and moves
the file into place only once the last block is written.
The campaign draws each model from its own stream, then builds, validates
(with ``quantum._validate``, as ``QuantumModel`` does) and checks models of
one dimension in blocks of a sweep block's byte budget: a block yields each
check as (name, residuals over its models, tolerance[, premise mask]), and
``run_campaign`` folds the block's checks as one (checks, models) residual
array into the JSON-ready summary that ``mrtest campaign`` prints: a NaN
residual is a violation and never the largest, and a check whose premise held
on no model is left out.  All is deterministic: identical inputs, including
the seed, give identical bytes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .conditions import mr_int, mr_strong, mr_weak, nsit_pairwise
from .errors import InputFormatError, ValidationError
from .fine import d_bounds
from .measurement import (
    _echo,
    _json_number,
    _json_numbers,
    _tables,
    PAIR_SETS,
    SIGNS,
    MomentSet,
    measure_all,
    pair_set,
    sequential_moments,
    witness,
)
from .quantum import MAX_DIM, QuantumModel, check_times, expectation
from .quantum import _dagger, _evolve_from_eig, _hermitian_part, _spectral, _validate
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
    return QuantumModel(
        hamiltonian=_matrix_from_jsonable(obj["hamiltonian"], dim, "hamiltonian"),
        rho=_matrix_from_jsonable(obj["rho"], dim, "rho"),
        observable=_matrix_from_jsonable(obj["observable"], dim, "observable"),
        times=_json_numbers(obj["times"], "model: times"),
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
        if n not in PAIR_SETS:
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


#: bytes of complex work arrays one block of sweep points or campaign models
#: may use; fixes the block size, so memory stays bounded whatever the count
BLOCK_BYTES = 1 << 21


def _block_size(dim: int, n_times: int) -> int:
    """Sweep points or campaign models per block: as many as fit
    ``BLOCK_BYTES`` at about 32 d^2 (2^n + 4n) bytes of states and
    projectors each."""
    return max(1, BLOCK_BYTES // (32 * dim**2 * (2**n_times + 4 * n_times)))


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
    sweep shares one eigendecomposition of H.  A block holds ``_block_size``
    points.
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
    size = _block_size(model.dim, model.n_times)
    # a lazy map, not a generator, which bench/tracer.py would count once per block
    return map(
        lambda k: _block_columns(spec, values[k : k + size], times[k : k + size], epsilon),
        range(0, len(values), size),
    )


# ---------------------------------------------------------------------------
# sweep CSV
#
# '%.17g' for a whole block in numpy.  A value x with 1e-99 <= |x| < 1e99 is
# scaled to x * 10^(16 - X), X its decade, as a double-double pair (error about
# 1e-14) and rounded to the integer of its 17 significant digits.  Tables spell
# it as four 8-byte words whose 0 bytes are dropped: the sign, any "0.000"
# prefix, the first digit and a point after it; the 16 other digits, one byte
# each, those after a point among them moved one byte on; the exponent and the
# separator.  A value out of that range, not finite, or whose scaled value lies
# within 2^-30 of a half (the exact half-way cases included) is formatted by
# '%.17g' into its field.

#: decades X = floor(log10|x|) in the tables: one more at each end than the range
#: needs, for log10's first guess and for the double nearest 1e-99
_DECADES = range(-100, 100)
#: values formatted at once: about 0.9 MB of work arrays (tracemalloc); 3072 took
#: a quarter longer, and 9216 a few per cent less for half as much memory again
_CSV_CHUNK = 6144


def _halves(v):
    """Veltkamp's split: v as high + low, each of at most 26 significant bits."""
    split = 134217729.0 * v  # 2^27 + 1
    high = split - (split - v)
    return high, v - high


def _pow10_parts() -> np.ndarray:
    """For p = 16 - X from the last decade to the first: the double nearest
    10^p, its halves, and the double nearest the rest, from integers."""
    near, rest = [], []
    for p in range(16 - _DECADES[-1], 17 - _DECADES[0]):
        if p >= 0:
            near.append(float(10**p))  # int to float rounds correctly
            rest.append(float(10**p - int(near[-1])))
        else:
            near.append(1 / 10**-p)  # and so does int / int
            n, d = near[-1].as_integer_ratio()
            rest.append((d - n * 10**-p) / (d * 10**-p))
    return np.array([near, *_halves(np.array(near)), rest])


def _words(texts) -> np.ndarray:
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), dtype=np.uint64)


_POW10 = _pow10_parts()
_DIGITS = np.indices((10,) * 4, dtype=np.int8).reshape(4, -1)  # of the 4-digit groups
#: each 4-digit group's digits as 4 bytes, in the low half of a word and in the high half
_GROUP_LOW = np.frombuffer((48 + _DIGITS.T).astype(np.uint8).tobytes(), dtype=np.uint32).astype(np.uint64)
_GROUP_HIGH = _GROUP_LOW << np.uint64(32)
#: at group position i (at i * 10^4 + group): the count of the 16 digits up to
#: the group's last nonzero one, or 0
_GROUP_END = ((_DIGITS > 0) * np.arange(1, 17, dtype=np.int8).reshape(4, 4, 1)).max(axis=1).ravel()
_GROUP_AT = np.arange(0, 4 * 10**4, 10**4, dtype=np.int32)[:, None]
#: for each of the two digit words and count K: the mask of its digits among the first K
_KEEP = (255 * (np.arange(16).reshape(2, 1, 8) < np.arange(17)[:, None])).astype(np.uint8).view(np.uint64)[..., 0]
#: for a point after p of the 16 digits, put at byte 16 (the tail's first): where each byte comes from
_POINT_AT = np.array([[*range(p), 16, *range(p, 16), *range(17, 24)] for p in range(16)])
#: by sign, -X for a value below 1 written positionally ("0." and -X - 1 zeros),
#: else 0, a point after the first digit or not, and the first digit
_HEAD = _words(
    sign + zeros + b"%d" % d + point
    for sign in (b"", b"-") for zeros in (b"", b"0.", b"0.0", b"0.00", b"0.000") for point in (b"", b".")
    for d in range(10)
)
#: by the exponent (none, or a decade) and the row end, which is the last byte
_TAIL = _words([b""] + [b"e%+03d" % x for x in _DECADES])[:, None] | _words([b"\0" * 7 + b",", b"\0" * 7 + b"\n"])
_TAIL = _TAIL.ravel()


def _rounded(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The integer of each |value|'s 17 significant digits, its decade, and
    whether both are certain; 0, 0 where not, and for zeros."""
    size = np.abs(values)
    fast = (size >= 1e-99) & (size < 1e99)
    x = np.where(fast, size, 1.0)

    def scaled(x, decade):
        # x * 10^(16 - decade) as hi + lo, lo by Dekker's exact product
        near, high, low, rest = _POW10.take(_DECADES[-1] - decade, axis=1)
        x_high, x_low = _halves(x)
        hi = x * near
        return hi, ((x_high * high - hi) + x_high * low + x_low * high) + x_low * low + x * rest

    decade = np.floor(np.log10(x)).astype(np.int64)
    hi, lo = scaled(x, decade)
    # log10 puts a value just below a power of ten in the decade above, where hi
    # alone may round onto 1e16: read the decade from the pair
    below = np.flatnonzero((hi < 1e16) | ((hi == 1e16) & (lo < 0.0)))
    if below.size:
        decade[below] -= 1
        hi[below], lo[below] = scaled(x[below], decade[below])
    whole = np.floor(lo)
    digits = hi.astype(np.int64) + whole.astype(np.int64) + (lo - whole > 0.5)
    # a rounding onto 10^17, from within 5e-18 below a power of ten (such as the double 1e-14), is left out
    fast &= (np.abs(lo - whole - 0.5) > 2.0**-30) & (digits < 10**17)
    return np.where(fast, digits, 0), np.where(fast, decade, 0), fast


def _csv_fields(values: np.ndarray, ends: np.ndarray) -> bytes:
    """The field of each value, 0 bytes included, followed by ',' or, where
    ``ends`` holds, a newline."""
    digits, decade, fast = _rounded(values)
    first = digits // 10**16  # and a multiply-subtract: under half np.divmod's time
    rest = digits - first * 10**16
    groups = np.empty((4, len(values)), dtype=np.int32)
    groups[0] = high = rest // 10**8
    groups[2] = rest - high * 10**8
    high = groups[::2] // 10**4
    groups[1::2] = groups[::2] - high * 10**4
    groups[::2] = high
    end = _GROUP_END.take(groups + _GROUP_AT).max(axis=0)
    positional = (decade >= -4) & (decade < 17)
    # the digits before the point, and as many as the 'g' layout keeps
    before = np.where(positional, np.maximum(decade + 1, 0), 1).astype(np.int8)

    fields = np.empty((4, len(values)), dtype=np.uint64)
    zeros = np.where(positional & (decade < 0), -decade, 0)
    point = (before == 1) & (end > 0)
    np.take(_HEAD, ((np.signbit(values) * 5 + zeros) * 2 + point) * 10 + first, out=fields[0])
    np.take(_GROUP_LOW, groups[::2], out=fields[1:3])
    fields[1:3] |= _GROUP_HIGH.take(groups[1::2])
    fields[1:3] &= _KEEP.take(np.maximum(end, before - 1), axis=1)
    np.take(_TAIL, ends + np.where(positional, 0, 2 * (decade - _DECADES[0] + 1)), out=fields[3])
    # a point among the 16 digits (10 <= |x| < 1e17, so no exponent): those after it move one byte on
    points = np.flatnonzero((end >= before) & (before > 1))
    if points.size:
        run = fields[1:, points].T.copy().view(np.uint8)
        run[:, 16] = ord(".")
        at = _POINT_AT.take(before[points] - 1, axis=0) + np.arange(0, run.size, 24)[:, None]
        fields[1:, points] = run.take(at).view(np.uint64).T
    slow = np.flatnonzero(~fast & (values != 0.0))
    if slow.size:
        text = b"".join(
            (b"%.17g" % v).ljust(31, b"\0") + (b"\n" if e else b",")
            for v, e in zip(values[slow].tolist(), ends[slow].tolist())
        )
        fields[:, slow] = np.frombuffer(text, dtype=np.uint64).reshape(-1, 4).T
    return fields.T.tobytes()


def sweep_csv_lines(columns: Mapping[str, np.ndarray]) -> str:
    """The CSV rows of one ``sweep_blocks`` block as one string, each row
    ending in a newline: every value as '%.17g' formats it, so '.' decimals,
    17 significant digits, and bool columns (the verdicts) as 1/0."""
    arrays = list(columns.values())
    # equal chunks of at most _CSV_CHUNK values, so that no short tail pays a whole chunk's fixed cost
    size = len(arrays[0])
    chunks = max(1, -(-size // max(1, _CSV_CHUNK // len(arrays))))
    rows = max(1, -(-size // chunks))
    ends = np.tile(np.arange(len(arrays)) == len(arrays) - 1, rows)
    text = []
    for start in range(0, size, rows):
        chunk = np.stack([a[start : start + rows] for a in arrays], axis=1).astype(float, copy=False)
        text.append(_csv_fields(chunk.ravel(), ends[: chunk.size]).translate(None, b"\0").decode("ascii"))
    return "".join(text)


def write_sweep_csv(blocks: Iterable[Mapping[str, np.ndarray]], path) -> None:
    """Write ``sweep_blocks`` as CSV one block at a time, so a sweep streams
    through in bounded memory; the header is the first block's column names.

    A regular file is written beside ``path`` and replaces it only once the
    last block is written: a sweep that fails leaves no CSV, and an earlier
    file at ``path`` as it was.  A pipe or a terminal is written directly."""
    direct = os.path.exists(path) and not os.path.isfile(path)
    target = path if direct else os.path.realpath(path)
    part = target if direct else f"{target}.{os.urandom(4).hex()}.part"
    fh = open(part, "w" if direct else "x")
    try:
        with fh:
            for k, columns in enumerate(blocks):
                if k == 0:
                    fh.write(",".join(columns) + "\n")
                fh.write(sweep_csv_lines(columns))
        if not direct:
            os.replace(part, target)
    except BaseException:
        if not direct:
            os.unlink(part)
        raise


# ---------------------------------------------------------------------------
# random model sampling


def haar_unitary(z: np.ndarray) -> np.ndarray:
    """Haar-like random unitaries: QR of a complex Gaussian matrix, or of each
    matrix of a stack, with the standard phase fix."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _model_block(rngs, dim: int, n_times: int = 3, commuting: bool = False, rho_mode: str = "generic") -> tuple:
    """H, rho, Q and times of models of one dimension, each drawn from its own
    stream as ``sample_model`` draws one, and built on a leading model axis."""
    gauss = np.stack([rng.standard_normal((1 if commuting else 2, 2, dim, dim)) for rng in rngs])
    u = haar_unitary(gauss[:, :, 0] + 1j * gauss[:, :, 1])
    u_h, u_q = u[:, 0], u[:, -1]
    h = _hermitian_part((u_h * np.arange(dim, dtype=float)) @ _dagger(u_h))
    q = _hermitian_part((u_q * np.resize([1.0, -1.0], dim)) @ _dagger(u_q))
    gaps = np.stack([rng.uniform(0.3, 1.2, size=n_times - 1) for rng in rngs])
    times = np.concatenate([np.zeros((len(rngs), 1)), np.cumsum(gaps, axis=-1)], axis=-1)
    if rho_mode == "maximally_mixed":
        return h, np.broadcast_to(np.eye(dim, dtype=complex) / dim, h.shape), q, times
    z = np.stack([rng.standard_normal((2, dim, dim)) for rng in rngs])
    z = z[:, 0] + 1j * z[:, 1]
    rho = _hermitian_part(z @ _dagger(z))
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
    # t1 = 0, so Q(t1) = Q
    if rho_mode == "plus_eigenspace":
        p_plus = 0.5 * (np.eye(dim) + q)
        rho = _hermitian_part(p_plus @ rho @ p_plus)
        rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
    elif rho_mode == "q1_diagonal":
        v = np.linalg.eigh(q)[1]
        w = np.stack([rng.uniform(0.05, 1.0, size=dim) for rng in rngs])
        w /= w.sum(axis=-1, keepdims=True)
        rho = _hermitian_part(v @ (w[..., None] * np.eye(dim)) @ _dagger(v))
    elif rho_mode != "generic":
        raise ValidationError(f"unknown rho_mode {rho_mode!r}")
    return h, rho, q, times


def sample_model(rng: np.random.Generator, dim: int, n_times: int = 3, *, commuting: bool = False,
                 rho_mode: str = "generic") -> QuantumModel:
    """Random model: Haar-like unitaries conjugating fixed diagonal patterns
    (energies 0..dim-1 for H, alternating +1/-1 for Q), a random full-rank
    mixed state, and mildly random measurement gaps.

    ``commuting=True`` conjugates H and Q by the same unitary so [H, Q] = 0.
    ``rho_mode`` picks the state family: "generic" (A A^dag normalized),
    "maximally_mixed", "plus_eigenspace" (supported on the Q(t1) = +1
    eigenspace) or "q1_diagonal" (diagonal in the Q(t1) eigenbasis).
    The campaign's block sampler on one stream."""
    h, rho, q, times = (a[0] for a in _model_block([rng], dim, n_times, commuting, rho_mode))
    return QuantumModel(hamiltonian=h, rho=rho, observable=q, times=times)


# ---------------------------------------------------------------------------
# property campaign


def _campaign_block(lam, vec, rho, q, times, shifts: np.ndarray, epsilon: float) -> Iterator[tuple]:
    """Each check on validated 3-time models of one dimension, given by H's eigenpairs, rho,
    Q and times on a leading axis, with random time pairs ``shifts`` (ta, tb), as ``(name,
    residual over the models, tolerance)`` in one model's check order; it holds where
    residual <= tolerance.  A check run only where its premise holds adds that mask.  Each
    residual is array work over the whole block, with no Python model by model."""
    _, q, proj = _spectral(lam, vec, q, times)
    tables = _tables(proj, rho)
    moments = tables.moments

    # dichotomy and expectation range of evolved observables: the only check of Q(t)^2 = I after load
    dichotomy = np.linalg.norm(q @ q - np.eye(q.shape[-1]), axis=(-2, -1)).max(axis=-1)
    yield "dichotomy_preserved", dichotomy, TOL.structural
    yield "expectation_range", np.abs(moments.averages).max(axis=0) - 1.0, TOL.structural

    # unitary group property on a random time pair
    ta, tb = shifts.T
    ua, ub, uab = np.moveaxis(_evolve_from_eig(lam, vec, np.stack([ta, tb, ta + tb], axis=-1)), -3, 0)
    yield "unitary_group_property", np.linalg.norm(uab - ua @ ub, axis=(-2, -1)), 1e-9

    # p - q = T*s2, witness identities, bounded interference, quasi marginals
    for (i, j), quasi in tables.quasi.items():
        p = tables.pairs[(i, j)]
        qi, qj = q[:, i], q[:, j]
        # commutator form <[Q_i, Q_j] Q_i> = <Q_i Q_j Q_i - Q_j>, traced once for T and W
        commutator = expectation(rho, qi @ qj @ qi - qj)
        t_s2 = (commutator / 8.0)[:, None, None] * np.array(SIGNS)
        yield "p_minus_q_identity", np.abs(p.weights - quasi.weights - t_s2).max(axis=(-2, -1)), TOL.scalar

        w_res = witness(p, tables.singles[j])
        w_op = np.abs(commutator) / 4.0
        yield "witness_formula_agreement", np.abs(w_res - w_op), TOL.scalar
        yield "witness_s2_independence", np.abs(w_res - witness(p, tables.singles[j], -1)), TOL.scalar

        premise = 0.5 * w_op <= p.weights.min(axis=(-2, -1))
        yield "bounded_interference_nonneg", -quasi.weights.min(axis=(-2, -1)), TOL.scalar, premise

        marg = [np.abs(quasi.marginal(b).weights - tables.singles[a].weights).max(axis=-1) for a, b in ((i, j), (j, i))]
        yield "quasi_marginals", np.maximum(*marg), TOL.scalar

        yield "piecewise_equals_quasi_correlator", np.abs(moments.corr(i, j) - quasi.moment((0, 1))), TOL.scalar

    # marginalizing the last measured time reproduces the shorter run
    chain = tables.chain
    resid = np.abs(chain.marginal(chain.time_indices[-1]).weights - tables.pairs[chain.time_indices[:-1]].weights)
    yield "sequential_last_marginal", resid.max(axis=(-2, -1)), TOL.scalar

    # contextual values stay in [-1, 1]
    yield "contextual_in_range", np.abs(list(sequential_moments(tables).values())).max(axis=0) - 1.0, TOL.scalar

    # implication chain; Fine's theorem: expansion rows of opposite slope add up to twice an
    # LG2 or LG3 row, so the triple correlator's interval is twice the smallest weak margin wide
    weak = mr_weak(moments, epsilon)
    mint = mr_int(tables, epsilon).verdict
    strong = mr_strong(tables, epsilon).verdict
    yield "implication_chain", np.where((~strong | mint) & (~mint | weak.verdict), 0.0, 1.0), 0.5
    lo, hi = d_bounds(moments)
    yield "fine_matches_mr_weak", np.abs((hi - lo) / 2.0 - weak.values.min(axis=0)), TOL.scalar


def run_campaign(
    seed: int,
    count: int,
    dim_min: int = 2,
    dim_max: int = 4,
    epsilon: float = TOL.verdict,
) -> dict:
    """Sample ``count`` random models and assert every module-level identity
    on each, in blocks of ``_block_size`` models of one dimension.
    Deterministic under the seed; sample k draws from its own spawned
    stream, so a reproducer is fully described by (seed, index).

    Returns the JSON-ready summary that ``mrtest campaign`` prints: the
    arguments, ``passed``, each check's sample count, violation count and
    largest residual, and one reproducer per violation, by index and then
    in each model's check order."""
    if seed < 0:
        raise ValidationError(f"campaign: seed must be nonnegative, got {seed}")
    if count > 10**5:
        raise ValidationError(f"campaign: count must be <= 10^5, got {count}")
    if count < 0:
        raise ValidationError(f"campaign: count must be nonnegative, got {count}")
    if not (2 <= dim_min <= dim_max <= MAX_DIM):
        raise ValidationError(f"campaign: need 2 <= dim_min <= dim_max <= {MAX_DIM}, got [{dim_min}, {dim_max}]")
    checks: dict[str, dict] = {}
    violations = []

    def fold(dim: int, block: list) -> None:
        indices, rngs = [index for index, _ in block], [rng for _, rng in block]
        h, rho, q, times = _model_block(rngs, dim)
        models = (*np.linalg.eigh(h), rho, q, _validate(h, rho, q, times))
        shifts = np.array([rng.uniform(-10.0, 10.0, size=2) for rng in rngs])
        # the block's checks as one (checks, models) array, a tolerance each and where each ran
        items = list(_campaign_block(*models, shifts, epsilon))
        residuals, tols = np.empty((len(items), len(block))), np.empty((len(items), 1))
        ran = np.ones(residuals.shape, dtype=bool)
        for k, (_, residual, tol, *premise) in enumerate(items):
            residuals[k], tols[k] = residual, tol
            if premise:
                ran[k] = premise[0]
        # a NaN residual is a violation, and never the largest
        bad = ran & ~(residuals <= tols)
        largest = np.where(ran & ~np.isnan(residuals), residuals, -np.inf).max(axis=1)
        for (name, *_), samples, failed, top in zip(items, ran.sum(axis=1).tolist(), bad.sum(axis=1).tolist(),
                                                    largest.tolist()):
            if samples:
                stats = checks.setdefault(name, {"samples": 0, "violations": 0, "max_residual": 0.0})
                stats["samples"] += samples
                stats["violations"] += failed
                stats["max_residual"] = max(stats["max_residual"], top)
        row, model = np.nonzero(bad)
        violations.extend(
            {"check": items[k][0], "seed": seed, "index": indices[m], "dim": dim, "residual": value}
            for k, m, value in zip(row.tolist(), model.tolist(), residuals[row, model].tolist())
        )

    pending: dict[int, list] = {}
    for index, stream in enumerate(np.random.SeedSequence(seed).spawn(count)):
        rng = np.random.default_rng(stream)
        dim = int(rng.integers(dim_min, dim_max + 1))
        pending.setdefault(dim, []).append((index, rng))
        if len(pending[dim]) == _block_size(dim, 3):
            fold(dim, pending.pop(dim))
    for dim, block in pending.items():
        fold(dim, block)
    return {
        "seed": seed,
        "count": count,
        "dim_range": [dim_min, dim_max],
        "passed": not violations,
        "checks": dict(sorted(checks.items())),
        # each model is in one block, so a stable sort by index keeps its check order
        "violations": sorted(violations, key=lambda v: v["index"]),
    }
