"""mrtest benchmark: end-to-end metrics per workload, or per-layer metrics
from a separate traced run.

    python3 bench/run.py --workload sweep_tau --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --self-test

Run it from the root of a source checkout; it imports ``mrtest`` from
``src/``.  Inputs are made here from the seed, the workload runs in a fresh
worker process, every output is checked, and the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the ``end_to_end`` metrics of BENCHMARK.json with ``--trace
0``, its ``per_layer`` metrics with ``--trace 1``).  A record with the host
description and every sample goes to ``.bench_out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import lzma
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs  # bench/inputs.py: this script's directory is first on sys.path
from hostspeed import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SHIPPED_SPEC = SRC / "mrtest" / "data" / "tau_sweep_lg3.json"
SWEEP_REFERENCE = HERE / "data" / "sweep_tau_reference.csv.xz"
WORKLOADS = ("sweep_tau", "campaign_dim16", "moment_sets")

ADDR_NO_RANDOMIZE = 0x0040000  # Linux personality flag
SETUP_PROBES = 7  # fresh processes per run, after one unmeasured probe
RUN_LIMIT_S = 170.0  # every run, worker included, ends within this
NUMERIC_TOL = 1e-12

# Per-model multiplicity of every campaign check that runs unconditionally
# on a 3-time model; "bounded_interference_nonneg" runs only when its
# premise holds, so its count is not fixed.
CAMPAIGN_CHECKS = {
    "contextual_in_range": 1,
    "dichotomy_preserved": 1,
    "expectation_range": 1,
    "fine_matches_mr_weak": 1,
    "implication_chain": 1,
    "piecewise_equals_quasi_correlator": 3,
    "p_minus_q_identity": 3,
    "quasi_marginals": 3,
    "sequential_last_marginal": 1,
    "unitary_group_property": 1,
    "witness_formula_agreement": 3,
    "witness_s2_independence": 3,
}


class CheckError(Exception):
    """An output check could not run; the run ends without a result."""


def child_env() -> dict[str, str]:
    """Environment of every child: one BLAS thread, a fixed hash seed and no
    verdict-epsilon override."""
    env = {k: v for k, v in os.environ.items() if k != "MRTEST_EPSILON"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def host_record() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version", "openblas configuration")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "thread_env": {k: v for k, v in child_env().items() if k.endswith("_NUM_THREADS")},
        "loadavg_start": os.getloadavg(),
    }


def fixed_layout() -> None:
    """Run in each child before it starts Python: turn off address-space
    randomization for that process alone.

    With a random layout, separate processes running the same input differ
    in speed by several per cent for as long as they live, which showed as
    most of the spread between runs; with the flag, every worker of a commit
    gets the same layout.  Where the call is refused, the child keeps a
    random layout and only the spread grows.
    """
    try:
        libc = ctypes.CDLL(None)
        libc.personality(libc.personality(0xFFFFFFFF) | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def worker(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise CheckError("no time left for the worker")
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args, "--src", str(SRC)],
        preexec_fn=fixed_layout,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=ROOT,
    )


def make_input(workload: str, seed: int, workdir: Path) -> Path:
    path = workdir / f"{workload}.json"
    if workload == "sweep_tau":
        payload = inputs.sweep_spec(SHIPPED_SPEC)
    elif workload == "campaign_dim16":
        payload = {"seed": seed}
    else:
        payload = inputs.moment_sets(seed)
    path.write_text(json.dumps(payload))
    return path


def measure_setup(workload: str, input_path: Path, deadline: float) -> list[dict]:
    """Set-up seconds of fresh processes, each with the reference-kernel
    time that the same process measured right after."""
    samples = []
    for k in range(SETUP_PROBES + 1):
        proc = worker(["setup", "--workload", workload, "--input", str(input_path)], deadline)
        if proc.returncode != 0:
            raise CheckError(f"set-up probe failed:\n{proc.stderr}")
        if k:
            samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# output checks: (attempted, failed, correct, notes)
#
# ``attempted`` counts the distinct items of the seeded input (sweep points,
# campaign models, moment sets) and ``failed`` those that failed in any
# repetition, so both depend on the seed only and not on how many
# repetitions fitted into the run.


def _parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _row_ok(row: list[str], ref: list[str], verdict_cols: set[int]) -> bool:
    if len(row) != len(ref):
        return False
    for k, (a, b) in enumerate(zip(row, ref)):
        if k in verdict_cols:
            if a != b:
                return False
            continue
        x, y = float(a), float(b)
        if not (abs(x - y) <= NUMERIC_TOL or (math.isnan(x) and math.isnan(y))):
            return False
    return True


def check_sweep(result: dict, workdir: Path) -> tuple[int, int, bool, list[str]]:
    if not SWEEP_REFERENCE.exists():
        raise CheckError(f"missing sweep reference {SWEEP_REFERENCE}")
    ref_header, ref_rows = _parse_csv(lzma.decompress(SWEEP_REFERENCE.read_bytes()).decode())
    verdict_cols = {k for k, name in enumerate(ref_header) if name.startswith("verdict_")}
    all_rows = set(range(len(ref_rows)))
    correct, notes = True, []
    bad: set[int] = set()
    bad_rows_by_csv: dict[str, set[int]] = {}
    first: tuple[str, list[list[str]]] | None = None  # sha256 and rows of the first good CSV
    for out in result["outputs"]:
        if out["exit"] != 0:
            bad |= all_rows
            notes.append(f"sweep exited {out['exit']}")
            continue
        header, rows = _parse_csv((workdir / out["csv"]).read_text())
        if header != ref_header or len(rows) != len(ref_rows):
            correct = False
            bad |= all_rows
            notes.append("sweep CSV header or row count differs from the reference")
            continue
        if out["csv"] not in bad_rows_by_csv:
            bad_rows_by_csv[out["csv"]] = {
                k for k, (row, ref) in enumerate(zip(rows, ref_rows)) if not _row_ok(row, ref, verdict_cols)
            }
        bad |= bad_rows_by_csv[out["csv"]]
        if first is None:
            first = out["sha256"], rows
        elif out["sha256"] != first[0]:
            correct = False
            notes.append("sweep CSV differs between repetitions")
            bad |= {k for k, (a, b) in enumerate(zip(rows, first[1])) if a != b}
    return len(ref_rows), len(bad), correct, notes


def check_campaign(result: dict) -> tuple[int, int, bool, list[str]]:
    count = result["reps"][0]["items"]
    correct, notes = True, []
    bad: set[int] = set()
    for out in result["outputs"]:
        if out["stdout"] is None:
            bad |= set(range(count))
            notes.append(f"campaign raised {out['exit']}")
            continue
        try:
            summary = json.loads(out["stdout"])
            passed, checks, violations = summary["passed"], summary["checks"], summary["violations"]
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckError(f"campaign output is not a summary: {exc}") from exc
        if out["exit"] != (0 if passed else 1):
            correct = False
            notes.append(f"campaign exit {out['exit']} with passed={passed}")
        for name, per_model in CAMPAIGN_CHECKS.items():
            samples = checks.get(name, {}).get("samples")
            if samples != count * per_model:
                correct = False
                notes.append(f"campaign check {name}: {samples} samples, expected {count * per_model}")
        bad |= {v["index"] for v in violations}
    return count, len(bad), correct, notes


def check_moment_sets(result: dict) -> tuple[int, int, bool, list[str]]:
    correct, notes = True, list(result["failure_examples"])
    if not result["same_failures"]:
        correct = False
        notes.append("the failed moment sets differ between repetitions")
    return result["reps"][0]["items"], len(result["failed_sets"]), correct, notes


# ---------------------------------------------------------------------------


def median_and_n(values: list[float]) -> dict:
    return {"value": statistics.median(values), "samples": len(values)}


def run(args, config: dict) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "mrtest" / "cli.py").exists() or not SHIPPED_SPEC.exists():
        print(f"bench: no mrtest sources under {SRC}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    host = host_record()
    section = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in config[section]}

    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_run") as tmp:
        workdir = Path(tmp)
        input_path = make_input(args.workload, args.seed, workdir)
        setup = [] if args.trace else measure_setup(args.workload, input_path, deadline)
        result_path = workdir / "result.json"
        proc = worker(
            [
                "run", "--workload", args.workload, "--input", str(input_path),
                "--workdir", str(workdir), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--per-layer", ",".join(wanted),
                "--trace-file", str(out_dir / f"trace-{args.workload}.npz"),
                "--out", str(result_path),
            ],
            deadline,
        )
        if proc.returncode != 0:
            raise CheckError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
        result = json.loads(result_path.read_text())
        if args.workload == "sweep_tau":
            attempted, failed, correct, notes = check_sweep(result, workdir)
        elif args.workload == "campaign_dim16":
            attempted, failed, correct, notes = check_campaign(result)
        else:
            attempted, failed, correct, notes = check_moment_sets(result)

    untraced = [r for r in result["reps"] if not r["traced"]]
    if args.trace:
        values = {n: {"value": v, "samples": result["per_layer_reps"]} for n, v in result["per_layer"].items()}
    else:
        values = {
            "items_per_s_norm": median_and_n(
                [r["items"] / r["seconds"] * r["kernel_s"] / REFERENCE_S for r in untraced]
            ),
            "setup_s": median_and_n([p["setup_s"] * REFERENCE_S / p["kernel_s"] for p in setup]),
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "samples": 1},
        }
    missing = set(wanted) - set(values)
    if missing:
        raise CheckError(f"no value for metric(s) {sorted(missing)}")
    metrics = {n: {"value": values[n]["value"], "unit": u} for n, u in wanted.items()}

    printed = {n: {**values[n], "unit": u} for n, u in wanted.items()}
    printed["items_per_s"] = {**median_and_n([r["items"] / r["seconds"] for r in untraced]), "unit": "items/s"}
    printed["host.kernel_s"] = {**median_and_n([r["kernel_s"] for r in untraced]), "unit": "s"}
    if setup:
        printed["setup_s.raw"] = {**median_and_n([p["setup_s"] for p in setup]), "unit": "s"}
    printed["error_rate"] = {"value": failed / attempted, "unit": "ratio", "samples": attempted}
    timed_sets = [r for r in untraced if "latency_us.p50" in r]
    if timed_sets:
        for q in ("latency_us.p50", "latency_us.p99"):
            printed[q] = {
                "value": statistics.median(r[q] for r in timed_sets),
                "unit": "us",
                "samples": sum(r["latency_samples"] for r in timed_sets),
            }
    host["loadavg_end"] = os.getloadavg()
    host["fixed_layout"] = result["fixed_layout"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "host": host, "metrics": printed, "setup_samples": setup, "reps": result["reps"],
        "attempted": attempted, "failed": failed, "correct": correct, "notes": notes,
    }
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {host['python']}  numpy {host['numpy']}  nproc {host['nproc']}  "
          f"cpu {host['cpu_model']}  fixed layout {host['fixed_layout']}  load {host['loadavg_start'][0]:.2f}->{host['loadavg_end'][0]:.2f}")
    for name, m in printed.items():
        print(f"  {name:38s} {m['value']:>14.6g} {m['unit']:8s} n={m['samples']}")
    for note in notes[:5]:
        print(f"  note: {note[:160]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def self_test() -> int:
    if not (SRC / "mrtest" / "cli.py").exists():
        print(f"bench: no mrtest sources under {SRC}", file=sys.stderr)
        return 2
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_run") as tmp:
        proc = worker(["selftest", "--workdir", tmp], time.monotonic() + RUN_LIMIT_S)
    print(proc.stdout, end="")
    print(proc.stderr, end="", file=sys.stderr)
    return proc.returncode


def main() -> int:
    parser = argparse.ArgumentParser(description="mrtest benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check the tracer's counts on tiny inputs")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    config_path = ROOT / "BENCHMARK.json"
    if not config_path.exists():
        print(f"bench: missing {config_path}", file=sys.stderr)
        return 2
    try:
        return run(args, json.loads(config_path.read_text()))
    except (CheckError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
