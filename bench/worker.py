"""One benchmark process: a set-up probe, a measured workload, or the
tracer self-test.

    worker.py setup    --src DIR --workload W --input FILE
    worker.py run      --src DIR --workload W --input FILE --workdir DIR
                       --seconds S --trace 0|1 --out FILE
                       [--per-layer NAMES --trace-file FILE]
    worker.py selftest --src DIR --workdir DIR

Nothing from ``mrtest`` is imported at module level: the set-up probe times
that import in a fresh process.  Workloads are closed-loop, one command or
call at a time, in this single process.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

CAMPAIGN_COUNT = 50
CAMPAIGN_DIM = 16
WITNESS_TOL = 1e-9


# ---------------------------------------------------------------------------
# workloads: ``run`` is the timed part, ``record`` checks or stores its output


class SweepTau:
    """``mrtest sweep`` on the 2000-step tau spec; the CSV is kept per hash."""

    def __init__(self, spec: Path, workdir: Path) -> None:
        self.spec, self.workdir = spec, workdir
        self.items = json.loads(spec.read_text())["steps"]
        self.csv = workdir / "sweep.csv"
        self.outputs: list[dict] = []

    def run(self):
        import mrtest.cli

        return mrtest.cli.main(["sweep", "--spec", str(self.spec), "--out", str(self.csv)])

    def record(self, rc) -> dict:
        if isinstance(rc, Exception) or not self.csv.exists():
            self.outputs.append({"exit": repr(rc), "csv": None, "sha256": None})
            return {"csv_bytes": 0}
        data = self.csv.read_bytes()
        self.csv.unlink()
        digest = hashlib.sha256(data).hexdigest()
        kept = self.workdir / f"sweep-{digest[:16]}.csv"
        if not kept.exists():
            kept.write_bytes(data)
        self.outputs.append({"exit": rc, "csv": kept.name, "sha256": digest})
        return {"csv_bytes": len(data)}


class CampaignDim16:
    """``mrtest campaign`` on 50 distinct dim-16 models; stdout is kept."""

    def __init__(self, seed: int, count: int) -> None:
        dim = str(CAMPAIGN_DIM)
        self.argv = ["campaign", "--seed", str(seed), "--count", str(count), "--dim-min", dim, "--dim-max", dim]
        self.items = count
        self.outputs: list[dict] = []

    def run(self):
        import mrtest.cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = mrtest.cli.main(self.argv)
        return rc, out.getvalue()

    def record(self, result) -> dict:
        if isinstance(result, Exception):
            self.outputs.append({"exit": repr(result), "stdout": None})
        else:
            rc, text = result
            self.outputs.append({"exit": rc, "stdout": text})
        return {}


class MomentSets:
    """Per set: build the MomentSet as ``check``/``fine`` do, then mr_weak and
    d_interval (3 times) or lp_feasibility (4 times), each set timed alone."""

    def __init__(self, sets: list[dict]) -> None:
        self.sets = sets
        self.items = len(sets)
        self.failing: list[frozenset[int]] = []  # indices of the failed sets, per repetition
        self.failure_examples: list[str] = []

    def run(self):
        import mrtest

        from_jsonable = mrtest.MomentSet.from_jsonable
        mr_weak, d_interval, lp_feasibility = mrtest.mr_weak, mrtest.d_interval, mrtest.lp_feasibility
        clock = time.perf_counter_ns
        latencies, results = [], []
        for obj in self.sets:
            t0 = clock()
            try:
                m = from_jsonable(obj)
                weak = mr_weak(m)
                fine = d_interval(m) if m.n_times == 3 else lp_feasibility(m)
                out = (weak.verdict, fine)
            except Exception as exc:  # a failed set is counted, the run goes on
                out = exc
            latencies.append(clock() - t0)
            results.append(out)
        return latencies, results

    def record(self, result) -> dict:
        if isinstance(result, Exception):
            self.failing.append(frozenset(range(len(self.sets))))
            self.failure_examples.append(f"repetition raised {result!r}")
            return {"failed": len(self.sets)}
        latencies, results = result
        bad = set()
        for k, (obj, out) in enumerate(zip(self.sets, results)):
            problem = self._problem(obj, out)
            if problem:
                bad.add(k)
                if len(self.failure_examples) < 5:
                    self.failure_examples.append(f"{problem}: {json.dumps(obj)}")
        self.failing.append(frozenset(bad))
        us = sorted(t / 1000.0 for t in latencies)
        cuts = statistics.quantiles(us, n=100, method="inclusive")
        return {
            "failed": len(bad),
            "latency_us.p50": cuts[49],
            "latency_us.p99": cuts[98],
            "latency_samples": len(us),
        }

    def summary(self) -> dict:
        """The sets that failed in any repetition, and whether every
        repetition failed the same sets."""
        return {
            "failed_sets": sorted(frozenset().union(*self.failing)),
            "same_failures": len(set(self.failing)) <= 1,
            "failure_examples": self.failure_examples,
        }

    @staticmethod
    def _problem(obj: dict, out) -> str | None:
        if isinstance(out, Exception):
            return f"exception {type(out).__name__}: {out}"
        weak, fine = out
        if weak != fine.feasible:
            return f"mr_weak verdict {weak} but feasibility {fine.feasible}"
        if not fine.feasible:
            return None
        if fine.witness_table is None:
            return "feasible without a witness table"
        weights = fine.witness_table.to_jsonable()["weights"]
        n = obj["n"]
        want = list(obj["avg"]) + list(obj["corr"])
        got = [0.0] * len(want)
        for key, w in weights.items():
            s = [1 if ch == "+" else -1 for ch in key]
            for i in range(n):
                got[i] += w * s[i]
            for k, (i, j) in enumerate(obj["pairs"]):
                got[n + k] += w * s[i - 1] * s[j - 1]
        miss = max(abs(a - b) for a, b in zip(got, want))
        if miss > WITNESS_TOL:
            return f"witness table misses the moments by {miss:.3e}"
        return None


def make_workload(workload: str, input_path: Path, workdir: Path, tiny: bool = False):
    if workload == "sweep_tau":
        return SweepTau(input_path, workdir)
    if workload == "campaign_dim16":
        seed = json.loads(input_path.read_text())["seed"]
        return CampaignDim16(seed, 2 if tiny else CAMPAIGN_COUNT)
    sets = json.loads(input_path.read_text())
    return MomentSets(sets[:200] if tiny else sets)


# ---------------------------------------------------------------------------
# per-layer metrics from the traced repetitions


def layer_metrics(names: list[str], stats: dict, items: int, extra: dict) -> dict[str, float]:
    """Turn span statistics of one repetition into the named metrics.

    ``<layer>.self_s`` sums the self time of the layer's spans;
    ``<span>.calls`` and ``<span>.s`` are the span's calls and busy seconds.
    """
    values: dict[str, float] = {}
    for name in names:
        base, _, kind = name.rpartition(".")
        if name in extra:
            values[name] = extra[name]
        elif kind == "self_s":
            values[name] = sum(v["self_s"] for k, v in stats.items() if k.startswith(base + "."))
        elif kind in ("calls", "s"):
            values[name] = stats.get(base, {}).get(kind, 0)
        elif name == "quantum.eig_per_item":
            values[name] = stats.get("quantum.eig_hermitian", {}).get("calls", 0) / items
        elif name == "measurement.tables_per_item":
            values[name] = stats.get("measurement.ProbabilityTable", {}).get("calls", 0) / items
        else:
            raise SystemExit(f"no rule computes per-layer metric {name!r}")
    return values


def traced_calls(tiny) -> tuple[dict, dict]:
    """Run a tiny workload traced and under the profile hook.

    Returns the tracer's call count per span and every span whose count
    differs from the hook's, as (traced, executed): a missed binding.
    """
    from tracer import Tracer, count_calls

    traced, seen = count_calls(Tracer(), lambda: tiny.record(tiny.run()))
    missed = {k: (traced[k], v) for k, v in seen.items() if traced[k] != v}
    return traced, missed


def _tiny_input(workload: str, input_path: Path, workdir: Path) -> Path:
    if workload != "sweep_tau":
        return input_path
    spec = json.loads(input_path.read_text())
    spec["steps"] = 5
    path = workdir / "tiny_spec.json"
    path.write_text(json.dumps(spec))
    return path


# ---------------------------------------------------------------------------
# modes


def cmd_setup(args) -> int:
    t0 = time.perf_counter()
    import mrtest
    import mrtest.cli

    if args.workload == "sweep_tau":
        mrtest.load_sweep_spec(args.input)
    else:
        mrtest.cli.build_parser()
    elapsed = time.perf_counter() - t0
    from hostspeed import kernel_seconds

    print(json.dumps({"setup_s": elapsed, "kernel_s": kernel_seconds()}))
    return 0


def fixed_layout() -> bool:
    """Whether this process runs without address-space randomization."""
    try:
        return bool(ctypes.CDLL(None).personality(0xFFFFFFFF) & 0x0040000)  # ADDR_NO_RANDOMIZE
    except (OSError, AttributeError):
        return False


def cmd_run(args) -> int:
    workdir = Path(args.workdir)
    work = make_workload(args.workload, Path(args.input), workdir)
    tiny = make_workload(
        args.workload, _tiny_input(args.workload, Path(args.input), workdir), workdir, tiny=True
    )
    tiny.record(tiny.run())  # warm-up, not measured

    tracer = None
    if args.trace:
        from tracer import Tracer

        _, missed = traced_calls(tiny)
        if missed:
            raise SystemExit(f"tracer missed calls (traced, executed): {missed}")
        tracer = Tracer()

    from hostspeed import kernel_seconds

    kernel_seconds()  # warm-up, not measured
    kernel = [kernel_seconds()]
    reps: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(reps) % 2 == 1
        if traced:
            tracer.install(rep=len(reps))
        t0 = time.perf_counter()
        try:
            raw = work.run()
        except Exception as exc:  # every item of this repetition counts as failed
            raw = exc
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        kernel.append(kernel_seconds())
        # host speed around this repetition: the kernel just before and after it
        rep = {"seconds": elapsed, "items": work.items, "traced": traced, "kernel_s": (kernel[-2] + kernel[-1]) / 2}
        rep.update(work.record(raw))
        reps.append(rep)
        enough = len(reps) >= (2 if tracer else 1)
        if enough and time.perf_counter() - start >= args.seconds:
            break

    result = {
        "reps": reps,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "fixed_layout": fixed_layout(),
        "outputs": getattr(work, "outputs", None),
    }
    if isinstance(work, MomentSets):
        result.update(work.summary())
    if tracer is not None:
        names = args.per_layer.split(",")
        rate = {
            t: statistics.median(r["items"] / r["seconds"] * r["kernel_s"] for r in reps if r["traced"] == t)
            for t in (False, True)
        }
        per_rep = []
        for k, rep in enumerate(reps):
            if rep["traced"]:
                extra = {
                    "fine.feasible_share": tracer.feasible_share(k),
                    "harness.write_sweep_csv.bytes": rep.get("csv_bytes", 0),
                    "trace.overhead_share": 1.0 - rate[True] / rate[False],
                }
                per_rep.append(layer_metrics(names, tracer.rep_stats(k), rep["items"], extra))
        result["per_layer"] = {n: statistics.median(r[n] for r in per_rep) for n in names}
        result["per_layer_reps"] = len(per_rep)
        tracer.save(Path(args.trace_file))
    Path(args.out).write_text(json.dumps(result))
    return 0


# Counts at the commit that defined the benchmark, for the tiny inputs.
PINNED_COUNTS = {
    "sweep_tau": {"quantum.eig_hermitian": 11, "measurement.measure_all": 5, "measurement.ProbabilityTable": 85},
    "campaign_dim16": {"quantum.eig_hermitian": 4, "measurement.measure_all": 2, "measurement.ProbabilityTable": 90},
}


def cmd_selftest(args) -> int:
    from inputs import sweep_spec

    workdir = Path(args.workdir)
    spec = workdir / "spec.json"
    spec.write_text(json.dumps(sweep_spec(Path(args.src) / "mrtest" / "data" / "tau_sweep_lg3.json")))
    seed = workdir / "campaign.json"
    seed.write_text(json.dumps({"seed": 1}))
    ok = True
    for workload, path in (("sweep_tau", spec), ("campaign_dim16", seed)):
        tiny = make_workload(workload, _tiny_input(workload, path, workdir), workdir, tiny=True)
        traced, missed = traced_calls(tiny)
        for name, want in PINNED_COUNTS[workload].items():
            got = traced[name]
            ok &= got == want
            status = "ok" if got == want else "MISMATCH"
            print(f"{workload:15s} {name:30s} traced {got:4d}  expected {want:4d}  {status}")
        ok &= not missed
        print(f"{workload:15s} spans missed against the profile hook: {missed or 'none'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "selftest"))
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload")
    parser.add_argument("--input")
    parser.add_argument("--workdir")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--per-layer", default="")
    parser.add_argument("--trace-file")
    parser.add_argument("--out")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    return {"setup": cmd_setup, "run": cmd_run, "selftest": cmd_selftest}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
