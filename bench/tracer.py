"""Per-layer spans recorded from outside the program.

The tracer wraps the public functions, the public methods and the
construction (``__post_init__``) of the public classes of the six layer
modules.  A function imported with ``from ... import`` is bound in every
module that imported it, so each binding found in a loaded ``mrtest``
module is replaced; wrapping only the defining module would miss the calls
made through the other bindings.

Spans (name, start, end, parent, repetition) live in flat arrays in memory
and are written out once, when the run ends.  Nothing is added to the
program itself.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

LAYERS = ("quantum", "measurement", "conditions", "fine", "harness", "cli")

# Accessors and tiny helpers whose whole body costs less than a span does.
# Their time stays with the caller's span.
NOT_SPANS = frozenset(
    {
        "quantum.QuantumModel.check_time_index",
        "quantum.QuantumModel.projector_at",
        "measurement.outcomes",
        "measurement.outcome_key",
        "measurement.outcome_from_key",
        "measurement.pair_set",
        "measurement.ProbabilityTable.weight",
        "measurement.MomentSet.corr",
        "measurement.ContextualMoments.value",
        "conditions.Check.ge",
        "conditions.Check.eq",
        "conditions.ConditionReport.check",
        "harness.CheckStats.record",
        "harness.CampaignSummary.stats",
        "harness.CampaignSummary.record",
    }
)

# Spans whose result carries a ``feasible`` flag.
FEASIBILITY = frozenset({"fine.d_interval", "fine.lp_feasibility"})


def _targets():
    """Yield (span name, owner, attribute, original) for every traced callable.

    ``owner`` is the class for methods and None for module-level functions,
    whose bindings are found separately.
    """
    for layer in LAYERS:
        module = importlib.import_module(f"mrtest.{layer}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{layer}.{name}", None, name, obj
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for attr, member in vars(obj).items():
                    if attr == "__post_init__":
                        yield f"{layer}.{name}", obj, attr, member
                    elif not attr.startswith("_") and (
                        inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod))
                    ):
                        yield f"{layer}.{name}.{attr}", obj, attr, member


class Tracer:
    """Installs span-recording wrappers and turns spans into layer metrics."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.sid: array = array("H")
        self.start: array = array("q")
        self.end: array = array("q")
        self.parent: array = array("q")
        self.rep: array = array("H")
        self.feasible: Counter = Counter()
        self._stack = [-1]
        self._rep = 0
        self._patches: list[tuple[object, str, object, object]] = []
        self.codes: dict[object, str] = {}

        targets = list(_targets())  # imports every layer module first
        packages = [m for n, m in sys.modules.items() if n == "mrtest" or n.startswith("mrtest.")]
        for span, owner, attr, original in targets:
            if span in NOT_SPANS:
                continue
            fn = original.__func__ if isinstance(original, (classmethod, staticmethod)) else original
            self.codes[fn.__code__] = span
            wrapper = self._wrap(fn, len(self.names), span in FEASIBILITY)
            self.names.append(span)
            if owner is not None:
                if isinstance(original, classmethod):
                    wrapper = classmethod(wrapper)
                elif isinstance(original, staticmethod):
                    wrapper = staticmethod(wrapper)
                self._patches.append((owner, attr, original, wrapper))
                continue
            for module in packages:
                for bound, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, bound, original, wrapper))

    def _wrap(self, fn, sid: int, records_feasible: bool):
        stack, sids, starts, ends, parents, reps = (
            self._stack, self.sid, self.start, self.end, self.parent, self.rep,
        )
        feasible = self.feasible
        tracer = self

        def span(*args, **kwargs):
            idx = len(starts)
            sids.append(sid)
            parents.append(stack[-1])
            reps.append(tracer._rep)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if records_feasible:
                feasible[(tracer._rep, bool(result.feasible))] += 1
            return result

        return span

    def install(self, rep: int) -> None:
        self._rep = rep
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def spans_arrays(self) -> dict[str, np.ndarray]:
        return {
            "sid": np.frombuffer(self.sid, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "rep": np.frombuffer(self.rep, dtype=np.uint16).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.spans_arrays())

    def rep_stats(self, rep: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds (inclusive) and self seconds."""
        a = self.spans_arrays()
        dur = (a["end"] - a["start"]).astype(float) * 1e-9
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        own = dur - child
        mask = a["rep"] == rep
        n = len(self.names)
        calls = np.bincount(a["sid"][mask], minlength=n)
        busy = np.bincount(a["sid"][mask], weights=dur[mask], minlength=n)
        selfs = np.bincount(a["sid"][mask], weights=own[mask], minlength=n)
        return {
            name: {"calls": int(calls[k]), "s": float(busy[k]), "self_s": float(selfs[k])}
            for k, name in enumerate(self.names)
        }

    def feasible_share(self, rep: int) -> float:
        yes, no = self.feasible[(rep, True)], self.feasible[(rep, False)]
        return yes / (yes + no) if yes + no else 0.0


def count_calls(tracer: Tracer, run) -> tuple[Counter, Counter]:
    """Run ``run`` traced and, independently, under a profile hook.

    Returns (calls seen by the tracer, calls seen by the profile hook) per
    span name.  The hook counts every execution of each traced function's
    code, whichever binding it was called through, so a binding the tracer
    missed shows as a difference.  ``tracer`` must be fresh.
    """
    seen: Counter = Counter()
    codes = tracer.codes

    def hook(frame, event, arg):
        if event == "call":
            name = codes.get(frame.f_code)
            if name is not None:
                seen[name] += 1

    tracer.install(rep=0)
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
        tracer.uninstall()
    return Counter(tracer.names[k] for k in tracer.sid), seen
