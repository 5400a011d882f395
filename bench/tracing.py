"""
In-memory span tracer for the benchmark's traced runs.

A span wraps one call of a gearboxopt function at its call site: the
tracer replaces the name bound in the caller's module (for example
``gearboxopt.search.planetary_efficiency``) and puts the original back
on ``restore``. Each span records its name, start, end and parent
span; generator functions get one span whose busy time counts only the
time spent inside the generator, not in the loop that consumes it.
Spans stay in memory until ``save`` writes them out.
"""

import functools
import importlib
import inspect
import statistics
from time import perf_counter

import numpy as np

NO_PARENT = -1


def _feasible(args, result):
    return bool(result.feasible)


def _tooth_pair(args, result):
    design = args[0]
    return (design.sun_teeth, design.planet_teeth)


# (module, attribute, span name, note). A note records the per-call
# value a layer metric needs: the feasible flag of an evaluation, the
# (N_s, N_p) pair an efficiency call sees.
CALL_SITES = [
    ("gearboxopt.search", "evaluate", "search.evaluate", _feasible),
    ("gearboxopt.search", "planetary_efficiency",
     "efficiency.planetary_efficiency", _tooth_pair),
    ("gearboxopt.search", "face_width", "strength.face_width", None),
    ("gearboxopt.search", "actuator_mass", "mass.actuator_mass", None),
    ("gearboxopt.search", "constraint_failures",
     "geometry.constraint_failures", None),
    ("gearboxopt.search", "enumerate_feasible", "search.enumerate_feasible",
     None),
    ("gearboxopt.search", "diagnose_empty_bin", "search.diagnose_empty_bin",
     None),
    ("gearboxopt.cli", "optimize_bins", "search.optimize_bins", None),
    ("gearboxopt.cli", "compare_architectures",
     "search.compare_architectures", None),
    ("gearboxopt.cli", "run_sweep", "cli.run_sweep", None),
    ("gearboxopt.cli", "load_config", "cli.load_config", None),
    ("gearboxopt.cli", "load_bearing_model", "mass.load_bearing_model", None),
    ("gearboxopt.mass", "load_bearing_model", "mass.load_bearing_model",
     None),
]


class Tracer:
    """Records spans of wrapped calls; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.busy: list[float] = []     # end - start, or generator busy time
        self.parents: list[int] = []
        self.notes: list = []           # per-span value, or item count
        self._stack = [NO_PARENT]
        self._patches: list[tuple] = []

    def _open(self, name: str) -> int:
        index = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.notes.append(None)
        self.ends.append(0.0)
        self.busy.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self, index: int, busy: float = None) -> None:
        end = perf_counter()
        self._stack.pop()
        self.ends[index] = end
        self.busy[index] = end - self.starts[index] if busy is None else busy

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper; do nothing
        when the attribute does not exist."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        if inspect.isgeneratorfunction(original):
            wrapper = self._generator_wrapper(original, name)
        else:
            wrapper = self._call_wrapper(original, name, note)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _call_wrapper(self, original, name, note):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if note is not None:
                tracer.notes[index] = note(args, result)
            return result
        return traced

    def _generator_wrapper(self, original, name):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            # the body runs at the first next(), so the parent is the
            # span that consumes the generator
            index = tracer._open(name)
            tracer._stack.pop()
            busy = 0.0
            count = 0
            inner = original(*args, **kwargs)
            try:
                while True:
                    tracer._stack.append(index)
                    started = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        break
                    finally:
                        busy += perf_counter() - started
                        tracer._stack.pop()
                    count += 1
                    yield item
            finally:
                inner.close()
                tracer._stack.append(index)
                tracer._close(index, busy)
                tracer.notes[index] = count
        return traced

    def install(self) -> None:
        """Wrap every call site in CALL_SITES that this version has."""
        for module_name, attr, name, note in CALL_SITES:
            self.wrap(importlib.import_module(module_name), attr, name, note)

    def restore(self) -> None:
        """Put every original function back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def save(self, path) -> None:
        """Write all spans as numpy arrays (name table plus columns)."""
        table = sorted(set(self.names))
        code = {name: i for i, name in enumerate(table)}
        np.savez(path, names=np.array(table),
                 name=np.array([code[n] for n in self.names], dtype=np.int32),
                 start=np.array(self.starts), end=np.array(self.ends),
                 busy=np.array(self.busy),
                 parent=np.array(self.parents, dtype=np.int64))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of everything recorded so far."""
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        child_busy = [0.0] * len(self.names)
        for name, busy, parent in zip(self.names, self.busy, self.parents):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + busy
            if parent != NO_PARENT:
                child_busy[parent] += busy

        def self_s(span_name):
            return sum(busy - child for name, busy, child
                       in zip(self.names, self.busy, child_busy)
                       if name == span_name)

        def notes_of(span_name):
            return [note for name, note in zip(self.names, self.notes)
                    if name == span_name]

        def per_call_us(span_name):
            count = calls.get(span_name, 0)
            return total[span_name] / count * 1e6 if count else 0.0

        scanned = sum(1 for name, parent in zip(self.names, self.parents)
                      if name == "geometry.constraint_failures"
                      and parent != NO_PARENT
                      and self.names[parent] == "search.diagnose_empty_bin")
        enumerated = sum(notes_of("search.enumerate_feasible"))
        enumerate_s = total.get("search.enumerate_feasible", 0.0)
        feasible = notes_of("search.evaluate")
        bearing_calls = calls.get("mass.load_bearing_model", 0)
        return {
            "search.diagnose_empty_bin.calls":
                calls.get("search.diagnose_empty_bin", 0),
            "search.diagnose_empty_bin.s":
                total.get("search.diagnose_empty_bin", 0.0),
            "search.diagnose_empty_bin.designs_scanned": scanned,
            "search.enumerate_feasible.designs": enumerated,
            "search.enumerate_feasible.s": enumerate_s,
            "search.enumerate_feasible.us_per_design":
                enumerate_s / enumerated * 1e6 if enumerated else 0.0,
            "search.evaluate.calls": len(feasible),
            "search.evaluate.s": total.get("search.evaluate", 0.0),
            "search.evaluate.us_per_call": per_call_us("search.evaluate"),
            "search.evaluate.feasible_ratio":
                sum(feasible) / len(feasible) if feasible else 0.0,
            "efficiency.planetary_efficiency.calls":
                calls.get("efficiency.planetary_efficiency", 0),
            "efficiency.planetary_efficiency.us_per_call":
                per_call_us("efficiency.planetary_efficiency"),
            "efficiency.planetary_efficiency.distinct_tooth_pairs":
                len(set(notes_of("efficiency.planetary_efficiency"))),
            "strength.face_width.calls": calls.get("strength.face_width", 0),
            "strength.face_width.us_per_call":
                per_call_us("strength.face_width"),
            "mass.actuator_mass.calls": calls.get("mass.actuator_mass", 0),
            "mass.actuator_mass.us_per_call":
                per_call_us("mass.actuator_mass"),
            "geometry.constraint_failures.calls":
                calls.get("geometry.constraint_failures", 0),
            "geometry.constraint_failures.us_per_call":
                per_call_us("geometry.constraint_failures"),
            "search.optimize_bins.s": total.get("search.optimize_bins", 0.0),
            "search.optimize_bins.self_s": self_s("search.optimize_bins"),
            "search.compare_architectures.s":
                total.get("search.compare_architectures", 0.0),
            "cli.run_sweep.self_s": self_s("cli.run_sweep"),
            "cli.load_config.s": total.get("cli.load_config", 0.0),
            "mass.load_bearing_model.s":
                statistics.median(
                    busy for name, busy in zip(self.names, self.busy)
                    if name == "mass.load_bearing_model")
                if bearing_calls else 0.0,
        }
