"""Outside-in tracer for paulidelta: times and counts calls into public functions.

``Tracer.installed()`` rebinds each traced function in every paulidelta module
that holds it (``bounds.evolve_pauli``, ``simulate.gate_ptm``,
``cli.InputPair``, ...), and a method on its class, then restores the
originals.  Spans nest: a span's self time is its duration minus the
durations of the traced spans it encloses, so the self times of all spans
inside ``cli.main`` plus the self time of ``cli.main`` add up to its duration.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute, span name)
TARGETS = (
    ("paulidelta.cli", "main", "cli.main"),
    ("paulidelta.circuit", "circuit_from_json", "circuit.load"),
    ("paulidelta.circuit", "Circuit.prefix", "circuit.prefix"),
    ("paulidelta.circuit", "enumerate_consistent_sets", "circuit.enumerate"),
    ("paulidelta.circuit", "is_consistent", "circuit.is_consistent"),
    ("paulidelta.channels", "gate_ptm", "channels.gate_ptm"),
    ("paulidelta.paulis", "coeffs_from_op", "paulis.coeffs_from_op"),
    ("paulidelta.simulate", "InputPair", "simulate.input_pair"),
    ("paulidelta.simulate", "evolve_pauli", "simulate.evolve_pauli"),
    ("paulidelta.simulate", "min_cut", "simulate.min_cut"),
    ("paulidelta.simulate", "restrict_coeffs", "simulate.restrict"),
    ("paulidelta.simulate", "sample_output_difference", "simulate.sample"),
    ("paulidelta.bounds", "decay_table", "bounds.decay_table"),
    ("paulidelta.bounds", "audit_invariant", "bounds.audit"),
)
# Generators do their work while iterated, so each next() is a span.
GENERATORS = {"circuit.enumerate"}
# Spans whose arguments or result feed a counter in Tracer._count.
COUNTED = {"simulate.evolve_pauli", "paulis.coeffs_from_op", "simulate.sample", "bounds.audit"}
# Nothing is traced inside a leaf span: builtins recurse into gate_ptm, and
# the small basis transforms of a PTM build are part of the build.
LEAVES = {"channels.gate_ptm"}


def _paulidelta_modules():
    return [
        m for name, m in list(sys.modules.items())
        if name == "paulidelta" or name.startswith("paulidelta.")
    ]


def snapshot() -> dict:
    """Every attribute of every loaded paulidelta module and of its classes."""
    out = {}
    for mod in _paulidelta_modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    out[(mod.__name__, key, attr)] = member
    return out


def unpatched(before: dict) -> bool:
    """Whether every attribute in ``before`` is again the same object."""
    after = snapshot()
    return all(after.get(key) is value for key, value in before.items())


class Tracer:
    """Per-span call counts and total/self times, plus workload counters."""

    def __init__(self, n: int):
        self.n = n  # coeffs_from_op on a 2^n x 2^n operator is the delta transform
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, start, time in child spans]
        self._leaf_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def installed(self):
        try:
            for module_name, attr, name in TARGETS:
                self._install(importlib.import_module(module_name), attr, name)
            yield self
        finally:
            for owner, key, original in reversed(self._patches):
                setattr(owner, key, original)
            self._patches.clear()

    def _install(self, module, attr: str, name: str) -> None:
        owner_name, _, key = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            self._patch(owner, key, self._wrap(name, getattr(owner, key)))
            return
        original = getattr(module, key)
        wrapper = self._wrap(name, original)
        for mod in _paulidelta_modules():
            for alias, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, alias, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        leaf = name in LEAVES

        if name in GENERATORS:
            def traced(*args, **kwargs):
                if self._leaf_depth:
                    return fn(*args, **kwargs)
                return self._iterate(name, fn(*args, **kwargs))
            return traced

        def traced(*args, **kwargs):
            if self._leaf_depth:
                return fn(*args, **kwargs)
            parent = self._stack[-1][0] if self._stack else None
            frame = [name, time.perf_counter(), 0.0]
            self._stack.append(frame)
            self._leaf_depth += leaf
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leaf_depth -= leaf
                duration = self._close(frame)
            if name in COUNTED:
                arguments = signature.bind(*args, **kwargs).arguments
                self._count(name, arguments, result, duration, parent)
            return result

        return traced

    def _iterate(self, name: str, gen):
        while True:
            frame = [name, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(frame)
            self.counts["sets_yielded"] += 1
            yield item

    def _close(self, frame: list) -> float:
        name, start, child = frame
        duration = time.perf_counter() - start
        self._stack.pop()
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def _count(self, name: str, args: dict, result, duration: float, parent) -> None:
        if name == "simulate.evolve_pauli":
            gates = len(args["cut"])
            self.counts["gates_applied"] += gates
            self.counts["coeff_gates"] += gates * 4 ** args["circ"].n
            if parent == "bounds.audit":
                self.counts["distinct_cuts"] += 1  # audit evolves each distinct cut once
        elif name == "paulis.coeffs_from_op":
            if len(args["op"]) == 2**self.n:
                self.counts["delta_transforms"] += 1
                self.counts["delta_transform_s"] += duration
        elif name == "simulate.sample":
            circ, shots = args["circ"], args["shots"]
            placements = sum(len(level) for level in circ.levels)
            self.counts["trajectories"] += 2 * shots
            self.counts["trajectory_gates"] += 2 * shots * placements
        elif name == "bounds.audit":
            self.counts["sets_audited"] += len(result.records)

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }
