"""Noise thresholds and the per-level shrink invariant.

For noise strengths above threshold there is a theta < 1 such that every
consistent set V of a leveled noisy circuit satisfies

    Tr(delta_V^2) <= 2 * theta^dist(V)

for the evolved difference delta of any two input states.  The minimal
theta permitted by the constraint system is computed here, the invariant
is audited numerically over enumerated consistent sets, and the resulting
output-distinguishability bound theta^(T/2) is exposed for decay
experiments.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuit import Circuit, ConsistentSet, NoiseModel, enumerate_consistent_sets
from .paulis import sum_of_squares
from .simulate import BasisPair, InputPair, check_pair, distinguishability_by_depth, evolve_cuts, reduced_delta
from .simulate import evolve_pauli  # noqa: F401 (perfbench/selftest.py reads bounds.evolve_pauli)

MARGIN_TOL = 1e-9

# Human-readable forms of the constraints bounding theta from below.
CONSTRAINT_FORMULAS = {
    "k-gate": "(1+mu^2)^k <= 2*theta",
    "one-qubit": "1+(1-eps1)^2 <= 2*theta",
    "cnot": "(1+mu^2)/2 + mu^4 <= theta",
}


def check_k(k: int, cnot_only: bool = False) -> None:
    """Raise unless k is a gate arity the constraints cover in this mode."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if cnot_only and k != 2:
        raise ValueError("the CNOT refinement applies only to k=2")


def epsk_threshold(k: int) -> float:
    """Noise level 1 - sqrt(2^(1/k) - 1) above which the k-gate constraint
    admits a theta < 1, to full precision at any k (``1 / k`` never overflows)."""
    check_k(k)
    return 1.0 - math.sqrt(math.expm1(math.log(2) * (1 / k)))


def cnot_threshold() -> float:
    """The improved two-qubit threshold 1 - 1/sqrt(2) when CNOT is the only
    multi-qubit gate."""
    return 1.0 - 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class ThetaResult:
    """Minimal theta satisfying the active constraints; feasible iff < 1."""

    theta: float
    feasible: bool
    binding_constraint: str


def theta_for(noise: NoiseModel, k: int, cnot_only: bool = False) -> ThetaResult:
    """Minimal theta for a noise model.

    General mode takes the larger of (1+mu^2)^k / 2 (mu = 1 - epsk) and
    (1+(1-eps1)^2) / 2.  CNOT mode (k=2 only) replaces the first expression
    with (1+mu^2)/2 + mu^4.
    """
    check_k(k, cnot_only)
    mu = 1.0 - noise.epsk
    one_qubit = (1.0 + (1.0 - noise.eps1) ** 2) / 2.0
    if cnot_only:
        gate_expr, gate_tag = (1.0 + mu**2) / 2.0 + mu**4, "cnot"
    else:
        try:
            gate_expr = (1.0 + mu**2) ** k / 2.0
        except OverflowError:  # past the float range, so far past 1
            gate_expr = math.inf
        gate_tag = "k-gate"
    if gate_expr >= one_qubit:
        theta, binding = gate_expr, gate_tag
    else:
        theta, binding = one_qubit, "one-qubit"
    return ThetaResult(theta, theta < 1.0, binding)


def decay_bound(theta: float, T: int) -> float:
    """theta^(T/2): upper bound on output distinguishability after T levels."""
    return theta ** (T / 2.0)


def sweep(
    eps1_values, epsk_values, k: int, cnot_only: bool = False
) -> list[tuple[float, float, ThetaResult]]:
    """theta over a noise grid, eps1 outer and epsk inner, in given order."""
    return [
        (e1, ek, theta_for(NoiseModel(e1, ek), k, cnot_only))
        for e1 in eps1_values
        for ek in epsk_values
    ]


@dataclass
class InvariantRecord:
    """One audited consistent set: lhs = Tr(delta_V^2), rhs = 2*theta^dist."""

    qubits: tuple[tuple[int, int], ...]
    dist: float
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs + MARGIN_TOL


class _Records(Sequence):
    """A report's rows as InvariantRecords.  Its length is the report's;
    the records are built when the first one is read."""

    def __init__(self, report: "InvariantReport"):
        self._report = report

    @cached_property
    def _built(self) -> list[InvariantRecord]:
        return list(map(self._report.record, range(len(self._report))))

    def __len__(self) -> int:
        return len(self._report)

    def __getitem__(self, i):
        return self._built[i]

    def __eq__(self, other) -> bool:
        return self._built == (other._built if isinstance(other, _Records) else other)


@dataclass(eq=False)
class InvariantReport:
    """The audit as columns, one row per set in enumeration order: each
    row's :class:`ConsistentSet`, and float64 columns of its dist, lhs =
    Tr(delta_V^2) and rhs = 2*theta^dist.  Two reports are equal when their
    theta, sets and columns are."""

    theta: float
    sets: list[ConsistentSet]
    dist: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray

    def __len__(self) -> int:
        return len(self.sets)

    def __eq__(self, other) -> bool:
        if not isinstance(other, InvariantReport):
            return NotImplemented
        return (self.theta, self.sets) == (other.theta, other.sets) and all(
            np.array_equal(a, b) for a, b in ((self.dist, other.dist), (self.lhs, other.lhs), (self.rhs, other.rhs))
        )

    def record(self, i: int) -> InvariantRecord:
        """Row i as an :class:`InvariantRecord`."""
        return InvariantRecord(self.sets[i].refs, float(self.dist[i]), float(self.lhs[i]), float(self.rhs[i]))

    @cached_property
    def records(self) -> Sequence[InvariantRecord]:
        return _Records(self)

    @property
    def passed(self) -> np.ndarray:
        return self.lhs <= self.rhs + MARGIN_TOL

    @property
    def all_pass(self) -> bool:
        return bool(self.passed.all())

    @property
    def failures(self) -> list[InvariantRecord]:
        """The failing rows' records, in row order."""
        return [self.record(i) for i in np.flatnonzero(~self.passed)]

    @property
    def worst(self) -> InvariantRecord | None:
        """The first non-empty set of smallest margin.  The empty set has
        lhs = rhs = 0, so its margin of 0 says nothing and is skipped."""
        rows = np.flatnonzero(np.isfinite(self.dist))
        return self.record(rows[np.argmin(self.rhs[rows] - self.lhs[rows])]) if len(rows) else None

    @property
    def min_margin(self) -> float:
        """The worst set's margin; infinity when no non-empty set was audited."""
        worst = self.worst
        return math.inf if worst is None else worst.margin


def _check_theta(theta: float) -> None:
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")


def invariant_check(
    circ: Circuit, pair: InputPair | BasisPair, vset: ConsistentSet, theta: float
) -> InvariantRecord:
    """Audit one consistent set against Tr(delta_V^2) <= 2*theta^dist(V)."""
    _check_theta(theta)
    check_pair(circ, pair)
    lhs = sum_of_squares(reduced_delta(circ, pair.delta_coeffs(), vset)) / 2 ** len(vset.refs)
    return InvariantRecord(vset.refs, vset.dist, lhs, 2.0 * theta**vset.dist)


def audit_invariant(
    circ: Circuit,
    pair: InputPair | BasisPair,
    theta: float,
    max_size: int,
    max_sets: int | None = None,
) -> InvariantReport:
    """Audit every consistent set of size <= max_size; the rows come in
    enumeration order.

    Each set that :func:`enumerate_consistent_sets` yields carries its
    minimal cut; the walk :func:`evolve_cuts` evolves each distinct cut
    prefix once and yields each set's block, reduced to the set's wires as
    :func:`reduced_delta` reduces it, so every record equals
    :func:`invariant_check`'s.
    """
    _check_theta(theta)
    check_pair(circ, pair)
    v0 = pair.delta_coeffs()  # refuses a circuit past the engine cap before enumerating
    # Read through the public generator, which perfbench's tracer times and
    # counts per set; the list refuses an over-budget walk before the PTM builds.
    sets = list(enumerate_consistent_sets(circ, max_size, max_sets))
    members, wires, cuts, dists, _, _ = zip(*sets) if sets else [()] * 6
    lhs = np.empty(len(sets))
    for s, block in evolve_cuts(circ, v0, range(circ.n), cuts, wires):
        lhs[s] = np.dot(block, block)  # summed as invariant_check sums it
    lhs /= np.ldexp(1.0, np.array([m.bit_count() for m in members], dtype=int))
    rhs_of = {d: 2.0 * theta**d for d in set(dists)}
    rhs = np.array([rhs_of[d] for d in dists], dtype=float)
    return InvariantReport(theta, sets, np.array(dists, dtype=float), lhs, rhs)


def decay_table(
    circ: Circuit, pair: InputPair | BasisPair, ts: list[int], theta: float
) -> list[tuple[int, float, float]]:
    """(T, measured, bound) rows for the depths ``ts``, in their given order;
    every depth is read from one forward pass through the circuit."""
    for t in ts:
        if not 0 <= t <= circ.T:
            raise ValueError(f"depth {t} outside [0, {circ.T}]")
    measured = distinguishability_by_depth(circ, pair, max(ts, default=0))
    return [(t, measured[t], decay_bound(theta, t)) for t in ts]
