"""Dual evolution engines for the difference of two states.

The Pauli engine tracks the 4^n coefficient vector of delta = rho - tau.
Each circuit carries one fused transfer matrix per gate (``circ.fused``,
each built on its first lookup, so only the gates a cut applies are ever
built), with the gate's depolarizing noise (which multiplies every
coefficient supported on the noisy wire by 1 - p) folded in, so each gate
costs one matrix product on the (4,)*n coefficient tensor, by a step
compiled once per gate per run.  The tensor passes from step to step and
is flattened only into a :class:`CoeffVector`, so a gate copies it at
most once; a wire is traced out by slicing its I index, a view.
The density engine evolves the dense 2^n x 2^n matrix, as a (2,)*2n
tensor, by one superoperator per channel, sum w K (x) conj(K) built in the
computational basis on the channel's row and column axes; it exists as an
independent cross-check of the Pauli engine.  It and the trajectory
sampler read one lowering of each noisy gate, :func:`_channels`, its
channels in the order they act, built once per builtin gate and noise
strength; ``circ.fused`` stays the Pauli engine's own form.  The sampler
advances rho's and tau's trajectories as one row sequence and applies each
draw in its cheapest form that rounds as a lone state vector would: a
depolarizing Pauli as row flips and phases, with no matrix product; a
one-term channel as one matrix over all rows; another mixture only on the
rows it changes, each row with its own operator.  Both engines and the
sampler apply every matrix through one kernel, :func:`_run_step`.

Both engines apply a *cut*: a frozenset of (level, placement index) gate
identities, downward-closed, so that whenever a gate is applied, so are all
gates producing its inputs.  Its gates run in (level, index) order.
Gate internals are fixed: multi-qubit gates depolarize each input with
``epsk`` and then apply the mixture; one-qubit gates apply the channel and
then depolarize the output with ``eps1``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import groupby, islice
from types import MappingProxyType
from typing import Collection, Iterable, Iterator, Sequence

import numpy as np

from .channels import BuiltinGate, GateSpec, OneQubitGate, depolarizing_ptm, gate_arity, gate_ptm
from .channels import kraus_of_rsw, lower_builtin
from .circuit import Circuit, ConsistentSet, GatePlacement, NoiseModel, QubitRef
from .paulis import (
    MAX_COEFF_QUBITS,
    MAX_DENSE_QUBITS,
    PAULI_MATS,
    CoeffVector,
    check_hermitian,
    coeffs_from_op,
)

PSD_TOL = 1e-10


class _FusedTable(dict):
    """The table behind ``circ.fused``, filled as it is read: a gate's entry
    is built by ``__missing__`` on its first lookup and kept, so a hit is a
    dict lookup.  Iteration, ``len`` and ``in`` cover every gate of
    ``circ.cones.gates``, built or not, and ``get``, ``keys``, ``items`` and
    ``values`` read through the lookup, as a Mapping's do; ``copy``, ``==``
    and ``|`` stay dict's and see only the entries built so far."""

    get, keys, items, values = Mapping.get, Mapping.keys, Mapping.items, Mapping.values

    def __init__(self, circ: Circuit):
        super().__init__()
        self._placements = dict(zip(circ.cones.gates, (pl for level in circ.levels for pl in level)))
        self._d_in = depolarizing_ptm(circ.noise.epsk).m.diagonal()
        self._d_out = depolarizing_ptm(circ.noise.eps1).m.diagonal()
        self._inputs: dict[int, np.ndarray] = {}  # per arity k >= 2, D (x) ... (x) D
        self._matrices: dict = {}  # per builtin and arity, else per gate

    def __missing__(self, gate):
        pl = self._placements[gate]  # KeyError for a gate the circuit lacks
        k = len(pl.wires)
        key = (pl.gate, k) if isinstance(pl.gate, BuiltinGate) else gate  # a builtin's is shared
        if key not in self._matrices:
            if k >= 2:
                if k not in self._inputs:
                    self._inputs[k] = reduce(np.kron, [self._d_in] * k)
                fused = gate_ptm(pl.gate).m * self._inputs[k]  # scales the input columns
            else:
                fused = self._d_out[:, None] * gate_ptm(pl.gate).m  # scales the output rows
            fused.setflags(write=False)
            self._matrices[key] = fused
        self[gate] = entry = (pl.wires, self._matrices[key])
        return entry

    def __iter__(self):
        return iter(self._placements)

    def __len__(self):
        return len(self._placements)

    def __contains__(self, gate):
        return gate in self._placements


def fused_ptms(circ: Circuit) -> Mapping[tuple[int, int], tuple[tuple[int, ...], np.ndarray]]:
    """Per gate (level, placement index), in that order: its wires and its
    transfer matrix with the gate's noise folded in, ``M @ (D (x) ... (x) D)``
    for a multi-qubit gate, D depolarizing with ``epsk``, and ``D @ M`` for a
    one-qubit gate, D depolarizing with ``eps1``.  Each matrix is read-only,
    4^k x 4^k, the gate's last wire its most significant site.  The table is
    read-only, and each entry is built on its first lookup, so an engine
    builds matrices only for the gates it applies; ``circ.fused`` keeps one
    table per circuit.
    """
    return MappingProxyType(_FusedTable(circ))


def full_cut(circ: Circuit) -> frozenset[tuple[int, int]]:
    return frozenset(circ.cones.gates)


def min_cut(circ: Circuit, refs: Iterable[QubitRef]) -> frozenset[tuple[int, int]]:
    """The smallest cut producing every qubit in ``refs``."""
    return circ.cones.keys(circ.cones.cut(refs))


def check_cut(circ: Circuit, cut: frozenset[tuple[int, int]]) -> None:
    """Raise unless every gate exists and the cut is downward-closed."""
    cones = circ.cones
    have = need = 0
    for level, i in sorted(cut):
        if not (1 <= level <= circ.T and 0 <= i < len(circ.levels[level - 1])):
            raise ValueError(f"cut names a nonexistent gate (level {level}, index {i})")
        cone = cones.cone[level * circ.n + circ.levels[level - 1][i].wires[0]]
        have |= cone & -cone  # the gate, its output's latest gate
        need |= cone
    missing = need & ~have
    if missing:
        level, i = min(cones.keys(missing))
        raise ValueError(f"cut is not downward-closed: it lacks gate (level {level}, index {i})")


# --- input pairs and state constructors ----------------------------------


@dataclass
class InputPair:
    """Two n-qubit density matrices whose difference is evolved."""

    rho: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=complex)
        self.tau = np.asarray(self.tau, dtype=complex)
        if self.rho.shape != self.tau.shape:
            raise ValueError("rho and tau have different shapes")
        for name, m in (("rho", self.rho), ("tau", self.tau)):
            if not np.isfinite(m).all():
                raise ValueError(f"{name} has non-finite entries")
            check_hermitian(m, name=name)
            if abs(np.trace(m) - 1.0) > PSD_TOL:
                raise ValueError(f"{name} has trace {np.trace(m)}, expected 1")
            if np.min(np.linalg.eigvalsh(m)) < -PSD_TOL:
                raise ValueError(f"{name} is not positive semidefinite")

    @property
    def n(self) -> int:
        return self.rho.shape[0].bit_length() - 1

    def delta(self) -> np.ndarray:
        return self.rho - self.tau

    def delta_coeffs(self, wires: Iterable[int] | None = None) -> CoeffVector:
        """The difference's coefficients, reduced to ``wires`` (default all)
        by the trace-out rule of :func:`restrict_coeffs`."""
        v = coeffs_from_op(self.delta())
        return v if wires is None else restrict_coeffs(v, wires)


# Per-site Pauli coefficients (I, Z) of |0><0| and |1><1|; their X and Y
# coefficients are 0.
_BASIS_SITE = {"0": np.array([1.0, 1.0]), "1": np.array([1.0, -1.0])}


@dataclass(frozen=True)
class BasisPair:
    """Two computational-basis states, as bit strings whose first character
    is wire 0; the same inputs as ``InputPair(basis_density(rho_bits),
    basis_density(tau_bits))``, with no 2^n x 2^n matrix behind them."""

    rho_bits: str
    tau_bits: str

    def __post_init__(self):
        for name in ("rho_bits", "tau_bits"):
            bits = getattr(self, name)
            if not isinstance(bits, str) or not bits or set(bits) - {"0", "1"}:
                raise ValueError(f"{name} must be a nonempty string of 0/1, got {bits!r}")
        if len(self.rho_bits) != len(self.tau_bits):
            raise ValueError(
                f"rho_bits and tau_bits differ in length: {self.rho_bits!r}, {self.tau_bits!r}"
            )

    @property
    def n(self) -> int:
        return len(self.rho_bits)

    def delta_coeffs(self, wires: Iterable[int] | None = None) -> CoeffVector:
        """The coefficients of |rho><rho| - |tau><tau|, equal to
        ``coeffs_from_op`` of the dense difference, reduced to ``wires``
        (default all) as :func:`restrict_coeffs` would.

        A basis state's coefficients are the Kronecker product of per-site
        4-vectors in ``SITE_ORDER`` IZXY, (1, 1, 0, 0) for |0> and
        (1, -1, 0, 0) for |1>, the last kept wire the most significant
        site; tracing a wire out drops its factor.  The product vanishes
        unless every site is I or Z, so only that block, the product of
        the (I, Z) halves, is written.
        """
        wires = range(self.n) if wires is None else _distinct_wires(wires, self.n, "pair")
        n = len(wires)
        if n > MAX_COEFF_QUBITS:
            raise ValueError(f"n={n} exceeds the coefficient-engine cap {MAX_COEFF_QUBITS}")
        rho, tau = (
            reduce(np.kron, [_BASIS_SITE[bits[w]] for w in reversed(wires)], np.ones(1))
            for bits in (self.rho_bits, self.tau_bits)
        )
        values = np.zeros((4,) * n)
        values[(slice(0, 2),) * n] = (rho - tau).reshape((2,) * n)
        return CoeffVector(n, values.reshape(-1))


def check_pair(circ: Circuit, pair: InputPair | BasisPair) -> None:
    if pair.n != circ.n:
        raise ValueError(f"input pair is on {pair.n} qubits, circuit on {circ.n}")


def basis_density(bits: str) -> np.ndarray:
    """|b><b| for a classical bit string; the first character is wire 0."""
    dim = 2 ** len(bits)
    idx = int(bits, 2)
    m = np.zeros((dim, dim), dtype=complex)
    m[idx, idx] = 1.0
    return m


def pure_density(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def random_pure_density(n: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return pure_density(psi)


def random_product_density(n: int, rng: np.random.Generator) -> np.ndarray:
    m = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        m = np.kron(m, random_pure_density(1, rng))
    return m


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    return (a + a.conj().T) / 2


# --- the gate kernel and the dense machinery -----------------------------


def _compile_step(ops: np.ndarray, axes: Sequence[int], ndim: int, lead: tuple = ()) -> tuple:
    """The arguments of :func:`_run_step` for ``ops`` on the axes ``axes`` of
    an ``ndim``-axis tensor, the first the most significant: one matrix, or
    one per entry of a leading axis of shape ``lead``; made once per gate."""
    batch = ops.ndim - 2
    order = [*range(batch), *axes, *(a for a in range(batch, ndim) if a not in axes)]
    # the inverse permutation; np.argsort would page in numpy's sort code, ~0.3 MiB of RSS
    return ops, order, sorted(range(ndim), key=order.__getitem__), (*lead, ops.shape[-1], -1)


def _run_step(t: np.ndarray, ops: np.ndarray, order: list, inverse: list, shape: tuple) -> np.ndarray:
    """The one gate kernel: one ``matmul`` gives each entry the BLAS product
    a single matrix gives it, so an entry's rounding does not depend on the
    other entries; an identity adds exact zeros to its entries."""
    front = t.transpose(order)
    # copies unless t's memory already holds these axes in front, as the
    # output of a step on the same axes does
    return np.matmul(ops, front.reshape(shape)).reshape(front.shape).transpose(inverse)


def _apply(t: np.ndarray, ops: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """``ops`` on the axes ``axes`` of ``t``, compiled and run at once."""
    return _run_step(t, *_compile_step(ops, axes, t.ndim, t.shape[: ops.ndim - 2]))


def partial_trace(op: np.ndarray, keep: Iterable[int], n: int) -> np.ndarray:
    """Trace out every wire not in ``keep``; kept wires stay in wire order."""
    keep = sorted(keep)
    t = op.reshape((2,) * (2 * n))
    subs = list(range(n)) + [n + j if j in keep else j for j in range(n)]
    out = [j for j in keep] + [n + j for j in keep]
    return np.einsum(t, subs, out).reshape(2 ** len(keep), 2 ** len(keep))


_PAULIS = np.stack([PAULI_MATS[c] for c in "IXYZ"])
_PAULIS.setflags(write=False)
# Per Pauli: whether it swaps a wire's 0 and 1 entries, then the phases it
# puts on them, exactly; Y = [[0, -i], [i, 0]] maps (a, b) to (-i b, i a)
_PAULI_FLIPS = np.array([False, True, True, False])
_PAULI_PHASES = np.array([[1, 1], [1, 1], [-1j, 1j], [1, -1]])


def _lowering(gate: GateSpec, p: float) -> tuple[tuple, ...]:
    """The channels of one gate under noise strength ``p``, in the order
    they act, each (sites, weights, operators, branch CDF, moves) with sites
    indexing the gate's wires and read-only arrays.  The operators are (I,
    X, Y, Z) for a depolarizing channel, a mixture's unitaries, and a
    canonical-form gate's K0s over its K1s, shape (2, terms, 2, 2); moves is
    False for a branch that is exactly the identity.  A stack that is
    exactly (I, X, Y, Z), a depolarizing channel's or a DEPOL gate's, is
    the shared ``_PAULIS`` itself: that marks it for the sampler's exact
    Pauli draw, :func:`_apply_paulis`.  A multi-qubit gate
    depolarizes each input first, a one-qubit gate its output afterwards.
    The gate's weights are normalised and the noise weights are not; the
    sampler's stream depends on both to the last bit.  :func:`fused_ptms`
    encodes the same rule on its own, so the engines' cross-check compares
    two encodings."""
    spec = lower_builtin(gate)
    probs = np.array([q for q, _ in spec.terms])
    if isinstance(spec, OneQubitGate):
        ops = np.stack([kraus_of_rsw(ch) for _, ch in spec.terms], axis=1)
    else:
        ops = np.stack([u for _, u in spec.terms])
        if ops.shape == _PAULIS.shape and (ops == _PAULIS).all():
            ops = _PAULIS
    k = gate_arity(spec)
    depolarize = np.array([1 - 3 * p / 4, p / 4, p / 4, p / 4])
    noisy = [((j,), depolarize, _PAULIS) for j in range(k)]
    gate = (tuple(range(k)), probs / probs.sum(), ops)
    channels = []
    for sites, weights, stack in noisy + [gate] if k >= 2 else [gate] + noisy:
        cdf = weights.cumsum()
        arrays = weights, stack, cdf / cdf[-1], (stack != np.eye(stack.shape[-1])).any(axis=(-2, -1))
        for a in arrays:
            a.setflags(write=False)
        channels.append((sites, *arrays))
    return tuple(channels)


_builtin_lowering = lru_cache(maxsize=1024)(_lowering)


def _channels(pl: GatePlacement, noise: NoiseModel) -> list[tuple]:
    """The channels of one noisy gate, as :func:`_lowering` gives them, on
    the placement's wires.  A builtin's lowering is built once per noise
    strength and shared by every placement of it."""
    p = noise.epsk if len(pl.wires) >= 2 else noise.eps1
    lower = _builtin_lowering if isinstance(pl.gate, BuiltinGate) else _lowering
    return [(tuple(pl.wires[j] for j in sites), *arrays) for sites, *arrays in lower(pl.gate, p)]


def evolve_density(circ: Circuit, op: np.ndarray, cut: frozenset[tuple[int, int]]) -> np.ndarray:
    """Dense-matrix evolution through the gates of a cut, in (level, index)
    order; each channel, op -> sum_t w_t sum_k K_kt op K_kt^dagger, is one
    superoperator sum w K (x) conj(K) on its wires' row and column axes."""
    op = np.asarray(op, dtype=complex)
    if circ.n > MAX_DENSE_QUBITS:
        raise ValueError(f"n={circ.n} exceeds the dense-engine cap {MAX_DENSE_QUBITS}")
    if op.shape != (2**circ.n, 2**circ.n):
        raise ValueError(f"operator shape {op.shape} does not match n={circ.n}")
    check_cut(circ, cut)
    t = op.reshape((2,) * (2 * circ.n))
    for level, i in sorted(cut):
        for wires, weights, ops, *_ in _channels(circ.levels[level - 1][i], circ.noise):
            d = 2 ** len(wires)
            kraus = ops.reshape(-1, len(weights), d, d)
            sup = np.einsum("t,ktij,ktab->iajb", weights, kraus, kraus.conj()).reshape(d * d, d * d)
            t = _apply(t, sup, [*wires, *(circ.n + w for w in wires)])
    return t.reshape(op.shape)


# --- Pauli-coefficient machinery ------------------------------------------


def _pauli_step(wires: tuple[int, ...], ptm: np.ndarray, live: Sequence[int]) -> tuple:
    """The step of one fused gate on the (4,)*m coefficient tensor over the
    wires ``live`` (increasing, wire ``live[j]`` at local site j, on tensor
    axis m-1-j).  Callers carry the tensor :func:`_run_step` returns, often a
    transposed view, and flatten it only into a :class:`CoeffVector`."""
    m = len(live)
    return _compile_step(ptm, [m - 1 - live.index(w) for w in reversed(wires)], m)


def evolve_pauli(circ: Circuit, v: CoeffVector, cut: frozenset[tuple[int, int]]) -> CoeffVector:
    """Coefficient-vector evolution; the same map as :func:`evolve_density`."""
    if circ.n > MAX_COEFF_QUBITS:
        raise ValueError(f"n={circ.n} exceeds the coefficient-engine cap {MAX_COEFF_QUBITS}")
    if v.n != circ.n:
        raise ValueError(f"vector is on {v.n} qubits, circuit on {circ.n}")
    check_cut(circ, cut)
    t, fused, wires = v.values.reshape((4,) * circ.n), circ.fused, range(circ.n)
    for gate in sorted(cut):
        t = _run_step(t, *_pauli_step(*fused[gate], wires))
    return CoeffVector(circ.n, t.flatten())


def _trace_out(m: int, keep: Collection[int]) -> tuple:
    """The basic index that keeps the local sites ``keep`` of a (4,)*m
    coefficient tensor and traces every other site out: its I slice."""
    return tuple(slice(None) if m - 1 - axis in keep else 0 for axis in range(m))


def _distinct_wires(wires: Iterable[int], n: int, owner: str) -> list[int]:
    """``wires`` sorted; ValueError if one repeats or lies outside range(n)."""
    wires = sorted(wires)
    if not all(0 <= w < n for w in wires):
        raise ValueError(f"wires {wires} are not all among the {owner}'s {n}")
    if len(set(wires)) < len(wires):
        raise ValueError(f"wires {wires} name a wire twice")
    return wires


def restrict_coeffs(v: CoeffVector, wires: Iterable[int]) -> CoeffVector:
    """Keep the coefficients of strings supported inside ``wires``.

    Implements the trace-out rule: the reduced operator's coefficient at S
    equals the full operator's coefficient at S (x) I-elsewhere.  Kept wires
    map to local sites in increasing wire order.
    """
    wires = _distinct_wires(wires, v.n, "vector")
    return CoeffVector(len(wires), v.values.reshape((4,) * v.n)[_trace_out(v.n, wires)].flatten())


def reduced_delta(circ: Circuit, v0: CoeffVector, vset: ConsistentSet) -> CoeffVector:
    """Coefficients of the difference reduced to a consistent set.

    Evolves the input difference's coefficients ``v0`` through the minimal
    cut producing the set, then keeps the coefficients supported on the
    set's wires.
    """
    refs = vset.qubits
    if not circ.cones.consistent(refs):
        raise ValueError("set is not consistent")
    evolved = evolve_pauli(circ, v0, min_cut(circ, refs))
    return restrict_coeffs(evolved, [q.wire for q in refs])


def born_probability_one(op: np.ndarray, wire: int, n: int) -> float:
    """Tr(op * |1><1|_wire): outcome-1 probability when op is a state."""
    reduced = partial_trace(op, [wire], n)
    return float(reduced[1, 1].real)


def distinguishability_by_depth(
    circ: Circuit, pair: InputPair | BasisPair, depth: int
) -> list[float]:
    """Output distinguishability of the first t levels, for t = 0..depth.

    One pass evolves the cut producing the output qubit at ``depth`` and
    reads half the magnitude of its Z coefficient after every level.  The
    light cone of the output at any t <= depth lies inside that cut, and the
    cut's other gates act on wires traced out at t, so reading t equals
    ``output_distinguishability(circ.prefix(t), pair)``.

    Only the live wires are evolved: the wires the cut's gates touch, plus
    the output wire.  No gate acts on any other wire, so tracing it out of
    the input is exact, and reading Z on the output with I elsewhere needs
    only the I component of the other wires, so each live wire but the
    output is traced out after the level of its last gate: only its I slice
    is kept.  Raises ValueError, before allocating any vector, if more than
    ``MAX_COEFF_QUBITS`` wires are live.
    """
    check_pair(circ, pair)
    if not 0 <= depth <= circ.T:
        raise ValueError(f"depth {depth} outside [0, {circ.T}]")
    out = circ.output_wire
    cut = min_cut(circ, [QubitRef(out, depth)])
    live = {out}.union(*(circ.levels[level - 1][i].wires for level, i in cut))
    if len(live) > MAX_COEFF_QUBITS:
        raise ValueError(
            f"the output's light cone at depth {depth} touches {len(live)} wires, "
            f"above the coefficient-engine cap {MAX_COEFF_QUBITS}"
        )
    wires = tuple(sorted(live))
    t = pair.delta_coeffs(wires).values.reshape((4,) * len(wires))
    fused, order = circ.fused, sorted(cut)
    last = {w: level for level, i in order for w in fused[(level, i)][0] if w != out}
    by_level = {level: list(gates) for level, gates in groupby(order, lambda gate: gate[0])}
    plan = []  # per level: its gates' steps, the index retiring wires, Z's index
    for level in range(depth + 1):
        steps = [_pauli_step(*fused[gate], wires) for gate in by_level.get(level, ())]
        kept = tuple(w for w in wires if last.get(w) != level)
        retire, wires = _trace_out(len(wires), [wires.index(w) for w in kept]), kept
        plan.append((steps, retire, _trace_out(len(wires), [wires.index(out)])))
    readings = []
    for steps, retire, read in plan:
        for step in steps:
            t = _run_step(t, *step)
        t = t[retire]
        readings.append(0.5 * abs(t[read][1]))  # Z on the output wire, I elsewhere
    return readings


def output_distinguishability(circ: Circuit, pair: InputPair | BasisPair) -> float:
    """Half the magnitude of the evolved difference's Z coefficient at the
    output qubit; equals |Pr[1 | rho] - Pr[1 | tau]|."""
    return distinguishability_by_depth(circ, pair, circ.T)[-1]


# --- trajectory sampling (demonstration only) ------------------------------


SHOT_BLOCK = 256  # trajectories advanced together; bounds the states and uniforms held at once


def _trajectory_steps(circ: Circuit) -> list[tuple]:
    """The draws of one trajectory, in stream order: per channel of
    :func:`_channels`, its state axes (wire + 1, as axis 0 holds the rows),
    CDF, operators and moves.  A canonical-form draw takes one more uniform
    to pick between its K0 and its K1."""
    return [
        ([w + 1 for w in wires], cdf, ops, moves)
        for level in circ.levels
        for pl in level
        for wires, _, ops, cdf, moves in _channels(pl, circ.noise)
    ]


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row, the dot product of two (rows, dim) arrays as its own BLAS
    dot, the call ``vdot`` and ``linalg.norm`` make for a single vector."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _apply_paulis(psi: np.ndarray, choice: np.ndarray, axis: int) -> None:
    """Each row's Pauli ``_PAULIS[choice]`` on the axis ``axis`` of ``psi``,
    in place, with no matrix product: the rows that move swap the axis's
    two entries for X and Y, then take the Pauli's phases.  A Pauli's
    entries are 0, +-1 and +-i, so its product is exact, and this gives the
    same values but perhaps the sign of a zero, which no later value reads."""
    moved = choice.nonzero()[0]
    if len(moved):
        picked = choice[moved]
        sub = psi[moved]
        shape = [len(moved)] + [1] * (psi.ndim - 1)
        flipped = sub[(slice(None),) * axis + (slice(None, None, -1),)]
        sub = np.where(_PAULI_FLIPS[picked].reshape(shape), flipped, sub)
        shape[axis] = 2
        sub *= _PAULI_PHASES[picked].reshape(shape)
        psi[moved] = sub


def _row_ops(ops: np.ndarray, choice: np.ndarray) -> np.ndarray:
    """The operators for the rows that drew ``choice``: a one-term
    channel's one matrix for all of them, else each row's own.  Applied by
    :func:`_apply`, one matrix gives each column its own d-term product,
    the one a lone state gets."""
    return ops[0] if len(ops) == 1 else ops[choice]


def _rescaled(k: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """Each row of the (rows, dim) array ``k`` over its ``norm``, floored
    at 1e-300, as numpy's complex / float rounds it: by Smith's method with
    a zero imaginary part, that multiplies by the reciprocal, as this does
    on the float64 view.  A real division would round differently."""
    k = np.ascontiguousarray(k)
    return (k.view(float) * (1.0 / np.maximum(norm, 1e-300))[:, None]).view(complex)


def _shot_probabilities(
    circ: Circuit, steps: list[tuple], pair: BasisPair, shots: int, rng: np.random.Generator
) -> Iterator[float]:
    """Each trajectory's outcome-1 probability at the output, rho's shots
    then tau's, as one row sequence advanced in blocks of up to
    ``SHOT_BLOCK`` rows; each row takes the next fixed-length run of
    uniforms from the stream, so blocking does not change any draw.  Each
    draw takes its cheapest form that rounds as a lone state vector would:
    Pauli draws flip and phase the rows that move (:func:`_apply_paulis`),
    a one-term channel is one matrix over all rows, and another mixture
    touches only the rows it changes, each with its own operator."""
    draws = sum(ops.ndim - 2 for _, _, ops, _ in steps)  # one uniform per draw, two per Kraus draw
    shape = (2,) * circ.n
    for start in range(0, 2 * shots, SHOT_BLOCK):
        rows = min(SHOT_BLOCK, 2 * shots - start)
        uniforms = iter(rng.random((rows, draws)).T)
        psi = np.zeros((rows, 2**circ.n), dtype=complex)
        split = min(max(shots - start, 0), rows)  # rows before it are rho's
        psi[:split, int(pair.rho_bits, 2)] = psi[split:, int(pair.tau_bits, 2)] = 1.0
        psi = psi.reshape((rows, *shape))
        for axes, cdf, ops, moves in steps:
            choice = cdf.searchsorted(next(uniforms), side="right")
            if ops is _PAULIS:
                _apply_paulis(psi, choice, axes[0])
            elif ops.ndim == 3:
                moved = moves[choice].nonzero()[0]
                if len(moved) == rows:
                    psi = _apply(psi, _row_ops(ops, choice), axes)
                elif len(moved):
                    psi[moved] = _apply(psi[moved], _row_ops(ops, choice[moved]), axes)
            else:
                # Keep K0 psi where the row's uniform is below |K0 psi|^2, else K1 psi, renormalised
                k0 = _apply(psi, _row_ops(ops[0], choice), axes).reshape(rows, -1)
                weight = _row_dots(k0.conj(), k0).real
                jumped = (next(uniforms) >= weight).nonzero()[0]
                kept = _rescaled(k0, np.sqrt(weight))
                if len(jumped):
                    k1 = _apply(psi[jumped], _row_ops(ops[1], choice[jumped]), axes)
                    k1 = k1.reshape(len(jumped), -1)
                    norm = np.sqrt(_row_dots(k1.real, k1.real) + _row_dots(k1.imag, k1.imag))
                    kept[jumped] = _rescaled(k1, norm)
                psi = kept.reshape((rows, *shape))
        ones = np.take(psi, 1, axis=circ.output_wire + 1).reshape(rows, -1)
        yield from np.sum(np.abs(ones) ** 2, axis=1).tolist()


def check_sampler_width(n: int) -> None:
    """Raise ValueError if ``n`` qubits pass the sampler cap,
    ``MAX_COEFF_QUBITS``; a caller can check a circuit's width before it
    draws or builds the circuit."""
    if n > MAX_COEFF_QUBITS:
        raise ValueError(f"n={n} exceeds the sampler cap {MAX_COEFF_QUBITS}")


def check_sampler_inputs(circ: Circuit, pair: InputPair | BasisPair, shots: int) -> None:
    """Raise ValueError unless the trajectory sampler can run: ``pair`` a
    :class:`BasisPair` that fits ``circ``, ``shots`` an int >= 1, and at
    most ``MAX_COEFF_QUBITS`` qubits, as each shot holds a 2^n state vector.
    Allocates nothing, so a caller can check before any other work."""
    if not isinstance(pair, BasisPair):
        raise ValueError(f"the sampler takes a BasisPair, got {type(pair).__name__}")
    check_pair(circ, pair)
    check_sampler_width(circ.n)
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)):
        raise ValueError(f"shots must be an int, got {shots!r}")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")


def sample_output_difference(circ: Circuit, pair: BasisPair, shots: int, seed: int) -> float:
    """Monte-Carlo estimate of the output-probability difference.

    Samples mixture branches, Kraus branches, and depolarizing events on
    pure-state trajectories, rho's and tau's as one row sequence, and sums
    each input's probabilities in shot order; the exact engines remain the
    reference.  Raises ValueError, before allocating any state, where
    :func:`check_sampler_inputs` does.
    """
    check_sampler_inputs(circ, pair, shots)
    rng = np.random.default_rng(seed)
    probabilities = _shot_probabilities(circ, _trajectory_steps(circ), pair, shots, rng)
    rho = sum(islice(probabilities, shots)) / shots
    return abs(rho - sum(probabilities) / shots)  # the rest are tau's shots
