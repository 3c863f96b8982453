"""Dual evolution engines for the difference of two states.

The Pauli engine tracks the 4^n coefficient vector of delta = rho - tau.
Each gate costs one matrix product on the (4,)*m coefficient tensor of
the live wires, by a step :func:`_pauli_step` compiles from the gate's
transfer matrix with its depolarizing noise folded in.  The engine is one
walk, :func:`evolve_cuts`, which evolves each distinct cut prefix once and
traces a wire out, by slicing its I index, once no cut needs it; the
audit, :func:`evolve_pauli` and decay each make one call.  The tensor
passes from step to step and is flattened only into a
:class:`CoeffVector`, so a gate copies it at most once.
The density engine evolves the dense 2^n x 2^n matrix, as a (2,)*2n
tensor, by one superoperator per channel, sum w K (x) conj(K) built in the
computational basis on the channel's row and column axes; it exists as an
independent cross-check of the Pauli engine.  It and the trajectory
sampler read one lowering of each noisy gate, :func:`_channels`, its
channels in the order they act.  The sampler
advances rho's and tau's trajectories as one row sequence and applies each
draw in its cheapest form that rounds as a lone state vector would: a
depolarizing Pauli as row flips and phases, with no matrix product; a
one-term channel as one matrix over all rows; another mixture only on the
rows it changes, each row with its own operator.  Both engines and the
sampler apply every matrix through one kernel, :func:`_run_step`.

Both engines apply a *cut*: a gate mask of ``circ.cones``, an int whose
top bit is the earliest gate (gate r is bit ``len(gates) - 1 - r``).  It is
closed under input dependencies: whenever a gate is applied, so are all
gates producing its inputs.  Its gates run earliest first.
Gate internals are fixed: multi-qubit gates depolarize each input with
``epsk`` and then apply the mixture; one-qubit gates apply the channel and
then depolarize the output with ``eps1``.
"""

from __future__ import annotations

import operator
import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, lru_cache, reduce
from itertools import accumulate, islice
from typing import Collection, Iterable, Iterator, Sequence

import numpy as np

from .channels import GateSpec, OneQubitGate, depolarizing_ptm, gate_arity, gate_ptm
from .channels import kraus_of_rsw, lower_builtin
from .circuit import Circuit, ConsistentSet, GatePlacement, NoiseModel, QubitRef, is_consistent
from .paulis import (
    MAX_COEFF_QUBITS,
    MAX_DENSE_QUBITS,
    PAULI_MATS,
    CoeffVector,
    check_hermitian,
    coeffs_from_op,
)

PSD_TOL = 1e-10


def full_cut(circ: Circuit) -> int:
    """The gate mask holding every gate of the circuit."""
    return (1 << len(circ.cones.gates)) - 1


def min_cut(circ: Circuit, refs: Iterable[QubitRef]) -> int:
    """The smallest cut producing every qubit in ``refs``, as a gate mask."""
    return circ.cones.cut(refs)


def check_cut(circ: Circuit, cut: int) -> list[tuple[int, int]]:
    """The gates of the gate mask ``cut``, earliest first; ValueError unless
    it is an int in ``range(2**gates)`` closed under input dependencies."""
    cones, count = circ.cones, len(circ.cones.gates)
    if isinstance(cut, bool) or not isinstance(cut, int):
        raise ValueError(f"a cut is the int gate mask min_cut and full_cut return, got {type(cut).__name__}")
    if cut >> count:  # a negative int, or a bit past the earliest gate
        fault = "is negative" if cut < 0 else f"sets bit {cut.bit_length() - 1}"
        raise ValueError(f"cut mask {fault}: a mask of the circuit's {count} gates lies in [0, 2**{count})")
    gates, need = cones.gates_of(cut), 0
    for level, i in gates:
        need |= cones.cone[level * circ.n + circ.levels[level - 1][i].wires[0]]
    missing = need & ~cut
    if missing:
        level, i = cones.gates[count - missing.bit_length()]
        raise ValueError(f"cut is not downward-closed: it lacks gate (level {level}, index {i})")
    return gates


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


def random_pure_density(n: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


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
    """The one gate kernel: one ``matmul`` of each matrix with the columns
    that the tensor's other axes form.  An entry's rounding depends on its
    own column and on the product's shape, never on the other columns'
    values: BLAS picks its code path by the column count, so a product of
    one column, or on OpenBLAS's SkylakeX kernel the last one to four
    columns past a multiple of 8, can round differently from the same
    columns inside a wider product.  The same step on a tensor of the same
    shape rounds alike, and an identity adds exact zeros to its entries."""
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


@lru_cache(maxsize=1024)
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
    sampler's stream depends on both to the last bit.  :func:`_fused_matrix`
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


def _channels(pl: GatePlacement, noise: NoiseModel) -> list[tuple]:
    """The channels of one noisy gate, as :func:`_lowering` gives them, on
    the placement's wires.  A gate's lowering is built once per noise
    strength and shared by every placement of it: equal builtins share
    one, and any other gate object has its own."""
    p = noise.epsk if len(pl.wires) >= 2 else noise.eps1
    return [(tuple(pl.wires[j] for j in sites), *arrays) for sites, *arrays in _lowering(pl.gate, p)]


def evolve_density(circ: Circuit, op: np.ndarray, cut: int) -> np.ndarray:
    """Dense-matrix evolution through the gates of the gate mask ``cut``,
    earliest first; each channel, op -> sum_t w_t sum_k K_kt op K_kt^dagger,
    is one superoperator sum w K (x) conj(K) on its wires' row and column axes."""
    op = np.asarray(op, dtype=complex)
    if circ.n > MAX_DENSE_QUBITS:
        raise ValueError(f"n={circ.n} exceeds the dense-engine cap {MAX_DENSE_QUBITS}")
    if op.shape != (2**circ.n, 2**circ.n):
        raise ValueError(f"operator shape {op.shape} does not match n={circ.n}")
    gates = check_cut(circ, cut)
    t = op.reshape((2,) * (2 * circ.n))
    for level, i in gates:
        for wires, weights, ops, *_ in _channels(circ.levels[level - 1][i], circ.noise):
            d = 2 ** len(wires)
            kraus = ops.reshape(-1, len(weights), d, d)
            sup = np.einsum("t,ktij,ktab->iajb", weights, kraus, kraus.conj()).reshape(d * d, d * d)
            t = _apply(t, sup, [*wires, *(circ.n + w for w in wires)])
    return t.reshape(op.shape)


# --- Pauli-coefficient machinery ------------------------------------------


@lru_cache(maxsize=1024)
def _noise_diagonal(p: float, k: int) -> np.ndarray:
    """The read-only diagonal of D (x) ... (x) D, k factors, D depolarizing
    with ``p``."""
    d = reduce(np.kron, [depolarizing_ptm(p).m.diagonal()] * k)
    d.setflags(write=False)
    return d


@lru_cache(maxsize=1024)
def _fused_matrix(gate: GateSpec, k: int, p: float) -> np.ndarray:
    """The gate's read-only 4^k x 4^k transfer matrix M with its noise
    folded in, the last wire its most significant site: ``M @ (D (x) ... (x)
    D)`` for a multi-qubit gate, D depolarizing with ``p = epsk``, and
    ``D @ M`` for a one-qubit gate, D depolarizing with ``p = eps1``."""
    d = _noise_diagonal(p, k)
    fused = gate_ptm(gate).m * d if k >= 2 else d[:, None] * gate_ptm(gate).m  # columns, else rows
    fused.setflags(write=False)
    return fused


def _pauli_step(circ: Circuit, gate: tuple[int, int], live: Sequence[int]) -> tuple:
    """The step of the gate ``(level, index)`` on the (4,)*m coefficient
    tensor over the wires ``live`` (increasing, wire ``live[j]`` at local
    site j, on tensor axis m-1-j).  A gate's matrix is built once per arity
    and noise strength and shared by all its placements: equal builtins
    share one, and any other gate object has its own."""
    level, i = gate
    pl = circ.levels[level - 1][i]
    k, m = len(pl.wires), len(live)
    ptm = _fused_matrix(pl.gate, k, circ.noise.epsk if k >= 2 else circ.noise.eps1)
    return _compile_step(ptm, [m - 1 - live.index(w) for w in reversed(pl.wires)], m)


def evolve_cuts(
    circ: Circuit, v0: CoeffVector, wires: Sequence[int], cuts: Sequence[int], keeps: Sequence[int]
) -> Iterator[tuple[int, np.ndarray]]:
    """Evolve ``v0``, on the increasing ``wires``, through each gate mask
    ``cuts[i]`` and yield ``(i, block)``, the evolved tensor reduced to the
    wires of the mask ``keeps[i]`` (bit w for wire w) as
    :func:`restrict_coeffs` reduces it, flattened C-contiguous; the cuts
    come in ascending mask order.  The caller checks the vector and the
    masks, whose gates and kept wires lie on ``wires``.

    Each gate of the cuts is compiled before the walk (compiling between
    runs is slower) on the wires live at its level: a wire no keep names
    retires after its last level in the cuts' union, its I index sliced
    before the next gate.

    The walk bisects the ascending masks with one stack: an entry ``(lo,
    hi, bit, live, values)`` holds the cuts ``ordered[lo:hi]``, which
    agree above ``bit`` and all hold gate ``bit`` (``top + 1`` names none),
    and ``values``, the tensor of their shared prefix, on the wires
    ``live``.  Popping it runs gate ``bit``'s step.  While the range's
    largest cut has a lower gate, the cuts holding the highest one are
    pushed, found by bisection unless the smallest holds it too, and the
    walk goes on with those before them; the equal cuts left yield their
    blocks.  Each distinct cut prefix is evolved once, earliest gate first,
    so a block does not depend on the other cuts.
    """
    gates, top = circ.cones.gates, len(circ.cones.gates) - 1
    kept = reduce(operator.or_, keeps, 0)
    union = circ.cones.gates_of(reduce(operator.or_, cuts, 0))
    last = {w: level for level, i in union for w in circ.levels[level - 1][i].wires}
    live_at = cache(lambda level: tuple(w for w in wires if kept >> w & 1 or last.get(w, 0) >= level))
    live_mask = cache(lambda level: sum(1 << w for w in live_at(level)))
    steps = {gate: _pauli_step(circ, gate, live_at(gate[0])) for gate in union}
    index = cache(lambda live, keep: _trace_out(len(live), [j for j, w in enumerate(live) if keep >> w & 1]))
    order = sorted(range(len(cuts)), key=cuts.__getitem__)
    ordered = [cuts[i] for i in order]
    stack = [(0, len(ordered), top + 1, tuple(wires), v0.values.reshape((4,) * len(wires)))]
    while stack:
        lo, hi, bit, live, values = stack.pop()
        if bit <= top:
            gate = gates[top - bit]
            if len(now := live_at(gate[0])) < len(live):
                values = values[index(live, live_mask(gate[0]))]
            values, live = _run_step(values, *steps[gate]), now
        while lo < hi and (rest := ordered[hi - 1] & ((1 << bit) - 1)):
            bit = rest.bit_length() - 1
            mid = lo if ordered[lo] >> bit & 1 else bisect_left(ordered, ordered[hi - 1] >> bit << bit, lo, hi)
            stack.append((mid, hi, bit, live, values))  # the cuts that also hold gate bit
            hi = mid
        for i in order[lo:hi]:
            yield i, values[index(live, keeps[i])].flatten()


def evolve_pauli(circ: Circuit, v: CoeffVector, cut: int) -> CoeffVector:
    """Coefficient-vector evolution, the one-cut case of :func:`evolve_cuts`;
    the same map as :func:`evolve_density`."""
    if circ.n > MAX_COEFF_QUBITS:
        raise ValueError(f"n={circ.n} exceeds the coefficient-engine cap {MAX_COEFF_QUBITS}")
    if v.n != circ.n:
        raise ValueError(f"vector is on {v.n} qubits, circuit on {circ.n}")
    check_cut(circ, cut)
    [(_, values)] = evolve_cuts(circ, v, range(circ.n), [cut], [(1 << circ.n) - 1])
    return CoeffVector(circ.n, values)


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
    if not is_consistent(refs, circ):
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

    One walk, :func:`evolve_cuts`, evolves the level prefixes of the cut
    producing the output qubit at ``depth`` and reads half the magnitude of
    each one's Z coefficient on the output.  The light cone of the output
    at any t <= depth lies inside that cut, and the cut's other gates act on
    wires traced out at t, so reading t equals
    ``output_distinguishability(circ.prefix(t), pair)``.

    Only the wires the cut's gates touch, plus the output wire, are evolved:
    tracing any other wire out of the input is exact.  Reading Z on the
    output with I elsewhere keeps only the output, so the walk retires every
    other wire after its last level.  Raises ValueError, before allocating
    any vector, if more than ``MAX_COEFF_QUBITS`` wires are live.
    """
    check_pair(circ, pair)
    if not 0 <= depth <= circ.T:
        raise ValueError(f"depth {depth} outside [0, {circ.T}]")
    out, cones = circ.output_wire, circ.cones
    cut = cones.cone[depth * circ.n + out]
    # the cut touches a wire iff it holds the wire's level-1 gate, whose cone is that gate alone
    wires = [w for w in range(circ.n) if w == out or depth and cut & cones.cone[circ.n + w]]
    if len(wires) > MAX_COEFF_QUBITS:
        raise ValueError(
            f"the output's light cone at depth {depth} touches {len(wires)} wires, "
            f"above the coefficient-engine cap {MAX_COEFF_QUBITS}"
        )
    # the first t levels' prefix keeps the top bits, those of the gates at levels <= t
    shifts = accumulate((len(level) for level in circ.levels[:depth]), operator.sub, initial=len(cones.gates))
    prefixes = [cut >> shift << shift for shift in shifts]
    blocks = dict(evolve_cuts(circ, pair.delta_coeffs(wires), wires, prefixes, [1 << out] * (depth + 1)))
    return [0.5 * abs(blocks[t][1]) for t in range(depth + 1)]  # Z on the output wire, I elsewhere


def output_distinguishability(circ: Circuit, pair: InputPair | BasisPair) -> float:
    """Half the magnitude of the evolved difference's Z coefficient at the
    output qubit; equals |Pr[1 | rho] - Pr[1 | tau]|."""
    return distinguishability_by_depth(circ, pair, circ.T)[-1]


# --- trajectory sampling (demonstration only) ------------------------------


SHOT_BLOCK = 256  # trajectories advanced together; bounds the states and uniforms held at once
_UNIFORM_CHUNK = 1 << 16  # uniforms converted at once; bounds the words held beside a block's array


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


def _uniforms(gen: random.Random, count: int) -> np.ndarray:
    """The next ``count`` values of ``gen.random()``, bit for bit, as a
    float64 array, converted ``_UNIFORM_CHUNK`` at a time from the
    generator's 32-bit words: ``random()`` takes two words a, b and returns
    ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``, exactly, and ``getrandbits``
    hands its words out least significant first."""
    out = np.empty(count)
    for start in range(0, count, _UNIFORM_CHUNK):
        m = min(_UNIFORM_CHUNK, count - start)
        words = np.frombuffer(gen.getrandbits(64 * m).to_bytes(8 * m, "little"), dtype="<u4")
        chunk = out[start : start + m]
        np.multiply(words[0::2] >> 5, 67108864.0, out=chunk)
        chunk += words[1::2] >> 6
        chunk *= 2.0**-53
    return out


def _shot_probabilities(
    circ: Circuit, steps: list[tuple], pair: BasisPair, shots: int, gen: random.Random
) -> Iterator[float]:
    """Each trajectory's outcome-1 probability at the output, rho's shots
    then tau's, as one row sequence advanced in blocks of up to
    ``SHOT_BLOCK`` rows; each row takes the next fixed-length run of
    ``gen.random()`` values (:func:`_uniforms`, one array per block), so
    blocking does not change any draw.  Each draw takes its cheapest form
    that rounds as a lone state vector would: Pauli draws flip and phase
    the rows that move (:func:`_apply_paulis`), a one-term channel is one
    matrix over all rows, and another mixture touches only the rows it
    changes, each with its own operator."""
    draws = sum(ops.ndim - 2 for _, _, ops, _ in steps)  # one uniform per draw, two per Kraus draw
    shape = (2,) * circ.n
    for start in range(0, 2 * shots, SHOT_BLOCK):
        rows = min(SHOT_BLOCK, 2 * shots - start)
        uniforms = iter(_uniforms(gen, rows * draws).reshape(rows, draws).T)
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


def check_sampler_inputs(circ: Circuit, pair: InputPair | BasisPair, shots: int, seed: int) -> None:
    """Raise ValueError unless the trajectory sampler can run: ``pair`` a
    :class:`BasisPair` that fits ``circ``, ``shots`` an int >= 1, ``seed``
    an int >= 0 (``random.Random`` would fold -s onto s), and at most
    ``MAX_COEFF_QUBITS`` qubits, as each shot holds a 2^n state vector.
    Allocates nothing, so a caller can check before any other work."""
    if not isinstance(pair, BasisPair):
        raise ValueError(f"the sampler takes a BasisPair, got {type(pair).__name__}")
    check_pair(circ, pair)
    check_sampler_width(circ.n)
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)):
        raise ValueError(f"shots must be an int, got {shots!r}")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an int, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def sample_output_difference(circ: Circuit, pair: BasisPair, shots: int, seed: int) -> float:
    """Monte-Carlo estimate of the output-probability difference.

    Samples mixture branches, Kraus branches, and depolarizing events on
    pure-state trajectories, rho's and tau's as one row sequence, and sums
    each input's probabilities in shot order; the exact engines remain the
    reference.  The uniforms are the stream of ``random.Random(seed)``, so
    an int-like seed such as ``np.int64(4)`` gives seed 4's estimate.
    Raises ValueError, before allocating any state, where
    :func:`check_sampler_inputs` does.
    """
    check_sampler_inputs(circ, pair, shots, seed)
    gen = random.Random(operator.index(seed))
    probabilities = _shot_probabilities(circ, _trajectory_steps(circ), pair, shots, gen)
    rho = sum(islice(probabilities, shots)) / shots
    return abs(rho - sum(probabilities) / shots)  # the rest are tau's shots
