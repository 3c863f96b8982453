"""Independent brute-force oracles the test suite checks the library against.

These deliberately avoid the library's fast paths: coefficients come from
literal traces against dense Pauli matrices, and consistency comes from the
inductive closure (time-0 sets are consistent; replacing all inputs of a
gate with its outputs, and taking subsets, preserves consistency).  The
reference trajectory sampler advances one shot at a time.
"""

import random
from functools import reduce

import numpy as np

from paulidelta import all_pauli_strings, coeffs_from_op, random_pure_density
from paulidelta.channels import OneQubitGate, kraus_of_rsw, lower_builtin
from paulidelta.circuit import Circuit, GatePlacement, NoiseModel, QubitRef
from paulidelta.paulis import PAULI_MATS


def pauli_coeffs_by_trace(op: np.ndarray) -> np.ndarray:
    """Tr(op * S) for every string S, by dense multiplication."""
    n = op.shape[0].bit_length() - 1
    out = np.zeros(4**n)
    for s in all_pauli_strings(n):
        out[s.index()] = np.trace(op @ s.matrix()).real
    return out


def ptm_by_columns(u: np.ndarray) -> np.ndarray:
    """Transfer matrix of conjugation by ``u``, one string S at a time: column
    S holds the coefficients of U S U^dagger, divided by 2^k."""
    k = u.shape[0].bit_length() - 1
    m = np.empty((4**k, 4**k))
    for s in all_pauli_strings(k):
        conj = u @ s.matrix() @ u.conj().T
        m[:, s.index()] = coeffs_from_op(conj, imag_tol=1e-9).values / 2**k
    return m


def producing_gate(circ: Circuit, level: int, wire: int) -> int:
    """Index of the placement acting on ``wire`` at ``level`` (1-based), by scan."""
    return next(i for i, pl in enumerate(circ.levels[level - 1]) if wire in pl.wires)


def minimal_cut_by_scan(circ: Circuit, refs) -> frozenset[tuple[int, int]]:
    """The gates that must run to produce ``refs``: each ref's producing gate,
    closed backward over the producing gates of its inputs, by scan."""
    cut: set[tuple[int, int]] = set()
    stack = [(q.time, q.wire) for q in refs if q.time > 0]
    while stack:
        level, wire = stack.pop()
        gate = (level, producing_gate(circ, level, wire))
        if gate not in cut:
            cut.add(gate)
            if level > 1:
                stack += [(level - 1, w) for w in circ.levels[level - 1][gate[1]].wires]
    return frozenset(cut)


def inductive_consistent_sets(circ: Circuit) -> set[frozenset[QubitRef]]:
    """All consistent sets, generated by the inductive rules over bitmasks."""
    n = circ.n

    def bit(w: int, t: int) -> int:
        return 1 << (t * n + w)

    gates = []
    for level in range(1, circ.T + 1):
        for pl in circ.levels[level - 1]:
            in_mask = sum(bit(w, level - 1) for w in pl.wires)
            out_mask = sum(bit(w, level) for w in pl.wires)
            gates.append((in_mask, out_mask))

    known: set[int] = set()

    def close_under_subsets(mask: int, worklist: list[int]) -> None:
        stack = [mask]
        while stack:
            m = stack.pop()
            if m in known:
                continue
            known.add(m)
            worklist.append(m)
            b = m
            while b:
                low = b & -b
                stack.append(m & ~low)
                b &= b - 1

    worklist: list[int] = []
    close_under_subsets(sum(bit(w, 0) for w in range(n)), worklist)
    while worklist:
        v = worklist.pop()
        for in_mask, out_mask in gates:
            if v & in_mask == in_mask:
                close_under_subsets((v & ~in_mask) | out_mask, worklist)

    def refs(mask: int) -> frozenset[QubitRef]:
        out = []
        pos = 0
        while mask:
            if mask & 1:
                out.append(QubitRef(pos % n, pos // n))
            mask >>= 1
            pos += 1
        return frozenset(out)

    return {refs(m) for m in known}


def _apply_unitary_state(psi: np.ndarray, u: np.ndarray, wires: tuple[int, ...], n: int) -> np.ndarray:
    k = len(wires)
    ut = u.reshape((2,) * (2 * k))
    t = np.tensordot(ut, psi.reshape((2,) * n), axes=(list(range(k, 2 * k)), list(wires)))
    return np.moveaxis(t, range(k), wires).reshape(-1)


def _depolarizing(p: float) -> list[tuple[float, np.ndarray]]:
    return list(zip([1 - 3 * p / 4, p / 4, p / 4, p / 4], (PAULI_MATS[c] for c in "IXYZ")))


def _gate_kraus(pl: GatePlacement) -> list[tuple[float, np.ndarray]]:
    """The gate's (weight, Kraus operator) pairs, a canonical-form term's two
    operators sharing the term's weight."""
    spec = lower_builtin(pl.gate)
    if isinstance(spec, OneQubitGate):
        return [(q, k) for q, ch in spec.terms for k in kraus_of_rsw(ch)]
    return list(spec.terms)


def forgets_input(pl: GatePlacement, noise: NoiseModel) -> bool:
    """Whether the noisy gate's output does not depend on its input, by the
    dense channel: every non-identity Pauli string P on its wires maps to
    sum w K P K^dagger = 0, to 1e-14, through the input depolarizations and
    then the gate (one-qubit: the gate, then the output depolarization)."""
    k = len(pl.wires)
    p = noise.epsk if k >= 2 else noise.eps1
    noisy = [
        [(w, reduce(np.kron, [pauli if j == site else np.eye(2) for j in range(k)])) for w, pauli in _depolarizing(p)]
        for site in range(k)
    ]
    gate = [_gate_kraus(pl)]
    for s in list(all_pauli_strings(k))[1:]:
        op = s.matrix()
        for channel in noisy + gate if k >= 2 else gate + noisy:
            op = sum(w * kraus @ op @ kraus.conj().T for w, kraus in channel)
        if np.abs(op).max() > 1e-14:
            return False
    return True


def output_support(circ: Circuit) -> tuple[list[list[tuple[GatePlacement, bool]]], list[set[int]]]:
    """The gates the output's measurement can see, by a backward sweep over
    sets of wires from the output wire at level T: a gate on a live wire is
    kept; one that forgets its input (:func:`forgets_input`) makes its
    wires dead before it, any other makes them live.  Per level, the kept
    placements in index order, each with whether it forgets; and the live
    sets at times 0..T."""
    live = {circ.output_wire}
    kept, lives = [], [set(live)]
    for level in reversed(circ.levels):
        here = [(pl, forgets_input(pl, circ.noise)) for pl in level if live & set(pl.wires)]
        dead = {w for pl, forgets in here if forgets for w in pl.wires}
        live = (live - dead) | {w for pl, forgets in here if not forgets for w in pl.wires}
        kept.insert(0, here)
        lives.insert(0, set(live))
    return kept, lives


def _trajectory_p1(circ: Circuit, support: tuple, bits: str, gen: random.Random) -> float:
    """One noisy trajectory from the basis state ``bits``, on the support's
    live wires only (in increasing order); its outcome-1 probability at the
    output.  A wire joins as |0> before a kept gate that forgets its input;
    after each level, each wire leaving the live set is measured and
    dropped, in increasing wire order."""
    kept, lives = support
    live = sorted(lives[0])
    psi = np.zeros(2 ** len(live), dtype=complex)
    psi[int("0" + "".join(bits[w] for w in live), 2)] = 1.0

    def draw(probs) -> int:
        # numpy's choice(p=probs) rule on one uniform of the stream
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        return int(cdf.searchsorted(gen.random(), side="right"))

    def on(psi: np.ndarray, u: np.ndarray, wires) -> np.ndarray:
        return _apply_unitary_state(psi, u, tuple(live.index(w) for w in wires), len(live))

    def depolarize(psi: np.ndarray, wires: tuple[int, ...], p: float) -> np.ndarray:
        probs = np.array([1 - 3 * p / 4, p / 4, p / 4, p / 4])
        for w in wires:
            choice = draw(probs)
            if choice:
                psi = on(psi, PAULI_MATS["IXYZ"[choice]], (w,))
        return psi

    def kraus(psi: np.ndarray, k0: np.ndarray, k1: np.ndarray, wires) -> np.ndarray:
        psi1 = on(psi, k0, wires)
        w1 = float(np.vdot(psi1, psi1).real)
        if gen.random() < w1:
            return psi1 / max(np.sqrt(w1), 1e-300)
        psi2 = on(psi, k1, wires)
        return psi2 / max(np.linalg.norm(psi2), 1e-300)

    for here, after in zip(kept, lives[1:]):
        for pl, forgets in here:
            for w in pl.wires if forgets else ():
                pos = sum(v < w for v in live)
                live.insert(pos, w)
                psi = np.stack([psi.reshape((2,) * (len(live) - 1)), np.zeros((2,) * (len(live) - 1))], axis=pos)
                psi = psi.reshape(-1)
            spec = lower_builtin(pl.gate)
            probs = np.array([q for q, _ in spec.terms])
            multi = len(pl.wires) >= 2
            if multi:
                psi = depolarize(psi, pl.wires, circ.noise.epsk)
            _, term = spec.terms[draw(probs / probs.sum())]
            if isinstance(spec, OneQubitGate):
                psi = kraus(psi, *kraus_of_rsw(term), pl.wires)
            else:
                psi = on(psi, term, pl.wires)
            if not multi:
                psi = depolarize(psi, pl.wires, circ.noise.eps1)
        for w in sorted(set(live) - after):
            # measure w, keeping the 0 half where the uniform is below its weight
            halves = np.moveaxis(psi.reshape((2,) * len(live)), live.index(w), 0).reshape(2, -1)
            w0 = float(np.vdot(halves[0], halves[0]).real)
            if gen.random() < w0:
                psi = halves[0] / max(np.sqrt(w0), 1e-300)
            else:
                psi = halves[1] / max(np.linalg.norm(halves[1]), 1e-300)
            live.remove(w)
    one = psi[1]
    return float(one.real * one.real + one.imag * one.imag)


def sample_by_trajectory(circ: Circuit, rho_bits: str, tau_bits: str, shots: int, seed: int) -> float:
    """The trajectory sampler one shot at a time, on the output's support:
    every depolarizing Pauli, mixture branch, Kraus branch and dropped
    wire's measurement takes its own ``random.Random(seed)`` uniform on one
    state vector of the live wires; rho's shots come first."""
    gen = random.Random(seed)
    support = output_support(circ)
    est = [sum(_trajectory_p1(circ, support, bits, gen) for _ in range(shots)) / shots for bits in (rho_bits, tau_bits)]
    return abs(est[0] - est[1])


def random_product_density(n: int, rng: np.random.Generator) -> np.ndarray:
    """A product of n random one-qubit pure states."""
    m = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        m = np.kron(m, random_pure_density(1, rng))
    return m
