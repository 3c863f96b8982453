"""Independent brute-force oracles the test suite checks the library against.

These deliberately avoid the library's fast paths: coefficients come from
literal traces against dense Pauli matrices, and consistency comes from the
inductive closure (time-0 sets are consistent; replacing all inputs of a
gate with its outputs, and taking subsets, preserves consistency).  The
reference trajectory sampler advances one shot at a time.
"""

import random

import numpy as np

from paulidelta import all_pauli_strings, coeffs_from_op
from paulidelta.channels import OneQubitGate, kraus_of_rsw, lower_builtin
from paulidelta.circuit import Circuit, QubitRef
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


def _trajectory_p1(circ: Circuit, psi: np.ndarray, gen: random.Random) -> float:
    """One noisy trajectory from ``psi``; its outcome-1 probability at the output."""
    n = circ.n

    def draw(probs) -> int:
        # numpy's choice(p=probs) rule on one uniform of the stream
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        return int(cdf.searchsorted(gen.random(), side="right"))

    def depolarize(psi: np.ndarray, wires: tuple[int, ...], p: float) -> np.ndarray:
        probs = np.array([1 - 3 * p / 4, p / 4, p / 4, p / 4])
        for w in wires:
            choice = draw(probs)
            if choice:
                psi = _apply_unitary_state(psi, PAULI_MATS["IXYZ"[choice]], (w,), n)
        return psi

    for level in circ.levels:
        for pl in level:
            spec = lower_builtin(pl.gate)
            probs = np.array([q for q, _ in spec.terms])
            multi = len(pl.wires) >= 2
            if multi:
                psi = depolarize(psi, pl.wires, circ.noise.epsk)
            _, term = spec.terms[draw(probs / probs.sum())]
            if isinstance(spec, OneQubitGate):
                k0, k1 = kraus_of_rsw(term)
                psi1 = _apply_unitary_state(psi, k0, pl.wires, n)
                w1 = float(np.vdot(psi1, psi1).real)
                if gen.random() < w1:
                    psi = psi1 / max(np.sqrt(w1), 1e-300)
                else:
                    psi2 = _apply_unitary_state(psi, k1, pl.wires, n)
                    psi = psi2 / max(np.linalg.norm(psi2), 1e-300)
            else:
                psi = _apply_unitary_state(psi, term, pl.wires, n)
            if not multi:
                psi = depolarize(psi, pl.wires, circ.noise.eps1)
    return float(np.sum(np.abs(np.take(psi.reshape((2,) * n), 1, axis=circ.output_wire)) ** 2))


def sample_by_trajectory(circ: Circuit, rho_bits: str, tau_bits: str, shots: int, seed: int) -> float:
    """The trajectory sampler one shot at a time: every depolarizing Pauli,
    mixture branch and Kraus branch takes its own ``random.Random(seed)``
    uniform on one 2^n state vector; rho's shots come first."""
    gen = random.Random(seed)
    est = []
    for bits in (rho_bits, tau_bits):
        psi0 = np.zeros(2**circ.n, dtype=complex)
        psi0[int(bits, 2)] = 1.0
        est.append(sum(_trajectory_p1(circ, psi0, gen) for _ in range(shots)) / shots)
    return abs(est[0] - est[1])
