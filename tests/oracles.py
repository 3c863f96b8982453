"""Independent brute-force oracles the test suite checks the library against.

These deliberately avoid the library's fast paths: coefficients come from
literal traces against dense Pauli matrices, and consistency comes from the
inductive closure (time-0 sets are consistent; replacing all inputs of a
gate with its outputs, and taking subsets, preserves consistency).
"""

import numpy as np

from paulidelta import all_pauli_strings, coeffs_from_op
from paulidelta.circuit import Circuit, QubitRef


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
