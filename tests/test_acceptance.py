"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

from paulidelta import (
    BuiltinGate,
    CoeffVector,
    GatePlacement,
    InputPair,
    NoiseModel,
    OneQubitGate,
    PauliString,
    QubitRef,
    RswChannel,
    all_pauli_strings,
    audit_invariant,
    basis_density,
    beta_of_gate,
    born_probability_one,
    cnot_pauli_action,
    cnot_threshold,
    coeffs_from_op,
    decay_table,
    enumerate_consistent_sets,
    epsk_threshold,
    evolve_density,
    evolve_pauli,
    full_cut,
    gate_ptm,
    haar_unitary,
    is_consistent,
    min_cut,
    output_distinguishability,
    parse_circuit,
    partial_trace,
    pauli_conjugation_oracle,
    ptm_of_unitary,
    random_circuit,
    random_hermitian,
    random_product_density,
    random_pure_density,
    restrict_coeffs,
    sum_of_squares,
    sweep,
    theta_for,
)
from paulidelta.channels import BUILTIN_MATRICES, UnitaryMixture
from paulidelta.circuit import Circuit

from oracles import inductive_consistent_sets

FULL_POOL = ("CNOT", "H", "S", "T", "RESET", "ID", "RANDMIX2")
ONEQ_POOL = ("H", "S", "T", "RESET", "ID")


@contextmanager
def report(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def test_threshold_values():
    with report("threshold values"):
        assert abs(epsk_threshold(2) - 0.356406) <= 1e-6
        assert epsk_threshold(1) == 0.0
        assert abs(cnot_threshold() - 0.292893) <= 1e-6


def test_dual_engine_equivalence():
    with report("dual-engine equivalence (100 circuits)"):
        rng = np.random.default_rng(2024)
        for i in range(100):
            n = 2 + i % 3
            t = 1 + i % 5
            circ = random_circuit(
                n, t, seed=2000 + i, gate_pool=FULL_POOL, k=2,
                noise=NoiseModel(0.02 + 0.1 * rng.random(), 0.5 * rng.random()),
            )
            delta = random_pure_density(n, rng) - random_pure_density(n, rng)
            dense = coeffs_from_op(evolve_density(circ, delta, full_cut(circ)))
            pauli = evolve_pauli(circ, coeffs_from_op(delta), full_cut(circ))
            assert np.max(np.abs(dense.values - pauli.values)) <= 1e-9, i


def test_unitary_preserves_sum_of_squares():
    with report("sum-of-squares preservation (200 unitaries)"):
        rng = np.random.default_rng(31)
        for _ in range(200):
            k = int(rng.integers(1, 3))
            m = ptm_of_unitary(haar_unitary(2**k, rng)).m
            v = rng.normal(size=4**k)
            w = m @ v
            assert abs(np.dot(w, w) - np.dot(v, v)) <= 1e-9


def test_trace_out_identity_exhaustive():
    with report("trace-out coefficient identity (exhaustive n<=3)"):
        rng = np.random.default_rng(37)
        for n in (1, 2, 3):
            op = random_hermitian(n, rng)
            v = coeffs_from_op(op)
            for size in range(n + 1):
                for keep in combinations(range(n), size):
                    got = restrict_coeffs(v, keep)
                    want = coeffs_from_op(partial_trace(op, keep, n))
                    assert np.max(np.abs(got.values - want.values)) <= 1e-10


def test_depolarizing_shrink_exact():
    with report("depolarizing shrink factor exactly (1-p)"):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            wire = int(rng.integers(n))
            p = 1.0 - float(rng.random())  # NoiseModel needs eps1 > 0
            v = rng.normal(size=4**n)
            level = [GatePlacement((w,), BuiltinGate("ID")) for w in range(n)]
            c = Circuit(n, 1, [level], NoiseModel(p, 0.4), 0)
            out = evolve_pauli(c, CoeffVector(n, v), min_cut(c, [QubitRef(wire, 1)])).values
            for s in all_pauli_strings(n):
                want = v[s.index()] * (1 - p) if wire in s.support() else v[s.index()]
                assert out[s.index()] == want


def test_output_statistic_equals_born_difference():
    with report("output statistic equals Born difference"):
        rng = np.random.default_rng(43)
        for i in range(20):
            n = 2 + i % 3
            circ = random_circuit(n, 1 + i % 4, seed=300 + i, gate_pool=FULL_POOL, k=2)
            pair = InputPair(random_pure_density(n, rng), random_pure_density(n, rng))
            measured = output_distinguishability(circ, pair)
            p_rho = born_probability_one(
                evolve_density(circ, pair.rho, full_cut(circ)), circ.output_wire, n)
            p_tau = born_probability_one(
                evolve_density(circ, pair.tau, full_cut(circ)), circ.output_wire, n)
            assert abs(measured - abs(p_rho - p_tau)) <= 1e-10


def test_mixture_convexity():
    with report("mixture convexity (200 mixtures)"):
        rng = np.random.default_rng(47)
        for _ in range(200):
            k = int(rng.integers(1, 3))
            probs = rng.dirichlet(np.ones(int(rng.integers(2, 4))))
            us = [haar_unitary(2**k, rng) for _ in probs]
            mix = UnitaryMixture(k, list(zip(map(float, probs), us)))
            v = rng.normal(size=4**k)
            mixed = gate_ptm(mix).m @ v
            split = sum(
                p * float(np.dot(ptm_of_unitary(u).m @ v, ptm_of_unitary(u).m @ v))
                for p, u in zip(probs, us)
            )
            assert float(np.dot(mixed, mixed)) <= split + 1e-9


def test_one_qubit_beta_bound():
    with report("one-qubit beta bound (1000 cases incl. endpoints)"):
        rng = np.random.default_rng(53)
        xyz = [PauliString.from_label(c).index() for c in "XYZ"]
        unitary = OneQubitGate([(1.0, RswChannel(1.0, 1.0, 1, haar_unitary(2, rng), haar_unitary(2, rng)))])
        reset = OneQubitGate([(1.0, RswChannel(0.0, 0.0, 1))])
        assert beta_of_gate(unitary) == 1.0
        assert beta_of_gate(reset) == 0.0
        gates = [unitary, reset]
        while len(gates) < 1000:
            nterms = int(rng.integers(1, 4))
            probs = rng.dirichlet(np.ones(nterms))
            gates.append(OneQubitGate([
                (float(p), RswChannel(
                    float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)),
                    int(rng.choice([-1, 1])), haar_unitary(2, rng), haar_unitary(2, rng)))
                for p in probs
            ]))
        for g in gates:
            beta = beta_of_gate(g)
            assert 0.0 <= beta <= 1.0
            m = gate_ptm(g).m
            v = coeffs_from_op(random_hermitian(1, rng)).values
            w = m @ v
            lhs = sum(w[j] ** 2 for j in xyz)
            rhs = (1 - beta) * v[0] ** 2 + beta * sum(v[j] ** 2 for j in xyz)
            assert lhs <= rhs + 1e-9


def _audit_family(index: int) -> tuple[Circuit, int]:
    n = 2 + index % 3
    t = 2 + index % 3
    noise = NoiseModel(0.05 + 0.01 * (index % 10), 0.42 + 0.01 * (index % 10))
    pool = FULL_POOL if index % 2 else ("CNOT", "H", "S", "RESET", "ID")
    return random_circuit(n, t, seed=7000 + index, gate_pool=pool, k=2, noise=noise), n


def test_invariant_audit():
    with report("shrink-invariant audit (20 circuits x 5 pairs)"):
        rng = np.random.default_rng(59)
        for i in range(20):
            circ, n = _audit_family(i)
            result = theta_for(circ.noise, 2)
            assert result.feasible, (i, circ.noise)
            pairs = [
                InputPair(basis_density("0" * n), basis_density("1" * n)),
                InputPair(random_product_density(n, rng), random_product_density(n, rng)),
                InputPair(random_product_density(n, rng), random_product_density(n, rng)),
                InputPair(random_pure_density(n, rng), random_pure_density(n, rng)),
                InputPair(random_pure_density(n, rng), random_pure_density(n, rng)),
            ]
            for pair in pairs:
                rep = audit_invariant(circ, pair, result.theta, max_size=4)
                assert rep.all_pass, (i, min(rep.records, key=lambda r: r.margin))


def test_decay_bound_holds():
    with report("decay bound over T=1..12 prefixes"):
        rng = np.random.default_rng(61)
        for i in range(10):
            n = 2 + i % 3
            noise = NoiseModel(0.05 + 0.01 * i, 0.42 + 0.01 * i)
            circ = random_circuit(n, 12, seed=8000 + i, gate_pool=FULL_POOL, k=2, noise=noise)
            result = theta_for(noise, 2)
            assert result.feasible
            pair = InputPair(basis_density("0" * n), basis_density("1" * n))
            for t, measured, bound in decay_table(circ, pair, list(range(1, 13)), result.theta):
                assert measured <= bound + 1e-9, (i, t)


def test_all_identity_decay_exact():
    with report("all-identity circuit reproduces (1-eps1)^T"):
        lines = ["qubits 1 levels 10 output 0", "noise eps1=0.01 epsk=0.4"]
        lines += [f"level {i}: ID(0)" for i in range(1, 11)]
        circ = parse_circuit("\n".join(lines))
        pair = InputPair(basis_density("0"), basis_density("1"))
        measured = output_distinguishability(circ, pair)
        assert abs(measured - 0.904382) <= 1e-6
        assert abs(measured - 0.99**10) <= 1e-9


def test_cnot_table_structure():
    with report("CNOT conjugation table and block structure"):
        cnot = BUILTIN_MATRICES["CNOT"]
        for a in "IXYZ":
            for b in "IXYZ":
                r = PauliString.from_label(a + b)
                got = cnot_pauli_action(r)
                assert got == pauli_conjugation_oracle(cnot, r)
                out, _ = got
                in_i_star = a == "I" and b != "I"
                in_star_i = a != "I" and b == "I"
                out_i_star = out.letter(0) == "I" and out.letter(1) != "I"
                out_star_i = out.letter(0) != "I" and out.letter(1) == "I"
                assert not (in_i_star and out_star_i)
                assert not (in_star_i and out_i_star)
        assert cnot_pauli_action(PauliString.from_label("XI")) == (PauliString.from_label("XX"), 1)
        assert cnot_pauli_action(PauliString.from_label("IZ")) == (PauliString.from_label("ZZ"), 1)
        assert cnot_pauli_action(PauliString.from_label("YY")) == (PauliString.from_label("XZ"), -1)


def test_threshold_bracketing():
    with report("threshold bracketing by sweep"):
        rows = sweep([0.1], [0.35, 0.36], k=2)
        assert [r.feasible for _, _, r in rows] == [False, True]
        rows = sweep([0.1], [0.29, 0.30], k=2, cnot_only=True)
        assert [r.feasible for _, _, r in rows] == [False, True]


def test_consistency_machinery_vs_oracle():
    with report("consistency machinery vs inductive oracle (50 circuits)"):
        shapes = [(1, 5), (1, 11), (2, 2), (2, 3), (2, 5), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]
        for i in range(50):
            n, t = shapes[i % len(shapes)]
            pool = ONEQ_POOL if n == 1 else ("CNOT", "H", "RESET", "ID")
            circ = random_circuit(n, t, seed=9000 + i, gate_pool=pool, k=1 if n == 1 else 2)
            assert circ.n * (circ.T + 1) <= 12
            oracle = inductive_consistent_sets(circ)
            grid = [QubitRef(w, tt) for tt in range(t + 1) for w in range(n)]
            for size in range(len(grid) + 1):
                for combo in combinations(grid, size):
                    v = frozenset(combo)
                    assert is_consistent(v, circ) == (v in oracle)
            enumerated = {cs.qubits for cs in enumerate_consistent_sets(circ, max_size=len(grid))}
            assert enumerated == oracle
