"""Seeded self-check suites: cross-engine agreement and channel identities.

Each suite runs a number of randomized cases and reports failures as
human-readable strings; all suites passing is strong evidence that the two
engines implement the same map and that the channel-level identities the
bound machinery relies on hold numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import (
    BUILTIN_MATRICES,
    BuiltinGate,
    OneQubitGate,
    RswChannel,
    UnitaryMixture,
    beta_of_gate,
    cnot_pauli_action,
    gate_ptm,
    ptm_of_unitary,
)
from .circuit import Circuit, GatePlacement, NoiseModel, QubitRef, haar_unitary, random_circuit
from .paulis import CoeffVector, PauliString, coeffs_from_op, pauli_conjugation_oracle, sum_of_squares
from .simulate import (
    BasisPair,
    InputPair,
    basis_density,
    born_probability_one,
    distinguishability_by_depth,
    evolve_density,
    evolve_pauli,
    full_cut,
    min_cut,
    random_hermitian,
    random_pure_density,
)

ENGINE_POOL = ("CNOT", "H", "S", "T", "RESET", "ID", "RANDMIX2")


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _random_one_qubit_gate(rng: np.random.Generator) -> OneQubitGate:
    nterms = int(rng.integers(1, 4))
    probs = rng.dirichlet(np.ones(nterms))
    terms = []
    for p in probs:
        ch = RswChannel(
            lam1=float(rng.uniform(-1, 1)),
            lam2=float(rng.uniform(-1, 1)),
            t_sign=int(rng.choice([-1, 1])),
            pre_unitary=haar_unitary(2, rng),
            post_unitary=haar_unitary(2, rng),
        )
        terms.append((float(p), ch))
    return OneQubitGate(terms)


def _mix_one_qubit_gate(pl: GatePlacement, rng: np.random.Generator) -> GatePlacement:
    """``pl``, or for a one-qubit gate, a third of the time each, a DEPOL or
    a random canonical-form gate, which the builtin pools never draw."""
    kind = int(rng.integers(3)) if len(pl.wires) == 1 else 0
    if kind == 0:
        return pl
    gate = BuiltinGate("DEPOL", float(rng.random())) if kind == 1 else _random_one_qubit_gate(rng)
    return GatePlacement(pl.wires, gate)


def suite_engine_equivalence(seed: int, cases: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    res = SuiteResult("engine-equivalence", cases)
    for i in range(cases):
        n = int(rng.integers(2, 6))
        t = int(rng.integers(1, 4))
        circ = random_circuit(
            n, t, seed=int(rng.integers(1 << 31)), gate_pool=ENGINE_POOL, k=2,
            noise=NoiseModel(0.05 + 0.1 * rng.random(), 0.4 + 0.1 * rng.random()),
        )
        levels = [[_mix_one_qubit_gate(pl, rng) for pl in level] for level in circ.levels]
        circ = Circuit(n, t, levels, circ.noise, circ.output_wire)
        delta = random_hermitian(n, rng)
        dense = coeffs_from_op(evolve_density(circ, delta, full_cut(circ)))
        pauli = evolve_pauli(circ, coeffs_from_op(delta), full_cut(circ))
        err = float(np.max(np.abs(dense.values - pauli.values)))
        if err > 1e-9:
            res.failures.append(f"case {i}: engines differ by {err:.3g}")
    return res


def suite_unitary_sum_of_squares(seed: int, cases: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    res = SuiteResult("unitary-sum-of-squares", cases)
    for i in range(cases):
        k = int(rng.integers(1, 3))
        u = haar_unitary(2**k, rng)
        v = CoeffVector(k, rng.normal(size=4**k))
        w = CoeffVector(k, ptm_of_unitary(u).m @ v.values)
        if abs(sum_of_squares(w) - sum_of_squares(v)) > 1e-9:
            res.failures.append(f"case {i}: sum of squares not preserved")
    return res


def suite_noise_shrink(seed: int, cases: int) -> SuiteResult:
    """One level of ID gates with eps1 = p, evolved on one wire, shrinks
    exactly the coefficients supported on that wire, by exactly 1 - p."""
    rng = np.random.default_rng(seed)
    res = SuiteResult("noise-shrink", cases)
    for i in range(cases):
        n = int(rng.integers(1, 4))
        wire = int(rng.integers(n))
        p = 1.0 - float(rng.random())  # NoiseModel needs eps1 > 0
        v = rng.normal(size=4**n)
        level = [GatePlacement((w,), BuiltinGate("ID")) for w in range(n)]
        circ = Circuit(n, 1, [level], NoiseModel(p, 0.4), 0)
        cut = min_cut(circ, [QubitRef(wire, 1)])
        out = evolve_pauli(circ, CoeffVector(n, v), cut).values
        for s_idx in range(4**n):
            s = PauliString.from_index(n, s_idx)
            expect = v[s_idx] * (1 - p) if wire in s.support() else v[s_idx]
            if out[s_idx] != expect:
                res.failures.append(f"case {i}: coefficient {s.label()} wrong")
                break
    return res


def suite_output_statistic(seed: int, cases: int) -> SuiteResult:
    """Every row of ``distinguishability_by_depth``, which evolves only the
    output's light cone, against the dense Born difference of the matching
    prefix, for a random pure-state pair and a random basis-state pair."""
    rng = np.random.default_rng(seed)
    res = SuiteResult("output-statistic", cases)
    for i in range(cases):
        n = int(rng.integers(1, 6))
        t = int(rng.integers(1, 4))
        circ = random_circuit(
            n, t, seed=int(rng.integers(1 << 31)),
            gate_pool=ENGINE_POOL if n >= 2 else ("H", "S", "RESET", "ID"),
            k=2 if n >= 2 else 1,
        )
        pure = InputPair(random_pure_density(n, rng), random_pure_density(n, rng))
        bits = ["".join(map(str, rng.integers(0, 2, n))) for _ in range(2)]
        inputs = [(pure, pure.rho, pure.tau), (BasisPair(*bits), *map(basis_density, bits))]
        for pair, rho, tau in inputs:
            rows = distinguishability_by_depth(circ, pair, t)
            for depth, measured in enumerate(rows):
                prefix = circ.prefix(depth)
                p_rho, p_tau = (
                    born_probability_one(
                        evolve_density(prefix, state, full_cut(prefix)), circ.output_wire, n
                    )
                    for state in (rho, tau)
                )
                if abs(measured - abs(p_rho - p_tau)) > 1e-10:
                    res.failures.append(
                        f"case {i}, {type(pair).__name__} at depth {depth}: "
                        "disagrees with Born difference"
                    )
    return res


def suite_convexity(seed: int, cases: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    res = SuiteResult("convexity", cases)
    for i in range(cases):
        k = int(rng.integers(1, 3))
        nterms = int(rng.integers(2, 4))
        probs = rng.dirichlet(np.ones(nterms))
        us = [haar_unitary(2**k, rng) for _ in range(nterms)]
        mix = UnitaryMixture(k, list(zip(map(float, probs), us)))
        v = rng.normal(size=4**k)
        mixed = gate_ptm(mix).m @ v
        branch = sum(
            p * float(np.dot(ptm_of_unitary(u).m @ v, ptm_of_unitary(u).m @ v))
            for p, u in zip(probs, us)
        )
        if float(np.dot(mixed, mixed)) > branch + 1e-9:
            res.failures.append(f"case {i}: convexity violated")
    return res


def suite_one_qubit_beta_bound(seed: int, cases: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    res = SuiteResult("one-qubit-beta-bound", cases)
    xyz = [PauliString.from_label(c).index() for c in "XYZ"]
    for i in range(cases):
        g = _random_one_qubit_gate(rng)
        beta = beta_of_gate(g)
        v = coeffs_from_op(random_hermitian(1, rng)).values
        w = gate_ptm(g).m @ v
        lhs = sum(w[j] ** 2 for j in xyz)
        rhs = (1 - beta) * v[0] ** 2 + beta * sum(v[j] ** 2 for j in xyz)
        if not 0.0 <= beta <= 1.0:
            res.failures.append(f"case {i}: beta {beta} outside [0,1]")
        elif lhs > rhs + 1e-9:
            res.failures.append(f"case {i}: beta bound violated by {lhs - rhs:.3g}")
    return res


def suite_cnot_table(seed: int, cases: int) -> SuiteResult:
    res = SuiteResult("cnot-table", 16 if cases else 0)
    if not cases:
        return res
    cnot = BUILTIN_MATRICES["CNOT"]
    for a in "IXYZ":
        for b in "IXYZ":
            r = PauliString.from_label(a + b)
            got = cnot_pauli_action(r)
            want = pauli_conjugation_oracle(cnot, r)
            if not isinstance(want, tuple) or got != want:
                res.failures.append(f"{a}{b}: table disagrees with conjugation")
                continue
            out, _ = got
            in_i_star = a == "I" and b != "I"
            in_star_i = a != "I" and b == "I"
            out_i_star = out.letter(0) == "I" and out.letter(1) != "I"
            out_star_i = out.letter(0) != "I" and out.letter(1) == "I"
            if (in_i_star and out_star_i) or (in_star_i and out_i_star):
                res.failures.append(f"{a}{b}: crosses the I-block boundary")
    return res


def suite_gate_validation(seed: int, cases: int) -> SuiteResult:
    res = SuiteResult("gate-validation", 3 if cases else 0)
    if not cases:
        return res
    for build, problem in (
        (lambda: UnitaryMixture(1, [(0.5, np.eye(2)), (0.4, BUILTIN_MATRICES["H"])]), "probabilities"),
        (lambda: OneQubitGate([(1.0, RswChannel(1.2, 0.5))]), "lambda range"),
        (lambda: UnitaryMixture(1, [(1.0, np.array([[1, 1], [0, 1]]))]), "unitarity"),
    ):
        try:
            build()
        except ValueError as e:
            if str(e).startswith(f"invalid gate: {problem}"):
                continue
        res.failures.append(f"a gate with a {problem} fault was not refused for it")
    return res


def run_all(seed: int, cases: int) -> list[SuiteResult]:
    """Every suite, the i-th seeded with ``seed + i``.  One that raises
    ValueError, as the engines do on a broken result, fails with the message."""
    suites = (
        suite_engine_equivalence, suite_unitary_sum_of_squares, suite_noise_shrink,
        suite_output_statistic, suite_convexity, suite_one_qubit_beta_bound,
        suite_cnot_table, suite_gate_validation,
    )
    results = []
    for i, suite in enumerate(suites):
        try:
            results.append(suite(seed + i, cases))
        except ValueError as e:
            name = suite.__name__.removeprefix("suite_").replace("_", "-")
            results.append(SuiteResult(name, cases, [f"raised ValueError: {e}"]))
    return results
