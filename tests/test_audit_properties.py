"""The audit's walk over the trie of cut prefixes: it gives exactly the
records that auditing each set from scratch gives, and the records the
dense engine gives, it applies one gate per distinct prefix, and it keeps
vectors only for pending branches, not one per distinct cut."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from strategies import mix_one_qubit_gates

from paulidelta import simulate
from paulidelta import (
    BasisPair,
    InputPair,
    NoiseModel,
    audit_invariant,
    basis_density,
    enumerate_consistent_sets,
    evolve_density,
    invariant_check,
    min_cut,
    partial_trace,
    random_circuit,
    random_pure_density,
)

POOL = ("CNOT", "H", "T", "RESET", "ID", "RANDMIX2")
BENCH_POOL = ("CNOT", "H", "S", "T", "RESET", "ID", "RANDMIX2")
DENSE_POOL = ("CNOT", "CZ", "SWAP", "H", "T", "RESET", "ID", "RANDU2", "RANDMIX2")
THETA = 0.9


@st.composite
def audits(draw):
    """A seeded random circuit with n <= 5 and T <= 6, an input pair of basis
    states, and a set-size limit <= 3."""
    n = draw(st.integers(2, 5))
    T = draw(st.integers(0, 6))
    circ = random_circuit(
        n, T, seed=draw(st.integers(0, 2**31 - 1)), gate_pool=POOL, k=2,
        noise=NoiseModel(0.05, 0.45),
    )
    bits = st.text("01", min_size=n, max_size=n)
    return circ, BasisPair(draw(bits), draw(bits)), draw(st.integers(0, 3))


@given(audits())
def test_audit_walk_matches_per_set_checks(audit):
    circ, pair, max_size = audit
    calls, run_step = 0, simulate._run_step

    def count(*args):
        nonlocal calls
        calls += 1
        return run_step(*args)

    with mock.patch.object(simulate, "_run_step", count):
        got = audit_invariant(circ, pair, THETA, max_size).records
    assert calls == _distinct_prefixes(circ, max_size)
    sets = list(enumerate_consistent_sets(circ, max_size))
    assert len(got) == len(sets)
    for rec, vset in zip(got, sets):
        want = invariant_check(circ, pair, vset, THETA)
        assert rec.qubits == want.qubits
        assert rec.dist == want.dist
        assert rec.rhs == want.rhs
        assert rec.lhs == want.lhs


def test_audit_walk_matches_per_set_checks_for_dense_pairs():
    # An InputPair's coefficients are a strided view (the real part of a
    # complex array); the walk must evolve it as evolve_pauli does.
    rng = np.random.default_rng(4)
    for n, seed in [(3, 4), (4, 0), (4, 5)]:
        circ = random_circuit(n, 5, seed=seed, gate_pool=POOL, k=2, noise=NoiseModel(0.05, 0.45))
        pair = InputPair(random_pure_density(n, rng), random_pure_density(n, rng))
        got = audit_invariant(circ, pair, THETA, 2).records
        for rec, vset in zip(got, enumerate_consistent_sets(circ, 2)):
            assert rec.lhs == invariant_check(circ, pair, vset, THETA).lhs


@st.composite
def dense_audits(draw):
    """A circuit with n <= 4 and T <= 4, some of its one-qubit gates made
    DEPOL or canonical-form gates, a basis or a dense pure input pair with
    its dense difference, and a set-size limit from 1 to 3."""
    n, T = draw(st.integers(2, 4)), draw(st.integers(0, 4))
    noise = NoiseModel(draw(st.floats(0.01, 0.3)), draw(st.floats(0.0, 0.6)))
    seed = draw(st.integers(0, 2**31 - 1))
    circ = mix_one_qubit_gates(draw, random_circuit(n, T, seed=seed, gate_pool=DENSE_POOL, k=2, noise=noise))
    if draw(st.booleans()):
        bits = st.text("01", min_size=n, max_size=n)
        pair = BasisPair(draw(bits), draw(bits))
        delta = basis_density(pair.rho_bits) - basis_density(pair.tau_bits)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
        pair = InputPair(random_pure_density(n, rng), random_pure_density(n, rng))
        delta = pair.delta()
    return circ, pair, delta, draw(st.integers(1, 3))


@given(dense_audits())
def test_audit_records_equal_the_dense_engine(audit):
    # invariant_check runs the audit's own walk; the dense engine shares
    # neither its matrices nor its walk.
    circ, pair, delta, max_size = audit
    records = audit_invariant(circ, pair, THETA, max_size).records
    sets = list(enumerate_consistent_sets(circ, max_size))
    assert len(records) == len(sets)
    evolved = {}
    for rec, vset in zip(records, sets):
        if vset.cut not in evolved:
            evolved[vset.cut] = evolve_density(circ, delta, vset.cut)
        d = partial_trace(evolved[vset.cut], [w for w, _ in vset.refs], circ.n)
        assert rec.qubits == vset.refs
        assert abs(rec.lhs - np.trace(d @ d).real) <= 1e-12


def _distinct_prefixes(circ, max_size):
    """The distinct non-empty (level, index)-prefixes of the sets' minimal cuts,
    their gates listed earliest first."""
    prefixes = set()
    for vset in enumerate_consistent_sets(circ, max_size):
        cut = tuple(circ.cones.gates_of(min_cut(circ, vset.qubits)))
        prefixes.update(cut[:j] for j in range(1, len(cut) + 1))
    return len(prefixes)


@pytest.mark.parametrize("n, max_size, prefixes", [(4, 4, 818), (8, 3, 6754)])
def test_audit_applies_one_gate_per_distinct_cut_prefix(n, max_size, prefixes, monkeypatch):
    circ = random_circuit(n, 6, seed=3, gate_pool=BENCH_POOL, k=2, noise=NoiseModel(0.05, 0.45))
    calls = 0

    def count(values, *step):  # counts only; the property above checks the values
        nonlocal calls
        calls += 1
        return values

    monkeypatch.setattr(simulate, "_run_step", count)
    audit_invariant(circ, BasisPair("0" * n, "1" * n), THETA, max_size)
    assert calls == _distinct_prefixes(circ, max_size) == prefixes


def test_audit_memory_does_not_grow_with_distinct_cuts():
    # 986 sets with 569 distinct minimal cuts; one 4^6 vector is 32 KiB.
    circ = random_circuit(6, 8, seed=3, gate_pool=BENCH_POOL, k=2, noise=NoiseModel(0.05, 0.45))
    pair = BasisPair("0" * 6, "1" * 6)
    vector_bytes = 8 * 4**6
    tracemalloc.start()
    try:
        report = audit_invariant(circ, pair, THETA, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.records) == 986
    assert peak < 200 * vector_bytes


def test_audit_values_are_pinned(on_haswell):
    # The CI audit: 8,342 sets of size <= 2 at n=6, T=40.  The digest pins
    # every record's set and lhs across versions, not only against
    # invariant_check of the same version.
    code = """
import hashlib
from paulidelta import BasisPair, NoiseModel, audit_invariant, random_circuit, theta_for
noise = NoiseModel(0.05, 0.45)
pool = ("CNOT", "H", "S", "T", "RESET", "ID", "RANDMIX2")
circ = random_circuit(6, 40, seed=3, gate_pool=pool, k=2, noise=noise)
records = audit_invariant(circ, BasisPair("0" * 6, "1" * 6), theta_for(noise, 2).theta, 2).records
text = "".join(f"{r.qubits} {r.lhs:.12g}\\n" for r in records)
print(len(records), hashlib.sha256(text.encode()).hexdigest())
"""
    assert on_haswell("-c", code).split() == [
        "8342", "d4dbcbb880c3e44ab67101fd89bd4917f351d297f21f8fba6b23135d8f28fd46"
    ]
