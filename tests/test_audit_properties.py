"""The audit's walk over the trie of cut prefixes: it gives exactly the
records that auditing each set from scratch gives, it applies one gate per
distinct prefix, and it keeps vectors only for pending branches, not one
per distinct cut."""

import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from paulidelta import bounds
from paulidelta import (
    BasisPair,
    InputPair,
    NoiseModel,
    audit_invariant,
    enumerate_consistent_sets,
    invariant_check,
    min_cut,
    random_circuit,
    random_pure_density,
    theta_for,
)

POOL = ("CNOT", "H", "T", "RESET", "ID", "RANDMIX2")
BENCH_POOL = ("CNOT", "H", "S", "T", "RESET", "ID", "RANDMIX2")
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
    calls, run_step = 0, bounds._run_step

    def count(*args):
        nonlocal calls
        calls += 1
        return run_step(*args)

    with mock.patch.object(bounds, "_run_step", count):
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


def _distinct_prefixes(circ, max_size):
    """The distinct non-empty (level, index)-prefixes of the sets' minimal cuts."""
    prefixes = set()
    for vset in enumerate_consistent_sets(circ, max_size):
        cut = tuple(sorted(min_cut(circ, vset.qubits)))
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

    monkeypatch.setattr(bounds, "_run_step", count)
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


def test_audit_values_are_pinned():
    # The CI audit: 8,342 sets of size <= 2 at n=6, T=40.  The digest pins
    # every record's set and lhs across versions, not only against
    # invariant_check of the same version.
    noise = NoiseModel(0.05, 0.45)
    circ = random_circuit(6, 40, seed=3, gate_pool=BENCH_POOL, k=2, noise=noise)
    pair = BasisPair("0" * 6, "1" * 6)
    records = audit_invariant(circ, pair, theta_for(noise, 2).theta, 2).records
    text = "".join(f"{r.qubits} {r.lhs:.12g}\n" for r in records)
    assert len(records) == 8342
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b38c49dc9b73ba3ccad850f187c976568c6b61f2b60ce6e5b36445454319711f"
    )
