"""Cross-checks of the Pauli engine's fast paths against the dense
density-matrix engine and against per-prefix evaluation, on seeded random
circuits with n <= 5 and T <= 6, and at the dense engine's cap, some of
whose one-qubit gates become DEPOL or multi-term canonical-form gates."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import random_product_density
from strategies import mix_one_qubit_gates

from paulidelta import (
    InputPair,
    NoiseModel,
    QubitRef,
    born_probability_one,
    coeffs_from_op,
    decay_table,
    evolve_density,
    evolve_pauli,
    full_cut,
    min_cut,
    output_distinguishability,
    random_circuit,
    random_hermitian,
    random_pure_density,
)
from paulidelta.circuit import Circuit
from paulidelta.paulis import MAX_DENSE_QUBITS
from paulidelta.simulate import _apply, _channels

POOL = ("CNOT", "H", "T", "RESET", "ID", "RANDMIX2")
TOL = 1e-12


@st.composite
def circuits(draw, widths=st.integers(2, 5), depths=st.integers(1, 6)):
    n = draw(widths)
    T = draw(depths)
    noise = NoiseModel(draw(st.floats(0.01, 0.3)), draw(st.floats(0.0, 0.6)))
    seed = draw(st.integers(0, 2**31 - 1))
    out = draw(st.integers(0, n - 1))
    circ = random_circuit(n, T, seed=seed, gate_pool=POOL, k=2, noise=noise, output_wire=out)
    return mix_one_qubit_gates(draw, circ)


def _pair(n: int, seed: int) -> InputPair:
    rng = np.random.default_rng(seed)
    return InputPair(random_pure_density(n, rng), random_product_density(n, rng))


def dense_decay(circ: Circuit, pair: InputPair) -> list[float]:
    """|Pr[1 | rho] - Pr[1 | tau]| after t = 0..T levels, from the dense
    difference evolved one level at a time."""
    op = pair.delta()
    rows = [abs(born_probability_one(op, circ.output_wire, circ.n))]
    for level in circ.levels:
        one = Circuit(circ.n, 1, [level], circ.noise, circ.output_wire)
        op = evolve_density(one, op, full_cut(one))
        rows.append(abs(born_probability_one(op, circ.output_wire, circ.n)))
    return rows


@settings(max_examples=40)
@given(circuits(), st.integers(0, 2**31 - 1), st.data())
def test_single_pass_decay_matches_prefixes_and_dense(circ, seed, data):
    ts = data.draw(st.lists(st.integers(0, circ.T), min_size=1, max_size=6))
    ts = ts + [0, ts[0]]  # always a depth 0 and a repeat; order as drawn
    pair = _pair(circ.n, seed)
    rows = decay_table(circ, pair, ts, 0.9)
    assert [t for t, _, _ in rows] == ts
    dense = dense_decay(circ, pair)
    for t, measured, bound in rows:
        assert abs(measured - output_distinguishability(circ.prefix(t), pair)) < TOL
        assert abs(measured - dense[t]) < TOL
        assert bound == 0.9 ** (t / 2)


@settings(max_examples=40)
@given(circuits(), st.integers(0, 2**31 - 1), st.data())
def test_compiled_evolution_matches_dense_on_random_cuts(circ, seed, data):
    grid = [QubitRef(w, t) for t in range(circ.T + 1) for w in range(circ.n)]
    refs = data.draw(st.sets(st.sampled_from(grid), max_size=4))
    cut = min_cut(circ, refs)
    delta = _pair(circ.n, seed).delta()
    pauli = evolve_pauli(circ, coeffs_from_op(delta), cut).values
    dense = coeffs_from_op(evolve_density(circ, delta, cut)).values
    assert np.max(np.abs(pauli - dense)) < TOL


@settings(max_examples=20)
@given(circuits())
def test_dense_engine_applies_one_superoperator_per_channel(circ):
    calls = []

    def counting(t, ops, axes):
        calls.append(ops.shape)
        return _apply(t, ops, axes)

    with mock.patch("paulidelta.simulate._apply", counting):
        evolve_density(circ, _pair(circ.n, 0).delta(), full_cut(circ))
    gates = [circ.levels[level - 1][i] for level, i in circ.cones.gates_of(full_cut(circ))]
    channels = [wires for pl in gates for wires, *_ in _channels(pl, circ.noise)]
    assert calls == [(4 ** len(wires),) * 2 for wires in channels]


@settings(max_examples=2, deadline=None)
@given(circuits(st.just(MAX_DENSE_QUBITS), st.integers(1, 2)), st.integers(0, 2**31 - 1))
def test_dense_engine_at_its_cap_matches_the_pauli_engine(circ, seed):
    op = random_hermitian(circ.n, np.random.default_rng(seed))  # no 2^n InputPair checks
    pauli = evolve_pauli(circ, coeffs_from_op(op), full_cut(circ)).values
    dense = coeffs_from_op(evolve_density(circ, op, full_cut(circ))).values
    assert np.max(np.abs(pauli - dense)) < TOL


def test_decay_rejects_depths_outside_the_circuit():
    circ = random_circuit(3, 4, seed=5, gate_pool=POOL, k=2)
    pair = _pair(3, 0)
    for bad in ([5], [-1], [0, 2, 5]):
        with pytest.raises(ValueError, match="outside"):
            decay_table(circ, pair, bad, 0.9)
    assert decay_table(circ, pair, [], 0.9) == []
