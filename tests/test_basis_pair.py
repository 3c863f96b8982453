"""Basis-state input pairs: the product-built delta coefficients equal the
dense transform exactly, and every engine gives the same results for a
``BasisPair`` as for the equivalent dense ``InputPair``."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paulidelta import (
    BasisPair,
    ConsistentSet,
    InputPair,
    NoiseModel,
    audit_invariant,
    basis_density,
    coeffs_from_op,
    decay_table,
    distinguishability_by_depth,
    enumerate_consistent_sets,
    invariant_check,
    random_circuit,
    restrict_coeffs,
)

POOL = ("CNOT", "H", "S", "T", "RESET", "ID", "RANDMIX2")


@st.composite
def bit_pairs(draw):
    n = draw(st.integers(1, 8))
    bits = st.text("01", min_size=n, max_size=n)
    return draw(bits), draw(bits)


@settings(max_examples=150)
@given(bit_pairs(), st.data())
def test_delta_coeffs_equal_the_dense_transform_exactly(bits, data):
    rho, tau = bits
    pair = BasisPair(rho, tau)
    got = pair.delta_coeffs()
    want = coeffs_from_op(basis_density(rho) - basis_density(tau))
    assert got.n == want.n == len(rho)
    assert np.array_equal(got.values, want.values)
    wires = data.draw(st.sets(st.integers(0, len(rho) - 1)))  # possibly empty
    got = pair.delta_coeffs(wires)
    want = restrict_coeffs(want, wires)
    assert got.n == want.n == len(wires)
    assert np.array_equal(got.values, want.values)


def _dense(pair: BasisPair) -> InputPair:
    return InputPair(basis_density(pair.rho_bits), basis_density(pair.tau_bits))


@pytest.mark.parametrize("seed", range(6))
def test_engines_agree_on_basis_and_dense_pairs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    T = int(rng.integers(1, 6))
    noise = NoiseModel(0.05, 0.45)
    circ = random_circuit(n, T, seed=seed, gate_pool=POOL, k=2, noise=noise)
    rho, tau = ("".join(rng.choice(["0", "1"], n)) for _ in range(2))
    pair = BasisPair(rho, tau)
    dense = _dense(pair)
    ts = list(range(T + 1))
    assert decay_table(circ, pair, ts, 0.9) == decay_table(circ, dense, ts, 0.9)
    got = audit_invariant(circ, pair, 0.9, max_size=3)
    want = audit_invariant(circ, dense, 0.9, max_size=3)
    assert got.records == want.records
    vset = next(s for s in enumerate_consistent_sets(circ, 2) if s.qubits)
    assert invariant_check(circ, pair, vset, 0.9) == invariant_check(circ, dense, vset, 0.9)


@pytest.mark.parametrize("pair", [BasisPair("000", "111"), _dense(BasisPair("0", "1"))])
def test_pair_width_must_match_the_circuit(pair):
    circ = random_circuit(2, 2, seed=1, gate_pool=POOL, k=2)
    vset = ConsistentSet.build(circ, frozenset())
    match = f"input pair is on {pair.n} qubits, circuit on 2"
    with pytest.raises(ValueError, match=match):
        audit_invariant(circ, pair, 0.9, max_size=2)
    with pytest.raises(ValueError, match=match):
        invariant_check(circ, pair, vset, 0.9)
    with pytest.raises(ValueError, match=match):
        distinguishability_by_depth(circ, pair, 1)


@pytest.mark.parametrize(
    "rho, tau, message",
    [
        ("012", "111", "rho_bits must be a nonempty string of 0/1"),
        ("01", "1x", "tau_bits must be a nonempty string of 0/1"),
        ("", "", "rho_bits must be a nonempty string of 0/1"),
        (b"01", "11", "rho_bits must be a nonempty string of 0/1"),
        ("01", "1", "rho_bits and tau_bits differ in length"),
    ],
)
def test_basis_pair_rejects_bad_bits(rho, tau, message):
    with pytest.raises(ValueError, match=message):
        BasisPair(rho, tau)


def test_basis_pair_is_a_frozen_value():
    pair = BasisPair("01", "10")
    assert pair.n == 2
    assert pair == BasisPair("01", "10")
    with pytest.raises(dataclasses.FrozenInstanceError):
        pair.rho_bits = "11"


def test_delta_coeffs_refuse_widths_past_the_engine_cap():
    with pytest.raises(ValueError, match="n=13 exceeds the coefficient-engine cap 12"):
        BasisPair("0" * 13, "1" * 13).delta_coeffs()


def test_delta_coeffs_check_wires_without_allocating_per_bit():
    n = 10**6
    pair = BasisPair("0" * n, "1" * n)
    tracemalloc.start()
    try:
        v = pair.delta_coeffs([0, 5])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert v.values.tolist() == [0, 2, 0, 0, 2] + [0] * 11  # Z on either wire, I on the other
    assert peak < 2**20


@pytest.mark.parametrize("wires", [[0, 2], [-1, 1]])
def test_delta_coeffs_refuse_wires_outside_the_pair(wires):
    with pytest.raises(ValueError, match=r"wires \[.*\] are not all among the pair's 2"):
        BasisPair("01", "10").delta_coeffs(wires)


@pytest.mark.parametrize(
    "pair",
    [BasisPair("01", "10"), InputPair(basis_density("01"), basis_density("10"))],
    ids=["BasisPair", "InputPair"],
)
def test_delta_coeffs_refuse_a_repeated_wire(pair):
    with pytest.raises(ValueError, match=r"wires \[0, 0\] name a wire twice"):
        pair.delta_coeffs([0, 0])


def test_input_pair_delta_coeffs_refuse_wires_outside_the_pair():
    pair = InputPair(basis_density("01"), basis_density("10"))
    with pytest.raises(ValueError, match=r"wires \[0, 7\] are not all among the vector's 2"):
        pair.delta_coeffs([0, 7])
