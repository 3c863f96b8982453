"""The batched trajectory sampler against the one-shot-at-a-time reference
sampler in tests/oracles.py, on seeded random circuits with n <= 4 and T <= 6,
some of whose one-qubit gates become DEPOL or multi-term canonical-form
gates with pre/post unitaries: the same seed gives the same estimate,
whatever the block size."""

import pytest
from hypothesis import given, settings, strategies as st
from oracles import sample_by_trajectory
from strategies import mix_one_qubit_gates

from paulidelta import BasisPair, NoiseModel, random_circuit, sample_output_difference
from paulidelta import simulate

POOL = ("CNOT", "H", "T", "RESET", "ID", "RANDMIX2")
TOL = 1e-12


@st.composite
def cases(draw):
    n = draw(st.integers(2, 4))
    T = draw(st.integers(1, 6))
    noise = NoiseModel(draw(st.floats(0.01, 0.3)), draw(st.floats(0.0, 0.6)))
    circ = random_circuit(
        n,
        T,
        seed=draw(st.integers(0, 2**31 - 1)),
        gate_pool=POOL,
        k=2,
        noise=noise,
        output_wire=draw(st.integers(0, n - 1)),
    )
    circ = mix_one_qubit_gates(draw, circ)
    bits = st.text("01", min_size=n, max_size=n)
    return circ, draw(bits), draw(bits), draw(st.integers(1, 20)), draw(st.integers(0, 2**31 - 1))


@settings(max_examples=60, deadline=None)
@given(cases())
def test_batched_sampler_matches_the_reference(case):
    circ, rho, tau, shots, seed = case
    got = sample_output_difference(circ, BasisPair(rho, tau), shots, seed)
    want = sample_by_trajectory(circ, rho, tau, shots, seed)
    assert abs(got - want) <= TOL
    assert f"{got:.12g}" == f"{want:.12g}"


@pytest.mark.parametrize("block", [1, 3])
def test_block_size_does_not_change_the_estimate(monkeypatch, block):
    circ = random_circuit(3, 6, seed=11, gate_pool=POOL, k=2, output_wire=1)
    assert simulate.SHOT_BLOCK > 20
    pair = BasisPair("010", "111")
    one_block = sample_output_difference(circ, pair, 20, 7)
    monkeypatch.setattr(simulate, "SHOT_BLOCK", block)
    assert sample_output_difference(circ, pair, 20, 7) == one_block
    assert one_block == sample_by_trajectory(circ, "010", "111", 20, 7)
