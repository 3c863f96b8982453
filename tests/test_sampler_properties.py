"""The batched trajectory sampler against the one-shot-at-a-time reference
sampler in tests/oracles.py, on seeded random circuits with n <= 4 and T <= 6,
some of whose one-qubit gates become DEPOL or multi-term canonical-form
gates with pre/post unitaries: the same seed gives the same estimate, to
the last bit, whatever the block size.  The sampler's Pauli draw, which
flips and phases rows with no matrix product, against the product itself.
A block's uniforms against ``random.Random.random()`` called one at a time."""

import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
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
    assert got == want


# 20 shots make 40 rows, rho's then tau's: blocks of 7 and 25 straddle the two
@pytest.mark.parametrize("block", [1, 3, 7, 20, 25])
def test_block_size_does_not_change_the_estimate(monkeypatch, block):
    circ = random_circuit(3, 6, seed=11, gate_pool=POOL, k=2, output_wire=1)
    assert simulate.SHOT_BLOCK > 40
    pair = BasisPair("010", "111")
    one_block = sample_output_difference(circ, pair, 20, 7)
    monkeypatch.setattr(simulate, "SHOT_BLOCK", block)
    assert sample_output_difference(circ, pair, 20, 7) == one_block
    assert one_block == sample_by_trajectory(circ, "010", "111", 20, 7)


@st.composite
def pauli_draws(draw):
    """A random complex (rows, 2, ..., 2) state with some exact zeros, laid
    out C-contiguous or as a transposed view, an axis, and per-row Paulis
    that include each of I, X, Y and Z."""
    n = draw(st.integers(1, 5))
    choice = draw(st.permutations([0, 1, 2, 3] + draw(st.lists(st.integers(0, 3), max_size=6))))
    shape = (len(choice),) + (2,) * n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = rng.normal(size=(2, *shape)) * (rng.random((2, *shape)) < 0.8)
    layout = draw(st.permutations(range(n + 1)))
    psi = np.ascontiguousarray((parts[0] + 1j * parts[1]).transpose(layout))
    psi = psi.transpose(sorted(range(n + 1), key=layout.__getitem__))
    return psi, np.array(choice), draw(st.integers(1, n))


@settings(max_examples=200, deadline=None)
@given(pauli_draws())
def test_pauli_draw_equals_its_matrix_product(case):
    psi, choice, axis = case
    want = simulate._apply(psi, simulate._PAULIS[choice], [axis])
    got = psi.copy(order="K")
    simulate._apply_paulis(got, choice, axis)
    assert np.array_equal(got, want)
    for part in ("real", "imag"):
        assert np.array_equal(getattr(got, part) == 0, getattr(want, part) == 0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, simulate.SHOT_BLOCK),
    st.integers(0, 40),
    st.integers(1, 64),
    st.integers(0, 2**64),
)
@example(simulate.SHOT_BLOCK, 0, 64, 0)
@example(simulate.SHOT_BLOCK, 40, 3, 1)
def test_block_uniforms_are_the_random_stream(rows, draws, chunk, seed):
    """One block's (rows, draws) uniforms are the next rows * draws values
    of ``Random(seed).random()``, row by row, bit for bit, whatever the
    conversion chunk, and they leave the generator where those calls do."""
    gen, ref = random.Random(seed), random.Random(seed)
    with mock.patch.object(simulate, "_UNIFORM_CHUNK", chunk):
        got = simulate._uniforms(gen, rows * draws).reshape(rows, draws)
    want = np.array([[ref.random() for _ in range(draws)] for _ in range(rows)]).reshape(rows, draws)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert gen.random() == ref.random()


def test_block_uniforms_peak_near_their_own_array():
    rows, draws = 256, 20_000
    gen = random.Random(0)
    tracemalloc.start()
    try:
        simulate._uniforms(gen, rows * draws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * rows * draws * 8
