"""The batched trajectory sampler against the one-shot-at-a-time reference
sampler in tests/oracles.py, on seeded random circuits with n <= 4 and T <= 6,
some of whose one-qubit gates become DEPOL (p=1 among them) or multi-term
canonical-form gates with pre/post unitaries, and some at epsk=1: the same
seed gives the same estimate, to the last bit, whatever the block size.
The output's support against the dense engine and the light cone.  The
sampler's Pauli draw, which flips and phases rows with no matrix product,
against the product itself.  A block's uniforms against
``random.Random.random()`` called one at a time."""

import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import output_support, sample_by_trajectory
from strategies import mix_one_qubit_gates

from paulidelta import (
    BasisPair,
    NoiseModel,
    evolve_density,
    full_cut,
    partial_trace,
    random_circuit,
    random_pure_density,
    sample_output_difference,
)
from paulidelta import simulate
from paulidelta.circuit import Circuit, parse_circuit

POOL = ("CNOT", "H", "T", "RESET", "ID", "RANDMIX2")
TOL = 1e-12


@st.composite
def cases(draw, widths=st.integers(2, 4)):
    n = draw(widths)
    T = draw(st.integers(1, 6))
    # in one case of four, epsk=1 makes every multi-qubit gate forget its input
    epsk = 1.0 if draw(st.integers(0, 3)) == 0 else draw(st.floats(0.0, 0.6))
    noise = NoiseModel(draw(st.floats(0.01, 0.3)), epsk)
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


# Both CNOTs of level 2 entangle a wire the output cannot see after it, so
# two wires are measured and dropped after level 2, wire 2 and then wire 3.
TWO_DROPS = parse_circuit(
    "qubits 4 levels 3 output 0\nnoise eps1=0.05 epsk=0.4\nlevel 1: H(0); H(1); ID(2); ID(3)\n"
    "level 2: CNOT(0,2); CNOT(1,3)\nlevel 3: CNOT(0,1); ID(2); ID(3)\n"
)


@settings(max_examples=60, deadline=None)
@given(cases())
@example((TWO_DROPS, "0000", "1111", 20, 1))
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


def _kept_gates(circ: Circuit) -> list[tuple[int, int]]:
    return [(level, i) for level, here in enumerate(simulate._support(circ)[0], start=1) for i, _ in here]


def test_the_support_matches_the_reference_sweep():
    circ = random_circuit(5, 8, seed=2, gate_pool=POOL, k=2, noise=NoiseModel(0.05, 0.45), output_wire=2)
    kept, lives = output_support(circ)
    ours, our_lives, _ = simulate._support(circ)
    assert [[(circ.levels[t][i], forgets) for i, forgets in here] for t, here in enumerate(ours)] == kept
    assert [set(live) for live in our_lives] == lives
    assert any(forgets for here in ours for _, forgets in here)  # the circuit's RESETs cut the support


def _dense_through(circ: Circuit, op: np.ndarray, gates: list[tuple[int, int]]) -> np.ndarray:
    """``op`` through the channels of ``gates`` only, earliest first, each
    as the dense engine applies it: one superoperator on its wires' row and
    column axes."""
    t = op.reshape((2,) * (2 * circ.n))
    for level, i in gates:
        for wires, weights, ops, *_ in simulate._channels(circ.levels[level - 1][i], circ.noise):
            d = 2 ** len(wires)
            kraus = ops.reshape(-1, len(weights), d, d)
            sup = np.einsum("t,ktij,ktab->iajb", weights, kraus, kraus.conj()).reshape(d * d, d * d)
            t = simulate._apply(t, sup, [*wires, *(circ.n + w for w in wires)])
    return t.reshape(op.shape)


@settings(max_examples=60, deadline=None)
@given(cases(st.integers(2, 5)), st.integers(0, 2**32 - 1))
def test_the_support_alone_gives_the_output_state(case, seed):
    """Gates outside the output's support, and the inputs of its gates that
    forget them, cannot change the output wire's reduced state."""
    circ = case[0]
    op = random_pure_density(circ.n, np.random.default_rng(seed))
    full = partial_trace(evolve_density(circ, op, full_cut(circ)), [circ.output_wire], circ.n)
    support = partial_trace(_dense_through(circ, op, _kept_gates(circ)), [circ.output_wire], circ.n)
    assert np.max(np.abs(full - support)) <= TOL


@settings(max_examples=60, deadline=None)
@given(cases(st.integers(2, 9)))
def test_the_support_is_never_wider_than_the_light_cone(case):
    """The sampler's widest state is the support's width, which never
    exceeds the wire count of the exact pass's light cone."""
    circ = case[0]
    cut = circ.cones.cone[circ.T * circ.n + circ.output_wire]
    cone = circ.cones.gates_of(cut)
    assert set(_kept_gates(circ)) <= set(cone)
    cone_wires = {circ.output_wire} | {w for level, i in cone for w in circ.levels[level - 1][i].wires}
    start, steps = simulate._trajectory_steps(circ)
    live = widest = len(start)
    for kind, *_ in steps:
        live += {"join": 1, "drop": -1}.get(kind, 0)
        widest = max(widest, live)
    assert live == 1
    assert widest == simulate._support(circ)[2] <= len(cone_wires)


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
