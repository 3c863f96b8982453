"""The Pauli engine's one compile path, ``_pauli_step``: each gate's step
holds the fused matrix of the eager formula, bit for bit, read-only, and
its batched conjugations equal one conjugation per unitary over kron-chain
Pauli matrices, bit for bit; the placements of a builtin share one matrix,
and a command builds matrices only for the gates its cuts apply."""

import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from strategies import mix_one_qubit_gates

from paulidelta import (
    BasisPair,
    BuiltinGate,
    Circuit,
    GatePlacement,
    NoiseModel,
    OneQubitGate,
    QubitRef,
    RswChannel,
    UnitaryMixture,
    all_pauli_strings,
    audit_invariant,
    decay_table,
    haar_unitary,
    min_cut,
    output_distinguishability,
    random_circuit,
    simulate,
)
from paulidelta.channels import BUILTIN_ARITY, _j_ptm, _pauli_stack, depolarizing_ptm, gate_ptm, lower_builtin
from paulidelta.simulate import _compile_step, _fused_matrix, _pauli_step

# builtins, k=1 and k=2 mixtures; mix_one_qubit_gates adds DEPOL and RSWMIX gates
POOL = ("CNOT", "CZ", "SWAP", "H", "S", "T", "RESET", "ID", "RANDU1", "RANDU2", "RANDMIX2")


def eager_entry(circ: Circuit, level: int, i: int) -> tuple[tuple[int, ...], np.ndarray]:
    """A gate's wires and fused matrix, by the formula written out in full."""
    pl = circ.levels[level - 1][i]
    m, k = gate_ptm(pl.gate).m, len(pl.wires)
    if k >= 2:
        d_in = depolarizing_ptm(circ.noise.epsk).m.diagonal()
        return pl.wires, m * reduce(np.kron, [d_in] * k)
    return pl.wires, depolarizing_ptm(circ.noise.eps1).m.diagonal()[:, None] * m


@st.composite
def circuits(draw):
    n, T = draw(st.integers(2, 5)), draw(st.integers(1, 5))
    noise = NoiseModel(draw(st.floats(0.01, 0.3)), draw(st.floats(0.0, 0.6)))
    seed = draw(st.integers(0, 2**31 - 1))
    return mix_one_qubit_gates(draw, random_circuit(n, T, seed=seed, gate_pool=POOL, k=2, noise=noise))


def _mixture(k: int, rng: np.random.Generator) -> UnitaryMixture:
    return UnitaryMixture(k, [(0.3, haar_unitary(2**k, rng)), (0.7, haar_unitary(2**k, rng))])


def matrix(circ: Circuit, gate: tuple[int, int]) -> np.ndarray:
    """The fused matrix of the step ``_pauli_step`` compiles for ``gate``."""
    return _pauli_step(circ, gate, range(circ.n))[0]


@settings(max_examples=40)
@given(circuits(), st.data())
def test_each_step_equals_the_eager_formula_bit_for_bit(circ, data):
    n = circ.n
    for gate in data.draw(st.permutations(circ.cones.gates)):  # in any order of first builds
        wires, want = eager_entry(circ, *gate)
        pl = circ.levels[gate[0] - 1][gate[1]]
        p = circ.noise.epsk if len(wires) >= 2 else circ.noise.eps1
        ptm, *compiled = _pauli_step(circ, gate, range(n))
        for got in (ptm, _fused_matrix(pl.gate, len(wires), p)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                got[0, 0] = 2.0
        assert compiled == list(_compile_step(want, [n - 1 - w for w in reversed(wires)], n)[1:])


def _conjugation_one_by_one(u: np.ndarray) -> np.ndarray:
    """Conjugation by one unitary over the kron-chain Pauli matrices."""
    k = u.shape[0].bit_length() - 1
    paulis = np.stack([s.matrix() for s in all_pauli_strings(k)])
    conj = u @ paulis @ u.conj().T
    traces = paulis.reshape(4**k, -1) @ conj.transpose(0, 2, 1).reshape(4**k, -1).T
    return traces.real / 2**k


def ptm_one_by_one(g) -> np.ndarray:
    """A gate's transfer matrix with one conjugation per unitary."""
    g = lower_builtin(g)
    if isinstance(g, UnitaryMixture):
        return sum(p * _conjugation_one_by_one(u) for p, u in g.terms)
    return sum(
        p * (_conjugation_one_by_one(ch.post_unitary) @ _j_ptm(ch.lam1, ch.lam2, ch.t)
             @ _conjugation_one_by_one(ch.pre_unitary))
        for p, ch in g.terms
    )


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_pauli_stack_is_the_kron_chain_bit_for_bit(k):
    want = np.stack([s.matrix() for s in all_pauli_strings(k)])
    got = _pauli_stack(k)
    assert got.dtype == want.dtype and got.shape == want.shape
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(got, part)), np.signbit(getattr(want, part)))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(set(BUILTIN_ARITY) - {"DEPOL"}))  # DEPOL conjugates nothing
def test_builtin_matrices_equal_one_conjugation_per_unitary(name):
    got, want = gate_ptm(BuiltinGate(name)).m, ptm_one_by_one(BuiltinGate(name))
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_batched_mixture_and_channel_matrices_equal_one_conjugation_per_unitary(k):
    rng = np.random.default_rng(40 + k)
    gates = [_mixture(k, rng)]
    if k == 1:
        chans = [RswChannel(0.3, -0.7, -1, haar_unitary(2, rng), haar_unitary(2, rng)), RswChannel(0.9, 0.2)]
        gates.append(OneQubitGate([(0.4, chans[0]), (0.6, chans[1])]))
    if k == 3:  # nine terms span three conjugation chunks
        gates.append(UnitaryMixture(3, [(1 / 9, haar_unitary(8, rng)) for _ in range(9)]))
    p = 0.45 if k >= 2 else 0.05
    d = reduce(np.kron, [depolarizing_ptm(p).m.diagonal()] * k)
    for g in gates:
        want = ptm_one_by_one(g) * d if k >= 2 else d[:, None] * ptm_one_by_one(g)
        got = _fused_matrix(g, k, p)
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


def test_a_mixtures_peak_memory_does_not_grow_with_its_terms():
    rng = np.random.default_rng(5)
    _pauli_stack(4)  # built once per process, outside the measured calls
    peaks = []
    for b in (1, 8):
        g = UnitaryMixture(4, [(1 / b, haar_unitary(16, rng)) for _ in range(b)])
        tracemalloc.start()
        try:
            gate_ptm(g)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 2**20  # one 4-qubit matrix is 512 KiB, one conjugated stack 1 MiB


def test_gates_of_each_arity_get_their_own_input_noise():
    rng = np.random.default_rng(1)
    levels = [
        [GatePlacement((0, 1, 2), _mixture(3, rng)), GatePlacement((3,), BuiltinGate("H"))],
        [GatePlacement((0, 3), BuiltinGate("CNOT")), GatePlacement((1, 2), _mixture(2, rng))],
    ]
    circ = Circuit(4, 2, levels, NoiseModel(0.05, 0.4), 0)
    for gate in circ.cones.gates:
        assert matrix(circ, gate).tobytes() == eager_entry(circ, *gate)[1].tobytes()


def test_placements_of_a_builtin_share_one_read_only_matrix():
    circ = random_circuit(5, 6, seed=1, gate_pool=POOL, k=2)
    shared = {}
    for gate in circ.cones.gates:
        pl = circ.levels[gate[0] - 1][gate[1]]
        ptm = matrix(circ, gate)
        assert not ptm.flags.writeable
        if isinstance(pl.gate, BuiltinGate):
            assert shared.setdefault((pl.gate, len(pl.wires)), ptm) is ptm
        else:
            assert all(ptm is not other for other in shared.values())
    assert len(shared) < sum(isinstance(pl.gate, BuiltinGate) for level in circ.levels for pl in level)


def _counting_gate_ptm(monkeypatch) -> list:
    built = []

    def counting(gate):
        built.append(gate)
        return gate_ptm(gate)

    monkeypatch.setattr(simulate, "gate_ptm", counting)
    return built


def test_decay_and_simulate_build_only_the_output_light_cone(monkeypatch):
    rng = np.random.default_rng(3)
    levels = [
        [GatePlacement((0, 1), _mixture(2, rng)), GatePlacement((2, 3), _mixture(2, rng))],
        [GatePlacement((0,), _mixture(1, rng)), GatePlacement((1, 2), _mixture(2, rng)),
         GatePlacement((3,), _mixture(1, rng))],
    ]
    cone = [levels[0][0].gate, levels[1][0].gate]  # the output wire 0 at T=2
    pair = BasisPair("0000", "1111")
    for run in (
        lambda circ: decay_table(circ, pair, [1, 2], 0.9),
        lambda circ: output_distinguishability(circ, pair),
    ):
        built = _counting_gate_ptm(monkeypatch)
        simulate._fused_matrix.cache_clear()  # each gate object keeps its matrix between runs
        circ = Circuit(4, 2, levels, NoiseModel(0.05, 0.4), 0)
        assert circ.cones.gates_of(min_cut(circ, [QubitRef(0, 2)])) == [(1, 0), (2, 0)]
        run(circ)
        assert len(built) == 2 and {id(g) for g in built} == {id(g) for g in cone}


def test_the_audit_builds_only_the_gates_of_its_cuts(monkeypatch):
    built = _counting_gate_ptm(monkeypatch)
    simulate._fused_matrix.cache_clear()  # a gate's matrix lives as long as its cache entry
    circ = random_circuit(4, 3, seed=5, gate_pool=POOL, k=2)
    audit_invariant(circ, BasisPair("0000", "1111"), 0.9, max_size=1)
    # every gate is in the cut of some output qubit at time T, and is built
    # once, a builtin once per arity for all its placements
    specs = {
        (pl.gate, len(pl.wires)) if isinstance(pl.gate, BuiltinGate) else id(pl.gate)
        for level in circ.levels
        for pl in level
    }
    assert len(specs) < len(circ.cones.gates)
    assert len(built) == len(specs)
    built.clear()
    simulate._fused_matrix.cache_clear()
    circ = random_circuit(4, 3, seed=5, gate_pool=POOL, k=2)
    audit_invariant(circ, BasisPair("0000", "1111"), 0.9, max_size=0)
    assert built == []
