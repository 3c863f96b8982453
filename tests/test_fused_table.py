"""The Pauli engine's per-gate table ``circ.fused``: each entry, built on its
first lookup, equals the formula that builds every entry at once, bit for
bit; the table covers exactly the circuit's gates, refuses writes, and a
command builds entries only for the gates its cuts apply."""

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
    QubitRef,
    UnitaryMixture,
    audit_invariant,
    decay_table,
    haar_unitary,
    min_cut,
    output_distinguishability,
    random_circuit,
    simulate,
)
from paulidelta.channels import depolarizing_ptm, gate_ptm

# builtins, k=1 and k=2 mixtures; mix_one_qubit_gates adds DEPOL and RSWMIX gates
POOL = ("CNOT", "CZ", "SWAP", "H", "S", "T", "RESET", "ID", "RANDU1", "RANDU2", "RANDMIX2")


def eager_entry(circ: Circuit, level: int, i: int) -> tuple[tuple[int, ...], np.ndarray]:
    """A gate's wires and fused matrix, as the table once built every entry."""
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


@settings(max_examples=40)
@given(circuits(), st.data())
def test_each_entry_equals_the_eager_formula_bit_for_bit(circ, data):
    fused = circ.fused
    for gate in data.draw(st.permutations(circ.cones.gates)):  # any first lookup builds the noise
        wires, ptm = fused[gate]
        want_wires, want = eager_entry(circ, *gate)
        assert wires == want_wires
        assert ptm.dtype == want.dtype and ptm.shape == want.shape
        assert ptm.tobytes() == want.tobytes()
        assert not ptm.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ptm[0, 0] = 2.0
        assert fused[gate][1] is ptm  # built once


def test_gates_of_each_arity_get_their_own_input_noise():
    rng = np.random.default_rng(1)
    levels = [
        [GatePlacement((0, 1, 2), _mixture(3, rng)), GatePlacement((3,), BuiltinGate("H"))],
        [GatePlacement((0, 3), BuiltinGate("CNOT")), GatePlacement((1, 2), _mixture(2, rng))],
    ]
    circ = Circuit(4, 2, levels, NoiseModel(0.05, 0.4), 0)
    for gate in circ.cones.gates:
        assert circ.fused[gate][1].tobytes() == eager_entry(circ, *gate)[1].tobytes()


def test_placements_of_a_builtin_share_one_read_only_matrix():
    circ = random_circuit(5, 6, seed=1, gate_pool=POOL, k=2)
    shared = {}
    for level, i in circ.cones.gates:
        pl = circ.levels[level - 1][i]
        wires, ptm = circ.fused[(level, i)]
        assert wires == pl.wires and not ptm.flags.writeable
        if isinstance(pl.gate, BuiltinGate):
            assert shared.setdefault((pl.gate, len(wires)), ptm) is ptm
        else:
            assert all(ptm is not other for other in shared.values())
    assert len(shared) < sum(isinstance(pl.gate, BuiltinGate) for level in circ.levels for pl in level)


def test_the_table_covers_every_gate_and_refuses_every_other_key():
    circ = random_circuit(4, 3, seed=2, gate_pool=POOL, k=2)
    fused = circ.fused
    assert circ.fused is fused
    # iteration, len and membership see every gate before any entry is built
    assert list(fused) == list(circ.cones.gates) and len(fused) == len(circ.cones.gates)
    assert set(fused) == set(circ.cones.gates) and all(gate in fused for gate in circ.cones.gates)
    assert list(fused.keys()) == list(circ.cones.gates)
    for bad in [(0, 0), (circ.T + 1, 0), (1, len(circ.levels[0])), (1, -1), "1,0"]:
        assert bad not in fused and fused.get(bad) is None
        with pytest.raises(KeyError):
            fused[bad]
    assert [gate for gate, _ in fused.items()] == list(circ.cones.gates)
    assert len(list(fused.values())) == len(fused)
    with pytest.raises(TypeError):
        fused[(1, 0)] = fused[(1, 0)]
    with pytest.raises(TypeError):
        del fused[(1, 0)]


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
        circ = Circuit(4, 2, levels, NoiseModel(0.05, 0.4), 0)
        assert circ.cones.gates_of(min_cut(circ, [QubitRef(0, 2)])) == [(1, 0), (2, 0)]
        run(circ)
        assert len(built) == 2 and {id(g) for g in built} == {id(g) for g in cone}


def test_the_audit_builds_only_the_gates_of_its_cuts(monkeypatch):
    built = _counting_gate_ptm(monkeypatch)
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
    circ = random_circuit(4, 3, seed=5, gate_pool=POOL, k=2)
    audit_invariant(circ, BasisPair("0000", "1111"), 0.9, max_size=0)
    assert built == []
