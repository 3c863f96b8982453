"""Gates on three wires given out of wire order: the Pauli engine puts a
gate's last wire on its most significant site, so the audit's walk must give
exactly the records that auditing each set from scratch gives, and the
light-cone decay must read the rows the dense engine reads."""

import numpy as np
import pytest

from paulidelta import (
    BasisPair,
    BuiltinGate,
    Circuit,
    GatePlacement,
    InputPair,
    NoiseModel,
    QubitRef,
    UnitaryMixture,
    audit_invariant,
    born_probability_one,
    distinguishability_by_depth,
    enumerate_consistent_sets,
    evolve_density,
    haar_unitary,
    invariant_check,
    min_cut,
    random_pure_density,
)

THETA = 0.95
WIRE_ORDERS = [(2, 0, 1), (1, 2, 0), (0, 2, 1), (2, 1, 0)]


def _circuit(n: int, wires: tuple[int, int, int], seed: int) -> Circuit:
    """Four levels on n wires: a 3-wire mixture on ``wires`` at levels 1 and
    4, another on a second out-of-order triple at level 3, and one- and
    two-qubit gates on every other wire; the output is ``wires[0]``."""
    rng = np.random.default_rng(seed)

    def mixture(*on):
        k = len(on)
        terms = [(0.3, haar_unitary(2**k, rng)), (0.7, haar_unitary(2**k, rng))]
        return GatePlacement(on, UnitaryMixture(k, terms))

    def ones(name, on):
        return [GatePlacement((w,), BuiltinGate(name)) for w in on]

    a, b, c = wires
    rest = [w for w in range(n) if w not in wires]
    levels = [
        [mixture(a, b, c), *ones("H", rest)],
        [GatePlacement((rest[0], a), BuiltinGate("CNOT")), mixture(c), *ones("T", [b, *rest[1:]])],
        [mixture(c, rest[0], a), *ones("S", [b, *rest[1:]])],
        [mixture(a, b, c), *ones("H", rest)],
    ]
    return Circuit(n, len(levels), levels, NoiseModel(0.05, 0.3), a)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("wires", WIRE_ORDERS)
def test_audit_records_equal_per_set_checks_bit_for_bit(n, wires):
    circ = _circuit(n, wires, seed=n)
    rng = np.random.default_rng(7)
    for pair in (BasisPair("0" * n, "1" * (n - 1) + "0"),
                 InputPair(random_pure_density(n, rng), random_pure_density(n, rng))):
        got = audit_invariant(circ, pair, THETA, 3).records
        sets = list(enumerate_consistent_sets(circ, 3))
        assert len(got) == len(sets) > 100
        for rec, vset in zip(got, sets):
            want = invariant_check(circ, pair, vset, THETA)
            assert (rec.qubits, rec.dist, rec.lhs, rec.rhs) == (want.qubits, want.dist, want.lhs, want.rhs)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("wires", WIRE_ORDERS)
def test_decay_rows_equal_the_dense_engine(n, wires):
    circ = _circuit(n, wires, seed=10 + n)
    rng = np.random.default_rng(3)
    pair = InputPair(random_pure_density(n, rng), random_pure_density(n, rng))
    out = circ.output_wire
    want = [
        abs(born_probability_one(evolve_density(circ, pair.delta(), min_cut(circ, [QubitRef(out, t)])), out, n))
        for t in range(circ.T + 1)
    ]
    got = distinguishability_by_depth(circ, pair, circ.T)
    assert max(want) > 1e-3
    assert np.allclose(got, want, rtol=0, atol=1e-12)
