"""Decay on the output's light cone: evolving only the wires the output's cut
touches, and tracing each out after its last gate, reads the rows that the
full-width engine reads, and the width cap applies to the cone, not to n."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from paulidelta import (
    BasisPair,
    InputPair,
    NoiseModel,
    QubitRef,
    distinguishability_by_depth,
    evolve_pauli,
    min_cut,
    parse_circuit,
    random_circuit,
    random_product_density,
    random_pure_density,
)

POOL = ("CNOT", "H", "S", "T", "RESET", "ID", "RANDMIX2")
ONE_QUBIT_POOL = ("H", "S", "T", "RESET", "ID")

# The output's cut touches wires 0, 1 and 2 only; wire 2 has its last gate
# in it at level 1 and wire 1 at level 2.
PARTIAL = """qubits 5 levels 3 output 0
noise eps1=0.05 epsk=0.45
level 1: H(0); CNOT(1,2); CNOT(3,4)
level 2: CNOT(0,1); H(2); T(3); S(4)
level 3: T(0); CNOT(1,2); CNOT(4,3)
"""


def _pair(kind: str, n: int, rng: np.random.Generator):
    if kind == "basis":
        return BasisPair(*("".join(rng.choice(["0", "1"], n)) for _ in range(2)))
    draw = random_product_density if kind == "product" else random_pure_density
    return InputPair(draw(n, rng), draw(n, rng))


@st.composite
def decays(draw):
    """A seeded random circuit with n <= 6 and T <= 6, any output wire, and a
    basis-state, product or (for n >= 2, generically) entangled input pair."""
    n = draw(st.integers(1, 6))
    T = draw(st.integers(0, 6))
    seed = draw(st.integers(0, 2**31 - 1))
    circ = random_circuit(
        n, T, seed=seed, gate_pool=POOL if n >= 2 else ONE_QUBIT_POOL, k=min(n, 2),
        noise=NoiseModel(0.05, 0.45), output_wire=draw(st.integers(0, n - 1)),
    )
    kind = draw(st.sampled_from(["basis", "product", "entangled"]))
    return circ, _pair(kind, n, np.random.default_rng(seed))


def _full_width_row(circ, pair, t: int) -> float:
    out = circ.output_wire
    evolved = evolve_pauli(circ, pair.delta_coeffs(), min_cut(circ, [QubitRef(out, t)]))
    return 0.5 * abs(evolved.values[1 << 2 * out])


def _assert_rows_match(circ, pair):
    want = [_full_width_row(circ, pair, t) for t in range(circ.T + 1)]
    for depth in range(circ.T + 1):
        got = distinguishability_by_depth(circ, pair, depth)
        assert len(got) == depth + 1
        assert np.allclose(got, want[: depth + 1], rtol=0, atol=1e-12)


@given(decays())
def test_light_cone_rows_equal_the_full_width_engine(case):
    _assert_rows_match(*case)


@pytest.mark.parametrize("kind", ["basis", "product", "entangled"])
def test_wires_outside_the_cut_and_retired_wires(kind):
    circ = parse_circuit(PARTIAL)
    gates = circ.cones.gates_of(min_cut(circ, [QubitRef(0, 3)]))
    touched = {w for level, i in gates for w in circ.levels[level - 1][i].wires}
    assert touched == {0, 1, 2}
    _assert_rows_match(circ, _pair(kind, circ.n, np.random.default_rng(5)))


def test_refuses_a_cone_past_the_cap_before_allocating():
    # Seed 0 grows the output's light cone to all 13 wires at depth 12.
    circ = random_circuit(13, 12, seed=0, gate_pool=("CNOT", "ID"), k=2)
    pair = BasisPair("0" * 13, "1" * 13)
    tracemalloc.start()
    try:
        message = "depth 12 touches 13 wires, above the coefficient-engine cap 12"
        with pytest.raises(ValueError, match=message):
            distinguishability_by_depth(circ, pair, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # a 13-wire vector is 512 MiB
    assert distinguishability_by_depth(circ, pair, 5)[0] == 1.0  # a narrower cone runs
