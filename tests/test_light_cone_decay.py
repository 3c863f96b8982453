"""Decay on the output's light cone: evolving only the wires the output's cut
touches, and tracing each out after the level of its last gate, reads the
rows that the full-width engine reads, and the width cap applies to the
cone, not to n.  The walk under it, on any cuts' live wires with any keeps,
gives the full-width walk's blocks."""

import operator
import tracemalloc
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from oracles import random_product_density

from paulidelta import simulate
from paulidelta.paulis import CoeffVector
from paulidelta.simulate import evolve_cuts
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
    random_pure_density,
    restrict_coeffs,
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


@st.composite
def walks(draw):
    """A seeded random circuit with n <= 5 and T <= 5, an entangled input
    pair, up to four cuts, each the minimal cut of up to three drawn qubits,
    a keep per cut, a drawn set of wires that may be empty, and at most one
    more wire, which no gate need touch."""
    n, T = draw(st.integers(1, 5)), draw(st.integers(0, 5))
    seed = draw(st.integers(0, 2**31 - 1))
    circ = random_circuit(
        n, T, seed=seed, gate_pool=POOL if n >= 2 else ONE_QUBIT_POOL, k=min(n, 2),
        noise=NoiseModel(0.05, 0.45),
    )
    refs = st.lists(st.builds(QubitRef, st.integers(0, n - 1), st.integers(0, T)), max_size=3)
    cuts = [min_cut(circ, qs) for qs in draw(st.lists(refs, max_size=4))]
    keeps = [tuple(sorted(draw(st.sets(st.integers(0, n - 1))))) for _ in cuts]
    extra = draw(st.sets(st.integers(0, n - 1), max_size=1))
    return circ, _pair("entangled", n, np.random.default_rng(seed)), cuts, keeps, extra


@given(walks())
def test_walk_on_live_wires_equals_the_full_width_walk(case):
    circ, pair, cuts, keeps, extra = case
    union = circ.cones.gates_of(reduce(operator.or_, cuts, 0))
    last = {w: level for level, i in union for w in circ.levels[level - 1][i].wires}
    kept = set().union(*keeps)
    wires = sorted({*last, *kept, *extra})
    everything = tuple(range(circ.n))
    full = dict(evolve_cuts(circ, pair.delta_coeffs(), everything, cuts, [(1 << circ.n) - 1] * len(cuts)))
    masks = [sum(1 << w for w in keep) for keep in keeps]
    compiled, pauli_step = [], simulate._pauli_step

    def spy(circ, gate, live):
        compiled.append((gate[0], len(live)))
        return pauli_step(circ, gate, live)

    with mock.patch.object(simulate, "_pauli_step", spy):
        got = dict(evolve_cuts(circ, pair.delta_coeffs(wires), wires, cuts, masks))
    assert got.keys() == full.keys() == set(range(len(cuts)))
    for i, keep in enumerate(keeps):
        want = restrict_coeffs(CoeffVector(circ.n, full[i]), keep).values
        assert got[i].shape == want.shape
        assert np.max(np.abs(got[i] - want)) <= 1e-12
    # a wire is live at a level until its last level, and always when kept
    width = {level: sum(w in kept or last.get(w, 0) >= level for w in wires) for level, _ in union}
    assert sorted(compiled) == sorted((level, width[level]) for level, _ in union)


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
