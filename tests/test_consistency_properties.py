"""Property tests for the light-cone machinery: a set of qubits is
consistent iff each of its pairs is, so consistent sets are the cliques of a
pairwise-compatibility graph, and minimal cuts equal the backward closure
over producing gates."""

import math
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from paulidelta import Circuit, GatePlacement, NoiseModel, QubitRef
from paulidelta.channels import BuiltinGate
from paulidelta.circuit import ConsistentSet, enumerate_consistent_sets, is_consistent
from paulidelta.simulate import check_cut, min_cut

from oracles import inductive_consistent_sets, minimal_cut_by_scan

ONE_QUBIT = ("ID", "H", "S", "RESET")
TWO_QUBIT = ("CNOT", "CZ", "SWAP")


@st.composite
def circuits(draw, max_n=4, max_T=4):
    """Leveled circuits with n <= max_n and T <= max_T over one- and two-qubit builtins."""
    n = draw(st.integers(1, max_n))
    T = draw(st.integers(0, max_T))
    levels = []
    for _ in range(T):
        order = draw(st.permutations(range(n)))
        level = []
        while order:
            k = draw(st.integers(1, min(2, len(order))))
            name = draw(st.sampled_from(ONE_QUBIT if k == 1 else TWO_QUBIT))
            level.append(GatePlacement(tuple(order[:k]), BuiltinGate(name)))
            order = order[k:]
        levels.append(level)
    return Circuit(n, T, levels, NoiseModel(0.1, 0.4), 0)


@given(circuits(), st.integers(0, 5))
def test_enumeration_matches_inductive_oracle(circ, max_size):
    got = [cs.qubits for cs in enumerate_consistent_sets(circ, max_size)]
    want = {v for v in inductive_consistent_sets(circ) if len(v) <= max_size}
    assert len(got) == len(set(got))
    assert set(got) == want


@given(circuits(), st.integers(0, 4))
def test_enumerated_masks_are_the_sets_bits_and_minimal_cuts(circ, max_size):
    keys = []
    for cs in enumerate_consistent_sets(circ, max_size):
        qubits = cs.qubits
        assert len(qubits) == len(cs.refs)
        assert cs.refs == tuple(sorted((q.wire, q.time) for q in qubits))
        assert cs.members == sum(1 << q.time * circ.n + q.wire for q in qubits)
        assert cs.cut == circ.cones.cut(qubits)
        assert circ.cones.gates_of(cs.cut) == sorted(minimal_cut_by_scan(circ, qubits))
        times = [q.time for q in qubits]
        assert (cs.dist, cs.latest) == (min(times, default=math.inf), max(times, default=0))
        assert isinstance(cs.dist, float)
        assert ConsistentSet.build(circ, qubits) == cs
        keys.append((cs.latest, sum(q.time == cs.latest for q in qubits), cs.refs))
    assert keys == sorted(keys)



@given(circuits(), st.integers(0, 4))
def test_enumerated_sets_are_distinct_values_of_the_circuits_width(circ, max_size):
    sets = list(enumerate_consistent_sets(circ, max_size))
    assert len(set(sets)) == len({cs.members for cs in sets}) == len(sets)
    assert {cs.n for cs in sets} <= {circ.n}


@given(circuits())
def test_a_size_limit_past_n_lists_the_sets_of_limit_n(circ):
    # No consistent set holds two refs on one wire, so a limit past n changes
    # nothing, not even the width of the keys the walk sorts by.  A walk that
    # sized its keys by the limit would make them 10**4 digits wide here and
    # fail; at 10**6 it would need gigabytes.
    want = list(enumerate_consistent_sets(circ, circ.n))
    assert list(enumerate_consistent_sets(circ, 10**4)) == want


def _order_key(refs):
    latest = max((t for _, t in refs), default=0)
    return latest, sum(t == latest for _, t in refs), refs


@given(circuits(max_n=5, max_T=6), st.integers(0, 4))
def test_enumeration_order_is_latest_then_count_at_latest_then_refs(circ, max_size):
    # The oracle's sets, sorted by the documented key, set for set.
    want = [tuple(sorted((q.wire, q.time) for q in v)) for v in inductive_consistent_sets(circ) if len(v) <= max_size]
    assert [cs.refs for cs in enumerate_consistent_sets(circ, max_size)] == sorted(want, key=_order_key)


@given(circuits(), st.data())
def test_consistency_is_pairwise(circ, data):
    grid = [QubitRef(w, t) for t in range(circ.T + 1) for w in range(circ.n)]
    refs = data.draw(st.sets(st.sampled_from(grid), max_size=6))
    pairwise = all(is_consistent({a, b}, circ) for a, b in combinations(refs, 2))
    assert is_consistent(refs, circ) == pairwise


def _refs(circ, gates):
    """The outputs of ``gates``."""
    return [QubitRef(w, level) for level, i in gates for w in circ.levels[level - 1][i].wires]


@given(circuits(), st.data())
def test_min_cut_is_the_backward_closure_and_check_cut_agrees(circ, data):
    grid = [QubitRef(w, t) for t in range(circ.T + 1) for w in range(circ.n)]
    refs = data.draw(st.sets(st.sampled_from(grid), max_size=4))
    cut = min_cut(circ, refs)
    gates = circ.cones.gates_of(cut)
    assert gates == sorted(minimal_cut_by_scan(circ, refs))
    assert check_cut(circ, cut) == gates
    bit = {gate: 1 << len(circ.cones.gates) - 1 - r for r, gate in enumerate(circ.cones.gates)}
    drops = [{gate} for gate in gates]
    if gates:
        drops.append(data.draw(st.sets(st.sampled_from(gates))))
    for dropped in drops:
        rest = set(gates) - dropped
        mask = cut & ~sum(bit[gate] for gate in dropped)
        missing = minimal_cut_by_scan(circ, _refs(circ, rest)) - rest
        if not missing:  # no gate left in the cut consumes a dropped gate's output
            assert check_cut(circ, mask) == sorted(rest)
            continue
        level, i = min(missing)
        with pytest.raises(ValueError, match=rf"lacks gate \(level {level}, index {i}\)"):
            check_cut(circ, mask)
    with pytest.raises(ValueError, match=rf"sets bit {len(circ.cones.gates)}: "):
        check_cut(circ, cut | 1 << len(circ.cones.gates))
