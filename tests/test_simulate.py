import random
import re
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from paulidelta import (
    BasisPair,
    CoeffVector,
    InputPair,
    NoiseModel,
    QubitRef,
    basis_density,
    born_probability_one,
    coeffs_from_op,
    evolve_density,
    evolve_pauli,
    full_cut,
    min_cut,
    output_distinguishability,
    parse_circuit,
    partial_trace,
    random_circuit,
    random_hermitian,
    random_pure_density,
    reduced_delta,
    restrict_coeffs,
    sample_output_difference,
    sum_of_squares,
)
from paulidelta import BuiltinGate, GatePlacement, UnitaryMixture, enumerate_consistent_sets, simulate
from paulidelta.channels import BUILTIN_MATRICES
from paulidelta.circuit import Circuit, ConsistentSet, haar_unitary
from paulidelta.paulis import MAX_DENSE_QUBITS
from paulidelta.simulate import _apply, _pauli_step, _run_step, check_cut

from oracles import producing_gate

POOL = ("CNOT", "H", "S", "T", "RESET", "ID", "RANDMIX2")


def refs(*pairs):
    return frozenset(QubitRef(w, t) for w, t in pairs)


def cs(circ, *pairs):
    return ConsistentSet.build(circ, refs(*pairs))


# --- cuts -------------------------------------------------------------------


def mask(circ, gates):
    """The gate mask of the (level, index) gates ``gates``: gate r is bit
    ``len(circ.cones.gates) - 1 - r``."""
    top = len(circ.cones.gates) - 1
    return sum(1 << top - r for r, gate in enumerate(circ.cones.gates) if gate in gates)


def test_full_cut_contains_every_gate():
    c = random_circuit(3, 3, seed=1, gate_pool=POOL, k=2)
    every = [(level, i) for level in range(1, 4) for i in range(len(c.levels[level - 1]))]
    assert full_cut(c) == mask(c, every) == (1 << len(every)) - 1
    assert c.cones.gates_of(full_cut(c)) == every


TWO_IDS = "qubits 1 levels 2 output 0\nnoise eps1=0.1 epsk=0.4\nlevel 1: ID(0)\nlevel 2: ID(0)\n"


def test_cut_validation_rejects_gaps():
    c = parse_circuit(TWO_IDS)
    assert check_cut(c, mask(c, {(1, 0), (2, 0)})) == [(1, 0), (2, 0)]
    assert check_cut(c, mask(c, {(1, 0)})) == [(1, 0)]
    with pytest.raises(ValueError, match=r"not downward-closed: it lacks gate \(level 1, index 0\)"):
        check_cut(c, mask(c, {(2, 0)}))


@pytest.mark.parametrize(
    "cut, message",
    [
        (True, "a cut is the int gate mask min_cut and full_cut return, got bool"),
        (-1, "cut mask is negative: a mask of the circuit's 2 gates lies in [0, 2**2)"),
        (0b100, "cut mask sets bit 2: a mask of the circuit's 2 gates lies in [0, 2**2)"),
        (frozenset({(1, 0)}), "a cut is the int gate mask min_cut and full_cut return, got frozenset"),
    ],
    ids=["bool", "negative", "past-the-gates", "frozenset"],
)
def test_a_cut_must_be_a_gate_mask_of_the_circuit(cut, message):
    c = parse_circuit(TWO_IDS)
    op = np.diag([1.0, -1.0]).astype(complex)
    for run in (
        lambda: check_cut(c, cut),
        lambda: evolve_pauli(c, coeffs_from_op(op), cut),
        lambda: evolve_density(c, op, cut),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            run()


def test_min_cut_of_time_zero_is_empty():
    c = random_circuit(2, 2, seed=2, gate_pool=POOL, k=2)
    assert min_cut(c, refs((0, 0), (1, 0))) == 0


# --- density engine -----------------------------------------------------------


def test_empty_cut_leaves_operator_unchanged():
    c = random_circuit(2, 2, seed=3, gate_pool=POOL, k=2)
    rng = np.random.default_rng(0)
    op = random_hermitian(2, rng)
    out = evolve_density(c, op, 0)
    assert np.allclose(out, op)
    v = coeffs_from_op(op)
    assert np.allclose(evolve_pauli(c, v, 0).values, v.values)


def test_single_identity_level_shrinks_z():
    c = parse_circuit("qubits 1 levels 1 output 0\nnoise eps1=0.05 epsk=0.4\nlevel 1: ID(0)\n")
    delta = np.diag([1.0, -1.0]).astype(complex)
    out = evolve_pauli(c, coeffs_from_op(delta), full_cut(c))
    assert out["Z"] == pytest.approx(2 * 0.95)
    dense = evolve_density(c, delta, full_cut(c))
    assert coeffs_from_op(dense)["Z"] == pytest.approx(2 * 0.95)


def test_trace_preserved_and_psd_kept():
    rng = np.random.default_rng(5)
    for seed in range(6):
        c = random_circuit(3, 3, seed=seed, gate_pool=POOL, k=2)
        rho = random_pure_density(3, rng)
        for cut in (full_cut(c), min_cut(c, refs((0, 2), (1, 2)))):
            out = evolve_density(c, rho, cut)
            assert abs(np.trace(out).real - 1.0) < 1e-10
            assert abs(np.trace(out).imag) < 1e-12
            assert np.min(np.linalg.eigvalsh(out)) > -1e-9


def test_dense_engine_refuses_a_circuit_past_its_cap():
    c = random_circuit(MAX_DENSE_QUBITS + 1, 1, seed=0, gate_pool=("ID",), k=1)
    with pytest.raises(ValueError, match=f"n=11 exceeds the dense-engine cap {MAX_DENSE_QUBITS}"):
        evolve_density(c, np.zeros((2, 2)), full_cut(c))


def test_partial_trace_of_product():
    rng = np.random.default_rng(7)
    a = random_pure_density(1, rng)
    b = random_pure_density(1, rng)
    ab = np.kron(a, b)
    assert np.allclose(partial_trace(ab, [0], 2), a)
    assert np.allclose(partial_trace(ab, [1], 2), b)


# --- pauli engine ---------------------------------------------------------


def test_full_depolarizing_zeroes_supported_coeffs():
    c = parse_circuit(
        "qubits 2 levels 1 output 0\nnoise eps1=0.05 epsk=0.4\nlevel 1: DEPOL(0; p=1.0); ID(1)\n"
    )
    rng = np.random.default_rng(9)
    v = coeffs_from_op(random_hermitian(2, rng))
    out = evolve_pauli(c, v, full_cut(c))
    from paulidelta import all_pauli_strings

    for s in all_pauli_strings(2):
        if 0 in s.support():
            assert out.values[s.index()] == 0.0


def test_noiseless_unitary_level_preserves_sum_of_squares():
    # epsk = 0 makes the two-qubit level purely unitary
    c = parse_circuit(
        "qubits 2 levels 1 output 0\nnoise eps1=0.05 epsk=0.0\nlevel 1: CNOT(0,1)\n"
    )
    rng = np.random.default_rng(11)
    v = coeffs_from_op(random_hermitian(2, rng))
    out = evolve_pauli(c, v, full_cut(c))
    assert abs(sum_of_squares(out) - sum_of_squares(v)) < 1e-9


def test_shrink_is_exact_and_monotone():
    rng = np.random.default_rng(13)
    from paulidelta import all_pauli_strings

    for _ in range(20):
        n = int(rng.integers(1, 4))
        wire = int(rng.integers(n))
        p = 1.0 - float(rng.random())  # NoiseModel needs eps1 > 0
        v = rng.normal(size=4**n)
        level = [GatePlacement((w,), BuiltinGate("ID")) for w in range(n)]
        c = Circuit(n, 1, [level], NoiseModel(p, 0.4), 0)
        out = evolve_pauli(c, CoeffVector(n, v), min_cut(c, [QubitRef(wire, 1)])).values
        for s in all_pauli_strings(n):
            if wire in s.support():
                assert out[s.index()] == v[s.index()] * (1 - p)
            else:
                assert out[s.index()] == v[s.index()]
            assert abs(out[s.index()]) <= abs(v[s.index()]) + 1e-15


def test_engines_agree_on_random_circuits():
    rng = np.random.default_rng(15)
    for seed in range(20):
        n = 2 + seed % 3
        t = 1 + seed % 4
        c = random_circuit(n, t, seed=seed, gate_pool=POOL, k=2,
                           noise=NoiseModel(0.05, 0.45))
        delta = random_hermitian(n, rng)
        dense = coeffs_from_op(evolve_density(c, delta, full_cut(c)))
        pauli = evolve_pauli(c, coeffs_from_op(delta), full_cut(c))
        assert np.max(np.abs(dense.values - pauli.values)) < 1e-9


def test_evolution_is_linear():
    rng = np.random.default_rng(17)
    c = random_circuit(2, 3, seed=4, gate_pool=POOL, k=2)
    v1 = coeffs_from_op(random_hermitian(2, rng))
    v2 = coeffs_from_op(random_hermitian(2, rng))
    a, b = 0.7, -1.3
    combo = CoeffVector(2, a * v1.values + b * v2.values)
    lhs = evolve_pauli(c, combo, full_cut(c)).values
    rhs = a * evolve_pauli(c, v1, full_cut(c)).values + b * evolve_pauli(c, v2, full_cut(c)).values
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_mixture_output_convexity_at_engine_level():
    # circuit with one 2-qubit mixture vs the same circuit with each branch
    rng = np.random.default_rng(19)
    from paulidelta import GatePlacement, UnitaryMixture, haar_unitary
    from paulidelta.circuit import Circuit

    u1, u2 = haar_unitary(4, rng), haar_unitary(4, rng)
    noise = NoiseModel(0.05, 0.4)

    def one_gate_circuit(terms):
        return Circuit(2, 1, [[GatePlacement((0, 1), UnitaryMixture(2, terms))]], noise, 0)

    mix = one_gate_circuit([(0.4, u1), (0.6, u2)])
    b1 = one_gate_circuit([(1.0, u1)])
    b2 = one_gate_circuit([(1.0, u2)])
    for _ in range(20):
        v = coeffs_from_op(random_hermitian(2, rng))
        mixed = sum_of_squares(evolve_pauli(mix, v, full_cut(mix)))
        split = 0.4 * sum_of_squares(evolve_pauli(b1, v, full_cut(b1))) + \
            0.6 * sum_of_squares(evolve_pauli(b2, v, full_cut(b2)))
        assert mixed <= split + 1e-9


# --- trace-out identity ------------------------------------------------------


def test_restriction_matches_partial_trace_exhaustively():
    # reduced coefficients = full coefficients at S (x) I, all subsets, n <= 3
    rng = np.random.default_rng(21)
    for n in (1, 2, 3):
        op = random_hermitian(n, rng)
        v = coeffs_from_op(op)
        for size in range(n + 1):
            for keep in combinations(range(n), size):
                got = restrict_coeffs(v, keep)
                want = coeffs_from_op(partial_trace(op, keep, n))
                assert np.max(np.abs(got.values - want.values)) < 1e-10


@pytest.mark.parametrize(
    "wires, message", [([0, 0], r"wires \[0, 0\] name a wire twice"),
                       ([0, 7], r"wires \[0, 7\] are not all among the vector's 2")],
)
def test_restriction_refuses_repeated_or_missing_wires(wires, message):
    v = coeffs_from_op(random_hermitian(2, np.random.default_rng(5)))
    with pytest.raises(ValueError, match=message):
        restrict_coeffs(v, wires)


# --- the gate kernel ----------------------------------------------------------


@st.composite
def kernel_cases(draw):
    """A complex tensor of 1-6 axes of size 2 or 4, with or without a leading
    batch axis of 1-4 rows, and an operator on up to 3 of its axes in any
    order: one matrix, or one per row when batched.  The tensor is
    contiguous, the permuted view an earlier ``_apply`` returns, or a
    basic-slice view of a larger tensor."""
    d = draw(st.sampled_from((2, 4)))
    m = draw(st.integers(1, 6))
    targets = draw(st.permutations(range(m)))[: draw(st.integers(1, min(3, m)))]
    rows = draw(st.none() | st.integers(1, 4))
    batch = () if rows is None else (rows,)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def normal(shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    shape = batch + (d,) * m
    layout = draw(st.sampled_from(("contiguous", "applied", "sliced")))
    if layout == "sliced":
        axis = draw(st.integers(0, len(shape)))
        t = normal(shape[:axis] + (d,) + shape[axis:])[(slice(None),) * axis + (0,)]
    else:
        t = normal(shape)
    if layout == "applied":
        earlier = draw(st.permutations(range(m)))[: draw(st.integers(1, min(3, m)))]
        t = _apply(t, normal((d ** len(earlier),) * 2), [a + len(batch) for a in earlier])
    ops = rng.normal(size=batch + (d ** len(targets),) * 2) + 0j
    return t, ops, [a + len(batch) for a in targets]


@given(kernel_cases())
def test_kernel_matches_einsum(case):
    t, ops, axes = case
    before = t.copy()
    got = _apply(t, ops, axes)
    # reference: the operator as a tensor, out axis j and in axis j on axes[j]
    k, batch, d = len(axes), ops.ndim - 2, t.shape[-1]
    op_t = ops.reshape(ops.shape[:batch] + (d,) * (2 * k))
    lead = list(range(batch))
    out_subs = [t.ndim + j for j in range(k)]
    want_subs = [out_subs[axes.index(a)] if a in axes else a for a in range(t.ndim)]
    want = np.einsum(op_t, lead + out_subs + list(axes), t, list(range(t.ndim)), want_subs)
    assert got.shape == t.shape
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.array_equal(t, before)


def test_a_gate_on_the_axes_left_in_front_copies_nothing():
    # The Pauli engine carries the tensor a step returns, so a gate on the
    # previous gate's axes allocates only its product: one 4^8 vector.
    n = 8
    rng = np.random.default_rng(5)
    level = [GatePlacement((2, 5), UnitaryMixture(2, [(1.0, haar_unitary(4, rng))]))]
    level += [GatePlacement((w,), BuiltinGate("ID")) for w in (0, 1, 3, 4, 6, 7)]
    step = _pauli_step(Circuit(n, 1, [level], NoiseModel(0.05, 0.4), 0), (1, 0), range(n))
    once = _run_step(rng.normal(size=(4,) * n), *step)
    tracemalloc.start()
    try:
        twice = _run_step(once, *step)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * 8 * 4**n
    assert np.max(np.abs(twice - _run_step(once.copy(), *step))) <= 1e-12


# --- reduced_delta -----------------------------------------------------------


def test_reduced_delta_at_time_zero_is_input():
    c = random_circuit(3, 2, seed=6, gate_pool=POOL, k=2)
    rng = np.random.default_rng(23)
    delta = random_pure_density(3, rng) - random_pure_density(3, rng)
    v = reduced_delta(c, coeffs_from_op(delta), cs(c, (0, 0), (1, 0), (2, 0)))
    assert np.allclose(v.values, coeffs_from_op(delta).values)


def test_reduced_delta_empty_set_traceless():
    c = random_circuit(2, 1, seed=7, gate_pool=POOL, k=2)
    rng = np.random.default_rng(25)
    delta = random_pure_density(2, rng) - random_pure_density(2, rng)
    v = reduced_delta(c, coeffs_from_op(delta), ConsistentSet.build(c, frozenset()))
    assert v.n == 0
    assert abs(v.values[0]) < 1e-12


def test_reduced_delta_rejects_inconsistent():
    c = parse_circuit("qubits 2 levels 1 output 0\nnoise eps1=0.1 epsk=0.4\nlevel 1: CNOT(0,1)\n")
    # member mask (bits 0*2+0 and 1*2+1), wire mask, cut (the CNOT), dist,
    # latest and n, not validated
    bad = ConsistentSet(0b1001, 0b11, 0b1, 0.0, 1, 2)
    with pytest.raises(ValueError, match="not consistent"):
        reduced_delta(c, CoeffVector.zero(2), bad)


def _greedy_extension(circ, vset):
    """A maximal downward-closed cut whose frontier still contains the set."""
    vtime = {q.wire: q.time for q in vset.qubits}
    gates = set()
    for level in range(1, circ.T + 1):
        for i, pl in enumerate(circ.levels[level - 1]):
            if any(w in vtime and level > vtime[w] for w in pl.wires):
                continue
            if level > 1:
                ok = True
                for w in pl.wires:
                    if (level - 1, producing_gate(circ, level - 1, w)) not in gates:
                        ok = False
                        break
                if not ok:
                    continue
            gates.add((level, i))
    return frozenset(gates)


def test_reduced_delta_independent_of_cut_extension():
    rng = np.random.default_rng(27)
    for seed in range(6):
        c = random_circuit(3, 2, seed=seed, gate_pool=POOL, k=2)
        delta = random_pure_density(3, rng) - random_pure_density(3, rng)
        v0 = coeffs_from_op(delta)
        sets = [s for s in enumerate_consistent_sets(c, 3) if s.qubits]
        for vset in sets[:: max(1, len(sets) // 8)]:
            wires = [q.wire for q in vset.qubits]
            via_min = restrict_coeffs(evolve_pauli(c, v0, min_cut(c, vset.qubits)), wires)
            bigger = mask(c, _greedy_extension(c, vset))
            assert min_cut(c, vset.qubits) & ~bigger == 0
            via_big = restrict_coeffs(evolve_pauli(c, v0, bigger), wires)
            assert np.max(np.abs(via_min.values - via_big.values)) < 1e-9


def test_reduced_delta_full_prefix_for_uniform_time():
    c = random_circuit(3, 3, seed=11, gate_pool=POOL, k=2)
    rng = np.random.default_rng(29)
    delta = random_pure_density(3, rng) - random_pure_density(3, rng)
    vset = cs(c, (0, 2), (1, 2), (2, 2))
    prefix_cut = mask(c, {(level, i) for level in (1, 2) for i in range(len(c.levels[level - 1]))})
    via_min = reduced_delta(c, coeffs_from_op(delta), vset)
    via_prefix = restrict_coeffs(
        evolve_pauli(c, coeffs_from_op(delta), prefix_cut), [0, 1, 2]
    )
    assert np.max(np.abs(via_min.values - via_prefix.values)) < 1e-9


# --- output distinguishability ----------------------------------------------


def test_identical_inputs_indistinguishable():
    c = random_circuit(2, 2, seed=8, gate_pool=POOL, k=2)
    rho = basis_density("00")
    assert output_distinguishability(c, InputPair(rho, rho)) == 0.0


def test_all_identity_circuit_decay():
    lines = ["qubits 1 levels 10 output 0", "noise eps1=0.01 epsk=0.4"]
    lines += [f"level {i}: ID(0)" for i in range(1, 11)]
    c = parse_circuit("\n".join(lines))
    pair = InputPair(basis_density("0"), basis_density("1"))
    assert output_distinguishability(c, pair) == pytest.approx(0.99**10, abs=1e-12)


def test_distinguishability_matches_born_difference():
    rng = np.random.default_rng(31)
    for seed in range(8):
        n = 2 + seed % 2
        c = random_circuit(n, 1 + seed % 4, seed=seed, gate_pool=POOL, k=2)
        pair = InputPair(random_pure_density(n, rng), random_pure_density(n, rng))
        measured = output_distinguishability(c, pair)
        p_rho = born_probability_one(evolve_density(c, pair.rho, full_cut(c)), c.output_wire, n)
        p_tau = born_probability_one(evolve_density(c, pair.tau, full_cut(c)), c.output_wire, n)
        assert measured == pytest.approx(abs(p_rho - p_tau), abs=1e-10)


# --- input validation ---------------------------------------------------------


def test_input_pair_validation():
    with pytest.raises(ValueError, match="trace"):
        InputPair(2 * basis_density("0"), basis_density("1"))
    not_psd = np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="positive semidefinite"):
        InputPair(not_psd, basis_density("0"))
    # its Hermitian part is a state, so only a Hermiticity check refuses it
    not_hermitian = np.array([[0.5, 0.1], [-0.1, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match=r"rho is not Hermitian \(residue 0.2\)"):
        InputPair(not_hermitian, basis_density("0"))
    with pytest.raises(ValueError, match="tau is not Hermitian"):
        InputPair(basis_density("0"), not_hermitian)
    not_square = np.full((2, 3), 0.5)
    with pytest.raises(ValueError, match=r"rho must be square, got shape \(2, 3\)"):
        InputPair(not_square, not_square)
    with pytest.raises(ValueError, match="rho dimension 3 is not a power of 2"):
        InputPair(np.eye(3) / 3, np.eye(3) / 3)


@pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_input_pair_rejects_non_finite_entries(entry, value):
    rho = basis_density("0")
    rho[entry] = value
    with pytest.raises(ValueError, match="rho has non-finite entries"):
        InputPair(rho, basis_density("1"))


# --- sampling demo ------------------------------------------------------------


def test_trajectory_sampler_is_seeded_and_sane():
    c = parse_circuit(
        "qubits 2 levels 2 output 0\nnoise eps1=0.05 epsk=0.4\n"
        "level 1: CNOT(0,1)\nlevel 2: H(0); RESET(1)\n"
    )
    est1 = sample_output_difference(c, BasisPair("00", "11"), shots=200, seed=42)
    est2 = sample_output_difference(c, BasisPair("00", "11"), shots=200, seed=42)
    assert est1 == est2
    exact = output_distinguishability(c, InputPair(basis_density("00"), basis_density("11")))
    assert abs(est1 - exact) < 0.2


@pytest.mark.parametrize(
    "rho, tau, message",
    [
        pytest.param("0", "1", "input pair is on 1 qubits, circuit on 2", id="0-1"),
        pytest.param("00", "1", "rho_bits and tau_bits differ in length: '00', '1'", id="00-1"),
        pytest.param("000", "111", "input pair is on 3 qubits, circuit on 2", id="000-111"),
        pytest.param(
            "00", "12", "tau_bits must be a nonempty string of 0/1, got '12'", id="00-12"
        ),
        pytest.param(
            "0x", "11", "rho_bits must be a nonempty string of 0/1, got '0x'", id="0x-11"
        ),
    ],
)
def test_trajectory_sampler_rejects_bits_that_do_not_fit_the_circuit(rho, tau, message):
    c = parse_circuit("qubits 2 levels 1 output 0\nnoise eps1=0.05 epsk=0.4\nlevel 1: CNOT(0,1)\n")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sample_output_difference(c, BasisPair(rho, tau), 20, 0)


@pytest.mark.parametrize("shots", [0, -5])
def test_trajectory_sampler_needs_a_shot(shots):
    c = parse_circuit("qubits 2 levels 1 output 0\nnoise eps1=0.05 epsk=0.4\nlevel 1: CNOT(0,1)\n")
    with pytest.raises(ValueError, match="shots must be >= 1"):
        sample_output_difference(c, BasisPair("00", "11"), shots, 0)


PAIR = BasisPair("00", "11")


@pytest.mark.parametrize(
    "pair, shots, seed, message",
    [
        pytest.param(
            InputPair(basis_density("00"), basis_density("11")), 10, 0,
            "the sampler takes a BasisPair, got InputPair", id="input-pair",
        ),
        pytest.param(PAIR, True, 0, "shots must be an int, got True", id="bool"),
        pytest.param(PAIR, 2.5, 0, "shots must be an int, got 2.5", id="float"),
        # random.Random would fold -3 onto 3's stream
        pytest.param(PAIR, 10, -3, "seed must be >= 0, got -3", id="seed-negative"),
        pytest.param(PAIR, 10, np.int64(-3), "seed must be >= 0, got -3", id="seed-negative-np"),
        pytest.param(PAIR, 10, True, "seed must be an int, got True", id="seed-bool"),
        pytest.param(
            PAIR, 10, np.bool_(True), f"seed must be an int, got {np.bool_(True)!r}", id="seed-np-bool"
        ),
        pytest.param(PAIR, 10, 2.0, "seed must be an int, got 2.0", id="seed-float"),
        pytest.param(PAIR, 10, "3", "seed must be an int, got '3'", id="seed-str"),
        pytest.param(PAIR, 10, None, "seed must be an int, got None", id="seed-none"),
    ],
)
def test_trajectory_sampler_rejects_bad_arguments_before_allocating(pair, shots, seed, message):
    c = parse_circuit("qubits 2 levels 1 output 0\nnoise eps1=0.05 epsk=0.4\nlevel 1: CNOT(0,1)\n")
    with mock.patch.object(simulate, "_shot_probabilities") as sampler:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sample_output_difference(c, pair, shots, seed)
    sampler.assert_not_called()


def test_trajectory_sampler_takes_numpy_int_shots():
    c = parse_circuit("qubits 2 levels 1 output 0\nnoise eps1=0.05 epsk=0.4\nlevel 1: CNOT(0,1)\n")
    pair = BasisPair("00", "11")
    assert sample_output_difference(c, pair, np.int64(30), 4) == sample_output_difference(c, pair, 30, 4)


@pytest.mark.parametrize("seed", [np.int64(4), np.uint8(4), np.int32(4)])
def test_trajectory_sampler_takes_numpy_int_seeds(seed):
    c = parse_circuit("qubits 2 levels 1 output 0\nnoise eps1=0.05 epsk=0.4\nlevel 1: CNOT(0,1)\n")
    pair = BasisPair("00", "11")
    assert sample_output_difference(c, pair, 30, seed) == sample_output_difference(c, pair, 30, 4)


# eps1 = 1e-300 leaves 1 - 3 * eps1 / 4 == 1.0, so every depolarizing draw picks I
NOISELESS = "noise eps1=1e-300 epsk=0\n"


def test_sampler_leaves_identity_draws_alone():
    c = parse_circuit("qubits 2 levels 2 output 1\n" + NOISELESS + "level 1: ID(0); ID(1)\nlevel 2: ID(1); ID(0)\n")
    with mock.patch.object(simulate, "_apply", wraps=simulate._apply) as apply:
        assert sample_output_difference(c, BasisPair("01", "10"), 30, 5) == 1.0
    apply.assert_not_called()


def test_sampler_applies_depolarizing_draws_with_no_product():
    c = parse_circuit(
        "qubits 2 levels 2 output 0\nnoise eps1=0.9 epsk=0.9\n"
        "level 1: ID(0); DEPOL(1; p=0.9)\nlevel 2: ID(0); ID(1)\n"
    )
    with mock.patch.object(simulate, "_apply", wraps=simulate._apply) as apply:
        assert sample_output_difference(c, BasisPair("01", "10"), 30, 5) < 1.0  # Paulis moved rows
    apply.assert_not_called()


def test_sampler_applies_a_one_operator_draw_to_each_row_on_the_live_wires():
    # Only the output wire is live; each row gets its own copy of H, so its
    # product is the one a lone state vector gets, whatever the row count.
    c = parse_circuit("qubits 3 levels 1 output 1\n" + NOISELESS + "level 1: ID(0); H(1); ID(2)\n")
    shots = 30
    with mock.patch.object(simulate, "_apply", wraps=simulate._apply) as apply:
        sample_output_difference(c, BasisPair("000", "111"), shots, 5)
    (call,) = apply.call_args_list
    t, ops, axes = call.args
    assert t.shape == (2 * shots, 2) and list(axes) == [1]
    assert ops.shape == (2 * shots, 2, 2) and (ops == BUILTIN_MATRICES["H"]).all()


def test_sampler_applies_k1_only_to_the_rows_that_jump():
    # From H|b>, |K0 psi|^2 of this damping channel, K0 = diag(1, 0.6), is 0.68,
    # so about a third of the rows jump.
    c = parse_circuit(
        "qubits 1 levels 2 output 0\n" + NOISELESS + "level 1: H(0)\nlevel 2: RSW(0; l1=0.6; l2=0.6; sign=1)\n"
    )
    shots = 40
    # Per row: H's term and its noise, the channel's term, its Kraus uniform and its noise.
    gen = random.Random(9)
    uniforms = np.array([gen.random() for _ in range(2 * shots * 5)]).reshape(2 * shots, 5)[:, 3]
    jumped = np.flatnonzero(uniforms >= 0.68)
    assert 0 < len(jumped) < 2 * shots
    with mock.patch.object(simulate, "_apply", wraps=simulate._apply) as apply:
        sample_output_difference(c, BasisPair("0", "1"), shots, 9)
    rows = [call.args[0].reshape(-1, 2) for call in apply.call_args_list]
    assert [len(r) for r in rows] == [2 * shots, 2 * shots, len(jumped)]  # H, K0, K1
    h_states = np.where((np.arange(2 * shots) < shots)[:, None], [1, 1], [1, -1]) / np.sqrt(2)
    assert np.allclose(rows[2], h_states[jumped])


def test_builtin_lowering_is_shared_by_placements_and_read_only():
    noise = NoiseModel(eps1=0.05, epsk=0.4)
    first, second = (simulate._channels(GatePlacement(w, BuiltinGate("CNOT")), noise) for w in [(0, 1), (3, 2)])
    assert [wires for wires, *_ in second] == [(3,), (2,), (3, 2)]
    for (_, *arrays), (_, *again) in zip(first, second):
        assert all(a is b and not a.flags.writeable for a, b in zip(arrays, again))


def test_sampler_holds_no_per_shot_list():
    c = parse_circuit("qubits 1 levels 1 output 0\nnoise eps1=0.05 epsk=0.4\nlevel 1: H(0)\n")
    tracemalloc.start()
    try:
        sample_output_difference(c, BasisPair("0", "1"), 200_000, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_trajectory_sampler_refuses_widths_past_its_cap_before_allocating():
    # The output's support here spans all 13 wires at once; one shot would
    # hold a 2^13 state.
    c = random_circuit(13, 12, seed=0, gate_pool=("CNOT", "ID"), k=2)
    pair = BasisPair("0" * 13, "1" * 13)
    tracemalloc.start()
    try:
        message = "^the output's support holds 13 live wires at once, above the sampler cap 12$"
        with pytest.raises(ValueError, match=message):
            sample_output_difference(c, pair, 1, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_output_distinguishability_follows_edited_levels():
    """A circuit refuses edits in place; an edited copy is a new circuit with
    its own light cones and fused transfer matrices."""
    text = "qubits 2 levels 2 output 0\nnoise eps1=0.05 epsk=0.45\nlevel 1: CNOT(0,1)\n"
    c = parse_circuit(text + "level 2: ID(0); RESET(1)\n")
    pair = InputPair(basis_density("00"), basis_density("11"))
    assert output_distinguishability(c, pair) == pytest.approx(0.5225, abs=1e-12)
    h = GatePlacement((0,), BuiltinGate("H"))
    with pytest.raises(TypeError):
        c.levels[1][0] = h
    with pytest.raises(AttributeError):
        c.levels = [c.levels[0], [h, c.levels[1][1]]]
    assert output_distinguishability(c, pair) == pytest.approx(0.5225, abs=1e-12)
    edited = Circuit(c.n, c.T, [c.levels[0], [h, c.levels[1][1]]], c.noise, c.output_wire)
    fresh = parse_circuit(text + "level 2: H(0); RESET(1)\n")
    assert output_distinguishability(edited, pair) == output_distinguishability(fresh, pair)
    assert output_distinguishability(edited, pair) == pytest.approx(0.0, abs=1e-12)
