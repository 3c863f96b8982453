import math

import numpy as np
import pytest

from paulidelta import (
    BuiltinGate,
    CoeffVector,
    OneQubitGate,
    PauliString,
    RswChannel,
    UnitaryMixture,
    beta_of_gate,
    cnot_pauli_action,
    coeffs_from_op,
    depolarizing_ptm,
    gate_ptm,
    haar_unitary,
    pauli_conjugation_oracle,
    ptm_of_unitary,
    rsw_ptm,
    sum_of_squares,
    validate_gate,
)
from paulidelta.channels import BUILTIN_MATRICES, kraus_of_rsw, lower_builtin
from paulidelta.simulate import random_hermitian

from oracles import ptm_by_columns

I_, X_, Y_, Z_ = (PauliString.from_label(c).index() for c in "IXYZ")


def test_ptm_of_identity():
    assert np.allclose(ptm_of_unitary(np.eye(2)).m, np.eye(4))


def test_ptm_of_hadamard_is_signed_permutation():
    m = ptm_of_unitary(BUILTIN_MATRICES["H"]).m
    want = np.zeros((4, 4))
    want[I_, I_] = 1
    want[Z_, X_] = 1
    want[X_, Z_] = 1
    want[Y_, Y_] = -1
    assert np.allclose(m, want)


def test_ptm_orthogonal_for_random_unitaries():
    rng = np.random.default_rng(17)
    for _ in range(20):
        k = int(rng.integers(1, 3))
        m = ptm_of_unitary(haar_unitary(2**k, rng)).m
        assert np.max(np.abs(m.T @ m - np.eye(4**k))) < 1e-9


@pytest.mark.parametrize("k", [1, 2, 3])
def test_batched_ptm_matches_column_oracle(k):
    rng = np.random.default_rng(100 + k)
    for _ in range(5):
        u = haar_unitary(2**k, rng)
        assert np.max(np.abs(ptm_of_unitary(u).m - ptm_by_columns(u))) < 1e-12


def test_builtin_ptms_are_shared_and_read_only():
    a, b = gate_ptm(BuiltinGate("CNOT")), gate_ptm(BuiltinGate("CNOT"))
    assert a.m is b.m
    with pytest.raises(ValueError):
        a.m[0, 0] = 2.0


def test_ptm_first_row_trace_preserving():
    rng = np.random.default_rng(19)
    for _ in range(10):
        m = ptm_of_unitary(haar_unitary(4, rng)).m
        row = np.zeros(16)
        row[0] = 1.0
        assert np.allclose(m[0], row, atol=1e-10)


def test_unitary_preserves_sum_of_squares():
    rng = np.random.default_rng(23)
    for _ in range(200):
        k = int(rng.integers(1, 3))
        m = ptm_of_unitary(haar_unitary(2**k, rng)).m
        v = rng.normal(size=4**k)
        assert abs(np.dot(m @ v, m @ v) - np.dot(v, v)) < 1e-9


def test_rsw_identity_channel():
    ch = RswChannel(lam1=1.0, lam2=1.0)
    assert ch.t == 0.0
    assert np.allclose(rsw_ptm(ch).m, np.eye(4))


def test_rsw_reset_channel():
    # lam1 = lam2 = 0, t = +1 resets any unit-trace state to |0><0|.
    m = rsw_ptm(RswChannel(0.0, 0.0, 1)).m
    state = coeffs_from_op(np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]]))
    out = m @ state.values
    want = np.zeros(4)
    want[I_] = state.values[I_]
    want[Z_] = state.values[I_]
    assert np.allclose(out, want)


def test_rsw_j_matrix_entries():
    m = rsw_ptm(RswChannel(0.8, 0.5, 1)).m
    t = math.sqrt((1 - 0.64) * (1 - 0.25))
    assert m[X_, X_] == pytest.approx(0.8)
    assert m[Y_, Y_] == pytest.approx(0.5)
    assert m[Z_, Z_] == pytest.approx(0.4)
    assert m[Z_, I_] == pytest.approx(t)
    row = np.zeros(4)
    row[I_] = 1.0
    assert np.allclose(m[I_], row)
    assert t == pytest.approx(0.5196152422706632)


def test_rsw_rejects_lambda_out_of_range():
    with pytest.raises(ValueError, match="lambda range"):
        rsw_ptm(RswChannel(1.2, 0.5))


def test_kraus_realizes_rsw_ptm():
    rng = np.random.default_rng(29)
    for _ in range(50):
        ch = RswChannel(
            lam1=float(rng.uniform(-1, 1)),
            lam2=float(rng.uniform(-1, 1)),
            t_sign=int(rng.choice([-1, 1])),
            pre_unitary=haar_unitary(2, rng),
            post_unitary=haar_unitary(2, rng),
        )
        ks = kraus_of_rsw(ch)
        # trace preservation
        acc = sum(k.conj().T @ k for k in ks)
        assert np.max(np.abs(acc - np.eye(2))) < 1e-12
        # PTM computed from the Kraus pair matches the J-form PTM
        cols = np.zeros((4, 4))
        for s_idx in range(4):
            s = PauliString.from_index(1, s_idx)
            out = sum(k @ s.matrix() @ k.conj().T for k in ks)
            cols[:, s_idx] = coeffs_from_op(out, imag_tol=1e-9).values / 2
        assert np.max(np.abs(cols - rsw_ptm(ch).m)) < 1e-10


def test_beta_endpoints():
    unitary = OneQubitGate([(1.0, RswChannel(1.0, 1.0))])
    reset = OneQubitGate([(1.0, RswChannel(0.0, 0.0, 1))])
    assert beta_of_gate(unitary) == 1.0
    assert beta_of_gate(reset) == 0.0
    half = OneQubitGate([(0.5, RswChannel(1.0, 1.0)), (0.5, RswChannel(0.0, 0.0, 1))])
    assert beta_of_gate(half) == pytest.approx(0.5)


def test_beta_uses_max_of_lambdas():
    g = OneQubitGate([(1.0, RswChannel(0.2, -0.9))])
    assert beta_of_gate(g) == pytest.approx(0.81)


def test_beta_bound_on_random_inputs():
    # d'(X)^2+d'(Y)^2+d'(Z)^2 <= (1-b) d(I)^2 + b (d(X)^2+d(Y)^2+d(Z)^2)
    rng = np.random.default_rng(31)
    half = OneQubitGate([(0.5, RswChannel(1.0, 1.0)), (0.5, RswChannel(0.0, 0.0, 1))])
    beta = beta_of_gate(half)
    m = gate_ptm(half).m
    for _ in range(1000):
        v = coeffs_from_op(random_hermitian(1, rng)).values
        w = m @ v
        lhs = w[X_] ** 2 + w[Y_] ** 2 + w[Z_] ** 2
        rhs = (1 - beta) * v[I_] ** 2 + beta * (v[X_] ** 2 + v[Y_] ** 2 + v[Z_] ** 2)
        assert lhs <= rhs + 1e-9


def test_depolarizing_ptm():
    assert np.allclose(depolarizing_ptm(0.0).m, np.eye(4))
    m = depolarizing_ptm(1.0).m
    want = np.zeros((4, 4))
    want[I_, I_] = 1.0
    assert np.allclose(m, want)
    v = np.zeros(4)
    v[X_] = 1.0
    assert (depolarizing_ptm(0.36).m @ v)[X_] == pytest.approx(0.64)
    with pytest.raises(ValueError):
        depolarizing_ptm(1.5)


def test_cnot_action_examples():
    assert cnot_pauli_action(PauliString.from_label("XI")) == (
        PauliString.from_label("XX"), 1)
    assert cnot_pauli_action(PauliString.from_label("IZ")) == (
        PauliString.from_label("ZZ"), 1)
    assert cnot_pauli_action(PauliString.from_label("YY")) == (
        PauliString.from_label("XZ"), -1)


def test_cnot_action_matches_conjugation_on_all_16():
    cnot = BUILTIN_MATRICES["CNOT"]
    for a in "IXYZ":
        for b in "IXYZ":
            r = PauliString.from_label(a + b)
            assert cnot_pauli_action(r) == pauli_conjugation_oracle(cnot, r)


def test_cnot_action_is_a_signed_permutation():
    images = {cnot_pauli_action(PauliString.from_label(a + b))[0].label()
              for a in "IXYZ" for b in "IXYZ"}
    assert len(images) == 16


def test_cnot_never_crosses_identity_blocks():
    # inputs in I(x){X,Y,Z} never land in {X,Y,Z}(x)I and vice versa
    for a in "IXYZ":
        for b in "IXYZ":
            out, _ = cnot_pauli_action(PauliString.from_label(a + b))
            oa, ob = out.letter(0), out.letter(1)
            if a == "I" and b != "I":
                assert not (oa != "I" and ob == "I")
            if a != "I" and b == "I":
                assert not (oa == "I" and ob != "I")


def test_validate_builtin_ok():
    assert validate_gate(BuiltinGate("CNOT")) == []


def test_validate_probabilities():
    bad = UnitaryMixture(1, [(0.5, np.eye(2)), (0.4, BUILTIN_MATRICES["H"])])
    assert any("probabilities" in p for p in validate_gate(bad))


def test_validate_lambda_range():
    bad = OneQubitGate([(1.0, RswChannel(1.2, 0.0))])
    assert any("lambda range" in p for p in validate_gate(bad))


def test_validate_unitarity():
    bad = UnitaryMixture(1, [(1.0, np.array([[1, 1], [0, 1]], dtype=complex))])
    assert any("unitarity" in p for p in validate_gate(bad))


def test_validate_depol_strength():
    assert validate_gate(BuiltinGate("DEPOL", 0.3)) == []
    assert any("strength" in p for p in validate_gate(BuiltinGate("DEPOL", 1.2)))
    assert any("requires" in p for p in validate_gate(BuiltinGate("DEPOL")))


def test_builtin_lowering_shapes():
    for name in ("ID", "H", "X", "Y", "Z", "S", "T"):
        g = lower_builtin(BuiltinGate(name))
        assert isinstance(g, UnitaryMixture) and g.k == 1
    assert isinstance(lower_builtin(BuiltinGate("RESET")), OneQubitGate)
    assert lower_builtin(BuiltinGate("CNOT")).k == 2
    mix = lower_builtin(BuiltinGate("H"))
    assert lower_builtin(mix) is mix  # a lowered spec comes back unchanged


def test_gate_ptm_of_mixture_is_convex_combination():
    rng = np.random.default_rng(37)
    u1, u2 = haar_unitary(4, rng), haar_unitary(4, rng)
    mix = UnitaryMixture(2, [(0.3, u1), (0.7, u2)])
    want = 0.3 * ptm_of_unitary(u1).m + 0.7 * ptm_of_unitary(u2).m
    assert np.allclose(gate_ptm(mix).m, want)


def test_reset_fixed_point_from_any_state():
    rng = np.random.default_rng(41)
    m = gate_ptm(BuiltinGate("RESET")).m
    for _ in range(10):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        out = m @ coeffs_from_op(rho).values
        want = np.zeros(4)
        want[I_] = 1.0
        want[Z_] = 1.0
        assert np.allclose(out, want, atol=1e-10)


def test_mixture_convexity_of_sum_of_squares():
    rng = np.random.default_rng(43)
    for _ in range(200):
        k = int(rng.integers(1, 3))
        probs = rng.dirichlet(np.ones(int(rng.integers(2, 4))))
        us = [haar_unitary(2**k, rng) for _ in probs]
        mix = UnitaryMixture(k, list(zip(map(float, probs), us)))
        v = CoeffVector(k, rng.normal(size=4**k))
        mixed = gate_ptm(mix).m @ v.values
        branches = sum(
            p * sum_of_squares(CoeffVector(k, ptm_of_unitary(u).m @ v.values))
            for p, u in zip(probs, us)
        )
        assert float(np.dot(mixed, mixed)) <= branches + 1e-9
