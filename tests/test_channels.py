import dataclasses
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
)
from paulidelta.channels import BUILTIN_MATRICES, RESET_CHANNEL, kraus_of_rsw, lower_builtin
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
    assert BuiltinGate("CNOT") == BuiltinGate("CNOT")
    assert BuiltinGate("DEPOL", 0.3).p == 0.3
    assert BuiltinGate("DEPOL", 0).p == 0 and BuiltinGate("DEPOL", 1.0).p == 1.0
    UnitaryMixture(1, [(0.5, np.eye(2)), (0.5 + 1e-11, BUILTIN_MATRICES["H"])])  # within PROB_TOL
    OneQubitGate([(0.3, RswChannel(-1.0, 1.0, -1)), (0.7, RESET_CHANNEL)])


def test_validate_probabilities():
    with pytest.raises(ValueError, match="invalid gate: probabilities"):
        UnitaryMixture(1, [(0.5, np.eye(2)), (0.4, BUILTIN_MATRICES["H"])])


def test_validate_lambda_range():
    with pytest.raises(ValueError, match="invalid gate: lambda range"):
        OneQubitGate([(1.0, RswChannel(1.2, 0.0))])


def test_validate_unitarity():
    with pytest.raises(ValueError, match="invalid gate: unitarity"):
        UnitaryMixture(1, [(1.0, np.array([[1, 1], [0, 1]], dtype=complex))])


def test_validate_depol_strength():
    with pytest.raises(ValueError, match="invalid gate: DEPOL strength 1.2 outside"):
        BuiltinGate("DEPOL", 1.2)
    with pytest.raises(ValueError, match="invalid gate: DEPOL requires a strength p"):
        BuiltinGate("DEPOL")


_H = BUILTIN_MATRICES["H"]
_MIX = UnitaryMixture(1, [(0.5, np.eye(2)), (0.5, _H)])
_RSW = RswChannel(0.8, 0.5, 1, pre_unitary=_H, post_unitary=_H)
_ONE = OneQubitGate([(0.25, _RSW), (0.75, RESET_CHANNEL)])
_NON_UNITARY = np.array([[1, 1], [0, 1]])


@pytest.mark.parametrize(
    "valid, changes, problem",
    [
        pytest.param(_MIX, {"terms": ()}, "probabilities: mixture has no terms", id="mixture-no-terms"),
        pytest.param(_ONE, {"terms": ()}, "probabilities: channel has no terms", id="channel-no-terms"),
        pytest.param(_MIX, {"terms": [(math.nan, np.eye(2))]}, "probabilities: bad weight nan", id="nan-weight"),
        pytest.param(_MIX, {"terms": [(-0.5, np.eye(2)), (1.5, _H)]}, "probabilities: bad weight -0.5",
                     id="negative-weight"),
        pytest.param(_MIX, {"terms": [(0.5, np.eye(2)), (0.4, _H)]}, "probabilities sum to 0.9", id="mis-summed"),
        pytest.param(_ONE, {"terms": [(0.5, _RSW), (0.6, RESET_CHANNEL)]}, "probabilities sum to 1.1",
                     id="channel-mis-summed"),
        pytest.param(_ONE, {"terms": [(math.nan, _RSW)]}, "probabilities: bad weight nan", id="channel-nan-weight"),
        pytest.param(_MIX, {"k": 2}, r"unitarity: term 0 has shape \(2, 2\), arity 2", id="wrong-shape"),
        pytest.param(_MIX, {"terms": [(1.0, _NON_UNITARY)]}, "unitarity: term 0: matrix is not unitary",
                     id="non-unitary"),
        pytest.param(_MIX, {"terms": [(1.0, [[math.nan, 0], [0, 1]])]}, "unitarity: term 0: matrix is not unitary",
                     id="nan-matrix"),
        pytest.param(_RSW, {"lam1": 1.2}, r"lambda range: \(lam1, lam2\)=\(1.2, 0.5\)", id="lambda-above-1"),
        pytest.param(_RSW, {"lam2": -1.0000001}, "lambda range", id="lambda-below-minus-1"),
        pytest.param(_RSW, {"lam2": math.nan}, r"lambda range: \(lam1, lam2\)=\(0.8, nan\)", id="nan-lambda"),
        pytest.param(_RSW, {"t_sign": 0}, r"t_sign must be \+-1, got 0", id="t-sign-0"),
        pytest.param(_RSW, {"t_sign": 2}, r"t_sign must be \+-1, got 2", id="t-sign-2"),
        pytest.param(_RSW, {"pre_unitary": np.eye(4)}, "unitarity: pre-unitary is not 2x2", id="pre-not-2x2"),
        pytest.param(_RSW, {"post_unitary": BUILTIN_MATRICES["CNOT"]}, "unitarity: post-unitary is not 2x2",
                     id="post-not-2x2"),
        pytest.param(_RSW, {"post_unitary": _NON_UNITARY}, "unitarity: post-unitary: matrix is not unitary",
                     id="post-non-unitary"),
        pytest.param(_ONE, {"terms": [(1.0, _MIX)]}, "term 0 is not an RswChannel", id="term-not-rsw"),
        pytest.param(BuiltinGate("H"), {"name": "FOO"}, "unknown builtin gate 'FOO'", id="unknown-builtin"),
        pytest.param(BuiltinGate("DEPOL", 0.2), {"p": None}, "DEPOL requires a strength p", id="depol-no-p"),
        pytest.param(BuiltinGate("DEPOL", 0.2), {"p": 1.2}, r"DEPOL strength 1.2 outside \[0, 1\]", id="depol-above-1"),
        pytest.param(BuiltinGate("DEPOL", 0.2), {"p": -0.1}, "DEPOL strength -0.1 outside", id="depol-negative"),
        pytest.param(BuiltinGate("DEPOL", 0.2), {"p": math.nan}, "DEPOL strength nan outside", id="depol-nan"),
        pytest.param(BuiltinGate("H"), {"p": 0.2}, "builtin H takes no parameter", id="builtin-parameter"),
    ],
)
def test_no_invalid_gate_can_be_built(valid, changes, problem):
    fields = {f.name: getattr(valid, f.name) for f in dataclasses.fields(valid)}
    with pytest.raises(ValueError, match=f"^invalid gate: {problem}"):
        type(valid)(**fields | changes)
    with pytest.raises(ValueError, match=f"^invalid gate: {problem}"):
        dataclasses.replace(valid, **changes)
    dataclasses.replace(valid)  # the valid gate itself rebuilds


def test_ptm_of_unitary_refuses_a_non_unitary_matrix():
    with pytest.raises(ValueError, match="not unitary"):
        ptm_of_unitary(_NON_UNITARY)
    with pytest.raises(ValueError, match="not a power of 2"):
        ptm_of_unitary(np.eye(3))


def test_mixtures_and_channels_compare_and_hash_by_identity():
    again = UnitaryMixture(1, _MIX.terms)
    assert _MIX == _MIX and _MIX != again and hash(_MIX) != hash(again)
    assert _ONE == _ONE and _ONE != OneQubitGate(_ONE.terms)
    assert {_MIX: 1, again: 2, _ONE: 3}[_MIX] == 1
    ch = RswChannel(0.5, 0.5)
    assert ch == ch and ch != RswChannel(0.5, 0.5) and hash(ch) != hash(RswChannel(0.5, 0.5))


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
