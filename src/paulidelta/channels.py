"""Gates and noise channels, and their action on Pauli coefficients.

Multi-qubit gates are probabilistic mixtures of unitaries.  One-qubit gates
are arbitrary channels, accepted as convex combinations of canonical-form
terms U1 o J o U2, where J acts on the coefficient vector (I, X, Y, Z) as

        | 1   0    0    0      |
    J = | 0  lam1  0    0      |
        | 0   0   lam2  0      |
        | t   0    0  lam1*lam2|

with t = +-sqrt((1 - lam1^2)(1 - lam2^2)).  Every channel also has a Pauli
transfer matrix (Ptm): the real matrix M[S', S] = (1/2^k) Tr(S' * G(S))
acting on coefficient vectors, indexed in the canonical flat order.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Sequence, Union

import numpy as np

from .paulis import (
    _SITE_MATS,
    PAULI_MATS,
    PauliString,
    check_unitary,
)

PROB_TOL = 1e-10
PTM_IMAG_TOL = 1e-9

_ID2 = np.eye(2, dtype=complex)
_ID2.setflags(write=False)

# Canonical matrices of the builtin gate table.
BUILTIN_MATRICES: dict[str, np.ndarray] = {
    "ID": _ID2,
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "X": PAULI_MATS["X"],
    "Y": PAULI_MATS["Y"],
    "Z": PAULI_MATS["Z"],
    "S": np.diag([1, 1j]),
    "T": np.diag([1, np.exp(1j * math.pi / 4)]),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}

BUILTIN_ARITY: dict[str, int] = {
    "ID": 1, "H": 1, "X": 1, "Y": 1, "Z": 1, "S": 1, "T": 1,
    "RESET": 1, "DEPOL": 1, "CNOT": 2, "CZ": 2, "SWAP": 2,
}


def _invalid(problem: str) -> ValueError:
    return ValueError(f"invalid gate: {problem}")


@dataclass(frozen=True)
class BuiltinGate:
    """A named gate from the builtin table; DEPOL carries its strength."""

    name: str
    p: float | None = None

    def __post_init__(self):
        if self.name not in BUILTIN_ARITY:
            raise _invalid(f"unknown builtin gate {self.name!r}")
        if self.name != "DEPOL":
            if self.p is not None:
                raise _invalid(f"builtin {self.name} takes no parameter")
        elif self.p is None:
            raise _invalid("DEPOL requires a strength p")
        elif not 0.0 <= self.p <= 1.0:
            raise _invalid(f"DEPOL strength {self.p} outside [0, 1]")

    def __repr__(self) -> str:
        return f"BuiltinGate({self.name}, p={self.p})" if self.name == "DEPOL" else f"BuiltinGate({self.name})"


def _read_only(m) -> np.ndarray:
    """A read-only complex copy of ``m``."""
    m = np.array(m, dtype=complex)
    m.setflags(write=False)
    return m


def _check_weights(probs: list[float], kind: str) -> None:
    # Written so that a NaN weight fails every comparison it enters.
    if not probs:
        raise _invalid(f"probabilities: {kind} has no terms")
    for p in probs:
        if not p >= -PROB_TOL:
            raise _invalid(f"probabilities: bad weight {p}")
    if not abs(sum(probs) - 1.0) <= PROB_TOL:
        raise _invalid(f"probabilities sum to {sum(probs)}, expected 1")


# eq=False: a gate holding arrays compares and hashes by identity, which lets
# each gate object key its own compiled matrices; arrays hash by no value.
@dataclass(frozen=True, eq=False)
class UnitaryMixture:
    """A k-qubit channel of the form rho -> sum_i p_i U_i rho U_i^dagger."""

    k: int
    terms: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple((float(p), _read_only(u)) for p, u in self.terms))
        _check_weights([p for p, _ in self.terms], "mixture")
        for i, (_, u) in enumerate(self.terms):
            if u.shape != (2**self.k, 2**self.k):
                raise _invalid(f"unitarity: term {i} has shape {u.shape}, arity {self.k}")
            try:
                check_unitary(u)
            except ValueError as e:
                raise _invalid(f"unitarity: term {i}: {e}") from None


@dataclass(frozen=True, eq=False)
class RswChannel:
    """One extreme-form one-qubit channel U1 o J o U2, with |lam1|, |lam2| <= 1.

    ``t_sign`` selects the branch of t = +-sqrt((1-lam1^2)(1-lam2^2)).
    ``pre_unitary`` (U2) acts first, ``post_unitary`` (U1) last.
    """

    lam1: float
    lam2: float
    t_sign: int = 1
    pre_unitary: np.ndarray = field(default_factory=lambda: _ID2)
    post_unitary: np.ndarray = field(default_factory=lambda: _ID2)

    def __post_init__(self):
        object.__setattr__(self, "pre_unitary", _read_only(self.pre_unitary))
        object.__setattr__(self, "post_unitary", _read_only(self.post_unitary))
        if not (abs(self.lam1) <= 1 and abs(self.lam2) <= 1):
            raise _invalid(f"lambda range: (lam1, lam2)=({self.lam1}, {self.lam2})")
        if self.t_sign not in (-1, 1):
            raise _invalid(f"t_sign must be +-1, got {self.t_sign}")
        for tag, u in (("pre", self.pre_unitary), ("post", self.post_unitary)):
            try:
                k = check_unitary(u)
            except ValueError as e:
                raise _invalid(f"unitarity: {tag}-unitary: {e}") from None
            if k != 1:
                raise _invalid(f"unitarity: {tag}-unitary is not 2x2")

    @property
    def t(self) -> float:
        return self.t_sign * math.sqrt((1 - self.lam1**2) * (1 - self.lam2**2))


@dataclass(frozen=True, eq=False)
class OneQubitGate:
    """A one-qubit channel as a convex combination of canonical-form terms."""

    terms: tuple[tuple[float, RswChannel], ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple((float(p), ch) for p, ch in self.terms))
        _check_weights([p for p, _ in self.terms], "channel")
        for i, (_, ch) in enumerate(self.terms):
            if not isinstance(ch, RswChannel):
                raise _invalid(f"term {i} is not an RswChannel: {ch!r}")


GateSpec = Union[BuiltinGate, UnitaryMixture, OneQubitGate]

RESET_CHANNEL = RswChannel(lam1=0.0, lam2=0.0, t_sign=1)


@dataclass
class Ptm:
    """Pauli transfer matrix: real 4^k x 4^k action on coefficient vectors."""

    k: int
    m: np.ndarray

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=float)
        if self.m.shape != (4**self.k, 4**self.k):
            raise ValueError(
                f"expected {(4 ** self.k, 4 ** self.k)} matrix, got {self.m.shape}"
            )


# Permutation from (I, X, Y, Z) display order to canonical codes (I, Z, X, Y).
_IXYZ_TO_CODE = [PauliString.from_label(c).index() for c in "IXYZ"]


@lru_cache(maxsize=None)
def _pauli_stack(k: int) -> np.ndarray:
    """The 4^k k-qubit Pauli matrices in flat index order, shape (4^k, 2^k, 2^k).

    Site j's factor joins as the next kron factor on the right and as the
    next base-4 digit of the index on the left, so every entry is the
    product :meth:`PauliString.matrix` forms, in its order.
    """
    stack = _SITE_MATS if k else np.ones((1, 1, 1), dtype=complex)
    for j in range(1, k):
        d = 2**j
        stack = (stack[None, :, :, None, :, None] * _SITE_MATS[:, None, None, :, None, :]).reshape(
            4 * len(stack), 2 * d, 2 * d
        )
    stack = stack.copy()
    stack.setflags(write=False)
    return stack


def ptm_of_unitary(u: np.ndarray) -> Ptm:
    """Transfer matrix of conjugation by a unitary, which is checked first;
    always orthogonal."""
    u = np.asarray(u, dtype=complex)
    return Ptm(check_unitary(u), *_conjugation_ptms([u]))


# Entries of the largest conjugated-Pauli stack built at once (256 KiB): four
# 3-qubit unitaries'.  A wider unitary, whose own stack is larger, goes alone,
# so a mixture's peak memory does not grow with its number of terms; larger
# batches of 3-qubit unitaries also ran slower than one at a time.
_CONJUGATION_BUDGET = 2**14


def _conjugation_ptms(us: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
    """Yield the transfer matrix of conjugation by each of the k-qubit
    unitaries ``us``, which the caller has checked, conjugating them in
    chunks whose stacks hold at most ``_CONJUGATION_BUDGET`` entries (or
    one unitary's).  Each unitary is its own product in a chunk, so its
    bits do not depend on the chunk."""
    step = max(1, _CONJUGATION_BUDGET >> 4 * (us[0].shape[-1].bit_length() - 1))
    for i in range(0, len(us), step):
        yield from _conjugate(np.array(us[i : i + step]))


def _conjugate(us: np.ndarray) -> np.ndarray:
    """The transfer matrices of conjugation by each unitary of the (b, 2^k,
    2^k) stack ``us``: column S of matrix i holds the coefficients
    Tr(S' U_i S U_i^dagger) / 2^k, computed for all b unitaries and 4^k
    strings S in one batched product, so one unitary is a batch of one."""
    b, k = len(us), us.shape[-1].bit_length() - 1
    paulis = _pauli_stack(k)
    conj = us[:, None] @ paulis @ us.conj().transpose(0, 2, 1)[:, None]
    # traces[i, S', S] = sum_jl S'[j, l] * conj_iS[l, j]
    traces = paulis.reshape(4**k, -1) @ conj.transpose(0, 1, 3, 2).reshape(b, 4**k, -1).transpose(0, 2, 1)
    residue = float(np.max(np.abs(traces.imag)))
    if residue > PTM_IMAG_TOL:
        raise ValueError(f"coefficients have imaginary residue {residue:.3g}")
    return traces.real / 2**k


def _j_ptm(lam1: float, lam2: float, t: float) -> np.ndarray:
    j = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, lam1, 0.0, 0.0],
            [0.0, 0.0, lam2, 0.0],
            [t, 0.0, 0.0, lam1 * lam2],
        ]
    )
    m = np.zeros((4, 4))
    for a in range(4):
        for b in range(4):
            m[_IXYZ_TO_CODE[a], _IXYZ_TO_CODE[b]] = j[a, b]
    return m


def rsw_ptm(ch: RswChannel) -> Ptm:
    """Transfer matrix of a canonical-form channel: P(U1) @ J @ P(U2)."""
    post, pre = _conjugation_ptms([ch.post_unitary, ch.pre_unitary])
    return Ptm(1, post @ _j_ptm(ch.lam1, ch.lam2, ch.t) @ pre)


def kraus_of_rsw(ch: RswChannel) -> list[np.ndarray]:
    """Two Kraus operators realizing a canonical-form channel.

    With lam1 = cos(u), lam2 = cos(v) the pair

        K1 = diag(cos a, cos b),  K2 = [[0, sin b], [sin a, 0]]

    for a = (v -+ u)/2, b = (v +- u)/2 reproduces the J action with
    t = +-sin(u)sin(v); U1/U2 are composed around them.
    """
    u, v = math.acos(ch.lam1), math.acos(ch.lam2)
    if ch.t_sign >= 0:
        a, b = (v - u) / 2, (v + u) / 2
    else:
        a, b = (v + u) / 2, (v - u) / 2
    k1 = np.diag([math.cos(a), math.cos(b)]).astype(complex)
    k2 = np.array([[0, math.sin(b)], [math.sin(a), 0]], dtype=complex)
    u1 = np.asarray(ch.post_unitary, dtype=complex)
    u2 = np.asarray(ch.pre_unitary, dtype=complex)
    return [u1 @ k1 @ u2, u1 @ k2 @ u2]


def depolarizing_ptm(p: float) -> Ptm:
    """diag(1, 1-p, 1-p, 1-p): shrink every supported coefficient by 1-p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing strength {p} outside [0, 1]")
    d = np.full(4, 1.0 - p)
    d[0] = 1.0
    return Ptm(1, np.diag(d))


def beta_of_gate(g: OneQubitGate) -> float:
    """Mixing weight sum_i p_i * max(lam1_i^2, lam2_i^2) in [0, 1].

    For this beta, any Hermitian one-qubit input delta and output delta'
    satisfy
        d'(X)^2 + d'(Y)^2 + d'(Z)^2
            <= (1-beta) d(I)^2 + beta (d(X)^2 + d(Y)^2 + d(Z)^2).
    """
    return float(
        sum(p * max(ch.lam1**2, ch.lam2**2) for p, ch in g.terms)
    )


def cnot_pauli_action(r: PauliString) -> tuple[PauliString, int]:
    """Signed permutation CNOT R CNOT^dagger on the 16 two-qubit strings.

    The first qubit is the control.  The map never exchanges the blocks
    I (x) {X,Y,Z} and {X,Y,Z} (x) I.  Read from column R of the CNOT's
    transfer matrix, which is a signed unit vector.
    """
    if r.n != 2:
        raise ValueError(f"expected a 2-qubit string, got n={r.n}")
    column = gate_ptm(BuiltinGate("CNOT")).m[:, r.index()]
    idx = int(np.argmax(np.abs(column)))
    return PauliString.from_index(2, idx), 1 if column[idx] > 0 else -1


def gate_arity(g: GateSpec) -> int:
    if isinstance(g, BuiltinGate):
        return BUILTIN_ARITY[g.name]
    if isinstance(g, UnitaryMixture):
        return g.k
    if isinstance(g, OneQubitGate):
        return 1
    raise TypeError(f"not a gate spec: {g!r}")


def lower_builtin(g: GateSpec) -> GateSpec:
    """A builtin's mixture / canonical-form representation; other specs pass through."""
    if not isinstance(g, BuiltinGate):
        return g
    if g.name == "RESET":
        return OneQubitGate([(1.0, RESET_CHANNEL)])
    if g.name == "DEPOL":
        p = g.p
        return UnitaryMixture(
            1,
            [
                (1 - 3 * p / 4, PAULI_MATS["I"]),
                (p / 4, PAULI_MATS["X"]),
                (p / 4, PAULI_MATS["Y"]),
                (p / 4, PAULI_MATS["Z"]),
            ],
        )
    u = BUILTIN_MATRICES[g.name]
    return UnitaryMixture(BUILTIN_ARITY[g.name], [(1.0, u)])


@lru_cache(maxsize=None)
def _builtin_ptm(name: str) -> np.ndarray:
    m = gate_ptm(lower_builtin(BuiltinGate(name))).m
    m.setflags(write=False)
    return m


def gate_ptm(g: GateSpec) -> Ptm:
    """Transfer matrix of any gate spec (builtins lowered first).

    The transfer matrix of each named builtin other than DEPOL is built once
    per process and returned read-only.
    """
    if isinstance(g, BuiltinGate):
        if g.name == "DEPOL":
            return depolarizing_ptm(g.p)
        return Ptm(BUILTIN_ARITY[g.name], _builtin_ptm(g.name))
    if isinstance(g, UnitaryMixture):
        # map frees each term's matrix before the next one's conjugation
        m = sum(map(operator.mul, [p for p, _ in g.terms], _conjugation_ptms([u for _, u in g.terms])))
        return Ptm(g.k, m)
    if isinstance(g, OneQubitGate):
        m = sum(p * rsw_ptm(ch).m for p, ch in g.terms)
        return Ptm(1, m)
    raise TypeError(f"not a gate spec: {g!r}")
