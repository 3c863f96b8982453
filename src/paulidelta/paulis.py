"""Bit-packed Pauli strings and the Pauli-coefficient view of Hermitian operators.

An n-qubit Pauli string is a tensor product of one-qubit Pauli matrices
{I, X, Y, Z}.  Each site is encoded by two bits (x, z):

    I = (0, 0),  X = (1, 0),  Z = (0, 1),  Y = (1, 1)

packed into two n-bit masks.  The 4^n strings form an orthogonal basis of
the real vector space of Hermitian 2^n x 2^n matrices, so any Hermitian
``delta`` is determined by the real coefficients Tr(delta * S).  A
``CoeffVector`` stores all 4^n of them; its flat index interleaves the two
masks per site, x bit high: index(S) = sum_j (2*x_j + z_j) * 4^j.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterator, Union

import numpy as np

# Engine caps: dense matrices up to 10 qubits, coefficient vectors up to 12.
MAX_DENSE_QUBITS = 10
MAX_COEFF_QUBITS = 12

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10

PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Per-site letters in canonical index order: code = 2*x + z.
SITE_ORDER = "IZXY"
_SITE_MATS = np.stack([PAULI_MATS[c] for c in SITE_ORDER])
_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}


class _Record:
    """A plain class that does what a dataclass would, with no code
    generated at import.  A subclass names its fields in ``_fields`` and
    sets them in its own ``__init__``, which validates them.  As with a
    dataclass, ``__repr__`` shows the fields, and ``__eq__`` compares them
    as a tuple with a record of the same class.  Mutable records are
    unhashable.  A copy or a pickle rebuilds the record through its
    constructor, so it is validated again."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        return self._astuple() == other._astuple() if other.__class__ is self.__class__ else NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __reduce__(self):
        return type(self), self._astuple()


class _Frozen(_Record):
    """A frozen record: it hashes as its field tuple, and assigning or
    deleting an attribute raises AttributeError, so its ``__init__`` sets
    its fields through ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PauliString(_Frozen):
    """A tensor product of one-qubit Paulis over ``n`` qubits, bit-packed.

    Bit j of ``x_bits``/``z_bits`` encodes site j.  Site 0 is the first
    (leftmost) tensor factor in :meth:`matrix` and the first character of
    the label.
    """

    __slots__ = _fields = ("n", "x_bits", "z_bits")

    def __init__(self, n: int, x_bits: int, z_bits: int):
        if n < 0:
            raise ValueError(f"negative qubit count {n}")
        mask = (1 << n) - 1
        if x_bits & ~mask or z_bits & ~mask:
            raise ValueError("mask has bits above position n-1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "x_bits", x_bits)
        object.__setattr__(self, "z_bits", z_bits)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        x = z = 0
        for j, c in enumerate(label):
            if c not in _LETTER_TO_BITS:
                raise ValueError(f"invalid Pauli letter {c!r}")
            xb, zb = _LETTER_TO_BITS[c]
            x |= xb << j
            z |= zb << j
        return cls(len(label), x, z)

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0)

    @classmethod
    def from_index(cls, n: int, index: int) -> "PauliString":
        x = z = 0
        for j in range(n):
            code = (index >> (2 * j)) & 3
            x |= (code >> 1) << j
            z |= (code & 1) << j
        return cls(n, x, z)

    def code(self, j: int) -> int:
        """Canonical site code (0=I, 1=Z, 2=X, 3=Y) of site j."""
        return 2 * ((self.x_bits >> j) & 1) + ((self.z_bits >> j) & 1)

    def letter(self, j: int) -> str:
        return SITE_ORDER[self.code(j)]

    def label(self) -> str:
        return "".join(self.letter(j) for j in range(self.n))

    def index(self) -> int:
        """Flat coefficient index: per-site codes, site 0 least significant."""
        idx = 0
        for j in range(self.n):
            idx |= self.code(j) << (2 * j)
        return idx

    def support(self) -> tuple[int, ...]:
        bits = self.x_bits | self.z_bits
        return tuple(j for j in range(self.n) if (bits >> j) & 1)

    def weight(self) -> int:
        return bin(self.x_bits | self.z_bits).count("1")

    def matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix, site 0 as the leftmost kron factor."""
        if self.n == 0:
            return np.ones((1, 1), dtype=complex)
        return reduce(np.kron, (_SITE_MATS[self.code(j)] for j in range(self.n)))

    def __repr__(self) -> str:
        return f"PauliString({self.label()!r})"


def all_pauli_strings(n: int) -> Iterator[PauliString]:
    """All 4^n Pauli strings in flat index order."""
    for idx in range(4**n):
        yield PauliString.from_index(n, idx)


class CoeffVector(_Record):
    """The 4^n real Pauli coefficients Tr(delta * S) of a Hermitian delta.

    Treated as an immutable value: operations return fresh vectors.
    ``values`` is always C-contiguous, so products and sums read it as BLAS
    does, whatever layout it was built from.
    """

    __slots__ = _fields = ("n", "values")

    def __init__(self, n: int, values: np.ndarray):
        self.n = n
        self.values = np.asarray(values, dtype=float, order="C")
        if self.values.shape != (4**n,):
            raise ValueError(f"expected {4 ** n} coefficients for n={n}, got shape {self.values.shape}")

    def __getitem__(self, s: Union[PauliString, str]) -> float:
        if isinstance(s, str):
            s = PauliString.from_label(s)
        if s.n != self.n:
            raise ValueError(f"Pauli string is on {s.n} qubits, vector on {self.n}")
        return float(self.values[s.index()])

    @classmethod
    def zero(cls, n: int) -> "CoeffVector":
        return cls(n, np.zeros(4**n))

    @classmethod
    def from_pairs(cls, n: int, pairs: dict[str, float]) -> "CoeffVector":
        v = np.zeros(4**n)
        for label, value in pairs.items():
            v[PauliString.from_label(label).index()] = value
        return cls(n, v)


def _qubit_count(op: np.ndarray, name: str = "operator") -> int:
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"{name} must be square, got shape {op.shape}")
    n = op.shape[0].bit_length() - 1
    if 2**n != op.shape[0]:
        raise ValueError(f"{name} dimension {op.shape[0]} is not a power of 2")
    return n


def check_hermitian(op: np.ndarray, tol: float = HERMITIAN_TOL, name: str = "operator") -> int:
    """Validate Hermiticity and power-of-2 dimension; return the qubit count.
    Error messages call ``op`` by ``name``."""
    op = np.asarray(op)
    n = _qubit_count(op, name)
    residue = np.max(np.abs(op - op.conj().T)) if op.size else 0.0
    if residue > tol:
        raise ValueError(f"{name} is not Hermitian (residue {residue:.3g})")
    return n


def check_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> int:
    """Validate unitarity and power-of-2 dimension; return the qubit count."""
    u = np.asarray(u, dtype=complex)
    n = _qubit_count(u)
    if not np.isfinite(u).all():  # first: a non-finite entry would warn in the product
        raise ValueError("matrix is not unitary (it has a non-finite entry)")
    residue = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
    if residue > tol:
        raise ValueError(f"matrix is not unitary (residue {residue:.3g})")
    return n


# F[a, r, c] = S_a[c, r]: contracting a row/col axis pair of an operator
# with F yields the coefficient axis for that site.
_FWD = np.transpose(_SITE_MATS, (0, 2, 1)).copy()
# G[a, r, c] = S_a[r, c]: the inverse expansion.
_BWD = _SITE_MATS.copy()


def coeffs_from_op(op: np.ndarray, imag_tol: float = HERMITIAN_TOL) -> CoeffVector:
    """Expand a Hermitian operator into its 4^n Pauli coefficients.

    Equivalent to Tr(op * S) for every string S, computed via a per-qubit
    tensor contraction in O(n 4^n).
    """
    op = np.asarray(op, dtype=complex)
    n = check_hermitian(op)
    if n > MAX_COEFF_QUBITS:
        raise ValueError(f"n={n} exceeds the coefficient-engine cap {MAX_COEFF_QUBITS}")
    t = op.reshape((2,) * (2 * n))
    for j in range(n):
        # After j steps the axes are [a_{j-1}..a_0, rows j..n-1, cols j..n-1],
        # so qubit j's row axis sits at j and its col axis at n.
        t = np.tensordot(_FWD, t, axes=([1, 2], [j, n]))
    residue = float(np.max(np.abs(t.imag))) if t.size else 0.0
    if residue > imag_tol:
        raise ValueError(f"coefficients have imaginary residue {residue:.3g}")
    return CoeffVector(n, t.real.reshape(-1))


def op_from_coeffs(v: CoeffVector) -> np.ndarray:
    """Rebuild the Hermitian operator (1/2^n) * sum_S v[S] * S."""
    n = v.n
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"n={n} exceeds the dense-matrix cap {MAX_DENSE_QUBITS}")
    t = v.values.reshape((4,) * n).astype(complex) if n else v.values.astype(complex)
    if n == 0:
        return t.reshape(1, 1)
    for _ in range(n):
        # Front axis is the highest remaining site; its (row, col) pair lands
        # at the end, giving axes [r_{n-1}, c_{n-1}, ..., r_0, c_0].
        t = np.tensordot(t, _BWD, axes=([0], [0]))
    perm = [0] * (2 * n)
    for j in range(n):
        perm[j] = 2 * (n - 1 - j)
        perm[n + j] = 2 * (n - 1 - j) + 1
    return t.transpose(perm).reshape(2**n, 2**n) / 2**n


def sum_of_squares(v: CoeffVector) -> float:
    """Sum of squared coefficients; equals 2^n * Tr(delta^2)."""
    return float(np.dot(v.values, v.values))


def pauli_conjugation_oracle(
    u: np.ndarray, s: PauliString
) -> Union[tuple[PauliString, int], np.ndarray]:
    """Conjugate a Pauli string by a unitary: U S U^dagger.

    Returns ``(S', sign)`` when the result is a signed Pauli string within
    1e-10 elementwise, otherwise the dense conjugated matrix.
    """
    u = np.asarray(u, dtype=complex)
    k = check_unitary(u)
    if k != s.n:
        raise ValueError(f"unitary acts on {k} qubits, string on {s.n}")
    m = u @ s.matrix() @ u.conj().T
    c = coeffs_from_op(m, imag_tol=1e-9)
    idx = int(np.argmax(np.abs(c.values)))
    sign = 1 if c.values[idx] > 0 else -1
    candidate = PauliString.from_index(k, idx)
    if np.max(np.abs(m - sign * candidate.matrix())) <= 1e-10:
        return candidate, sign
    return m
