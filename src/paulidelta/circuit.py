"""Leveled circuit IR, its text/JSON formats, and consistent-set machinery.

A circuit has n wires and T levels; each level partitions the wires into
gate placements, so every wire passes through exactly one gate per level
(possibly the identity).  Noise is bound to gates: every input of a
multi-qubit gate is depolarized with strength ``epsk`` before the gate,
and the output of every one-qubit gate is depolarized with strength
``eps1`` after it.  A single designated wire is measured at time T.

A *qubit* here is a wire at a specific time 0..T.  A set of such qubits is
*consistent* when some partial execution of the circuit produces all of
them simultaneously, so a joint reduced state is well defined.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import compress, islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .channels import (
    BUILTIN_ARITY,
    BuiltinGate,
    GateSpec,
    OneQubitGate,
    RswChannel,
    UnitaryMixture,
    gate_arity,
)

# Wire-time qubits n * (T + 1) a circuit may hold; its light cones keep an int for each.
MAX_QUBIT_REFS = 1 << 24
# Bound on the light cones' mask bits, n * (T + 1) * gates: each int holds up to a bit per gate.
MAX_CONE_BITS = 1 << 33


class CircuitParseError(ValueError):
    """Syntax or semantic error in the circuit DSL, with a position."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class LevelError(ValueError):
    """A level of a circuit breaks the IR's rules.  ``level`` is 1-based;
    ``placement`` indexes the offending placement, or is None."""

    def __init__(self, level: int, message: str, placement: int | None = None):
        where = f"level {level}" if placement is None else f"level {level}, placement {placement}"
        super().__init__(f"{where}: {message}")
        self.level = level
        self.placement = placement


def _check_size(n: int, T: int, gates: int) -> None:
    """Raise, before anything is allocated, if n wires over T levels make
    more than ``MAX_QUBIT_REFS`` wire-time qubits, or if with ``gates``
    gates their light cones could hold more than ``MAX_CONE_BITS`` bits."""
    if n * (T + 1) > MAX_QUBIT_REFS:
        raise ValueError(
            f"n={n} wires over T={T} levels make {n * (T + 1)} wire-time qubits, "
            f"above the limit {MAX_QUBIT_REFS}"
        )
    if n * (T + 1) * gates > MAX_CONE_BITS:
        raise ValueError(
            f"n={n} wires over T={T} levels with {gates} gates make light cones of up to "
            f"{n * (T + 1) * gates} bits, above the limit {MAX_CONE_BITS}"
        )


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing strengths: eps1 after one-qubit gates, epsk before
    each input of a multi-qubit gate."""

    eps1: float
    epsk: float

    def __post_init__(self):
        if not 0.0 < self.eps1 <= 1.0:
            raise ValueError(f"eps1 must be positive (and <= 1), got {self.eps1}")
        if not 0.0 <= self.epsk <= 1.0:
            raise ValueError(f"epsk must lie in [0, 1], got {self.epsk}")


@dataclass(frozen=True)
class GatePlacement:
    """A gate applied to an ordered tuple of distinct wires."""

    wires: tuple[int, ...]
    gate: GateSpec

    def __post_init__(self):
        object.__setattr__(self, "wires", tuple(operator.index(w) for w in self.wires))


@dataclass(frozen=True)
class Circuit:
    """An immutable leveled circuit.  ``levels`` may be given as lists; they
    are stored as tuples.  ``cones`` holds the circuit's light cones.
    Building one checks each level's arities, wires and partition; a gate
    checked itself when it was built, so nothing here checks it again."""

    n: int
    T: int
    levels: tuple[tuple[GatePlacement, ...], ...]
    noise: NoiseModel
    output_wire: int
    cones: LightCones = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(tuple(level) for level in self.levels))
        if self.T != len(self.levels):
            raise ValueError(f"T={self.T} but {len(self.levels)} levels given")
        if not 0 <= self.output_wire < self.n:
            raise ValueError(f"output wire {self.output_wire} out of range")
        _check_size(self.n, self.T, sum(map(len, self.levels)))
        for li, level in enumerate(self.levels, start=1):
            seen: set[int] = set()
            for pi, pl in enumerate(level):
                if not pl.wires:
                    raise LevelError(li, "placement lists no wires", pi)
                if len(set(pl.wires)) != len(pl.wires):
                    raise LevelError(li, "duplicate wire within a placement", pi)
                arity = gate_arity(pl.gate)
                if arity != len(pl.wires):
                    raise LevelError(li, f"gate needs {arity} wires, got {len(pl.wires)}", pi)
                for w in pl.wires:
                    if not 0 <= w < self.n:
                        raise LevelError(li, f"wire {w} out of range for n={self.n}", pi)
                    if w in seen:
                        raise LevelError(li, f"not a partition: wire {w} used twice", pi)
                    seen.add(w)
            if len(seen) != self.n:  # seen holds distinct wires in range
                lowest = list(islice((w for w in range(self.n) if w not in seen), 5))
                more = self.n - len(seen) - len(lowest)
                raise LevelError(
                    li, f"not a partition: missing wires {lowest}" + (f" and {more} more" if more else "")
                )
        object.__setattr__(self, "cones", LightCones.of(self))

    @property
    def max_arity(self) -> int:
        return max(
            (gate_arity(pl.gate) for level in self.levels for pl in level),
            default=1,
        )

    def prefix(self, t: int) -> "Circuit":
        """The first ``t`` levels as a circuit with the same noise and output."""
        if not 0 <= t <= self.T:
            raise ValueError(f"prefix length {t} outside [0, {self.T}]")
        return Circuit(self.n, t, self.levels[:t], self.noise, self.output_wire)


@dataclass(frozen=True, order=True)
class QubitRef:
    """A wire at a specific time (0..T)."""

    wire: int
    time: int


@dataclass
class ConsistentSet:
    """A validated consistent set: ``refs``, its (wire, time) pairs sorted;
    ``members``, its mask with bit ``time*n + wire`` per ref; ``cut``, its
    minimal cut as a gate mask of ``circ.cones``; ``dist``/``latest``, its
    least and greatest time (infinity and 0 when it is empty); and
    ``wires``, its wire mask with bit ``wire`` per ref."""

    refs: tuple[tuple[int, int], ...]
    members: int
    cut: int
    dist: float
    latest: int
    wires: int

    @property
    def qubits(self) -> frozenset[QubitRef]:
        return frozenset(QubitRef(w, t) for w, t in self.refs)

    @classmethod
    def build(cls, circ: Circuit, refs: Iterable[QubitRef]) -> "ConsistentSet":
        refs = frozenset(refs)
        if not is_consistent(refs, circ):
            raise ValueError(f"set is not consistent: {sorted(refs)}")
        members = sum(1 << q.time * circ.n + q.wire for q in refs)
        wires = reduce(operator.or_, (1 << q.wire for q in refs), 0)
        pairs = tuple(sorted((q.wire, q.time) for q in refs))
        return cls(pairs, members, circ.cones.cut(refs), *dist_latest(refs, circ), wires)


def _check_refs(refs: Iterable[QubitRef], n: int, T: int) -> None:
    for q in refs:
        if not (0 <= q.wire < n and 0 <= q.time <= T):
            raise ValueError(f"qubit ref {q} out of range for n={n}, T={T}")


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class LightCones:
    """Light cones as gate bitmasks.  ``gates`` lists the (level, placement
    index) keys in order, and gate r is bit ``len(gates) - 1 - r``, so the
    earliest gate is the most significant bit.  ``cone[time*n + wire]`` is
    the minimal cut of ``QubitRef(wire, time)``, the gates that must run to
    produce it; its lowest bit is its latest gate, the one producing it."""

    n: int
    T: int
    gates: tuple[tuple[int, int], ...]
    cone: tuple[int, ...]

    @classmethod
    def of(cls, circ: Circuit) -> "LightCones":
        n, gates = circ.n, []
        cone = [0] * (n * (circ.T + 1))
        bit = 1 << sum(map(len, circ.levels))
        for level, placements in enumerate(circ.levels, start=1):
            base = level * n
            for i, pl in enumerate(placements):
                gates.append((level, i))
                bit >>= 1
                mask = bit | reduce(operator.or_, (cone[base - n + w] for w in pl.wires))
                for w in pl.wires:
                    cone[base + w] = mask
        return cls(n, circ.T, tuple(gates), tuple(cone))

    def _index(self, refs: Iterable[QubitRef]) -> list[int]:
        refs = frozenset(refs)
        _check_refs(refs, self.n, self.T)
        return [q.time * self.n + q.wire for q in refs]

    def consumer(self, b: int) -> int:
        """The bit of the gate consuming ref ``b``, or 0 at time T."""
        later = self.cone[b + self.n] if b + self.n < len(self.cone) else 0
        return later & -later

    def cut(self, refs: Iterable[QubitRef]) -> int:
        """The minimal cut producing every ref: the OR of their cones."""
        return reduce(operator.or_, (self.cone[b] for b in self._index(refs)), 0)

    def consistent(self, refs: Iterable[QubitRef]) -> bool:
        """Whether no member's cone holds a member's consumer; see :func:`is_consistent`."""
        cut = consumers = 0
        for b in self._index(refs):
            cut |= self.cone[b]
            consumers |= self.consumer(b)
        return not cut & consumers

    def gates_of(self, cut: int) -> list[tuple[int, int]]:
        """A gate mask's (level, index) gates, earliest first, read off its digits."""
        return list(compress(self.gates, map(int, format(cut, f"0{len(self.gates)}b"))))


def is_consistent(refs: Iterable[QubitRef], circ: Circuit) -> bool:
    """Whether the qubits can coexist under some partial execution.

    True when no gate in a member's light cone consumes a member.
    Equivalent to the inductive definition: time-0 sets are consistent, and
    consistency is preserved by replacing all inputs of a gate with its
    outputs (subsets included).  It follows that a set is consistent iff
    each of its pairs is.
    """
    return circ.cones.consistent(refs)


def dist_latest(refs: Iterable[QubitRef], circ: Circuit) -> tuple[float, int]:
    """(dist, latest): min and max time over the set; dist of the empty set
    is infinity, its latest is 0."""
    refs = frozenset(refs)
    _check_refs(refs, circ.n, circ.T)
    if not refs:
        return math.inf, 0
    times = [q.time for q in refs]
    return float(min(times)), max(times)


def _consistent_set_rows(
    circ: Circuit, max_size: int, max_sets: int | None = None
) -> list[tuple[int, int, int, int]]:
    """Every consistent set of size <= max_size once, as a row ``(key,
    members, wires, cut)``: its member mask (bit ``time*n + wire`` per ref),
    wire mask and minimal cut, sorted by key.

    The sets are the cliques of the graph joining two refs when neither
    one's cone holds the gate consuming the other, grown in bit order:
    adding ref b sets bit b of the member mask and bit ``b % n`` of the wire
    mask, and ORs b's cone into the cut.  The key orders the sets by
    (latest, number of members at latest, refs).  Ref b's digit
    ``(b % n)*(T+1) + b//n + 1`` increases with its ``(wire, time)``, and
    with ``B = n*(T+1) + 1`` the key is ``(latest*(n+1) + count)*B**max_size``
    plus the set's digits in ascending order as base-B digits from
    ``B**(max_size-1)`` down, padded with zeros.
    Raises RuntimeError when more than ``max_sets`` sets would be listed; it
    stops growing at the first set past the budget.
    """
    cones = circ.cones
    n, T, cone = circ.n, circ.T, cones.cone
    # A consistent set holds at most one ref per wire (a later ref on a wire
    # has the earlier one's consumer in its cone), so none is larger than n
    # and the key needs no more than n digits.
    max_size = min(max_size, n)
    column = ((1 << len(cone)) - 1) // ((1 << n) - 1)  # bit time*n at every time
    base = n * (T + 1) + 1
    place = [base**i for i in range(max(max_size, 0) + 1)]
    top = place[-1]

    @cache
    def later(b: int) -> int:
        # The refs after b in bit order whose cone lacks b's consumer: the rest
        # of b's time slice, then on each wire the times before the first whose
        # cone holds it, as a wire's cone only grows with time.  b's cone holds
        # only gates up to its time, so never their consumers.
        t, used = b // n + 1, cones.consumer(b)
        mask = (1 << t * n) - (2 << b)
        for w in range(n):
            end = next((s for s in range(t, T + 1) if cone[s * n + w] & used), T + 1)
            mask |= column << w & (1 << end * n) - (1 << t * n)
        return mask

    @cache
    def up_to(w: int) -> int:
        return column * ((2 << w) - 1)  # every ref on wires 0..w

    rows: list[tuple[int, int, int, int]] = []
    budget = math.inf if max_sets is None else max_sets

    def keep(row: tuple[int, int, int, int]) -> None:
        rows.append(row)
        if len(rows) > budget:
            raise RuntimeError(f"enumeration budget exceeded ({max_sets} sets)")

    def grow(members: int, wires: int, cut: int, tail: int, candidates: int, room: int) -> None:
        for b in _bits(candidates):
            w, t = b % n, b // n
            grown = members | 1 << b
            # b is the latest member, so its digit goes after those on wires up to w.
            shift = place[max_size - (members & up_to(w)).bit_count()]
            kept = tail - tail % shift
            tail_b = kept + (w * (T + 1) + t + 1) * shift // base + (tail - kept) // base
            head = (t * (n + 1) + (grown >> t * n).bit_count()) * top
            row = (head + tail_b, grown, wires | 1 << w, cut | cone[b])
            keep(row)
            if room > 1:  # a last member grows nothing
                grow(grown, row[2], row[3], tail_b, candidates & later(b), room - 1)

    if max_size >= 0:
        keep((0, 0, 0, 0))  # the empty set, whose key is the least
    if max_size > 0:
        grow(0, 0, 0, 0, (1 << len(cone)) - 1, max_size)
    rows.sort()  # the keys differ between sets, so the masks are never compared
    return rows


def refs_of(members: int, n: int) -> tuple[tuple[int, int], ...]:
    """A member mask's (wire, time) pairs, sorted."""
    refs = []
    while members:  # _bits inlined: this runs once per enumerated set
        low = members & -members
        b = low.bit_length() - 1
        refs.append((b % n, b // n))
        members ^= low
    refs.sort()
    return tuple(refs)


def dist_of(members: int, n: int) -> float:
    """A member mask's least time; infinity for the empty set."""
    return float(((members & -members).bit_length() - 1) // n) if members else math.inf


def enumerate_consistent_sets(
    circ: Circuit, max_size: int, max_sets: int | None = None, *, rows: bool = False
) -> Iterator[ConsistentSet] | Iterator[tuple[int, int, int, int]]:
    """Yield every consistent set of size <= max_size exactly once, in
    increasing (latest, number of members at latest, ``refs``).  With
    ``rows``, yield each set as its row of :func:`_consistent_set_rows`,
    ``(key, members, wires, cut)``, instead of a :class:`ConsistentSet`.
    Raises RuntimeError, before yielding, when more than ``max_sets`` sets
    would be yielded.
    """
    found = _consistent_set_rows(circ, max_size, max_sets)
    if rows:
        yield from found
        return
    n = circ.n
    for _, members, wires, cut in found:
        latest = max(members.bit_length() - 1, 0) // n
        yield ConsistentSet(refs_of(members, n), members, cut, dist_of(members, n), latest, wires)


# --- DSL ----------------------------------------------------------------

_BUILTIN_SIMPLE = ("ID", "H", "X", "Y", "Z", "S", "T", "RESET", "CNOT", "CZ", "SWAP")
# The keys circuit_to_json writes for each gate kind besides "gate" and "wires".
_GATE_KEYS = dict.fromkeys(_BUILTIN_SIMPLE, ()) | {
    "DEPOL": ("p",), "U": ("matrix",), "MIX": ("probs", "matrices"), "RSWMIX": ("terms",)
}


def _parse_complex(tok: str, line: int, col: int) -> complex:
    try:
        return complex(tok.replace(" ", "").replace("i", "j"))
    except ValueError:
        raise CircuitParseError(f"bad complex literal {tok!r}", line, col) from None


def _parse_matrix(entries: str, arity: int, line: int, col: int) -> np.ndarray:
    dim = 2**arity
    toks = [t for t in entries.split(",") if t.strip()]
    if len(toks) != dim * dim:
        raise CircuitParseError(
            f"matrix needs {dim * dim} entries for arity {arity}, got {len(toks)}",
            line,
            col,
        )
    vals = [_parse_complex(t, line, col) for t in toks]
    return np.array(vals, dtype=complex).reshape(dim, dim)


def _parse_placement(text: str, line: int, col: int) -> GatePlacement:
    m = re.match(r"\s*([A-Za-z][A-Za-z0-9]*)\s*\((.*)\)\s*$", text, re.DOTALL)
    if not m:
        raise CircuitParseError(f"malformed placement {text.strip()!r}", line, col)
    name, body = m.group(1), m.group(2)
    sections = [s.strip() for s in body.split(";")]
    wire_toks = [t.strip() for t in sections[0].split(",") if t.strip()]
    try:
        wires = tuple(int(t) for t in wire_toks)
    except ValueError:
        raise CircuitParseError(f"bad wire list {sections[0]!r}", line, col) from None

    kv: dict[str, str] = {}

    def put(key: str, val: str) -> None:
        if key in kv:
            raise CircuitParseError(f"{name} placement repeats {key}=", line, col)
        kv[key] = val

    for sec in sections[1:]:
        if not sec:
            continue
        if "[" in sec:
            key, _, val = sec.partition("=")
            put(key.strip(), val.strip().strip("[]"))
        else:
            for piece in sec.split(","):
                if not piece.strip():
                    continue
                key, eq, val = piece.partition("=")
                if not eq:
                    raise CircuitParseError(f"expected key=value, got {piece!r}", line, col)
                put(key.strip(), val.strip())
    read: set[str] = set()

    def need(key: str) -> str:
        if key not in kv:
            raise CircuitParseError(f"{name} placement missing {key}=", line, col)
        read.add(key)
        return kv[key]

    def number(key: str, text: str) -> float:
        try:
            return float(text)
        except ValueError:
            raise CircuitParseError(f"bad {name} value {key}={text.strip()!r}", line, col) from None

    try:
        if name in _BUILTIN_SIMPLE:
            gate = BuiltinGate(name)
        elif name == "DEPOL":
            gate = BuiltinGate("DEPOL", number("p", need("p")))
        elif name == "U":
            gate = UnitaryMixture(len(wires), [(1.0, _parse_matrix(need("m"), len(wires), line, col))])
        elif name == "MIX":
            probs = [number("p", t) for t in need("p").split(",") if t.strip()]
            mats = [_parse_matrix(need(f"m{i}"), len(wires), line, col) for i in range(1, len(probs) + 1)]
            gate = UnitaryMixture(len(wires), list(zip(probs, mats)))
        elif name == "RSW":
            lam1, lam2, sign = (number(key, need(key)) for key in ("l1", "l2", "sign"))
            if sign not in (-1, 1):
                raise CircuitParseError(f"RSW sign must be +-1, got {need('sign')}", line, col)
            gate = OneQubitGate([(1.0, RswChannel(lam1, lam2, int(sign)))])
        else:
            raise CircuitParseError(f"unknown gate name {name!r}", line, col)
    except CircuitParseError:
        raise
    except ValueError as e:  # a gate's constructor refused it
        raise CircuitParseError(str(e), line, col) from None
    unread = [key for key in kv if key not in read]
    if unread:
        raise CircuitParseError(f"{name} takes no parameter {unread[0]}=", line, col)
    return GatePlacement(wires, gate)


def parse_circuit(text: str) -> Circuit:
    """Parse the line-oriented DSL.

    Line 1: ``qubits <n> levels <T> output <wire>``
    Line 2: ``noise eps1=<float> epsk=<float>``
    Then one ``level <i>: PLACEMENT (; PLACEMENT)*`` line per level,
    with i ascending from 1.  ``#`` starts a comment.
    """
    lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0].rstrip()
        if code:
            lines.append((lineno, code))  # indentation kept, so columns are exact
    if not lines:
        raise CircuitParseError("empty circuit text", 1)

    lineno, head = lines[0]
    m = re.match(r"\s*qubits\s+(\d+)\s+levels\s+(\d+)\s+output\s+(\d+)\s*$", head)
    if not m:
        raise CircuitParseError(
            "expected 'qubits <n> levels <T> output <wire>'", lineno
        )
    n, T, output = int(m.group(1)), int(m.group(2)), int(m.group(3))

    if len(lines) < 2:
        raise CircuitParseError("missing noise line", lineno + 1)
    lineno, noise_line = lines[1]
    m = re.match(r"\s*noise\s+eps1=([-\d.eE+]+)\s+epsk=([-\d.eE+]+)\s*$", noise_line)
    if not m:
        raise CircuitParseError("expected 'noise eps1=<float> epsk=<float>'", lineno)
    try:
        noise = NoiseModel(float(m.group(1)), float(m.group(2)))
    except ValueError as e:
        raise CircuitParseError(str(e), lineno) from None

    levels: list[list[GatePlacement]] = []
    # (line, column of each placement) per level, to locate Circuit's errors
    where: list[tuple[int, list[int]]] = []
    for expected, (lineno, line) in enumerate(lines[2:], start=1):
        m = re.match(r"\s*level\s+(\d+)\s*:\s*(.*)$", line)
        if not m:
            raise CircuitParseError(f"expected 'level {expected}: ...'", lineno)
        if int(m.group(1)) != expected:
            raise CircuitParseError(
                f"levels must ascend from 1; expected level {expected}, got {m.group(1)}",
                lineno,
            )
        start = line.index(":") + 1
        depth = opened = 0
        chunks: list[tuple[int, str]] = []
        for pos in range(start, len(line) + 1):
            ch = line[pos] if pos < len(line) else ";"
            if ch == "(":
                if depth == 0:
                    opened = pos + 1
                depth += 1
            elif ch == ")":
                if depth == 0:
                    raise CircuitParseError(
                        "unbalanced parenthesis: ')' closes nothing", lineno, pos + 1
                    )
                depth -= 1
            elif ch == ";" and depth == 0:
                chunk = line[start:pos]
                if chunk.strip():
                    chunks.append((start + 1, chunk))
                start = pos + 1
        if depth:
            raise CircuitParseError("unbalanced parenthesis: '(' is never closed", lineno, opened)
        levels.append([_parse_placement(chunk, lineno, col) for col, chunk in chunks])
        where.append((lineno, [col for col, _ in chunks]))

    try:
        return Circuit(n, T, levels, noise, output)
    except LevelError as e:
        lineno, columns = where[e.level - 1]
        column = 1 if e.placement is None else columns[e.placement]
        raise CircuitParseError(str(e), lineno, column) from None
    except ValueError as e:
        raise CircuitParseError(str(e), lines[0][0]) from None


# --- JSON mirror --------------------------------------------------------


def _mat_to_json(u: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(u, complex).reshape(-1)]


def _int_from_json(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {json.dumps(value)}")
    return value


def _float_from_json(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is out of range, got {value}") from None


def _mat_from_json(entries, arity: int) -> np.ndarray:
    dim = 2**arity
    if len(entries) != dim * dim:
        raise ValueError(f"matrix needs {dim * dim} entries, got {len(entries)}")
    try:  # every entry a pair of JSON numbers: converted at once, as complex() rounds an int
        if {type(x) for entry in entries for x in entry} <= {int, float}:
            return np.array([complex(re, im) for re, im in entries]).reshape(dim, dim)
    except (TypeError, ValueError, OverflowError):
        pass  # the checks below name the fault
    values = [[_float_from_json(x, "matrix entry") for x in entry] for entry in entries]
    return np.array([complex(re, im) for re, im in values]).reshape(dim, dim)


def _gate_to_json(g: GateSpec) -> dict:
    if isinstance(g, BuiltinGate):
        d = {"gate": g.name}
        if g.name == "DEPOL":
            d["p"] = g.p
        return d
    if isinstance(g, UnitaryMixture):
        if len(g.terms) == 1 and g.terms[0][0] == 1.0:
            return {"gate": "U", "matrix": _mat_to_json(g.terms[0][1])}
        return {
            "gate": "MIX",
            "probs": [p for p, _ in g.terms],
            "matrices": [_mat_to_json(u) for _, u in g.terms],
        }
    if isinstance(g, OneQubitGate):
        terms = []
        for p, ch in g.terms:
            term = {"prob": p, "l1": ch.lam1, "l2": ch.lam2, "sign": ch.t_sign}
            if not np.array_equal(ch.pre_unitary, np.eye(2)):
                term["u2"] = _mat_to_json(ch.pre_unitary)
            if not np.array_equal(ch.post_unitary, np.eye(2)):
                term["u1"] = _mat_to_json(ch.post_unitary)
            terms.append(term)
        return {"gate": "RSWMIX", "terms": terms}
    raise TypeError(f"not a gate spec: {g!r}")


def _check_keys(d: dict, keys: tuple[str, ...], what: str) -> None:
    unread = [key for key in d if key not in keys]
    if unread:
        raise ValueError(f"{what} takes no key {json.dumps(unread[0])}")


def _gate_from_json(d: dict, arity: int) -> GateSpec:
    name = d.get("gate")
    if not isinstance(name, str) or name not in _GATE_KEYS:
        raise ValueError(f"unknown gate kind {name!r}")
    _check_keys(d, ("gate", "wires", *_GATE_KEYS[name]), name)
    if name in _BUILTIN_SIMPLE:
        return BuiltinGate(name)
    if name == "DEPOL":
        return BuiltinGate("DEPOL", _float_from_json(d["p"], "p"))
    if name == "U":
        return UnitaryMixture(arity, [(1.0, _mat_from_json(d["matrix"], arity))])
    if name == "MIX":
        mats = [_mat_from_json(m, arity) for m in d["matrices"]]
        probs = [_float_from_json(q, "probability") for q in d["probs"]]
        if len(probs) != len(mats):
            raise ValueError(f"MIX has {len(probs)} probabilities and {len(mats)} matrices")
        return UnitaryMixture(arity, list(zip(probs, mats)))
    terms = []  # RSWMIX
    for term in d["terms"]:
        ch = RswChannel(
            _float_from_json(term["l1"], "l1"),
            _float_from_json(term["l2"], "l2"),
            _int_from_json(term["sign"], "sign"),
            pre_unitary=_mat_from_json(term["u2"], 1) if "u2" in term else np.eye(2, dtype=complex),
            post_unitary=_mat_from_json(term["u1"], 1) if "u1" in term else np.eye(2, dtype=complex),
        )
        terms.append((_float_from_json(term["prob"], "prob"), ch))
        _check_keys(term, ("prob", "l1", "l2", "sign", "u2", "u1"), "an RSWMIX term")
    return OneQubitGate(terms)


def circuit_to_json(circ: Circuit) -> str:
    """Serialize with a fixed field order so equal circuits give equal bytes."""
    doc = {
        "qubits": circ.n,
        "levels": [
            [dict(_gate_to_json(pl.gate), wires=list(pl.wires)) for pl in level]
            for level in circ.levels
        ],
        "noise": {"eps1": circ.noise.eps1, "epsk": circ.noise.epsk},
        "output": circ.output_wire,
    }
    return json.dumps(doc, indent=2) + "\n"


def circuit_from_json(text: str) -> Circuit:
    """Read the JSON mirror.  A malformed document raises ValueError naming
    the part at fault, down to the level and placement index."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("circuit: JSON nests too deeply") from None
    where = "circuit"
    try:
        noise = NoiseModel(*(_float_from_json(doc["noise"][key], key) for key in ("eps1", "epsk")))
        n, output = _int_from_json(doc["qubits"], "qubits"), _int_from_json(doc["output"], "output")
        all_levels = doc["levels"]
        _check_keys(doc["noise"], ("eps1", "epsk"), "noise")
        _check_keys(doc, ("qubits", "levels", "noise", "output"), "a circuit")
        where, levels = "levels", []
        for li, level in enumerate(all_levels, start=1):
            where, placements = f"level {li}", []
            for pi, pd in enumerate(level):
                where = f"level {li}, placement {pi}"
                wires = tuple(_int_from_json(w, "wire") for w in pd["wires"])
                placements.append(GatePlacement(wires, _gate_from_json(pd, len(wires))))
            levels.append(placements)
    except (KeyError, TypeError, ValueError) as e:
        problem = f"missing {e.args[0]!r} key" if isinstance(e, KeyError) else str(e)
        raise ValueError(f"{where}: {problem}") from None
    return Circuit(n, len(levels), levels, noise, output)


# --- random circuits ----------------------------------------------------


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


_POOL_ARITY = {**BUILTIN_ARITY, "RANDU1": 1, "RANDU2": 2, "RANDMIX2": 2}


def _instantiate(token: str, rng: np.random.Generator) -> GateSpec:
    if token in BUILTIN_ARITY:
        return BuiltinGate(token)
    if token == "RANDMIX2":
        w = rng.uniform(0.2, 0.8)
        return UnitaryMixture(
            2, [(w, haar_unitary(4, rng)), (1.0 - w, haar_unitary(4, rng))]
        )
    k = _POOL_ARITY[token]
    return UnitaryMixture(k, [(1.0, haar_unitary(2**k, rng))])


def random_circuit(
    n: int,
    T: int,
    seed: int,
    gate_pool: Sequence[str],
    k: int,
    noise: NoiseModel | None = None,
    output_wire: int = 0,
) -> Circuit:
    """Deterministically sample a leveled circuit from a gate pool.

    Each level shuffles the wires and greedily assigns pool gates whose
    arity still fits, so the level is always an exact partition.
    """
    if not gate_pool:
        raise ValueError("gate pool is empty")
    unknown = [tok for tok in gate_pool if tok not in _POOL_ARITY]
    if unknown:
        raise ValueError(f"unknown pool token {unknown[0]!r}")
    if "DEPOL" in gate_pool:
        raise ValueError("pool token 'DEPOL' needs a strength p, which a random pool cannot give")
    arities = {tok: _POOL_ARITY[tok] for tok in gate_pool}
    widest = max(arities.values())
    if widest > k:
        raise ValueError(f"pool arity {widest} exceeds k={k}")
    if widest > n:
        raise ValueError(f"pool arity {widest} gates cannot fit on n={n} wires")
    _check_size(n, T, n * T)  # at most n gates per level
    min_arity = min(arities.values())
    rng = np.random.default_rng(seed)
    noise = noise or NoiseModel(0.05, 0.4)
    levels: list[list[GatePlacement]] = []
    for _ in range(T):
        order = list(rng.permutation(n))
        placements: list[GatePlacement] = []
        while order:
            fits = [
                tok
                for tok in gate_pool
                if arities[tok] <= len(order)
                and (len(order) - arities[tok] == 0 or len(order) - arities[tok] >= min_arity)
            ]
            if not fits:
                raise ValueError(
                    f"cannot partition {len(order)} remaining wires with pool {list(gate_pool)}"
                )
            tok = fits[int(rng.integers(len(fits)))]
            wires = tuple(order[: arities[tok]])
            del order[: arities[tok]]
            placements.append(GatePlacement(wires, _instantiate(tok, rng)))
        placements.sort(key=lambda pl: min(pl.wires))
        levels.append(placements)
    return Circuit(n, T, levels, noise, output_wire)
