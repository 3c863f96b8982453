"""Bad circuit input fails with a located error at every entry point, and the
two circuit formats are exact: DSL text built from grammar tokens gives a
Circuit or a CircuitParseError, and JSON round-trips every gate value."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paulidelta import (
    BuiltinGate,
    Circuit,
    CircuitParseError,
    GatePlacement,
    NoiseModel,
    OneQubitGate,
    RswChannel,
    UnitaryMixture,
    circuit_from_json,
    circuit_to_json,
    haar_unitary,
    parse_circuit,
)
from paulidelta.circuit import MAX_CONE_BITS, LightCones, _mat_from_json
from paulidelta.cli import main
from paulidelta.paulis import check_unitary

HEAD = "qubits 2 levels 1 output 0\nnoise eps1=0.1 epsk=0.4\n"
ID4 = "1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1"
NAN_GATES = [
    ("U(0; m=[nan,0,0,1]); ID(1)", "unitary"),
    (f"MIX(0,1; p=[nan,1]; m1=[{ID4}]; m2=[{ID4}])", "bad weight nan"),
    ("RSW(0; l1=nan, l2=0.5, sign=1); ID(1)", "lambda range"),
    ("DEPOL(0; p=nan); ID(1)", "DEPOL strength nan"),
]


def _json_doc(placements, qubits=2, output=0, eps1=0.1) -> str:
    return json.dumps(
        {"qubits": qubits, "levels": [placements], "noise": {"eps1": eps1, "epsk": 0.4}, "output": output}
    )


ID_1 = {"gate": "ID", "wires": [1]}
U_ID = [[1, 0], [0, 0], [0, 0], [1, 0]]
RSW_TERM = {"prob": 1.0, "l1": 0.5, "l2": 0.5, "sign": 1}
NOT_NUMBERS = [
    pytest.param(
        _json_doc([{"gate": "RSWMIX", "terms": [{"prob": True, "l1": 0.5, "l2": 0.5, "sign": 1}], "wires": [0]}, ID_1]),
        "level 1, placement 0: prob must be a number, got true",
        id="prob-true",
    ),
    pytest.param(
        _json_doc([{"gate": "RSWMIX", "terms": [{"prob": 1.0, "l1": "0.5", "l2": 0.5, "sign": 1}], "wires": [0]}, ID_1]),
        'level 1, placement 0: l1 must be a number, got "0.5"',
        id="l1-string",
    ),
    pytest.param(
        _json_doc([{"gate": "CNOT", "wires": [0, 1]}], eps1="0.05"),
        'circuit: eps1 must be a number, got "0.05"',
        id="eps1-string",
    ),
    pytest.param(
        _json_doc([{"gate": "RSWMIX", "terms": [{"prob": 1.0, "l1": 0.5, "l2": None, "sign": 1}], "wires": [0]}, ID_1]),
        "level 1, placement 0: l2 must be a number, got null",
        id="l2-null",
    ),
    pytest.param(
        _json_doc([{"gate": "DEPOL", "p": "0.1", "wires": [0]}, ID_1]),
        'level 1, placement 0: p must be a number, got "0.1"',
        id="p-string",
    ),
    pytest.param(
        _json_doc([{"gate": "MIX", "probs": [True, 0], "matrices": [[[1, 0], [0, 0], [0, 0], [1, 0]]] * 2, "wires": [0]},
                   ID_1]),
        "level 1, placement 0: probability must be a number, got true",
        id="probs-true",
    ),
    pytest.param(
        _json_doc([{"gate": "U", "matrix": [[1, 0], [0, 0], [0, False], [1, 0]], "wires": [0]}, ID_1]),
        "level 1, placement 0: matrix entry must be a number, got false",
        id="matrix-false",
    ),
    pytest.param(
        _json_doc([{"gate": "DEPOL", "p": 10**400, "wires": [0]}, ID_1]),
        "level 1, placement 0: p is out of range",
        id="p-overflow",
    ),
]


# --- non-finite gate parameters ----------------------------------------------------


@pytest.mark.parametrize("level, problem", NAN_GATES)
def test_dsl_rejects_nan_parameters_at_the_placement(level, problem):
    with pytest.raises(CircuitParseError, match=problem) as info:
        parse_circuit(HEAD + "level 1: " + level + "\n")
    assert (info.value.line, info.value.column) == (3, 9)


def test_json_rejects_a_nan_matrix_entry():
    doc = _json_doc(
        [{"gate": "U", "matrix": [[math.nan, 0], [0, 0], [0, 0], [1, 0]], "wires": [0]},
         {"gate": "ID", "wires": [1]}]
    )
    with pytest.raises(ValueError, match="level 1, placement 0: invalid gate: unitarity"):
        circuit_from_json(doc)


@pytest.mark.parametrize("command", [["simulate"], ["decay"], ["check-invariant"]])
def test_cli_exits_2_on_nan_parameters(tmp_path, capsys, command):
    for i, (level, _) in enumerate(NAN_GATES):
        path = tmp_path / f"nan{i}.pdc"
        path.write_text(HEAD + "level 1: " + level + "\n")
        assert main(command + ["--circuit", str(path)]) == 2
        assert "line 3, column 9" in capsys.readouterr().err
    path = tmp_path / "nan.json"
    path.write_text(_json_doc([{"gate": "RSWMIX", "terms": [
        {"prob": 1.0, "l1": math.nan, "l2": 0.5, "sign": 1}], "wires": [0]},
        {"gate": "ID", "wires": [1]}]))
    assert main(command + ["--circuit", str(path)]) == 2
    assert "level 1, placement 0" in capsys.readouterr().err


def test_library_checks_reject_nan():
    with pytest.raises(ValueError, match="invalid gate: probabilities: bad weight nan"):
        UnitaryMixture(1, [(math.nan, np.eye(2))])
    with pytest.raises(ValueError, match="invalid gate: lambda range"):
        OneQubitGate([(1.0, RswChannel(0.5, math.nan))])
    with pytest.raises(ValueError, match="invalid gate: probabilities: bad weight nan"):
        OneQubitGate([(math.nan, RswChannel(0.5, 0.5))])
    with pytest.raises(ValueError, match="not unitary"):
        check_unitary(np.array([[math.nan, 0], [0, 1]]))
    with pytest.raises(ValueError, match="invalid gate: DEPOL strength nan"):
        Circuit(1, 1, [[GatePlacement((0,), BuiltinGate("DEPOL", math.nan))]], NoiseModel(0.1, 0.4), 0)


# --- located errors, no silent truncation -------------------------------------------


@pytest.mark.parametrize(
    "level, problem",
    [
        ("MIX(0; p=[abc]; m1=[1,0,0,1]); ID(1)", r"bad MIX value p='abc'"),
        ("DEPOL(0); ID(1)", "DEPOL placement missing p="),
        ("DEPOL(0; p=x); ID(1)", r"bad DEPOL value p='x'"),
        ("RSW(0; l1=0.5, l2=0.5, sign=1.7); ID(1)", "RSW sign must be"),
        ("RSW(0; l1=0.5, l2=0.5); ID(1)", "RSW placement missing sign="),
        ("RSW(0; l1=0.5, l2=y, sign=1); ID(1)", r"bad RSW value l2='y'"),
        ("DEPOL(0; p=0.2, q=0.9); ID(1)", "DEPOL takes no parameter q="),
        ("RSW(0; l1=0.8, l2=0.5, sign=1, l3=7); ID(1)", "RSW takes no parameter l3="),
        ("MIX(0; p=[1.0]; m1=[1,0,0,1]; m2=[0,1,1,0]); ID(1)", "MIX takes no parameter m2="),
        ("U(0; m=[1,0,0,1]; m=[0,1,1,0]); ID(1)", "U placement repeats m="),
        ("DEPOL(0; p=0.2, p=0.3); ID(1)", "DEPOL placement repeats p="),
        ("H(0; p=0.2); ID(1)", "H takes no parameter p="),
    ],
)
def test_dsl_parameter_errors_are_located(level, problem):
    with pytest.raises(CircuitParseError, match=problem) as info:
        parse_circuit(HEAD + "level 1: " + level + "\n")
    assert (info.value.line, info.value.column) == (3, 9)


def test_dsl_accepts_signed_unit_rsw_signs():
    for sign, want in (("+1", 1), ("-1", -1), ("1.0", 1)):
        c = parse_circuit(HEAD + f"level 1: RSW(0; l1=0.5, l2=0.5, sign={sign}); ID(1)\n")
        assert c.levels[0][0].gate.terms[0][1].t_sign == want


@pytest.mark.parametrize(
    "doc, problem",
    [
        (_json_doc([{"gate": "CNOT", "wires": [0, 1.9]}]), "level 1, placement 0: wire must be an integer, got 1.9"),
        (_json_doc([{"gate": "CNOT", "wires": [0, True]}]), "wire must be an integer, got true"),
        (_json_doc([{"gate": "CNOT", "wires": [0, 1]}], qubits=2.7), "qubits must be an integer, got 2.7"),
        (_json_doc([{"gate": "CNOT", "wires": [0, 1]}], output=True), "output must be an integer, got true"),
        (_json_doc([{"gate": "RSWMIX", "terms": [{"prob": 1.0, "l1": 0.5, "l2": 0.5, "sign": 1.7}],
                     "wires": [0]}, {"gate": "ID", "wires": [1]}]), "sign must be an integer, got 1.7"),
        (_json_doc([{"gate": "ID", "wires": [0]}, {"gate": "ID", "wires": [5]}]),
         "level 1, placement 1: wire 5 out of range"),
        (_json_doc([{"gate": "ID", "wires": [0]}, {"gate": "CNOT", "wires": [1]}]),
         "level 1, placement 1: gate needs 2 wires"),
        (_json_doc([{"gate": "MIX", "probs": [1.0], "matrices": [[[1, 0], [0, 0], [0, 0], [1, 0]]] * 2,
                     "wires": [0]}, ID_1]), "level 1, placement 0: MIX has 1 probabilities and 2 matrices"),
        (_json_doc([{"gate": "U", "matrix": U_ID, "probs": [1.0], "wires": [0]}, ID_1]),
         'level 1, placement 0: U takes no key "probs"'),
        (_json_doc([{"gate": "H", "p": 0.2, "wires": [0]}, ID_1]), 'level 1, placement 0: H takes no key "p"'),
        (_json_doc([{"gate": "RSWMIX", "p": 0.2, "terms": [RSW_TERM], "wires": [0]}, ID_1]),
         'level 1, placement 0: RSWMIX takes no key "p"'),
        (_json_doc([{"gate": "RSWMIX", "terms": [dict(RSW_TERM, l3=7)], "wires": [0]}, ID_1]),
         'level 1, placement 0: an RSWMIX term takes no key "l3"'),
        (json.dumps({"qubits": 1, "levels": [[{"gate": "H", "wires": [0]}]],
                     "noise": {"eps1": 0.1, "epsk": 0.4, "eps2": 0.3}, "output": 0}),
         'circuit: noise takes no key "eps2"'),
        (json.dumps({"qubits": 1, "levels": [], "noise": {"eps1": 0.1, "epsk": 0.4}, "output": 0, "extra": 1}),
         'circuit: a circuit takes no key "extra"'),
        (_json_doc([ID_1, {"gate": "U", "matrix": [[1, 0]], "wires": []}, {"gate": "ID", "wires": [0]}]),
         "level 1, placement 1: placement lists no wires"),
    ],
)
def test_json_errors_are_located_and_nothing_is_truncated(doc, problem):
    with pytest.raises(ValueError, match=re.escape(problem)):
        circuit_from_json(doc)


@pytest.mark.parametrize("doc, problem", NOT_NUMBERS)
def test_json_floats_must_be_numbers(doc, problem):
    with pytest.raises(ValueError, match=re.escape(problem)):
        circuit_from_json(doc)


@pytest.mark.parametrize("doc, problem", NOT_NUMBERS[:3])
def test_cli_exits_2_on_a_json_float_that_is_not_a_number(tmp_path, capsys, doc, problem):
    path = tmp_path / "c.json"
    path.write_text(doc)
    assert main(["simulate", "--circuit", str(path)]) == 2
    assert problem in capsys.readouterr().err


def test_cli_exits_2_on_a_placement_without_wires(tmp_path, capsys):
    # A zero-wire U with a 1x1 matrix passes the arity check; the light cones
    # would then reduce over no wires.
    path = tmp_path / "nowires.json"
    path.write_text(_json_doc([{"gate": "U", "matrix": [[1, 0]], "wires": []}, {"gate": "ID", "wires": [0]}, ID_1]))
    assert main(["simulate", "--circuit", str(path)]) == 2
    assert capsys.readouterr().err == "error: level 1, placement 0: placement lists no wires\n"


def test_json_floats_accept_integers():
    doc = _json_doc([{"gate": "DEPOL", "p": 0, "wires": [0]}, ID_1], eps1=1)
    c = circuit_from_json(doc)
    assert c.noise.eps1 == 1.0 and c.levels[0][0].gate.p == 0.0


@pytest.mark.parametrize(
    "entry, problem",
    [
        pytest.param([True, 0], "matrix entry must be a number, got true", id="bool-part"),
        pytest.param(True, "'bool' object is not iterable", id="bool-entry"),
        pytest.param(["1", 0], 'matrix entry must be a number, got "1"', id="string-part"),
        pytest.param("10", 'matrix entry must be a number, got "1"', id="string-entry"),
        pytest.param([1, 0, 0], "too many values to unpack (expected 2)", id="three-parts"),
        pytest.param([10**400, 0], "matrix entry is out of range, got 1" + "0" * 400, id="overflow"),
    ],
)
def test_json_matrix_entries_are_refused_word_for_word(entry, problem):
    matrix = [[1, 0], [0, 0], entry, [1, 0]]
    with pytest.raises(ValueError) as info:
        circuit_from_json(_json_doc([{"gate": "U", "matrix": matrix, "wires": [0]}, ID_1]))
    assert str(info.value) == "level 1, placement 0: " + problem


def test_json_matrix_entry_count_is_refused_word_for_word():
    with pytest.raises(ValueError) as info:
        circuit_from_json(_json_doc([{"gate": "U", "matrix": U_ID[:3], "wires": [0]}, ID_1]))
    assert str(info.value) == "level 1, placement 0: matrix needs 4 entries, got 3"


def test_json_matrix_entries_keep_their_exact_values():
    matrix = [[1, -0.0], [1e-300, 0.0], [0.0, 1e-300], [1.0, -0.0]]
    c = circuit_from_json(_json_doc([{"gate": "U", "matrix": matrix, "wires": [0]}, ID_1]))
    u = c.levels[0][0].gate.terms[0][1]
    assert u.tobytes() == np.array([1, -0.0, 1e-300, 0, 0, 1e-300, 1, -0.0]).tobytes()
    # an integer rounds as float() rounds it
    big = _mat_from_json([[2**60 + 1, -(2**70) - 1], [0, 0], [0, 0], [1, 0]], 1)
    assert (big[0, 0].real, big[0, 0].imag) == (float(2**60 + 1), float(-(2**70) - 1))


def test_cli_exits_2_on_a_placement_without_parameters(tmp_path, capsys):
    path = tmp_path / "depol.pdc"
    path.write_text(HEAD + "level 1: DEPOL(0); ID(1)\n")
    assert main(["simulate", "--circuit", str(path)]) == 2
    assert "line 3, column 9: DEPOL placement missing p=" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["simulate"], ["decay"], ["check-invariant"]])
def test_cli_exits_2_on_a_circuit_past_the_width_limit(tmp_path, capsys, command):
    # Four billion wires and no levels pass the partition check; the light
    # cones and the default input pair would then need tens of GB.
    path = tmp_path / "wide.pdc"
    path.write_text("qubits 4000000000 levels 0 output 0\nnoise eps1=0.05 epsk=0.4\n")
    assert main(command + ["--circuit", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: line 1, column 1: n=4000000000 wires over T=0 levels make 4000000000 "
        "wire-time qubits, above the limit 16777216\n"
    )
    assert main(command + ["--random", "n=4000000000,T=1,pool=ID", "--seed", "0"]) == 2
    assert "make 8000000000 wire-time qubits, above the limit" in capsys.readouterr().err


def test_light_cones_past_their_bit_limit_are_refused_before_they_are_built(monkeypatch):
    # n=1000 wires over T=100 levels of ID gates: 101,000 wire-time qubits,
    # under MAX_QUBIT_REFS, but cones of up to 10^10 bits, above MAX_CONE_BITS.
    def unbuilt(circ):
        raise AssertionError("light cones built")

    monkeypatch.setattr(LightCones, "of", unbuilt)
    level = [GatePlacement((w,), BuiltinGate("ID")) for w in range(1000)]
    with pytest.raises(ValueError, match=re.escape(
        "n=1000 wires over T=100 levels with 100000 gates make light cones of up to "
        f"10100000000 bits, above the limit {MAX_CONE_BITS}"
    )):
        Circuit(1000, 100, [level] * 100, NoiseModel(0.05, 0.4), 0)


def test_cli_exits_2_on_a_random_circuit_past_the_light_cone_bit_limit(monkeypatch, capsys):
    # Refused before a gate is drawn; its light cones would need ~116 GiB.
    def undrawn(token, rng):
        raise AssertionError("gate drawn")

    monkeypatch.setattr("paulidelta.circuit._instantiate", undrawn)
    assert main(["decay", "--random", "n=1000,T=1000,pool=H", "--seed", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: n=1000 wires over T=1000 levels with 1000000 gates make light cones of up to "
        f"1001000000000 bits, above the limit {MAX_CONE_BITS}\n"
    )


# --- DSL text from grammar tokens ---------------------------------------------------

GOOD = ("0", "1", "-1", "+1", "0.5", "0.8")
BAD = ("1.7", "nan", "inf", "-inf", "1e400", "abc", "")
VALUES = st.one_of(*[st.sampled_from(GOOD)] * 4, st.sampled_from(BAD))
MATRICES = {
    1: ("1,0,0,1", "0,1,1,0", "0,1i,-1i,0", "1, 0, 0, -1+0i"),
    2: (ID4, "0,1,0,0,1,0,0,0,0,0,1,0,0,0,0,1"),
}
BAD_MATRICES = ("nan,0,0,1", "1e400,0,0,1", "1,0,0", "1+,0,0,1", "2,0,0,1", "abc", "")
# name -> (arities, parameter keys)
GATES = {
    "ID": ((1,), ()), "H": ((1,), ()), "RESET": ((1,), ()), "CNOT": ((2,), ()), "SWAP": ((2,), ()),
    "DEPOL": ((1,), ("p",)), "U": ((1, 2), ("m",)), "MIX": ((1, 2), ("p[]", "m1", "m2")),
    "RSW": ((1,), ("l1", "l2", "sign")),
}
JUNK = ("(", ")", ";", ",", "=", "[", "]", "#", ":", " ", "x")


def rarely(good, *bad):
    """Mostly ``good``, sometimes one of ``bad``."""
    return st.sampled_from((good,) * 12 + bad)


@st.composite
def placement_texts(draw, wires: list[int]):
    name = draw(st.sampled_from(sorted(n for n, (arities, _) in GATES.items() if len(wires) in arities)))
    keys = GATES[name][1] + (draw(rarely(None, "p", "m", "sign", "q")),)
    name = draw(rarely(name, "FOO", name.lower()))
    text = ",".join(map(str, wires))
    if draw(rarely(False, True)):
        text = ",".join(draw(st.lists(st.sampled_from(("0", "3", "-1", "1.5", "x", "")), max_size=2)))
    sections, scalars = [text], []
    for key in keys:
        if key is None or draw(rarely(False, True)):
            continue  # no extra key, or a missing parameter
        if key in ("m", "m1", "m2"):
            sections.append(f"{key}=[{draw(st.sampled_from(MATRICES[len(wires)] + BAD_MATRICES))}]")
        elif key == "p[]":
            probs = draw(st.one_of(st.just(["0.5", "0.5"]), st.lists(VALUES, max_size=3)))
            sections.append("p=[" + ",".join(probs) + "]")
        else:
            scalars.append(f"{key}={draw(VALUES)}")
    if scalars:
        sections.append(", ".join(scalars))
    return f"{name}({'; '.join(sections)})"


@st.composite
def dsl_texts(draw):
    n, T = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    lines = [
        f"qubits {n} levels {T} output {draw(rarely(0, n))}",
        f"noise eps1={draw(rarely('0.05', '0', '1.5'))} epsk={draw(rarely('0.4', '-1'))}",
    ]
    for level in range(1, T + draw(rarely(0, 1)) + 1):
        free, placements = draw(st.permutations(range(n))), []
        while free:
            arity = draw(st.integers(1, min(2, len(free))))
            placements.append(draw(placement_texts(free[:arity])))
            free = free[arity:]
        lines.append(f"level {draw(rarely(level, level + 1))}: " + "; ".join(placements))
    text = "\n".join(lines) + "\n"
    for _ in range(draw(rarely(0, 1, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(JUNK)) + text[at:]
    return text


@settings(max_examples=400)
@given(dsl_texts())
def test_dsl_text_gives_a_circuit_or_a_located_parse_error(text):
    try:
        circ = parse_circuit(text)
    except CircuitParseError as e:
        assert e.line >= 1 and e.column >= 1
        return
    assert isinstance(circ, Circuit)
    assert circuit_to_json(circuit_from_json(circuit_to_json(circ))) == circuit_to_json(circ)


# --- exact JSON round trips ---------------------------------------------------------


def _unitary(draw, rng: np.random.Generator) -> np.ndarray:
    kind = draw(st.sampled_from(("identity", "haar", "near-identity")))
    if kind == "identity":
        return np.eye(2, dtype=complex)
    if kind == "haar":
        return haar_unitary(2, rng)
    return np.diag([1.0, np.exp(1j * draw(st.floats(1e-12, 1e-9)))])


def _gate(draw, arity: int, rng: np.random.Generator):
    kinds = ["builtin", "U", "MIX"] + (["DEPOL", "RSWMIX"] if arity == 1 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "builtin":
        return BuiltinGate(draw(st.sampled_from(("H", "S", "T", "RESET") if arity == 1 else ("CNOT", "CZ", "SWAP"))))
    if kind == "DEPOL":
        return BuiltinGate("DEPOL", draw(st.floats(0.0, 1.0)))
    weights = rng.dirichlet(np.ones(draw(st.integers(1, 3))))
    if kind in ("U", "MIX"):
        return UnitaryMixture(arity, [(float(w), haar_unitary(2**arity, rng)) for w in weights])
    terms = []
    for w in weights:
        lam1, lam2 = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
        sign = draw(st.sampled_from((-1, 1)))
        terms.append((float(w), RswChannel(lam1, lam2, sign, _unitary(draw, rng), _unitary(draw, rng))))
    return OneQubitGate(terms)


@st.composite
def circuits(draw):
    n, T = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    levels = []
    for _ in range(T):
        free, level = [int(w) for w in rng.permutation(n)], []
        while free:
            arity = 2 if len(free) >= 2 and draw(st.booleans()) else 1
            wires, free = tuple(free[:arity]), free[arity:]
            level.append(GatePlacement(wires, _gate(draw, arity, rng)))
        levels.append(level)
    noise = NoiseModel(draw(st.floats(1e-6, 1.0)), draw(st.floats(0.0, 1.0)))
    return Circuit(n, T, levels, noise, draw(st.integers(0, n - 1)))


def _values(circ: Circuit):
    """Every number that defines the circuit, arrays as lists."""

    def gate(g):
        if isinstance(g, BuiltinGate):
            return (g.name, g.p)
        if isinstance(g, UnitaryMixture):
            return [(p, u.tolist()) for p, u in g.terms]
        return [(p, ch.lam1, ch.lam2, ch.t_sign, ch.pre_unitary.tolist(), ch.post_unitary.tolist())
                for p, ch in g.terms]

    levels = [[(pl.wires, gate(pl.gate)) for pl in level] for level in circ.levels]
    return circ.n, circ.T, circ.noise, circ.output_wire, levels


@settings(max_examples=100)
@given(circuits())
def test_json_round_trip_is_exact(circ):
    text = circuit_to_json(circ)
    back = circuit_from_json(text)
    assert circuit_to_json(back) == text
    assert _values(back) == _values(circ)


# --- documentation --------------------------------------------------------------


def test_readme_dsl_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Circuit DSL", 1)[1]
    block = section.split("```", 2)[1]
    circ = parse_circuit(block)
    assert (circ.n, circ.T) == (3, 2)
