"""The library's records are plain classes and named tuples, with no code
generated at import: the frozen ones refuse edits, the value ones compare
and hash as their field tuples, the gates that hold arrays compare by
identity, and every way of building one validates it."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paulidelta
from paulidelta import (
    BasisPair,
    BuiltinGate,
    CoeffVector,
    GatePlacement,
    InputPair,
    InvariantRecord,
    NoiseModel,
    OneQubitGate,
    PauliString,
    Ptm,
    QubitRef,
    RswChannel,
    ThetaResult,
    UnitaryMixture,
    audit_invariant,
    basis_density,
    parse_circuit,
)
from paulidelta.channels import BUILTIN_MATRICES
from paulidelta.circuit import LightCones
from paulidelta.simulate import _fused_matrix, _lowering

CIRCUIT = "qubits 2 levels 2 output 0\nnoise eps1=0.05 epsk=0.4\nlevel 1: CNOT(0,1)\nlevel 2: H(0); RESET(1)\n"


def _mixture() -> UnitaryMixture:
    return UnitaryMixture(1, [(1.0, BUILTIN_MATRICES["H"])])


def _frozen_records() -> list:
    circ = parse_circuit(CIRCUIT)
    return [
        PauliString.from_label("XZ"),
        BuiltinGate("DEPOL", 0.2),
        _mixture(),
        RswChannel(0.8, 0.5, -1),
        OneQubitGate([(1.0, RswChannel(0.8, 0.5))]),
        NoiseModel(0.05, 0.4),
        GatePlacement((0, 1), BuiltinGate("CNOT")),
        circ,
        BasisPair("01", "10"),
        QubitRef(1, 2),
        ThetaResult(0.75, True, "k-gate"),
        circ.cones,
        InvariantRecord(((0, 1),), 1.0, 0.5, 1.5),
    ]


@pytest.mark.parametrize("record", _frozen_records(), ids=lambda r: type(r).__name__)
def test_frozen_records_refuse_assignment_and_deletion(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_a_circuit_refuses_edits_to_its_light_cones():
    circ = parse_circuit(CIRCUIT)
    with pytest.raises(AttributeError):
        circ.cones = LightCones.of(circ)


# Each: how to build a record anew, and a field tuple that differs in one field.
VALUES = [
    pytest.param(lambda: PauliString(2, 1, 2), (2, 1, 3), id="PauliString"),
    pytest.param(lambda: BuiltinGate("DEPOL", 0.25), ("DEPOL", 0.5), id="BuiltinGate"),
    pytest.param(lambda: NoiseModel(0.05, 0.4), (0.05, 0.45), id="NoiseModel"),
    pytest.param(
        lambda: GatePlacement([0, 1], BuiltinGate("CNOT")), ((1, 0), BuiltinGate("CNOT")), id="GatePlacement"
    ),
    pytest.param(lambda: parse_circuit(CIRCUIT), None, id="Circuit"),
    pytest.param(lambda: BasisPair("01", "10"), ("01", "11"), id="BasisPair"),
    pytest.param(lambda: QubitRef(1, 2), (1, 3), id="QubitRef"),
    pytest.param(lambda: ThetaResult(0.75, True, "k-gate"), (0.75, True, "one-qubit"), id="ThetaResult"),
    pytest.param(lambda: parse_circuit(CIRCUIT).cones, None, id="LightCones"),
    pytest.param(
        lambda: InvariantRecord(((0, 1),), 1.0, 0.5, 1.5), (((0, 1),), 1.0, 0.5, 1.25), id="InvariantRecord"
    ),
]


@pytest.mark.parametrize("make, other", VALUES)
def test_equal_values_are_equal_and_hash_as_their_field_tuple(make, other):
    a, b = make(), make()
    fields = tuple(getattr(a, name) for name in a._fields)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(fields)
    assert type(a)(*fields) == a  # the fields in constructor order
    if other is not None:
        assert type(a)(*other) != a


def test_value_records_of_another_class_are_unequal():
    assert NoiseModel(0.25, 0.5) != BasisPair("01", "10")
    assert PauliString(1, 0, 1) != (1, 0, 1)
    assert BuiltinGate("H") != "H"


def test_a_circuit_compares_and_hashes_without_its_light_cones():
    a, b = parse_circuit(CIRCUIT), parse_circuit(CIRCUIT)
    assert a.cones is not b.cones and a == b
    assert hash(a) == hash((a.n, a.T, a.levels, a.noise, a.output_wire))
    assert "cones" not in repr(a)
    assert a != parse_circuit(CIRCUIT.replace("output 0", "output 1"))


def test_qubit_refs_sort_by_wire_then_time():
    refs = [QubitRef(2, 0), QubitRef(0, 3), QubitRef(1, 1), QubitRef(0, 1)]
    assert sorted(refs) == [QubitRef(0, 1), QubitRef(0, 3), QubitRef(1, 1), QubitRef(2, 0)]
    assert QubitRef(0, 5) < QubitRef(1, 0)


def test_reprs_name_the_fields_as_a_dataclass_did():
    assert repr(NoiseModel(0.05, 0.4)) == "NoiseModel(eps1=0.05, epsk=0.4)"
    assert repr(GatePlacement((0,), BuiltinGate("H"))) == "GatePlacement(wires=(0,), gate=BuiltinGate(H))"
    assert repr(BasisPair("0", "1")) == "BasisPair(rho_bits='0', tau_bits='1')"
    assert repr(QubitRef(1, 2)) == "QubitRef(wire=1, time=2)"
    assert repr(PauliString.from_label("XY")) == "PauliString('XY')"


@pytest.mark.parametrize(
    "make",
    [_mixture, lambda: RswChannel(0.8, 0.5), lambda: OneQubitGate([(1.0, RswChannel(0.8, 0.5))])],
    ids=["UnitaryMixture", "RswChannel", "OneQubitGate"],
)
def test_gates_holding_arrays_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)


def test_equal_array_gates_key_their_own_compiled_matrices():
    a, b = _mixture(), _mixture()
    assert _fused_matrix(a, 1, 0.05) is _fused_matrix(a, 1, 0.05)
    assert _fused_matrix(a, 1, 0.05) is not _fused_matrix(b, 1, 0.05)
    assert np.array_equal(_fused_matrix(a, 1, 0.05), _fused_matrix(b, 1, 0.05))
    assert _lowering(a, 0.05) is not _lowering(b, 0.05)
    # equal builtins share one
    assert _fused_matrix(BuiltinGate("H"), 1, 0.05) is _fused_matrix(BuiltinGate("H"), 1, 0.05)


@pytest.mark.parametrize(
    "record, changes, message",
    [
        (PauliString(2, 1, 2), {"x_bits": 4}, "mask has bits above position n-1"),
        (CoeffVector(1, np.zeros(4)), {"values": np.zeros(5)}, "expected 4 coefficients"),
        (Ptm(1, np.eye(4)), {"m": np.eye(2)}, "expected"),
        (BuiltinGate("DEPOL", 0.2), {"p": 2.0}, "DEPOL strength 2.0 outside"),
        (NoiseModel(0.05, 0.4), {"eps1": 0.0}, "eps1 must be positive"),
        (BasisPair("01", "10"), {"tau_bits": "1"}, "differ in length"),
        (InputPair(basis_density("0"), basis_density("1")), {"tau": np.eye(2)}, "trace"),
        (parse_circuit(CIRCUIT), {"T": 3}, "T=3 but 2 levels given"),
    ],
    ids=lambda v: type(v).__name__ if not isinstance(v, (dict, str)) else "",
)
def test_no_construction_path_skips_validation(record, changes, message):
    fields = {name: getattr(record, name) for name in record._fields}
    with pytest.raises(ValueError, match=message):
        type(record)(**fields | changes)
    with pytest.raises(ValueError, match=message):
        type(record)(*(changes.get(name, value) for name, value in fields.items()))
    # a copy or a pickle rebuilds the record through its constructor
    for rebuilt in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(rebuilt) is type(record) and rebuilt is not record
        assert repr(rebuilt) == repr(record)


def test_a_mutable_record_edited_out_of_range_does_not_copy():
    v = CoeffVector(1, np.zeros(4))
    v.values = np.zeros(5)
    with pytest.raises(ValueError, match="expected 4 coefficients"):
        copy.copy(v)


@pytest.mark.parametrize(
    "record",
    [CoeffVector(1, np.zeros(4)), Ptm(1, np.eye(4)), InputPair(basis_density("0"), basis_density("1"))],
    ids=lambda r: type(r).__name__,
)
def test_mutable_records_are_unhashable(record):
    with pytest.raises(TypeError):
        hash(record)
    assert record == record


def test_a_report_keeps_its_cached_records():
    report = audit_invariant(parse_circuit(CIRCUIT), BasisPair("00", "11"), 0.9, 2)
    assert report.records is report.records
    assert report == copy.copy(report)
    with pytest.raises(TypeError):
        hash(report)


def test_importing_the_cli_loads_no_dataclasses():
    src = str(Path(paulidelta.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = (
        "import sys, numpy\n"
        "if 'dataclasses' in sys.modules: sys.exit(3)\n"
        "import paulidelta.cli\n"
        "sys.exit('dataclasses' in sys.modules)\n"
    )
    status = subprocess.run([sys.executable, "-c", probe], env=env).returncode
    if status == 3:
        pytest.skip("numpy itself loads dataclasses here; nothing to check")
    assert status == 0, "import paulidelta.cli loaded dataclasses"
