import math
import tracemalloc

import numpy as np
import pytest

from paulidelta import (
    Circuit,
    CircuitParseError,
    GatePlacement,
    NoiseModel,
    QubitRef,
    circuit_from_json,
    circuit_to_json,
    enumerate_consistent_sets,
    is_consistent,
    parse_circuit,
    random_circuit,
)
from paulidelta.channels import BuiltinGate, UnitaryMixture
from paulidelta.circuit import ConsistentSet
from paulidelta.simulate import min_cut

from oracles import inductive_consistent_sets, producing_gate

CNOT_2 = """qubits 2 levels 1 output 0
noise eps1=0.05 epsk=0.4
level 1: CNOT(0,1)
"""

POOL = ("CNOT", "H", "S", "RESET", "ID")


def refs(*pairs):
    return frozenset(QubitRef(w, t) for w, t in pairs)


# --- parsing --------------------------------------------------------------


def test_parse_minimal_circuit():
    c = parse_circuit(CNOT_2)
    assert (c.n, c.T, c.output_wire) == (2, 1, 0)
    assert c.noise == NoiseModel(0.05, 0.4)
    assert len(c.levels[0]) == 1
    assert c.levels[0][0].wires == (0, 1)


def test_parse_comments_and_blank_lines():
    text = "# header\nqubits 1 levels 1 output 0\n\nnoise eps1=0.1 epsk=0.5 # inline\nlevel 1: ID(0)\n"
    assert parse_circuit(text).T == 1


def test_parse_incomplete_partition():
    text = "qubits 2 levels 1 output 0\nnoise eps1=0.05 epsk=0.4\nlevel 1: ID(0)\n"
    with pytest.raises(CircuitParseError, match="partition"):
        parse_circuit(text)


def test_parse_duplicate_wire():
    text = "qubits 2 levels 1 output 0\nnoise eps1=0.05 epsk=0.4\nlevel 1: ID(0); ID(0)\n"
    with pytest.raises(CircuitParseError, match="used twice"):
        parse_circuit(text)


@pytest.mark.parametrize(
    "level, column",
    [("level 1: H(0", 11), ("level 1: H(0); H(1))", 20), ("    level 1: H(0", 15)],
)
def test_parse_unbalanced_parenthesis(level, column):
    text = "qubits 2 levels 1 output 0\nnoise eps1=0.05 epsk=0.4\n" + level + "\n"
    with pytest.raises(CircuitParseError, match="parenthesis") as info:
        parse_circuit(text)
    assert (info.value.line, info.value.column) == (3, column)


def test_parse_partition_error_names_its_level_line():
    text = (
        "qubits 2 levels 2 output 0\nnoise eps1=0.05 epsk=0.4\n"
        "level 1: CNOT(0,1)\nlevel 2: ID(0)\n# trailing comment\n"
    )
    with pytest.raises(CircuitParseError, match="level 2: not a partition") as info:
        parse_circuit(text)
    assert info.value.line == 4


def test_partition_check_memory_does_not_grow_with_the_declared_width():
    text = "qubits 1000000 levels 1 output 0\nnoise eps1=0.05 epsk=0.4\nlevel 1: ID(0)\n"
    tracemalloc.start()
    try:
        with pytest.raises(CircuitParseError) as info:
            parse_circuit(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert info.value.line == 3
    assert str(info.value).endswith(
        "level 1: not a partition: missing wires [1, 2, 3, 4, 5] and 999994 more"
    )


def test_a_circuit_past_the_width_limit_is_refused_before_allocating():
    # Its light cones would hold 2^24 + 1 ints, ~270 MB.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            Circuit(2**24 + 1, 0, [], NoiseModel(0.05, 0.45), 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert str(info.value) == (
        "n=16777217 wires over T=0 levels make 16777217 wire-time qubits, above the limit 16777216"
    )


def test_a_random_circuit_past_the_width_limit_is_refused_before_sampling():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^n=8388609 wires over T=1 levels make 16777218 "):
            random_circuit(2**23 + 1, 1, seed=0, gate_pool=("ID",), k=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_partition_error_names_every_wire_of_a_short_gap():
    text = "qubits 4 levels 1 output 0\nnoise eps1=0.05 epsk=0.4\nlevel 1: ID(2)\n"
    with pytest.raises(CircuitParseError, match=r"missing wires \[0, 1, 3\]$"):
        parse_circuit(text)


def test_parse_zero_eps1_rejected():
    text = "qubits 1 levels 1 output 0\nnoise eps1=0 epsk=0.4\nlevel 1: ID(0)\n"
    with pytest.raises(CircuitParseError, match="eps1 must be positive"):
        parse_circuit(text)


def test_parse_unknown_gate():
    text = "qubits 1 levels 1 output 0\nnoise eps1=0.1 epsk=0.4\nlevel 1: FOO(0)\n"
    with pytest.raises(CircuitParseError, match="unknown gate"):
        parse_circuit(text)


def test_parse_arity_mismatch():
    text = "qubits 2 levels 1 output 0\nnoise eps1=0.1 epsk=0.4\nlevel 1: CNOT(0)\n"
    with pytest.raises(CircuitParseError, match="2 wires"):
        parse_circuit(text)


def test_parse_error_carries_position():
    text = "qubits 1 levels 1 output 0\nnoise eps1=0.1 epsk=0.4\nlevel 1: FOO(0)\n"
    try:
        parse_circuit(text)
        assert False
    except CircuitParseError as e:
        assert e.line == 3
        assert "line 3" in str(e)


def test_parse_level_numbering_enforced():
    text = "qubits 1 levels 2 output 0\nnoise eps1=0.1 epsk=0.4\nlevel 1: ID(0)\nlevel 3: ID(0)\n"
    with pytest.raises(CircuitParseError, match="ascend"):
        parse_circuit(text)


def test_parse_unitary_and_mix_and_rsw():
    inv = 1 / math.sqrt(2)
    text = (
        "qubits 2 levels 3 output 1\n"
        "noise eps1=0.02 epsk=0.45\n"
        f"level 1: U(0; m=[{inv}+0i,{inv}+0i,{inv}+0i,-{inv}+0i]); RSW(1; l1=0.8, l2=0.5, sign=+1)\n"
        "level 2: MIX(0,1; p=[0.5,0.5]; m1=[1,0,0,0, 0,1,0,0, 0,0,1,0, 0,0,0,1]; "
        "m2=[1,0,0,0, 0,1,0,0, 0,0,0,1, 0,0,1,0])\n"
        "level 3: DEPOL(0; p=0.25); ID(1)\n"
    )
    c = parse_circuit(text)
    assert c.T == 3
    u = c.levels[0][0].gate
    assert isinstance(u, UnitaryMixture)
    assert np.allclose(u.terms[0][1], np.array([[inv, inv], [inv, -inv]]))
    mix = c.levels[1][0].gate
    assert isinstance(mix, UnitaryMixture) and len(mix.terms) == 2
    depol = c.levels[2][0].gate
    assert depol == BuiltinGate("DEPOL", 0.25)


def test_parse_rsw_bad_sign():
    text = "qubits 1 levels 1 output 0\nnoise eps1=0.1 epsk=0.4\nlevel 1: RSW(0; l1=0.5, l2=0.5, sign=2)\n"
    with pytest.raises(CircuitParseError, match="sign"):
        parse_circuit(text)


# --- JSON -----------------------------------------------------------------


def test_json_roundtrip_of_parsed_circuit():
    c = parse_circuit(CNOT_2)
    j = circuit_to_json(c)
    assert circuit_to_json(circuit_from_json(j)) == j


def test_json_roundtrip_random_circuits():
    for seed in range(5):
        c = random_circuit(3, 4, seed=seed, gate_pool=POOL + ("RANDMIX2", "RANDU1"), k=2)
        j = circuit_to_json(c)
        assert circuit_to_json(circuit_from_json(j)) == j


def test_json_missing_key():
    with pytest.raises(ValueError, match="levels"):
        circuit_from_json('{"qubits": 1, "noise": {"eps1": 0.1, "epsk": 0.4}, "output": 0}')


def test_json_placement_errors_name_level_and_index():
    doc = (
        '{"qubits": 2, "levels": [[{"gate": "CNOT", "wires": [0, 1]}], [{"gate": "CNOT"}]],'
        ' "noise": {"eps1": 0.1, "epsk": 0.4}, "output": 0}'
    )
    with pytest.raises(ValueError, match="level 2, placement 0: missing 'wires'"):
        circuit_from_json(doc)


def test_json_duplicate_wire():
    doc = (
        '{"qubits": 2, "levels": [[{"gate": "ID", "wires": [0]}, {"gate": "ID", "wires": [0]}]],'
        ' "noise": {"eps1": 0.1, "epsk": 0.4}, "output": 0}'
    )
    with pytest.raises(ValueError, match="used twice"):
        circuit_from_json(doc)


# --- circuit validation ----------------------------------------------------


def test_noise_model_ranges():
    with pytest.raises(ValueError):
        NoiseModel(0.0, 0.4)
    with pytest.raises(ValueError):
        NoiseModel(0.1, 1.5)
    assert NoiseModel(1e-9, 0.0).eps1 == 1e-9


def test_output_wire_range():
    with pytest.raises(ValueError, match="output wire"):
        Circuit(1, 0, [], NoiseModel(0.1, 0.4), 1)


def test_invalid_gate_in_circuit():
    # the gate refuses itself, so no circuit can hold it
    with pytest.raises(ValueError, match="invalid gate: probabilities sum to 0.9"):
        Circuit(1, 1, [[GatePlacement((0,), UnitaryMixture(1, [(0.9, np.eye(2))]))]], NoiseModel(0.1, 0.4), 0)


# --- consistency ----------------------------------------------------------


def test_time_zero_sets_consistent():
    c = parse_circuit(CNOT_2)
    assert is_consistent(refs((0, 0), (1, 0)), c)
    assert is_consistent(refs((0, 0)), c)
    assert is_consistent(frozenset(), c)


def test_same_wire_adjacent_times_inconsistent():
    # the gate producing (w, t+1) consumes (w, t), identity included
    text = "qubits 1 levels 1 output 0\nnoise eps1=0.1 epsk=0.4\nlevel 1: ID(0)\n"
    c = parse_circuit(text)
    assert not is_consistent(refs((0, 0), (0, 1)), c)
    text = "qubits 1 levels 1 output 0\nnoise eps1=0.1 epsk=0.4\nlevel 1: H(0)\n"
    assert not is_consistent(refs((0, 0), (0, 1)), parse_circuit(text))


def test_gate_input_output_mix_inconsistent():
    c = parse_circuit(CNOT_2)
    assert not is_consistent(refs((0, 0), (1, 1)), c)
    assert is_consistent(refs((0, 1), (1, 1)), c)


def test_out_of_range_refs_rejected():
    c = parse_circuit(CNOT_2)
    with pytest.raises(ValueError, match="out of range"):
        is_consistent(refs((2, 0)), c)


def test_min_cut_closure():
    c = random_circuit(3, 3, seed=2, gate_pool=POOL, k=2)
    need = set(c.cones.gates_of(min_cut(c, refs((0, 3)))))
    assert (3, producing_gate(c, 3, 0)) in need
    assert all(1 <= level <= 3 for level, _ in need)
    # every named gate's inputs are produced inside the set
    for level, i in need:
        if level == 1:
            continue
        for w in c.levels[level - 1][i].wires:
            assert (level - 1, producing_gate(c, level - 1, w)) in need


def test_built_set_dist_and_latest_basics():
    c = parse_circuit(CNOT_2)
    cs = ConsistentSet.build(c, refs((0, 0), (1, 0)))
    assert (cs.dist, cs.latest) == (0.0, 0)
    empty = ConsistentSet.build(c, frozenset())
    assert (empty.dist, empty.latest) == (math.inf, 0)


def test_built_set_dist_and_latest_are_min_and_max_time():
    c = random_circuit(2, 3, seed=3, gate_pool=("ID", "H"), k=2)
    cs = ConsistentSet.build(c, refs((0, 1), (1, 3)))
    assert (cs.dist, cs.latest) == (1.0, 3)


def test_consistency_matches_inductive_oracle():
    for seed in range(8):
        n = 2 + seed % 2
        T = 2
        c = random_circuit(n, T, seed=seed, gate_pool=POOL, k=2)
        oracle = inductive_consistent_sets(c)
        grid = [QubitRef(w, t) for t in range(T + 1) for w in range(n)]
        from itertools import combinations

        for size in range(min(4, len(grid)) + 1):
            for combo in combinations(grid, size):
                v = frozenset(combo)
                assert is_consistent(v, c) == (v in oracle), sorted(
                    (q.wire, q.time) for q in v
                )


def test_subsets_of_consistent_sets_are_consistent():
    rng = np.random.default_rng(47)
    for seed in range(5):
        c = random_circuit(3, 2, seed=seed, gate_pool=POOL, k=2)
        for cs in enumerate_consistent_sets(c, max_size=4):
            members = list(cs.qubits)
            if not members:
                continue
            drop = members[int(rng.integers(len(members)))]
            assert is_consistent(cs.qubits - {drop}, c)


def test_dist_never_increases_when_adding_qubits():
    for seed in range(5):
        c = random_circuit(3, 2, seed=seed, gate_pool=POOL, k=2)
        sets = list(enumerate_consistent_sets(c, max_size=3))
        by_refs = {cs.qubits for cs in sets}
        for cs in sets:
            for bigger in by_refs:
                if cs.qubits < bigger:
                    assert ConsistentSet.build(c, bigger).dist <= cs.dist


# --- enumeration ----------------------------------------------------------


def test_enumerate_trivial_circuit():
    c = Circuit(1, 0, [], NoiseModel(0.1, 0.4), 0)
    sets = [cs.qubits for cs in enumerate_consistent_sets(c, max_size=1)]
    assert sets == [frozenset(), refs((0, 0))]


def test_enumerate_single_cnot():
    c = parse_circuit(CNOT_2)
    got = {cs.qubits for cs in enumerate_consistent_sets(c, max_size=2)}
    want = {v for v in inductive_consistent_sets(c) if len(v) <= 2}
    assert got == want
    assert len(got) == 7


def test_enumerate_max_size_zero():
    c = parse_circuit(CNOT_2)
    assert [cs.qubits for cs in enumerate_consistent_sets(c, max_size=0)] == [frozenset()]


def test_enumerate_is_sorted_and_unique():
    c = random_circuit(3, 2, seed=5, gate_pool=POOL, k=2)
    sets = list(enumerate_consistent_sets(c, max_size=3))
    keys = [
        (cs.latest, sum(1 for q in cs.qubits if q.time == cs.latest),
         tuple(sorted((q.wire, q.time) for q in cs.qubits)))
        for cs in sets
    ]
    assert keys == sorted(keys)
    assert len({cs.qubits for cs in sets}) == len(sets)


def test_enumerate_budget():
    c = parse_circuit(CNOT_2)
    with pytest.raises(RuntimeError, match="budget"):
        list(enumerate_consistent_sets(c, max_size=2, max_sets=3))


def test_consistent_set_build_rejects_invalid():
    c = parse_circuit(CNOT_2)
    with pytest.raises(ValueError, match="not consistent"):
        ConsistentSet.build(c, refs((0, 0), (0, 1)))


# --- random circuits --------------------------------------------------------


def test_random_circuit_deterministic():
    a = random_circuit(4, 3, seed=7, gate_pool=POOL, k=2)
    b = random_circuit(4, 3, seed=7, gate_pool=POOL, k=2)
    assert circuit_to_json(a) == circuit_to_json(b)


def test_random_circuit_seed_sensitivity():
    a = random_circuit(4, 3, seed=7, gate_pool=POOL, k=2)
    b = random_circuit(4, 3, seed=8, gate_pool=POOL, k=2)
    assert circuit_to_json(a) != circuit_to_json(b)


def test_random_circuit_partitions_every_level():
    for seed in range(10):
        c = random_circuit(3, 4, seed=seed, gate_pool=("CNOT", "H", "ID"), k=2)
        for level in c.levels:
            wires = [w for pl in level for w in pl.wires]
            assert sorted(wires) == [0, 1, 2]


def test_random_circuit_infeasible_pool():
    with pytest.raises(ValueError):
        random_circuit(3, 1, seed=0, gate_pool=("CNOT",), k=2)
    with pytest.raises(ValueError, match="pool arity 2 gates cannot fit on n=1 wires"):
        random_circuit(1, 1, seed=0, gate_pool=("CNOT",), k=2)


def test_random_circuit_fits_the_pool_not_k():
    c = random_circuit(1, 3, seed=1, gate_pool=("H", "S"), k=2)
    assert [[pl.wires for pl in level] for level in c.levels] == [[(0,)]] * 3


def test_random_circuit_empty_pool():
    with pytest.raises(ValueError, match="empty"):
        random_circuit(2, 1, seed=0, gate_pool=(), k=2)


def test_prefix_keeps_noise_and_output():
    c = random_circuit(3, 4, seed=9, gate_pool=POOL, k=2, output_wire=2)
    p = c.prefix(2)
    assert (p.n, p.T, p.output_wire) == (3, 2, 2)
    assert p.noise == c.noise
    assert circuit_to_json(p.prefix(2)) == circuit_to_json(p)


# --- immutability ----------------------------------------------------------


def test_circuit_and_its_gates_refuse_edits():
    c = parse_circuit(
        "qubits 2 levels 2 output 0\nnoise eps1=0.05 epsk=0.4\n"
        "level 1: U(0; m=[0,1,1,0]); MIX(1; p=[0.5,0.5]; m1=[1,0,0,1]; m2=[0,1,1,0])\n"
        "level 2: RSW(0; l1=0.8, l2=0.5, sign=-1); ID(1)\n"
    )
    placement = c.levels[0][0]
    with pytest.raises(AttributeError):
        c.levels = ()
    with pytest.raises(TypeError):
        c.levels[0][0] = GatePlacement((0,), BuiltinGate("H"))
    with pytest.raises(AttributeError):
        placement.wires = (1,)
    mix = c.levels[0][1].gate
    with pytest.raises(AttributeError):
        mix.terms = ()
    with pytest.raises(ValueError, match="read-only"):
        mix.terms[0][1][0, 0] = 2.0
    channel = c.levels[1][0].gate.terms[0][1]
    with pytest.raises(AttributeError):
        channel.lam1 = 0.1
    with pytest.raises(ValueError, match="read-only"):
        channel.pre_unitary[0, 0] = 2.0


def test_gates_copy_the_matrices_they_are_given():
    u = np.eye(2, dtype=complex)
    mix = UnitaryMixture(1, [(1.0, u)])
    u[0, 0] = 5.0
    assert mix.terms[0][1][0, 0] == 1.0
    assert isinstance(mix.terms, tuple)


def test_circuit_stores_levels_as_tuples_and_carries_its_light_cones():
    levels = [
        [GatePlacement([0, 1], BuiltinGate("CNOT"))],
        [GatePlacement([0], BuiltinGate("H")), GatePlacement([1], BuiltinGate("ID"))],
    ]
    c = Circuit(2, 2, levels, NoiseModel(0.05, 0.4), 0)
    assert isinstance(c.levels, tuple) and all(isinstance(level, tuple) for level in c.levels)
    assert c.levels[0][0].wires == (0, 1)
    levels[0].clear()  # the caller's lists are not the circuit's
    assert len(c.levels[0]) == 1
    assert c.cones is c.cones and c.cones.gates == ((1, 0), (2, 0), (2, 1))
    assert c.prefix(1).levels == c.levels[:1]
    assert c == Circuit(2, 2, c.levels, NoiseModel(0.05, 0.4), 0)


def test_placement_wires_must_be_integers():
    with pytest.raises(TypeError):
        GatePlacement((0, 1.9), BuiltinGate("CNOT"))
    assert GatePlacement((np.int64(1),), BuiltinGate("H")).wires == (1,)
