"""Pauli-basis evolution of state differences through leveled noisy
circuits, with numerical checks of the shrink invariants and noise
thresholds that make deep noisy computation input-independent."""

from .paulis import (
    CoeffVector,
    PauliString,
    all_pauli_strings,
    coeffs_from_op,
    op_from_coeffs,
    pauli_conjugation_oracle,
    sum_of_squares,
)
from .channels import (
    BuiltinGate,
    OneQubitGate,
    Ptm,
    RswChannel,
    UnitaryMixture,
    beta_of_gate,
    cnot_pauli_action,
    depolarizing_ptm,
    gate_ptm,
    kraus_of_rsw,
    ptm_of_unitary,
    rsw_ptm,
)
from .circuit import (
    Circuit,
    CircuitParseError,
    ConsistentSet,
    GatePlacement,
    NoiseModel,
    QubitRef,
    circuit_from_json,
    circuit_to_json,
    enumerate_consistent_sets,
    haar_unitary,
    is_consistent,
    parse_circuit,
    random_circuit,
)
from .simulate import (
    BasisPair,
    InputPair,
    basis_density,
    born_probability_one,
    distinguishability_by_depth,
    evolve_density,
    evolve_pauli,
    full_cut,
    min_cut,
    output_distinguishability,
    partial_trace,
    random_hermitian,
    random_pure_density,
    reduced_delta,
    restrict_coeffs,
    sample_output_difference,
)
from .bounds import (
    InvariantRecord,
    InvariantReport,
    ThetaResult,
    audit_invariant,
    cnot_threshold,
    decay_bound,
    decay_table,
    epsk_threshold,
    invariant_check,
    sweep,
    theta_for,
)

__version__ = "0.1.0"
