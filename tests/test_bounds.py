import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from paulidelta import (
    BasisPair,
    InputPair,
    NoiseModel,
    QubitRef,
    audit_invariant,
    basis_density,
    cnot_threshold,
    decay_bound,
    decay_table,
    epsk_threshold,
    enumerate_consistent_sets,
    invariant_check,
    random_circuit,
    random_product_density,
    random_pure_density,
    sweep,
    theta_for,
)
from paulidelta import bounds
from paulidelta.circuit import ConsistentSet, parse_circuit

POOL = ("CNOT", "H", "S", "RESET", "ID")
POOL_MIX = ("CNOT", "H", "T", "RESET", "ID", "RANDMIX2")


def test_epsk_threshold_values():
    assert epsk_threshold(1) == 0.0
    assert epsk_threshold(2) == pytest.approx(0.356406, abs=1e-6)
    assert epsk_threshold(3) == pytest.approx(0.490175, abs=1e-6)
    with pytest.raises(ValueError):
        epsk_threshold(0)


@pytest.mark.parametrize("k", [10**9, 10**16, 10**400])
def test_epsk_threshold_keeps_precision_at_large_k(k):
    with localcontext() as ctx:
        ctx.prec = 50
        want = 1 - (Decimal(2) ** (Decimal(1) / k) - 1).sqrt()
    assert abs(epsk_threshold(k) - float(want)) <= 1e-15


def test_cnot_threshold_value():
    assert cnot_threshold() == pytest.approx(0.292893, abs=1e-6)
    assert cnot_threshold() < epsk_threshold(2)


def test_cnot_threshold_is_the_fixed_point():
    # at mu = 1/sqrt(2) the CNOT expression equals exactly 1
    mu = 1 - cnot_threshold()
    assert (1 + mu**2) / 2 + mu**4 == pytest.approx(1.0, abs=1e-12)


def test_theta_general_k_gate_binding():
    r = theta_for(NoiseModel(0.1, 0.4), k=2)
    assert r.theta == pytest.approx(0.9248)
    assert r.feasible
    assert r.binding_constraint == "k-gate"


def test_theta_cnot_mode_one_qubit_binding():
    r = theta_for(NoiseModel(0.1, 0.4), k=2, cnot_only=True)
    assert r.theta == pytest.approx(0.905)
    assert r.binding_constraint == "one-qubit"
    # the CNOT expression itself evaluates below
    mu = 0.6
    assert (1 + mu**2) / 2 + mu**4 == pytest.approx(0.8096)


def test_theta_infeasible_below_threshold():
    r = theta_for(NoiseModel(0.1, 0.3), k=2)
    assert not r.feasible
    assert r.theta == pytest.approx(1.11005)


def test_theta_past_the_float_range_is_infeasible():
    # (1 + 0.36)^100000 overflows a float; the constraint is infinite, not an error
    r = theta_for(NoiseModel(0.05, 0.4), k=100_000)
    assert r == bounds.ThetaResult(math.inf, False, "k-gate")


def test_theta_rejects_bad_modes():
    with pytest.raises(ValueError):
        theta_for(NoiseModel(0.1, 0.4), k=0)
    with pytest.raises(ValueError):
        theta_for(NoiseModel(0.1, 0.4), k=3, cnot_only=True)


def test_theta_monotone_in_noise():
    grid = [0.05, 0.2, 0.5, 0.8]
    for cnot_only in (False, True):
        for e1a, e1b in zip(grid, grid[1:]):
            for ek in grid:
                assert (
                    theta_for(NoiseModel(e1b, ek), 2, cnot_only).theta
                    <= theta_for(NoiseModel(e1a, ek), 2, cnot_only).theta
                )
        for eka, ekb in zip(grid, grid[1:]):
            for e1 in grid:
                assert (
                    theta_for(NoiseModel(e1, ekb), 2, cnot_only).theta
                    <= theta_for(NoiseModel(e1, eka), 2, cnot_only).theta
                )


def test_cnot_expression_dominates_double_output_constraint():
    # (1+m)/2 + m^2 - (1+m)^2/4 = (1+3m^2)/4 > 0 for m = mu^2
    for mu in np.linspace(0.0, 1.0, 101):
        single = (1 + mu**2) / 2 + mu**4
        double = (1 + mu**2) ** 2 / 4
        assert single - double == pytest.approx((1 + 3 * mu**4) / 4, abs=1e-12)
        assert double <= single


def test_decay_bound_values():
    assert decay_bound(0.5, 0) == 1.0
    assert decay_bound(0.81, 2) == pytest.approx(0.81)
    assert decay_bound(0.9248, 40) == pytest.approx(0.9248**20, abs=1e-12)


def test_sweep_brackets_general_threshold():
    rows = sweep([0.1], [0.35, 0.36], k=2)
    assert [r.feasible for _, _, r in rows] == [False, True]


def test_sweep_brackets_cnot_threshold():
    rows = sweep([0.1], [0.29, 0.30], k=2, cnot_only=True)
    assert [r.feasible for _, _, r in rows] == [False, True]


def test_sweep_empty_grid():
    assert sweep([], [0.4], k=2) == []


def test_invariant_check_at_time_zero():
    c = random_circuit(2, 1, seed=1, gate_pool=POOL, k=2, noise=NoiseModel(0.1, 0.45))
    theta = theta_for(c.noise, 2).theta
    pair = InputPair(basis_density("00"), basis_density("11"))
    vset = ConsistentSet.build(c, frozenset({QubitRef(0, 0), QubitRef(1, 0)}))
    rec = invariant_check(c, pair, vset, theta)
    assert rec.rhs == pytest.approx(2.0)
    assert rec.lhs <= 2.0 + 1e-9
    assert rec.passed


def test_invariant_check_empty_set():
    c = random_circuit(2, 1, seed=2, gate_pool=POOL, k=2, noise=NoiseModel(0.1, 0.45))
    pair = InputPair(basis_density("00"), basis_density("11"))
    vset = ConsistentSet.build(c, frozenset())
    rec = invariant_check(c, pair, vset, 0.9)
    assert rec.dist == math.inf
    assert rec.lhs == pytest.approx(0.0, abs=1e-12)
    assert rec.rhs == 0.0
    assert rec.passed


def test_invariant_check_rejects_bad_theta():
    c = random_circuit(2, 1, seed=3, gate_pool=POOL, k=2)
    pair = InputPair(basis_density("00"), basis_density("11"))
    vset = ConsistentSet.build(c, frozenset({QubitRef(0, 0)}))
    for theta in (-0.5, 0.0, 1.5, math.nan):
        with pytest.raises(ValueError, match="theta"):
            invariant_check(c, pair, vset, theta)
        with pytest.raises(ValueError, match="theta"):
            audit_invariant(c, pair, theta, 2)


def test_audit_refuses_widths_past_the_engine_cap_before_enumerating(monkeypatch):
    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("enumerated the sets of a circuit past the engine cap")

    monkeypatch.setattr(bounds, "enumerate_consistent_sets", enumerate_nothing)
    c = random_circuit(13, 1, seed=0, gate_pool=("ID",), k=2)
    with pytest.raises(ValueError, match="^n=13 exceeds the coefficient-engine cap 12$"):
        audit_invariant(c, BasisPair("0" * 13, "1" * 13), 0.9, 2)


def test_audit_budget_refuses_at_the_enumerations_count():
    c = random_circuit(3, 3, seed=2, gate_pool=POOL, k=2)
    pair = BasisPair("000", "111")
    total = len(list(enumerate_consistent_sets(c, 2)))
    assert len(list(enumerate_consistent_sets(c, 2, max_sets=total))) == total
    assert len(audit_invariant(c, pair, 0.9, 2, max_sets=total).records) == total
    for run in (
        lambda: list(enumerate_consistent_sets(c, 2, max_sets=total - 1)),
        lambda: audit_invariant(c, pair, 0.9, 2, max_sets=total - 1),
    ):
        with pytest.raises(RuntimeError, match=rf"^enumeration budget exceeded \({total - 1} sets\)$"):
            run()


def _pairs_for(n, rng):
    return [
        InputPair(basis_density("0" * n), basis_density("1" * n)),
        InputPair(random_product_density(n, rng), random_product_density(n, rng)),
        InputPair(random_pure_density(n, rng), random_pure_density(n, rng)),
    ]


def test_invariant_audit_random_circuits():
    rng = np.random.default_rng(53)
    for seed in range(6):
        n = 2 + seed % 2
        c = random_circuit(n, 3, seed=seed, gate_pool=POOL, k=2,
                           noise=NoiseModel(0.1, 0.45))
        result = theta_for(c.noise, 2)
        assert result.feasible
        for pair in _pairs_for(n, rng):
            report = audit_invariant(c, pair, result.theta, max_size=3)
            assert report.all_pass, min(report.records, key=lambda r: r.margin)


@pytest.mark.parametrize("power", [1, 3], ids=["theta", "theta^3"])
@pytest.mark.parametrize(
    "n, T, seed, pool",
    [(4, 4, 2, POOL_MIX), (3, 4, 3, POOL_MIX), (4, 6, 2, POOL)],
)
def test_report_summaries_equal_their_definitions_over_records(n, T, seed, pool, power):
    # At the paper's theta every time-0 set ties at margin 0, so the worst is
    # the first of the tied sets; at theta^3 each circuit has failures, kept
    # in record order.
    circ = random_circuit(n, T, seed=seed, gate_pool=pool, k=2, noise=NoiseModel(0.05, 0.45))
    report = audit_invariant(circ, BasisPair("0" * n, "1" * n), theta_for(circ.noise, 2).theta ** power, 3)
    records = report.records
    assert report.records is records and len(records) == len(report)
    nonempty = [r for r in records if r.qubits]
    worst = min(nonempty, key=lambda r: r.margin)
    if power == 1:
        assert sum(r.margin == worst.margin for r in nonempty) > 1
    else:
        assert report.failures
    assert report.worst == worst
    assert report.min_margin == worst.margin
    assert report.failures == [r for r in records if not r.passed]
    assert report.all_pass == all(r.passed for r in records) == (power == 1)



def test_audit_yields_its_sets_through_the_enumeration_and_counts_them_without_records(monkeypatch):
    # The audit reads each row from enumerate_consistent_sets, one yield per
    # set, and len(report.records) builds no record until one is read.
    yielded = built = 0
    enumerate_rows = bounds.enumerate_consistent_sets

    def counted(*args, **kwargs):
        nonlocal yielded
        for row in enumerate_rows(*args, **kwargs):
            yielded += 1
            yield row

    class Counted(bounds.InvariantRecord):
        def __init__(self, *args):
            nonlocal built
            built += 1
            super().__init__(*args)

    monkeypatch.setattr(bounds, "enumerate_consistent_sets", counted)
    monkeypatch.setattr(bounds, "InvariantRecord", Counted)
    circ = random_circuit(3, 3, seed=2, gate_pool=POOL_MIX, k=2, noise=NoiseModel(0.05, 0.45))
    report = audit_invariant(circ, BasisPair("000", "111"), 0.9, 3)
    assert yielded == len(report.records) == len(report) > 1 and built == 0
    assert report.records[-1] == list(report.records)[-1] and built == len(report)


def test_reports_are_equal_when_their_theta_sets_and_columns_are():
    circ = random_circuit(3, 3, seed=2, gate_pool=POOL_MIX, k=2, noise=NoiseModel(0.05, 0.45))
    pair = BasisPair("000", "111")
    a, b = (audit_invariant(circ, pair, 0.9, 3) for _ in range(2))
    assert a is not b and a == b and a.records == b.records
    assert a != audit_invariant(circ, pair, 0.8, 3)  # theta and rhs
    assert a != audit_invariant(circ, pair, 0.9, 2)  # rows
    assert a != audit_invariant(circ, BasisPair("000", "011"), 0.9, 3)  # lhs only
    assert a != a.records

def test_decay_table_all_identity():
    lines = ["qubits 1 levels 10 output 0", "noise eps1=0.01 epsk=0.4"]
    lines += [f"level {i}: ID(0)" for i in range(1, 11)]
    c = parse_circuit("\n".join(lines))
    pair = InputPair(basis_density("0"), basis_density("1"))
    theta = theta_for(c.noise, 2).theta
    rows = decay_table(c, pair, list(range(1, 11)), theta)
    for t, measured, bound in rows:
        assert measured == pytest.approx(0.99**t, abs=1e-12)
        assert measured <= bound + 1e-9


def test_measured_decay_within_bound_on_random_circuits():
    for seed in range(5):
        n = 2 + seed % 2
        c = random_circuit(n, 6, seed=seed, gate_pool=POOL, k=2,
                           noise=NoiseModel(0.1, 0.45))
        result = theta_for(c.noise, 2)
        pair = InputPair(basis_density("0" * n), basis_density("1" * n))
        for t, measured, bound in decay_table(c, pair, list(range(1, 7)), result.theta):
            assert measured <= bound + 1e-9, (seed, t)
