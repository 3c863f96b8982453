"""The four benchmark workloads: their inputs, CLI command lines and output checks.

Every workload uses one fixed circuit layout per (n, T), drawn by
``random_circuit`` from ``LAYOUT_SEED``, so each seed does the same amount of
work.  The run seed redraws the parameters of every ``RANDMIX2`` gate (its
mixing weight and two Haar unitaries) and seeds the trajectory sampler.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from paulidelta.bounds import invariant_check, theta_for
from paulidelta.channels import UnitaryMixture
from paulidelta.circuit import (
    Circuit,
    ConsistentSet,
    GatePlacement,
    NoiseModel,
    QubitRef,
    haar_unitary,
    random_circuit,
)
from paulidelta.simulate import (
    InputPair,
    basis_density,
    born_probability_one,
    evolve_density,
    full_cut,
    min_cut,
    partial_trace,
)

POOL = ("CNOT", "H", "S", "T", "RESET", "ID", "RANDMIX2")
NOISE = NoiseModel(eps1=0.05, epsk=0.45)
K = 2
LAYOUT_SEED = 3
DEFAULT_SEED = 0
# Not used while the benchmark or a change is tuned; confirm claims on it.
HELD_OUT_SEED = 4099
# Seeds whose circuit SHA-256 is stored in inputs.json and checked on each run.
RECORDED_SEEDS = tuple(range(32)) + (HELD_OUT_SEED,)
INPUTS_FILE = Path(__file__).with_name("inputs.json")

MAX_SET_SIZE = 4
SHOTS = 50
TOL = 1e-12
AUDIT_SAMPLE = 8


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "decay", "check-invariant" or "simulate"
    n: int
    T: int
    dense_rows: int = 0  # decay rows cross-checked against the dense engine

    def argv(self, circuit: Path, out: Path, seed: int) -> list[str]:
        argv = [
            self.command,
            "--circuit", str(circuit),
            "--rho", "0" * self.n,
            "--tau", "1" * self.n,
            "--out", str(out),
        ]
        if self.command == "decay":
            argv += ["--k", str(K), "--format", "json"]
        elif self.command == "check-invariant":
            argv += ["--k", str(K), "--max-set-size", str(MAX_SET_SIZE)]
        else:
            argv += ["--shots", str(SHOTS), "--seed", str(seed)]
        return argv

    def items(self, output: str) -> int:
        """Work units in one output: decay rows, audited sets or trajectories."""
        if self.command == "decay":
            return len(json.loads(output))
        if self.command == "check-invariant":
            return json.loads(output)["sets_checked"]
        return 2 * SHOTS

    def check(self, circ: Circuit, output: str, seed: int) -> list[str]:
        """Problems found in one CLI output; empty when it is correct."""
        if self.command == "decay":
            return _check_decay(circ, output, self.dense_rows)
        if self.command == "check-invariant":
            return _check_audit(circ, output, seed)
        return _check_sample(circ, output)


# Why each workload: see README.md.  decay-wide checks only its shallow rows
# against the dense engine, which costs about 2 s per level at n=10.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("decay-deep", "decay", n=8, T=20, dense_rows=20),
        Workload("decay-wide", "decay", n=10, T=8, dense_rows=2),
        Workload("audit-sets", "check-invariant", n=4, T=6),
        Workload("sample-shots", "simulate", n=6, T=40),
    )
}


def make_circuit(w: Workload, seed: int) -> Circuit:
    """The workload's fixed layout with RANDMIX2 parameters drawn from ``seed``."""
    layout = random_circuit(w.n, w.T, seed=LAYOUT_SEED, gate_pool=POOL, k=K, noise=NOISE)
    rng = np.random.default_rng(seed)
    levels = [
        [GatePlacement(pl.wires, _redraw(pl.gate, rng)) for pl in level]
        for level in layout.levels
    ]
    return Circuit(w.n, w.T, levels, NOISE, layout.output_wire)


def _redraw(gate, rng: np.random.Generator):
    # RANDMIX2 is the pool's only mixture token; builtins keep fixed matrices.
    if not isinstance(gate, UnitaryMixture):
        return gate
    weight = rng.uniform(0.2, 0.8)  # the range random_circuit draws from
    return UnitaryMixture(
        2, [(weight, haar_unitary(4, rng)), (1.0 - weight, haar_unitary(4, rng))]
    )


def circuit_sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def recorded_sha256(name: str, seed: int) -> str | None:
    return json.loads(INPUTS_FILE.read_text()).get(name, {}).get(str(seed))


# --- correctness checks -----------------------------------------------------


def _delta0(n: int) -> np.ndarray:
    return basis_density("0" * n) - basis_density("1" * n)


def dense_decay(circ: Circuit, depth: int) -> list[float]:
    """|Pr[1 | rho] - Pr[1 | tau]| after each of the first ``depth`` levels,
    evolving the dense difference level by level once."""
    op = _delta0(circ.n)
    rows = []
    for level in circ.levels[:depth]:
        one = Circuit(circ.n, 1, [level], circ.noise, circ.output_wire)
        op = evolve_density(one, op, full_cut(one))
        rows.append(abs(born_probability_one(op, circ.output_wire, circ.n)))
    return rows


def dense_lhs(circ: Circuit, refs: list[QubitRef]) -> float:
    """Tr(delta_V^2) from the dense engine."""
    op = evolve_density(circ, _delta0(circ.n), min_cut(circ, refs))
    d = partial_trace(op, [q.wire for q in refs], circ.n)
    return float(np.trace(d @ d).real)


def _check_decay(circ: Circuit, output: str, dense_rows: int) -> list[str]:
    rows = json.loads(output)
    problems = []
    if [r["T"] for r in rows] != list(range(1, circ.T + 1)):
        problems.append(f"decay rows cover T={[r['T'] for r in rows]}")
    problems += [
        f"T={r['T']}: measured {r['measured']!r} > bound {r['bound']!r}"
        for r in rows
        if r["measured"] > r["bound"]
    ]
    for r, want in zip(rows, dense_decay(circ, dense_rows)):
        if abs(r["measured"] - want) > TOL:
            problems.append(f"T={r['T']}: measured {r['measured']!r}, dense engine {want!r}")
    return problems


def _oracle_sets(circ: Circuit) -> list[frozenset]:
    # tests/oracles.py is the suite's brute-force reference; load it by path.
    path = Path.cwd() / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("paulidelta_oracles", path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    sets = [s for s in oracles.inductive_consistent_sets(circ) if len(s) <= MAX_SET_SIZE]
    return sorted(sets, key=lambda s: sorted((q.wire, q.time) for q in s))


def _check_audit(circ: Circuit, output: str, seed: int) -> list[str]:
    doc = json.loads(output)
    problems = []
    oracle = _oracle_sets(circ)
    if doc["sets_checked"] != len(oracle):
        problems.append(f"audited {doc['sets_checked']} sets, oracle has {len(oracle)}")
    if doc["failures"]:
        problems.append(f"{doc['failures']} invariant failures")
    worst = doc["worst"]
    refs = [QubitRef(wire, time) for wire, time in worst["qubits"]]
    want = dense_lhs(circ, refs)
    if abs(worst["lhs"] - want) > TOL:
        problems.append(f"worst set {worst['qubits']}: lhs {worst['lhs']!r}, dense {want!r}")
    if abs(doc["min_margin"] - (worst["rhs"] - worst["lhs"])) > TOL:
        problems.append("min_margin does not match the worst record")
    pair = InputPair(basis_density("0" * circ.n), basis_density("1" * circ.n))
    theta = theta_for(circ.noise, K).theta
    rng = np.random.default_rng(seed)
    for i in rng.choice(len(oracle), size=min(AUDIT_SAMPLE, len(oracle)), replace=False):
        refs = sorted(oracle[i])
        got = invariant_check(circ, pair, ConsistentSet.build(circ, refs), theta).lhs
        want = dense_lhs(circ, refs)
        if abs(got - want) > TOL:
            problems.append(f"set {refs}: lhs {got!r}, dense {want!r}")
    return problems


def _check_sample(circ: Circuit, output: str) -> list[str]:
    exact = re.search(r"^distinguishability (\S+)$", output, re.M)
    sampled = re.search(rf"^sampled\({SHOTS} shots\) (\S+)$", output, re.M)
    if not (exact and sampled):
        return [f"unexpected simulate output {output!r}"]
    exact, sampled = float(exact.group(1)), float(sampled.group(1))
    problems = []
    want = dense_decay(circ, circ.T)[-1]
    if abs(exact - want) > TOL:
        problems.append(f"distinguishability {exact!r}, dense engine {want!r}")
    # Each trajectory yields a probability in [0, 1], so its variance is <= 1/4.
    sigma = math.sqrt(2 * 0.25 / SHOTS)
    if abs(sampled - exact) > 5 * sigma:
        problems.append(f"sampled {sampled!r} is more than 5 sigma from {exact!r}")
    return problems
