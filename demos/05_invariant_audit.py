"""Auditing the shrink invariant over consistent sets.

A set of (wire, time) qubits is consistent when some partial execution
produces all of them at once; its reduced difference then satisfies
Tr(delta_V^2) <= 2 * theta^dist(V) for feasible theta.  The audit checks
every consistent set up to a size cap and reports the slimmest margin.
"""

from paulidelta import (
    BasisPair,
    audit_invariant,
    enumerate_consistent_sets,
    parse_circuit,
    theta_for,
)

TEXT = """\
qubits 3 levels 2 output 0
noise eps1=0.1 epsk=0.45
level 1: CNOT(0,1); H(2)
level 2: RESET(0); CNOT(1,2)
"""

circ = parse_circuit(TEXT)

sets = list(enumerate_consistent_sets(circ, max_size=3))
print(f"{len(sets)} consistent sets of size <= 3; a few examples:")
for cs in sets[:4] + sets[-2:]:
    refs = sorted((q.wire, q.time) for q in cs.qubits)
    print(f"  {refs}  dist={cs.dist} latest={cs.latest}")

result = theta_for(circ.noise, k=2)
pair = BasisPair("000", "111")
report = audit_invariant(circ, pair, result.theta, max_size=3)
print(f"\ntheta = {result.theta:.6f}; all pass: {report.all_pass}")
worst = report.worst
print(f"tightest set {list(worst.qubits)}: lhs={worst.lhs:.6f} rhs={worst.rhs:.6f}")
