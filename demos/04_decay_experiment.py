"""Exponential decay of output distinguishability.

Above threshold there is a theta < 1 with the measured difference between
the two output distributions bounded by theta^(T/2) on every prefix depth
T.  The same table is available from the command line as
``paulidelta decay --random ... --seed ...``.
"""

from paulidelta import (
    BasisPair,
    NoiseModel,
    decay_table,
    epsk_threshold,
    random_circuit,
    theta_for,
)

noise = NoiseModel(eps1=0.08, epsk=0.45)
print(f"epsk = {noise.epsk} vs threshold {epsk_threshold(2):.6f}")

circ = random_circuit(
    3, 12, seed=11, gate_pool=("CNOT", "H", "S", "T", "RESET", "ID"), k=2, noise=noise
)
result = theta_for(noise, k=2)
print(f"theta = {result.theta:.6f} ({result.binding_constraint} constraint binds)\n")

pair = BasisPair("000", "111")
print("T   measured        bound")
for t, measured, bound in decay_table(circ, pair, list(range(1, 13)), result.theta):
    print(f"{t:<3d} {measured:.10f}  {bound:.10f}")
