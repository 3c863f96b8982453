"""Self-test of the benchmark, at toy size.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload on a 3-qubit circuit with and without tracing and
checks that the outputs pass, that every metric named in BENCHMARK.json is
emitted with its unit, that the tracer restores every paulidelta function,
that layer self times account for the traced call, and that the benchmark
refuses to run where there is no source tree.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = run.ROOT


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def toy(w):
    return dataclasses.replace(w, name=f"toy-{w.name}", n=3, T=4, dense_rows=4 if w.dense_rows else 0)


def test_workloads(spec: dict) -> None:
    import harness
    from workloads import WORKLOADS

    for w in WORKLOADS.values():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            r = harness.run_workload(toy(w), seed=1, seconds=0.1, trace=trace, root=ROOT)
            check(r["correct"] and r["failed"] == 0, f"{w.name} trace={trace}: {r['problems']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in r["metrics"].items()}
            check(got == want, f"{w.name} trace={trace}: metrics {got} != BENCHMARK.json {want}")
            check(
                all(isinstance(m["value"], float) for m in r["metrics"].values()),
                f"{w.name} trace={trace}: a metric value is not a number",
            )


def test_tracer_restores_and_accounts() -> None:
    import paulidelta.bounds
    import paulidelta.cli
    import paulidelta.simulate
    from paulidelta.circuit import circuit_to_json
    from tracer import Tracer, snapshot, unpatched
    from workloads import WORKLOADS, make_circuit

    w = toy(WORKLOADS["audit-sets"])
    work = ROOT / ".perfbench" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    circuit = work / "circuit.json"
    circuit.write_text(circuit_to_json(make_circuit(w, 1)))
    originals = {
        "bounds.evolve_pauli": paulidelta.bounds.evolve_pauli,
        "simulate.gate_ptm": paulidelta.simulate.gate_ptm,
        "cli.InputPair": paulidelta.cli.InputPair,
    }
    before = snapshot()
    tracer = Tracer(w.n)
    with tracer.installed():
        for key, original in originals.items():
            module, attr = key.split(".")
            patched = getattr(sys.modules[f"paulidelta.{module}"], attr)
            check(patched is not original, f"tracer did not rebind {key}")
        rc = paulidelta.cli.main(w.argv(circuit, work / "out.json", 1))
    check(rc == 0, f"traced check-invariant exited {rc}")
    check(unpatched(before), "tracer left a paulidelta function patched")
    report = tracer.report()
    layers = sum(report["self_s"].values())
    check(abs(layers - report["total_s"]["cli.main"]) < 1e-9, "self times do not add up to cli.main")
    check(report["counts"]["sets_yielded"] == report["counts"]["sets_audited"] > 0, "set counts")


def test_refuses_without_source() -> None:
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decay-deep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    check(proc.returncode != 0 and not proc.stdout.strip(), "ran without a source tree")


def main() -> None:
    check(run.prepare(), "no src/paulidelta under the current directory")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    test_refuses_without_source()
    test_tracer_restores_and_accounts()
    test_workloads(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
