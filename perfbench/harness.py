"""Runs one workload: makes its inputs from a seed, times repetitions of the
CLI in fresh interpreters, checks every output and reduces samples to metrics.

Load model: a closed loop with one client.  Each repetition is one CLI call
in its own interpreter, started after the previous one exits, so no module
state carries over between repetitions.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from paulidelta.circuit import circuit_to_json
from workloads import Workload, circuit_sha256, make_circuit, recorded_sha256

HERE = Path(__file__).resolve().parent
# One BLAS thread (nproc is 2 on the reference machine): the kernels are small
# tensordots, and a single thread keeps timings steady on a shared machine.
BLAS_THREADS = 1
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7  # import-only interpreters per run, after one warm-up
MIN_REPS = 3
# A repetition takes about 6 s at most; three timeouts still end within 180 s.
REP_TIMEOUT_S = 40
# The child's speed gauge (child.gauge_s) on the reference machine at its usual
# speed; scaled times are CPU times multiplied by GAUGE_S / measured gauge.
GAUGE_S = 0.06
COEFF_BYTES = 16  # one float64 coefficient read and one written per gate


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in BLAS_ENV})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return env


def _run_child(root: Path, args: list[str]) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=root, env=_child_env(root), capture_output=True, text=True,
            timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {REP_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    if not Path(result["module"]).resolve().is_relative_to((root / "src").resolve()):
        result["error"] = f"imported paulidelta from {result['module']}"
    return result


def _scale(rep: dict) -> float:
    """How much faster than usual the machine ran around this repetition."""
    return GAUGE_S / rep["gauge_s"]


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else 0.0, "q1": None, "q3": None, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Measure one workload for about ``seconds`` and check its outputs."""
    work = root / ".perfbench" / f"{w.name}-s{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    problems: list[str] = []

    circ = make_circuit(w, seed)
    text = circuit_to_json(circ)
    sha = circuit_sha256(text)
    want = recorded_sha256(w.name, seed)
    if want is not None and sha != want:
        problems.append(f"circuit for seed {seed} has SHA-256 {sha}, recorded {want}")
    circuit_path = work / "circuit.json"
    circuit_path.write_text(text)

    imports = [_run_child(root, ["--import-only"]) for _ in range(SETUP_SAMPLES + 1)][1:]
    problems += [f"import: {r['error']}" for r in imports if "error" in r]
    reps = _repeat(w, seed, seconds, trace, root, circuit_path, work)
    failed, reference = _judge(reps, problems)
    items = 0
    if reference is None:
        problems.append("no repetition wrote an output")
    else:
        check = w.check(circ, reference, seed)
        problems += check
        if check:
            failed = len(reps)
        items = w.items(reference)

    ok = [r for r in reps if not r.get("failed")]
    untraced = [r for r in ok if not r["traced"]]
    wall = [r["main_s"] for r in untraced]
    cpu = [r["main_cpu_s"] for r in untraced]
    scaled = [r["main_cpu_s"] * _scale(r) for r in untraced]
    setups = [r for r in imports if "error" not in r]
    # BENCHMARK.json gates setup_s, scaled_cpu_s, items_per_scaled_cpu_s and
    # peak_rss_mb; the others are kept in the record.  See "Noise" in README.md.
    summary = {
        "setup_s": _quartiles([r["import_cpu_s"] * _scale(r) for r in setups]),
        "setup_wall_s": _quartiles([r["import_s"] for r in setups]),
        "scaled_cpu_s": _quartiles(scaled),
        "items_per_scaled_cpu_s": _quartiles([items / t for t in scaled]),
        "gauge_s": _quartiles([r["gauge_s"] for r in untraced]),
        "cpu_s": _quartiles(cpu),
        "wall_s": _quartiles(wall),
        "items_per_s": _quartiles([items / t for t in wall]),
        "peak_rss_mb": _quartiles([r["peak_rss_mib"] for r in untraced]),
    }
    if trace:
        traced = [r for r in ok if r["traced"]]
        overhead = 0.0
        if traced and wall:
            overhead = statistics.median(r["main_s"] for r in traced) / statistics.median(wall) - 1
        placements = sum(len(level) for level in circ.levels)
        values = _layer_metrics([r["trace"] for r in traced], placements, overhead)
    else:
        values = {name: q["median"] for name, q in summary.items()}
    # BENCHMARK.json names the metrics and their units.
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    return {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "circuit_sha256": sha,
        "correct": not problems,
        "attempted": len(reps),
        "failed": failed,
        "fail_frac": failed / len(reps),
        "items": items,
        "problems": problems,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "summary": summary,
        "repetitions": reps,
    }


def _repeat(w, seed, seconds, trace, root, circuit_path, work) -> list[dict]:
    """Back-to-back repetitions until the next would end after ``seconds``;
    with ``trace``, every second one is traced."""
    reps: list[dict] = []
    started = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        out = work / f"out-{len(reps)}.txt"
        args = ["--argv", json.dumps(w.argv(circuit_path, out, seed))]
        if traced:
            args += ["--trace-qubits", str(w.n)]
        rep_start = time.perf_counter()
        rep = _run_child(root, args)
        rep.update(traced=traced, out=out, seconds=time.perf_counter() - rep_start)
        reps.append(rep)
        elapsed = time.perf_counter() - started
        typical = statistics.median(r["seconds"] for r in reps)
        if len(reps) >= MIN_REPS and elapsed + typical > seconds:
            return reps


def _judge(reps: list[dict], problems: list[str]) -> tuple[int, str | None]:
    """Mark failed repetitions; return their number and the first output."""
    reference = None
    failed = 0
    for i, rep in enumerate(reps):
        output = rep["out"].read_bytes() if rep["out"].exists() else None
        reference = reference if reference is not None else output
        why = rep.get("error")
        if why is None and rep.get("rc") != 0:
            why = f"exit code {rep.get('rc')}"
        if why is None and output != reference:
            why = "output bytes differ from the first output"
        if why is None and rep.get("unpatched") is False:
            why = "tracer left paulidelta patched"
        if why:
            failed += 1
            rep["failed"] = True
            problems.append(f"repetition {i}: {why}")
    return failed, None if reference is None else reference.decode()


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _layer_metrics(reports: list[dict], placements: int, overhead: float) -> dict:
    """Per-layer metrics: means over traced repetitions; every *_s is self time
    except cli.main_s, which is the whole traced call."""

    def mean(part: str, key: str) -> float:
        return statistics.fmean(r[part].get(key, 0) for r in reports) if reports else 0.0

    def self_s(span: str) -> float:
        return mean("self_s", span)

    def calls(span: str) -> float:
        return mean("calls", span)

    def count(key: str) -> float:
        return mean("counts", key)

    coeff_gates = count("coeff_gates")
    sets_audited = count("sets_audited")
    return {
        "circuit.load_s": self_s("circuit.load"),
        "circuit.prefix_calls": calls("circuit.prefix"),
        "circuit.prefix_s": self_s("circuit.prefix"),
        "circuit.enumerate_s": self_s("circuit.enumerate"),
        "circuit.is_consistent_calls": calls("circuit.is_consistent"),
        "circuit.is_consistent_s": self_s("circuit.is_consistent"),
        "circuit.sets_yielded": count("sets_yielded"),
        "circuit.consistent_yield": _ratio(count("sets_yielded"), calls("circuit.is_consistent")),
        "channels.gate_ptm_calls": calls("channels.gate_ptm"),
        "channels.gate_ptm_s": self_s("channels.gate_ptm"),
        "channels.ptm_builds_per_placement": _ratio(calls("channels.gate_ptm"), placements),
        "paulis.coeffs_from_op_calls": calls("paulis.coeffs_from_op"),
        "paulis.coeffs_from_op_s": self_s("paulis.coeffs_from_op"),
        "paulis.delta_transform_s": count("delta_transform_s"),
        "simulate.input_pair_s": self_s("simulate.input_pair"),
        "simulate.evolve_pauli_calls": calls("simulate.evolve_pauli"),
        "simulate.evolve_pauli_s": self_s("simulate.evolve_pauli"),
        "simulate.gates_applied": count("gates_applied"),
        "simulate.ns_per_coeff_gate": _ratio(self_s("simulate.evolve_pauli") * 1e9, coeff_gates),
        "simulate.coeff_bytes_computed": COEFF_BYTES * coeff_gates,
        "simulate.min_cut_s": self_s("simulate.min_cut"),
        "simulate.restrict_calls": calls("simulate.restrict"),
        "simulate.restrict_s": self_s("simulate.restrict"),
        "simulate.sample_s": self_s("simulate.sample"),
        "simulate.trajectories": count("trajectories"),
        "simulate.trajectory_gates": count("trajectory_gates"),
        "bounds.decay_table_s": self_s("bounds.decay_table"),
        "bounds.audit_s": self_s("bounds.audit"),
        "bounds.sets_audited": sets_audited,
        "bounds.distinct_cuts": count("distinct_cuts"),
        "bounds.cut_cache_hit_ratio": _ratio(sets_audited - count("distinct_cuts"), sets_audited),
        "cli.main_s": mean("total_s", "cli.main"),
        "cli.unattributed_s": self_s("cli.main"),
        "trace.overhead_frac": overhead,
    }


def _caches() -> dict:
    """Cache sizes of CPU 0 by level, e.g. {"L1d": "32K", "L2": "2048K"}."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = (
                (index / f).read_text().strip() for f in ("level", "type", "size")
            )
        except OSError:
            continue
        caches[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return caches


def metadata(root: Path) -> dict:
    """Where and on what the run was made."""
    git_sha = "unknown (not a git checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
        git_sha = proc.stdout.strip() or git_sha
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": _caches(),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py"))
        ),
    }
