"""The paulidelta benchmark.  Run it from the root of a checkout:

    python3 perfbench/run.py                        # all workloads, a table
    python3 perfbench/run.py --workload decay-deep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --record-inputs        # rewrite perfbench/inputs.json

With ``--workload`` the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A full record with quartiles and run metadata goes to
``.perfbench/BENCH_<workload>_s<seed>_trace<t>.json``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
DEFAULT_SECONDS = 24


def prepare() -> bool:
    """Put the checkout's src/ first on sys.path; False when it is missing."""
    if not (SRC / "paulidelta" / "cli.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


def record_inputs() -> None:
    from paulidelta.circuit import circuit_to_json
    from workloads import INPUTS_FILE, RECORDED_SEEDS, WORKLOADS, circuit_sha256, make_circuit

    doc = {
        name: {
            str(seed): circuit_sha256(circuit_to_json(make_circuit(w, seed)))
            for seed in RECORDED_SEEDS
        }
        for name, w in WORKLOADS.items()
    }
    INPUTS_FILE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {INPUTS_FILE}")


def _fmt(q: dict) -> str:
    if q["q1"] is None:
        return f"{q['median']:.4g} (n={q['n']})"
    return f"{q['median']:.4g} [{q['q1']:.4g}, {q['q3']:.4g}] (n={q['n']})"


def main(argv=None) -> int:
    # Modules that import paulidelta are imported here, after prepare().
    from workloads import DEFAULT_SEED

    parser = argparse.ArgumentParser(description="Run the paulidelta benchmark.")
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-inputs", action="store_true")
    args = parser.parse_args(argv)

    if args.record_inputs:
        record_inputs()
        return 0

    import harness
    from workloads import WORKLOADS

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    meta = harness.metadata(ROOT)
    print("# meta " + json.dumps(meta))
    results = []
    for name in names:
        r = harness.run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), ROOT)
        r["meta"] = meta
        results.append(r)
        record = ROOT / ".perfbench" / f"BENCH_{name}_s{args.seed}_trace{args.trace}.json"
        record.write_text(json.dumps(r, indent=1, default=str) + "\n")
        for p in r["problems"]:
            print(f"# {name}: FAIL {p}")
        s = r["summary"]
        print(
            f"# {name}: setup_s {_fmt(s['setup_s'])} s | scaled_cpu_s {_fmt(s['scaled_cpu_s'])} s | "
            f"items_per_scaled_cpu_s {_fmt(s['items_per_scaled_cpu_s'])} 1/s | "
            f"peak_rss_mb {_fmt(s['peak_rss_mb'])} MiB | cpu_s {_fmt(s['cpu_s'])} s | "
            f"wall_s {_fmt(s['wall_s'])} s | items_per_s {_fmt(s['items_per_s'])} 1/s | "
            f"fail_frac {r['fail_frac']:.3g} ratio ({r['failed']}/{r['attempted']}) | "
            f"items {r['items']}"
        )
        if args.trace:
            m = {k: v["value"] for k, v in r["metrics"].items()}
            layers = sorted(
                (k for k in m
                 if k.endswith("_s") and k not in ("cli.main_s", "paulis.delta_transform_s")),
                key=lambda k: -m[k],
            )
            print(f"# {name}: self time by layer: " + ", ".join(f"{k} {m[k]:.3g}" for k in layers))
    if len(results) == 1:
        r = results[0]
        print(json.dumps({k: r[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    if not prepare():
        print(f"error: {SRC / 'paulidelta'} not found; run from the root of a "
              "paulidelta checkout", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
