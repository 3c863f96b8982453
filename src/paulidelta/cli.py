"""Command-line surface: thresholds, decay experiments, invariant audits,
self-verification, the CNOT conjugation table, and single runs.

Exit codes: 0 = all checks pass, 1 = a bound or invariant was violated,
2 = usage or configuration error.  With a fixed seed every command writes
byte-identical output files on repeated runs.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path
from typing import Collection

from .bounds import (
    CONSTRAINT_FORMULAS,
    MARGIN_TOL,
    InvariantRecord,
    audit_invariant,
    check_k,
    cnot_threshold,
    decay_table,
    epsk_threshold,
    theta_for,
)
from .channels import BuiltinGate, cnot_pauli_action, gate_arity
from .circuit import Circuit, NoiseModel, circuit_from_json, parse_circuit, random_circuit
from .paulis import PauliString
from .simulate import (  # noqa: F401 (perfbench/selftest.py reads cli.InputPair)
    BasisPair,
    InputPair,
    check_pair,
    check_sampler_inputs,
    output_distinguishability,
    sample_output_difference,
)


def _count(text: str) -> int:
    if not (text.isascii() and text.strip().isdigit()):
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _add_circuit_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--circuit", default=None, help="circuit file (.json or DSL)")
    p.add_argument(
        "--random",
        default=None,
        help="random circuit spec, e.g. 'n=3,T=4,pool=CNOT|H|ID'",
    )
    p.add_argument("--eps1", type=float, default=None, help="eps1 for --random (default 0.05)")
    p.add_argument("--epsk", type=float, default=None, help="epsk for --random (default 0.4)")
    p.add_argument("--rho", default=None, help="rho as a bit string (default all zeros)")
    p.add_argument("--tau", default=None, help="tau as a bit string (default all ones)")
    p.add_argument("--seed", type=_count, default=None, help="RNG seed (required for --random)")


class UsageError(Exception):
    pass


# --random keys, each with its smallest value when it is an integer.
_RANDOM_KEYS = {"n": 1, "T": 0, "pool": None, "k": 1}


def _random_int(spec: dict[str, str], key: str) -> int:
    text = spec[key]
    if not (text.isascii() and text.isdigit()) or int(text) < _RANDOM_KEYS[key]:
        raise UsageError(
            f"--random {key} must be an integer >= {_RANDOM_KEYS[key]}, got {text!r}"
        )
    return int(text)


def _load_circuit(args) -> Circuit:
    """The circuit of ``--circuit`` or ``--random``."""
    if bool(args.circuit) == bool(args.random):
        raise UsageError("provide exactly one of --circuit and --random")
    if args.circuit:
        for flag, value in (("--eps1", args.eps1), ("--epsk", args.epsk)):
            if value is not None:
                raise UsageError(f"{flag} applies only to --random; a circuit file sets its noise")
        path = Path(args.circuit)
        if not path.exists():
            raise UsageError(f"no such circuit file: {path}")
        text = path.read_text()
        return circuit_from_json(text) if path.suffix == ".json" else parse_circuit(text)
    spec = {}
    for piece in args.random.split(","):
        key, eq, val = (part.strip() for part in piece.partition("="))
        if not eq:
            raise UsageError(f"bad --random entry {piece!r}")
        if key not in _RANDOM_KEYS:
            raise UsageError(f"--random has unknown key {key!r}; the keys are n, T, pool and k")
        if key in spec:
            raise UsageError(f"--random gives {key} more than once")
        spec[key] = val
    for key in ("n", "T", "pool"):
        if key not in spec:
            raise UsageError(f"--random spec missing {key}")
    spec.setdefault("k", "2")
    n, t, k = (_random_int(spec, key) for key in ("n", "T", "k"))
    pool = tuple(p for p in spec["pool"].replace("+", "|").split("|") if p)
    if args.seed is None:
        raise UsageError("--random requires an explicit --seed")
    noise = NoiseModel(
        0.05 if args.eps1 is None else args.eps1, 0.4 if args.epsk is None else args.epsk
    )
    return random_circuit(n, t, seed=args.seed, gate_pool=pool, k=k, noise=noise)


def _input_pair(args, circ: Circuit) -> BasisPair:
    rho_bits = args.rho if args.rho is not None else "0" * circ.n
    tau_bits = args.tau if args.tau is not None else "1" * circ.n
    try:
        pair = BasisPair(rho_bits, tau_bits)
        check_pair(circ, pair)
    except ValueError:
        raise UsageError(
            f"--rho and --tau must be {circ.n} bits of 0/1, got {rho_bits!r}, {tau_bits!r}"
        ) from None
    return pair


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# --- subcommands ----------------------------------------------------------


def cmd_threshold(args) -> int:
    check_k(args.k, args.cnot_only)
    lines = [f"epsk_threshold(k={args.k}) {epsk_threshold(args.k):.6f}"]
    if args.cnot_only:
        lines.append(f"cnot_threshold {cnot_threshold():.6f}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _theta_or_refuse(noise: NoiseModel, k: int, cnot_only: bool):
    result = theta_for(noise, k, cnot_only)
    if not result.feasible:
        formula = CONSTRAINT_FORMULAS[result.binding_constraint]
        raise UsageError(
            f"no feasible theta: binding constraint {formula} gives "
            f"theta={result.theta:.6f} >= 1 for eps1={noise.eps1}, epsk={noise.epsk}"
        )
    return result


def _gate_k(args, circ: Circuit) -> int:
    """The k the bounds use; refuses a --k or --cnot-only the circuit breaks."""
    if args.cnot_only:
        for level, placements in enumerate(circ.levels, start=1):
            for i, pl in enumerate(placements):
                gate = pl.gate
                if gate_arity(gate) >= 2 and gate != BuiltinGate("CNOT"):
                    name = gate.name if isinstance(gate, BuiltinGate) else type(gate).__name__
                    raise UsageError(
                        f"--cnot-only needs CNOT as the only multi-qubit gate, but level {level}, "
                        f"placement {i} is {name} on wires {list(pl.wires)}"
                    )
    if args.k is not None and args.k < circ.max_arity:
        raise UsageError(f"--k {args.k} is below the circuit's gate arity {circ.max_arity}")
    return args.k if args.k is not None else max(2, circ.max_arity)


def cmd_decay(args) -> int:
    circ = _load_circuit(args)
    pair = _input_pair(args, circ)
    k = _gate_k(args, circ)
    result = _theta_or_refuse(circ.noise, k, args.cnot_only)
    t_max = args.t_max if args.t_max is not None else circ.T
    if not 1 <= args.t_min <= t_max <= circ.T:
        raise UsageError(f"bad depth range [{args.t_min}, {t_max}] for a {circ.T}-level circuit")
    ts = list(range(args.t_min, t_max + 1))
    rows = decay_table(circ, pair, ts, result.theta)
    if args.fmt == "csv":
        text = "T,measured,bound\n" + "".join(
            f"{t},{_fmt(m)},{_fmt(b)}\n" for t, m, b in rows
        )
    else:
        text = json.dumps(
            [{"T": t, "measured": m, "bound": b} for t, m, b in rows], indent=2
        ) + "\n"
    _emit(text, args.out)
    violations = [t for t, m, b in rows if m > b + MARGIN_TOL]
    if args.out:
        print(
            f"theta={result.theta:.6f} ({result.binding_constraint} binding), "
            f"{len(rows)} rows, {len(violations)} violations"
        )
    if violations:
        print(f"bound violated at T={violations}", file=sys.stderr)
        return 1
    return 0


def _record_doc(r: InvariantRecord) -> dict:
    return {
        "qubits": [list(q) for q in r.qubits],
        "dist": r.dist if r.dist != float("inf") else "inf",
        "lhs": r.lhs,
        "rhs": r.rhs,
        "margin": r.margin,
    }


def cmd_check_invariant(args) -> int:
    circ = _load_circuit(args)
    pair = _input_pair(args, circ)
    k = _gate_k(args, circ)
    forced = args.force_theta is not None
    if forced:
        if not 0.0 < args.force_theta <= 1.0:
            raise UsageError(f"--force-theta must lie in (0, 1], got {args.force_theta}")
        theta = args.force_theta
        binding = "forced"
    else:
        result = _theta_or_refuse(circ.noise, k, args.cnot_only)
        theta, binding = result.theta, result.binding_constraint
    try:
        report = audit_invariant(circ, pair, theta, args.max_set_size, max_sets=args.max_sets)
    except RuntimeError as e:
        raise UsageError(str(e)) from None
    worst, failures = report.worst, report.failures
    doc = {
        "theta": theta,
        "binding_constraint": binding,
        "forced": forced,
        "max_set_size": args.max_set_size,
        "sets_checked": len(report),
        "failures": len(failures),
        "min_margin": None if worst is None else worst.margin,
        "worst": None if worst is None else _record_doc(worst),
        "failing": [_record_doc(r) for r in failures],
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    if forced:
        print(
            "warning: theta was forced; margins are exploratory and do not "
            "assert a violation",
            file=sys.stderr,
        )
        return 0
    return 1 if failures else 0


def cmd_verify(args) -> int:
    from .verify import run_all

    results = run_all(args.seed, args.cases)
    lines = [f"{r.name}: {r.cases} cases, {len(r.failures)} failures" for r in results]
    failed = [r for r in results if not r.passed]
    lines.append("FAIL" if failed else "PASS")
    _emit("\n".join(lines) + "\n", args.out)
    for r in failed:
        for f in r.failures[:5]:
            print(f"{r.name}: {f}", file=sys.stderr)
    return 1 if failed else 0


def _block_tag(s: PauliString) -> str:
    a, b = s.letter(0), s.letter(1)
    if a == "I" and b == "I":
        return "II"
    if a == "I":
        return "I*"
    if b == "I":
        return "*I"
    return "**"


def cmd_cnot_table(args) -> int:
    lines = ["input output sign  in  out"]
    for a in "IXYZ":
        for b in "IXYZ":
            r = PauliString.from_label(a + b)
            out, sign = cnot_pauli_action(r)
            lines.append(
                f"{r.label():<5} {out.label():<6} {'+1' if sign > 0 else '-1':<4} "
                f"{_block_tag(r):<3} {_block_tag(out)}"
            )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_simulate(args) -> int:
    circ = _load_circuit(args)
    pair = _input_pair(args, circ)
    seed = args.seed if args.seed is not None else 0
    # the sampler checks its inputs before the exact pass, which can take seconds
    plan = check_sampler_inputs(circ, pair, args.shots, seed) if args.shots else None
    measured = output_distinguishability(circ, pair)
    lines = [f"distinguishability {_fmt(measured)}"]
    if args.shots:
        est = sample_output_difference(circ, pair, args.shots, seed, _plan=plan)
        lines.append(f"sampled({args.shots} shots) {_fmt(est)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _threshold_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cnot-only", action="store_true")


def _decay_args(p: argparse.ArgumentParser) -> None:
    _add_circuit_source(p)
    p.add_argument("--t-min", type=int, default=1)
    p.add_argument("--t-max", type=int, default=None)
    p.add_argument("--k", type=int, default=None, help="override the gate-arity k")
    p.add_argument("--cnot-only", action="store_true")
    p.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")


def _check_invariant_args(p: argparse.ArgumentParser) -> None:
    _add_circuit_source(p)
    p.add_argument("--max-set-size", type=_count, default=3)
    p.add_argument("--max-sets", type=_count, default=None, help="enumeration budget")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--cnot-only", action="store_true")
    p.add_argument(
        "--force-theta",
        type=float,
        default=None,
        help="exploratory: audit against this theta and report margins only",
    )


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cases", type=_count, default=25)
    p.add_argument("--seed", type=_count, default=0, help="RNG seed")


def _simulate_args(p: argparse.ArgumentParser) -> None:
    _add_circuit_source(p)
    p.add_argument("--shots", type=_count, default=0, help="add a trajectory-sampling estimate")


# name -> (help, arguments besides --out, handler), in the order help lists them.
COMMANDS = {
    "threshold": ("print closed-form noise thresholds", _threshold_args, cmd_threshold),
    "decay": (
        "measured output distinguishability vs the theta^(T/2) bound over "
        "prefixes of one circuit (prefixes keep the experiment monotone-comparable)",
        _decay_args,
        cmd_decay,
    ),
    "check-invariant": (
        "audit the shrink invariant over consistent sets", _check_invariant_args, cmd_check_invariant
    ),
    "verify": ("run the seeded self-check suites", _verify_args, cmd_verify),
    "cnot-table": ("print the CNOT conjugation table", lambda p: None, cmd_cnot_table),
    "simulate": ("single-run output distinguishability", _simulate_args, cmd_simulate),
}


def build_parser(names: Collection[str] = COMMANDS) -> argparse.ArgumentParser:
    """The parser with the subcommands ``names``, all six by default.

    A parser short of some commands still names all six in its usage line,
    so its usage errors read as the full parser's do; the full parser keeps
    argparse's own metavar, which also names a missing command "command".
    """
    parser = argparse.ArgumentParser(
        prog="paulidelta",
        description="Evolve state differences through leveled noisy circuits "
        "and check fault-tolerance upper-bound machinery.",
    )
    metavar = None if len(names) == len(COMMANDS) else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_arguments, handler = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.add_argument("--out", default=None, help="write machine output to this file")
        p.set_defaults(fn=handler)
    return parser


def main(argv=None) -> int:
    """Run one command; only its own subparser is built, unless ``argv``
    names none (no arguments, a help flag or an unknown word)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[:1] if argv and argv[0] in COMMANDS else COMMANDS)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.fn(args)
    except (UsageError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


# Once per process, at import: the collector's permanent generation takes
# every object the import made, so a call's collections walk only the
# call's own objects.  A freeze per call would keep an in-process caller's
# cyclic garbage alive.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
