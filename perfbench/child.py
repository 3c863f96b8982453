"""One benchmark repetition, run in a fresh interpreter.

Times ``import paulidelta.cli`` and one ``cli.main(argv)`` call separately,
in wall and CPU time, optionally under the tracer.  Then it reads the
process's peak resident set, runs the speed gauge, and prints one JSON line
with the timings, the exit code, the peak and the gauge.  With
``--import-only`` it skips the call.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time

GAUGE_CHUNKS = 7


def peak_rss_mib() -> float:
    """Peak resident set of this process's own address space.

    On Linux, ru_maxrss also counts the parent's resident set at fork time,
    so a large benchmark process would leak into every repetition; VmHWM
    does not.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def gauge_s() -> float:
    """How fast the machine runs at this moment, apart from paulidelta.

    Times four fixed kernels that mix what the workloads do (an integer loop,
    Python sets and dicts, small complex matrices, and a pass over an 8 MiB
    array), each as the median of GAUGE_CHUNKS runs, and returns the sum of
    the four medians in CPU seconds.
    """
    import gc

    import numpy as np

    u = np.array([[0.9, -0.4], [0.4, 0.9]], dtype=complex)
    big = np.linspace(0.0, 1.0, 4**10).reshape((4,) * 10)
    half = np.eye(4) / 2

    def int_loop():
        x = 0
        for i in range(200_000):
            x = (x * 31 + i) % 1000003

    def sets():
        table = {(i, i % 7): frozenset(range(i % 5, i % 5 + 4)) for i in range(5_000)}
        sum(len(v & table[(j, j % 7)]) for j, v in enumerate(table.values()))

    def small_matrices():
        m = np.zeros((4, 4), dtype=complex)
        for _ in range(300):
            m += np.kron(u, u.conj()) @ np.kron(u.T, u)

    def big_array():
        b = big
        for axis in range(2):
            b = np.moveaxis(np.tensordot(half, b, axes=([1], [axis])), 0, axis)

    def median_s(kernel) -> float:
        times = []
        for _ in range(GAUGE_CHUNKS):
            start = time.process_time()
            kernel()
            times.append(time.process_time() - start)
        return statistics.median(times)

    gc.disable()
    try:
        return sum(median_s(k) for k in (int_loop, sets, small_matrices, big_array))
    finally:
        gc.enable()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--argv", default="[]", help="cli.main arguments as a JSON list")
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument(
        "--trace-qubits", type=int, default=0,
        help="trace the call; the workload's qubit count (0 = untraced)",
    )
    args = parser.parse_args()

    start, cpu = time.perf_counter(), time.process_time()
    import paulidelta.cli as cli

    result = {
        "import_s": time.perf_counter() - start,
        "import_cpu_s": time.process_time() - cpu,
        "module": cli.__file__,
    }
    if not args.import_only:
        argv = json.loads(args.argv)
        if args.trace_qubits:
            from tracer import Tracer, snapshot, unpatched

            before = snapshot()
            tracer = Tracer(args.trace_qubits)
            with tracer.installed():
                start, cpu = time.perf_counter(), time.process_time()
                rc = cli.main(argv)
                result["main_s"] = time.perf_counter() - start
                result["main_cpu_s"] = time.process_time() - cpu
            result["trace"] = tracer.report()
            result["unpatched"] = unpatched(before)
        else:
            start, cpu = time.perf_counter(), time.process_time()
            rc = cli.main(argv)
            result["main_s"] = time.perf_counter() - start
            result["main_cpu_s"] = time.process_time() - cpu
        result["rc"] = rc
    result["peak_rss_mib"] = peak_rss_mib()
    # After the peak is read, so that the gauge's arrays do not count in it.
    result["gauge_s"] = gauge_s()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
