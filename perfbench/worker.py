"""One round of one workload, in a fresh process started by ``run.py``.

The worker caps its own address space, imports sbtlab from the checkout's
``src`` directory, builds the round's inputs, and then runs the measured
phase: every operation is timed on its own (wall and process CPU time), its
check runs untimed after it, and the reference loop runs between
operations.  The last line of standard output is one JSON object for
``run.py``; its ``ready`` field is the CLOCK_MONOTONIC reading at the end of
set-up.

    python3 perfbench/worker.py --workload scale-cold --seed 1 --round 0 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# large enough for every shape the workloads use (peak ~0.22 GB), small
# enough that a dense allocation of the 43 758-monomial basis fails at once
ADDRESS_SPACE_BYTES = 3 << 30

# time spent in the reference loop, as a share of the time spent in operations
REF_SHARE = 0.1


def _cap_address_space() -> None:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = ADDRESS_SPACE_BYTES if hard == resource.RLIM_INFINITY else min(hard, ADDRESS_SPACE_BYTES)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def _reference_body() -> int:
    """Fixed pure-Python work: integer, float, tuple-keyed dict and Fraction steps."""
    acc = 0
    x = 1.0
    table = {}
    frac = Fraction(0)
    for i in range(1, 9601):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + i * i
        acc = (acc * 31 + i) % 1_000_003
        x = x * 1.0000001 + 1e-9
        if i % 25 == 0:
            frac += Fraction(i % 13, 7)
    return acc + len(table) + int(x) + frac.numerator % 7


def reference_loop() -> float:
    """Duration of one reference-loop run with the garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_body()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop when set-up is done; report only its timing")
    args = parser.parse_args(argv)

    _cap_address_space()
    src = ROOT / "src"
    if not (src / "sbtlab" / "__init__.py").is_file():
        print(f"worker: no sbtlab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import sbtlab
    import sbtlab.cli  # noqa: F401  (the converge sweeps go through it)
    import_s = time.perf_counter() - start
    if Path(sbtlab.__file__).resolve().parent != (src / "sbtlab").resolve():
        print(f"worker: imported sbtlab from {sbtlab.__file__}, not {src}", file=sys.stderr)
        return 2

    import workloads
    from tracing import Tracer

    ops = workloads.build(args.workload, args.seed, args.round, args.size)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        for target in tracer.missing:
            print(f"worker: trace target {target} not found", file=sys.stderr)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready, "import_s": import_s}))
        return 0

    wall = cpu = debt = 0.0
    refs = []
    failed, failures, check_errors = 0, [], []
    for op in ops:
        if tracer:
            tracer.active = True
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            result = op.call()
            error = None
        except Exception as exc:  # an operation that raises counts as failed
            error = exc
        wall1, cpu1 = time.perf_counter(), time.process_time()
        if tracer:
            tracer.active = False
        wall += wall1 - wall0
        cpu += cpu1 - cpu0
        if error is not None:
            failed += 1
            failures.append(f"{op.label}: {type(error).__name__}: {error}")
        else:
            check_errors.extend(op.check(result))
        debt += REF_SHARE * (wall1 - wall0)
        while debt > 0:
            d = reference_loop()
            refs.append(d)
            debt -= d

    out = {
        "ready": ready,
        "import_s": import_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "ref_s": statistics.fmean(refs),
        "ref_runs": len(refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(ops),
        "failed": failed,
        "failures": failures,
        "check_errors": check_errors,
    }
    if tracer:
        out["layers"] = tracer.summary(wall)
        out["spans"] = len(tracer.spans)
        RESULTS.mkdir(exist_ok=True)
        tracer.save(RESULTS / f"trace-{args.workload}-round{args.round}.npz")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
