"""sbtlab benchmark: one workload, measured in rounds of fresh worker processes.

    python3 perfbench/run.py --workload suite-unitarity --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Each round starts ``worker.py`` in a new process, so sbtlab's caches start
empty as they do for every sbtlab invocation.  Rounds repeat until about
``--seconds`` seconds have gone (at least MIN_ROUNDS rounds); every round
runs the same operations on inputs made from (seed, round index).
``setup_s`` is the median over the rounds and SETUP_PROBES extra workers that
stop after set-up; the reference-normalised times are means over the rounds,
the per-layer metrics medians.  The last line of standard output is one
JSON object: with ``--trace 0`` the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a run whose workers wrap sbtlab's public calls.

``--smoke`` runs every workload briefly, untraced and traced, and exits 1
on a failed check, an unexpected failed operation or a missing metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from tracing import REPORTED, unit_of  # noqa: E402

WORKLOADS = ("suite-unitarity", "scale-cold", "flat-oracle")
END_TO_END = (("setup_s", "s"), ("wall_ref", "ref"), ("cpu_ref", "ref"),
              ("peak_rss_mb", "MB"))
MIN_ROUNDS = 3
# extra workers per run that only set up, so set-up time is a median of more samples
SETUP_PROBES = 4
RUN_LIMIT_S = 150          # never start a round that could end after this
# operations that fail on this tree whatever the seed (see CHANGES.md)
KNOWN_FAULTS = ("k=8,l=10/sphere", "k=8,l=10/limit")


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("SBTLAB_THREADS", None)     # keep sbtlab's default thread count
    return env


def run_round(workload: str, seed: int, index: int, trace: int, size: str,
              timeout: float, setup_only: bool = False) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--round", str(index), "--trace", str(trace),
            "--size", size] + (["--setup-only"] if setup_only else [])
    spawned = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} round {index}: worker exited {proc.returncode}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready"] - spawned
    out["round_s"] = time.monotonic() - spawned
    return out


def run_rounds(workload: str, seed: int, seconds: float, trace: int,
               size: str = "full", min_rounds: int = MIN_ROUNDS, spent: float = 0.0) -> list:
    """Rounds until about ``seconds`` have passed; ``spent`` counts toward RUN_LIMIT_S only."""
    start = time.monotonic()
    rounds = []
    while True:
        elapsed = time.monotonic() - start
        if rounds:
            typical = statistics.median(r["round_s"] for r in rounds)
            longest = max(r["round_s"] for r in rounds)
            if len(rounds) >= min_rounds and elapsed + typical > seconds:
                break
            if spent + elapsed + 1.5 * longest > RUN_LIMIT_S:
                break
        rounds.append(run_round(workload, seed, len(rounds), trace, size,
                                timeout=RUN_LIMIT_S + 20 - spent - elapsed))
    return rounds


def setup_probes(workload: str, seed: int) -> list:
    """Set-up times of workers that stop when ready (rounds 0.. of the run's inputs)."""
    return [run_round(workload, seed, i, 0, "full", timeout=20, setup_only=True)["setup_s"]
            for i in range(SETUP_PROBES)]


def summarize(rounds: list, trace: int, setups: list = ()) -> dict:
    med = statistics.median
    if trace:
        metrics = {"setup.import_s": med(r["import_s"] for r in rounds)}
        for name in REPORTED[1:]:
            metrics[name] = med(r["layers"][name] for r in rounds)
        units = {name: unit_of(name) for name in REPORTED}
    else:
        metrics = {
            "setup_s": med([r["setup_s"] for r in rounds] + list(setups)),
            # a run has only a few rounds; their mean is steadier than their median
            "wall_ref": statistics.fmean(r["wall_s"] / r["ref_s"] for r in rounds),
            "cpu_ref": statistics.fmean(r["cpu_s"] / r["ref_s"] for r in rounds),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in rounds),
        }
        units = dict(END_TO_END)
    return {
        "correct": all(not r["check_errors"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def report_problems(rounds: list) -> list:
    problems = []
    for r in rounds:
        problems += [f"check: {e}" for e in r["check_errors"]]
        problems += [f"failed: {f}" for f in r["failures"]
                     if not f.startswith(KNOWN_FAULTS)]
    return problems


def smoke() -> int:
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            rounds = run_rounds(workload, 1, 0, trace, size="smoke", min_rounds=1)
            result = summarize(rounds, trace)
            problems = report_problems(rounds)
            if trace:
                problems += [f"missing per-layer metric {m}" for m in REPORTED
                             if m not in result["metrics"]]
            status = "FAIL" if problems else "ok"
            print(f"{status} {workload} trace={trace}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, {rounds[0]['wall_s']:.2f} s")
            for p in problems:
                print(f"  {p}")
            bad += bool(problems)
    print("smoke OK" if not bad else f"smoke FAILED: {bad} run(s)")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sbtlab benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly and fail on any failed check")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sbtlab" / "__init__.py").is_file():
        print(f"run.py: no sbtlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        start = time.monotonic()
        setups = [] if args.trace else setup_probes(args.workload, args.seed)
        rounds = run_rounds(args.workload, args.seed, args.seconds, args.trace,
                            spent=time.monotonic() - start)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for p in report_problems(rounds):
        print(p, file=sys.stderr)
    # raw seconds drift with the host's speed; they are reported, not gated
    print(f"{len(rounds)} rounds; median wall {statistics.median(r['wall_s'] for r in rounds):.3f} s, "
          f"cpu {statistics.median(r['cpu_s'] for r in rounds):.3f} s, reference loop "
          f"{statistics.median(r['ref_s'] for r in rounds) * 1e3:.3f} ms", file=sys.stderr)
    result = summarize(rounds, args.trace, setups)
    RESULTS.mkdir(exist_ok=True)
    detail = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({"result": result, "setup_probes": setups, "rounds": rounds},
                                 indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
