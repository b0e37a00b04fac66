"""Run the benchmark over several seeds and report the spread of each metric.

    python3 perfbench/steadiness.py --seeds 1-10 --label set1
    python3 perfbench/steadiness.py --seeds 1-5 --workloads scale-cold --label probe

For every workload and end-to-end metric it prints the median over seeds
and the quartile spread (Q3 - Q1) / median, as ``statistics.quantiles(values,
n=4)`` gives the quartiles, next to the metric's bound from BENCHMARK.json,
plus the share of failed operations.  With ``--compare OTHER`` it also prints
each median's change against an earlier set.  Results go to
``perfbench/results/steadiness-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--label", required=True)
    parser.add_argument("--compare", default=None, help="label of an earlier set")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    earlier = None
    if args.compare:
        earlier = json.loads((RESULTS / f"steadiness-{args.compare}.json").read_text())
    RESULTS.mkdir(exist_ok=True)
    out = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  flush=True)
        shares = {str(Fraction(r["failed"], r["attempted"])) for r in runs}
        summary = {"failed_share": sorted(shares), "correct": all(r["correct"] for r in runs),
                   "metrics": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            row = {"median": statistics.median(values), "spread": spread(values),
                   "bound": bound, "values": values}
            if earlier:
                before = earlier[workload]["metrics"][name]["median"]
                row["change"] = row["median"] / before - 1.0
            summary["metrics"][name] = row
        out[workload] = summary
        print(f"== {workload}: failed share {summary['failed_share']}, "
              f"correct {summary['correct']}")
        for name, row in summary["metrics"].items():
            change = f"  change {row['change']:+.3f}" if "change" in row else ""
            print(f"   {name:12s} median {row['median']:10.4f}  spread {row['spread']:.3f}"
                  f"  (bound {row['bound']}){change}")
    (RESULTS / f"steadiness-{args.label}.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
