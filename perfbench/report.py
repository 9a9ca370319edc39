"""Run every workload once and print each metric by name, with its unit.

Usage (from the root of a checkout): python3 perfbench/report.py [--seed N] [--trace 0|1]

Prints, per workload, the failure ratio, whether the checker's negative
control flagged its corruption, and every end-to-end metric (or, with
--trace 1, every per-layer metric including the tracing overhead).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    status = 0
    for workload in (w["name"] for w in bench["workloads"]):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(bench["run_seconds"]),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        info, result = (json.loads(line) for line in proc.stdout.strip().split("\n")[-2:])
        print(f"{workload}  correct={result['correct']}  fail_ratio={info['fail_ratio']}"
              f"  ({result['failed']}/{result['attempted']})  controls={info['controls_flagged']}")
        print(f"  provenance: {json.dumps(info['provenance'])}")
        for name, metric in result["metrics"].items():
            print(f"  {name:42s} {metric['value']:>16.6g} {metric['unit']}")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
