"""Run every workload once, each in its own process, and print one table.

    python3 bench/all.py [--seed N]

Prints ops_per_s, setup_s, peak_rss_mib and ops_failed, with units, for each
of the four workloads, and exits nonzero if any run failed or reported
incorrect outputs.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    ok = True
    print(f"{'workload':20s} {'metric':14s} {'value':>14s} unit")
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", name, "--seed",
             str(args.seed), "--trace", "0"],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name:20s} run failed:\n{proc.stderr}")
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= result["correct"]
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        rows.append(("ops_failed", result["failed"],
                     f"of {result['attempted']} ops"))
        for key, value, unit in rows:
            print(f"{name:20s} {key:14s} {value:14.6g} {unit}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
