"""Run every benchmark workload once and print each metric by name and unit,
with the failed ratio of the correctness check.

    python3 bench/report.py [--seed 7] [--seconds 15] [--trace 0|1]

Each workload runs in its own `bench/run.py` process, as the benchmark is
meant to run. Exits 1 if any workload's outputs fail the check.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from run import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    all_correct = True
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        all_correct &= result["correct"]
        print(f"[{name}] correct={result['correct']} "
              f"failed_ratio={result['failed'] / result['attempted']:.6g} "
              f"({result['failed']}/{result['attempted']} sweeps)")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<52} {m['value']:>14.6g} {m['unit']}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
