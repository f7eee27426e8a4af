"""Minor page faults per sweep of each benchmark workload.

    python3 tools/minor_faults.py [--root CHECKOUT]

For each workload of bench/run.py, a fresh interpreter with BLAS on one
thread imports `srofdm.cli` from CHECKOUT/src (this checkout by default), runs
one untimed warm-up sweep at the reference seed 7 and then one more with the
same arguments, and reports the minor faults (`ru_minflt`) of that second
sweep: of the process itself, and of its pool workers on a multi-worker
workload (the workers are new for each sweep, so their count includes their
start-up). Prints one JSON object, {workload: faults}. Each sweep writes to a
temporary directory that is removed.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

CHILD = """
import resource, sys, tempfile
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/bench"]
import run  # bench/run.py: the workload table
from srofdm import cli
workload = run.WORKLOADS[sys.argv[2]]

def sweep():
    with tempfile.TemporaryDirectory() as out:
        if cli.main(workload.argv(7, out)) != 0:
            sys.exit("the sweep failed")

def faults():
    return sum(resource.getrusage(who).ru_minflt
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))

sweep()
before = faults()
sweep()
print(faults() - before)
"""


def main(argv=None) -> int:
    root = Path(__file__).resolve().parents[1]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=root, help="source checkout to measure")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.root / "bench"))
    import run  # pins the BLAS threads in os.environ, which the children inherit

    counts = {}
    for name in run.WORKLOADS:
        done = subprocess.run([sys.executable, "-c", CHILD, str(args.root.resolve()), name],
                              capture_output=True, text=True, check=True)
        counts[name] = int(done.stdout.split()[-1])
    print(json.dumps(counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
