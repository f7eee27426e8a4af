"""A run loads scipy only if it evaluates a closed-form companion: `srofdm`
imports it at the first `numerics.q_function` call, and `run_sweep` calls that
once in the parent before a pool with companions forks. numpy.fft, which the
scipy import used to bring, loads with the package. Each check runs in a fresh
interpreter, so no earlier test has loaded either already."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
           OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

# the benchmark's reference sweeps back to back in one process, each through
# `cli.main` with the argv and expected hashes of bench/ (only read): one JSON
# line per sweep with its mismatching files and whether scipy.special is loaded
REFERENCE_SWEEPS = """
import importlib.util, json, sys, tempfile
from pathlib import Path
bench = Path(sys.argv[1])
sys.path.insert(0, str(bench))
spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)
from srofdm import cli
reference = json.loads(run.REFERENCE.read_text())
for name in sys.argv[2:]:
    wl = run.WORKLOADS[name]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        rc = cli.main(wl.argv(run.DEFAULT_SEED, out))
        bad = run.mismatches(reference[wl.output_key(run.DEFAULT_SEED)], run.hash_outputs(out))
    print(json.dumps({"name": name, "rc": rc, "mismatches": bad,
                      "scipy": "scipy.special" in sys.modules}), flush=True)
"""

# a 2-point paper_default sweep on 2 workers without companions, then with
# theory on but only a receiver that has none (ml_perfect), then with
# companions, and with companions on 1 worker: whether scipy.special is loaded
# in this (the parent) process after each 2-worker sweep, and whether the
# curves match
SWEEP_WORKERS = """
import json, sys
from srofdm import cli, harness
scenario, _ = cli.resolve_scenario(cli.load_scenario_file("paper_default"))
def sweep(with_theory, workers, receivers=harness.SweepSpec.receivers):
    spec = harness.SweepSpec(axis="direct_snr_db", points=(12.0, 24.0), trials_per_point=1000,
                             receivers=receivers, with_theory=with_theory)
    return harness.run_sweep(spec, scenario, master_seed=3, workers=workers)
sweep(False, 2)
after_no_theory = "scipy.special" in sys.modules
sweep(True, 2, ("ml_perfect",))
after_no_companion = "scipy.special" in sys.modules
two = sweep(True, 2)
after_theory = "scipy.special" in sys.modules
print(json.dumps({"after_no_theory": after_no_theory, "after_no_companion": after_no_companion,
                  "after_theory": after_theory, "same_curves": two == sweep(True, 1)}))
"""


# what importing the CLI loads, before any sweep
IMPORT_CLI = """
import json, sys
from srofdm import cli
print(json.dumps({name: name in sys.modules for name in ("numpy.fft", "scipy.special")}))
"""


def _run(snippet: str, *args) -> list:
    done = subprocess.run([sys.executable, "-c", snippet, *args], env=ENV,
                          capture_output=True, text=True, check=True, timeout=120)
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_reference_sweeps_load_scipy_only_for_companions():
    # the repeated ml sweep guards against output that depends on what an
    # earlier sweep in the same process left behind
    sweeps = _run(REFERENCE_SWEEPS, str(ROOT / "bench"), "sync_sample", "ml", "headline", "ml")
    assert [s["name"] for s in sweeps] == ["sync_sample", "ml", "headline", "ml"]
    assert [s["scipy"] for s in sweeps[:2]] == [False, False]  # no companion ran
    assert sweeps[2]["scipy"]
    for s in sweeps:
        assert (s["rc"], s["mismatches"]) == (0, []), s["name"]


def test_pool_sweep_loads_scipy_in_the_parent_only_with_companions():
    result, = _run(SWEEP_WORKERS)
    assert not result["after_no_theory"]
    assert not result["after_no_companion"]
    assert result["after_theory"]
    assert result["same_curves"]


def test_cli_import_loads_numpy_fft_and_not_scipy():
    # numpy loads numpy.fft at the first `np.fft` lookup, and that load is not
    # re-entrant: a signal handler that reads `np.fft` while the main thread is
    # inside it recurses until RecursionError. bench/calibrate.py's sampler
    # reads it every 20 ms of a timed sweep, so the package loads it up front.
    loaded, = _run(IMPORT_CLI)
    assert loaded == {"numpy.fft": True, "scipy.special": False}
