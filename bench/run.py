"""srofdm benchmark: named sweep workloads driven through the documented entry
point `srofdm.cli.main(["sweep", ...])`, in process.

    python3 bench/run.py --workload headline --seed 7 --seconds 15 --trace 0

Run from a source checkout: the package is imported from `src/` next to this
directory, never from an installed copy. A run first makes one untimed warm-up
sweep, then measures whole sweeps, one after another, while the next one is
expected to end within `--seconds` (at least two sweeps), and checks every file
each sweep writes (see `check`). Every sweep samples the machine's speed while
it runs (bench/calibrate.py), and the times are given at the reference speed, so that the load of other tenants on a shared host does
not show as a change of the program. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With `--trace 0` the
metrics are the end-to-end ones and with `--trace 1` the per-layer ones (the
latter taken from sweeps run under `tracer.Tracer`), each as declared in
BENCHMARK.json. The environment
goes to standard output as an `env` line before it, and the full record (and
the spans of a traced run) to `.bench_out/` in the checkout.

bench/README.md lists the workloads, the metrics and which layer metric
should move which end-to-end metric on which workload.
"""
import os

# Pinned before numpy is imported, here and in every process this one starts:
# the pool workers of a 2-worker sweep get one thread each on a 2-core box.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import uuid  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402  (bench/calibrate.py, next to this file)
from tracer import COUNT_BYTES, Tracer  # noqa: E402  (bench/tracer.py, next to this file)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
SPEC = ROOT / "BENCHMARK.json"  # declares the metrics a run reports
WORK = ROOT / ".bench_work"  # sweep outputs, removed after hashing
DEFAULT_SEED = 7
MIN_SWEEPS = 2
SETUP_REPEATS = 7

SETUP_CALIBRATION_UNITS = 200

# what `setup_s` times, in a fresh interpreter: importing the CLI (numpy and
# scipy with it), then loading and resolving the bundled scenario; then the
# machine's slowdown at that moment, from a burst of calibration loops
SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from srofdm import cli
cli.resolve_scenario(cli.load_scenario_file("paper_default"))
setup_s = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import calibrate
samples = calibrate.time_units(int(sys.argv[3]))
print(setup_s, calibrate.slowdown(samples[len(samples) // 10:]))
"""


@dataclass(frozen=True)
class Workload:
    name: str
    axis: str
    points: str
    receivers: str
    theory: bool = True
    workers: int = 1
    trials: int = 1024  # per point: four whole 256-trial chunks
    warmup_workers: int = 0  # workers of the untimed warm-up sweep; 0: as the timed sweeps

    def argv(self, seed: int, out: Path, workers: int = 0) -> list:
        return [
            "sweep", "paper_default",
            "--axis", self.axis, "--points", self.points,
            "--receivers", self.receivers,
            "--theory" if self.theory else "--no-theory",
            "--workers", str(workers or self.workers),
            "--trials", str(self.trials), "--seed", str(seed),
            "--quiet", "--out", str(out),
        ]

    def output_key(self, seed: int) -> str:
        """Everything that fixes the output bytes; the worker count must not."""
        theory = "theory" if self.theory else "no-theory"
        return f"{self.axis}|{self.points}|{self.receivers}|{theory}|{self.trials}|seed={seed}"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("headline", "direct_snr_db", "12:30:3", "perfect_csi,proposed_m1,proposed_m2",
                 warmup_workers=2),
        Workload("headline_2w", "direct_snr_db", "12:30:3", "perfect_csi,proposed_m1,proposed_m2",
                 workers=2),
        Workload("sync_sample", "sync_error_samples", "0,4,8,12,16,20", "perfect_csi,proposed_m2",
                 theory=False),
        Workload("ml", "direct_snr_db", "12,21,30", "ml_perfect,ml_estimated,ml_nopilot"),
    )
}

def load_cli():
    """Import srofdm.cli from this checkout's src/, or exit 2."""
    if not (SRC / "srofdm" / "cli.py").is_file():
        sys.exit(f"error: no srofdm sources at {SRC}; run from a source checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from srofdm import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: imported srofdm from {cli.__file__}, not from {SRC}")
    return cli


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: info.get(k) for k in ("name", "version", "openblas configuration")}

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "srofdm").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src_digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": blas(numpy),
        "blas_scipy": blas(scipy),
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest(),
        "seed": seed,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def hash_outputs(out: Path) -> dict:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def mismatches(expected: dict, got: dict) -> list:
    """Files whose bytes differ from the expected hashes, or that are missing
    or unexpected."""
    return sorted(f for f in set(expected) | set(got) if expected.get(f) != got.get(f))


def setup_seconds(repeats: int) -> list:
    """[(set-up seconds, slowdown)] from `repeats` fresh interpreters."""
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(BENCH), str(SETUP_CALIBRATION_UNITS)],
            capture_output=True, text=True, check=True, timeout=120)
        setup_s, slowdown = done.stdout.split()
        times.append((float(setup_s), float(slowdown)))
    return times


@dataclass
class Sweep:
    wall_s: float  # the calibration loops' own time taken out
    cpu_self_s: float  # likewise
    cpu_children_s: float
    hashes: dict  # empty when the sweep failed
    slowdown: float = 1.0  # of the machine during the sweep (calibrate.py); 1.0 if not sampled
    calibration_s: float = 0.0  # CPU time of the calibration loops
    traced: bool = False


def cpu_s(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def run_sweep(cli, wl: Workload, seed: int, work: Path, workers: int = 0) -> Sweep:
    """One sweep through `cli.main`, sampling the machine's speed while it
    runs."""
    out = Path(tempfile.mkdtemp(dir=work))
    calibrator = calibrate.Calibrator()
    self0, child0 = cpu_s(resource.RUSAGE_SELF), cpu_s(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        with calibrator:
            ok = cli.main(wl.argv(seed, out, workers)) == 0
    except (Exception, SystemExit):  # a failed sweep is counted, not fatal
        traceback.print_exc()
        ok = False
    wall = time.perf_counter() - start
    self1, child1 = cpu_s(resource.RUSAGE_SELF), cpu_s(resource.RUSAGE_CHILDREN)
    hashes = hash_outputs(out) if ok else {}
    shutil.rmtree(out)
    samples = calibrator.samples
    spent = sum(samples)
    return Sweep(wall_s=wall - spent, cpu_self_s=self1 - self0 - spent, cpu_children_s=child1 - child0,
                 hashes=hashes, slowdown=calibrate.slowdown(samples) if samples else 1.0,
                 calibration_s=spent)


def check(sweeps: list, expected: dict) -> int:
    """Count the sweeps that failed or whose files differ from `expected`
    (the stored reference, else the first sweep of the run)."""
    if not expected:
        expected = next((s.hashes for s in sweeps if s.hashes), {})
    failed = 0
    for s in sweeps:
        bad = mismatches(expected, s.hashes) if s.hashes else ["<sweep failed>"]
        if bad:
            failed += 1
            print(f"check: sweep output differs from the expected bytes: {bad}", file=sys.stderr)
    return failed


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def declared(kind: str, found: dict) -> dict:
    """The metrics BENCHMARK.json declares under `kind`, taken from `found`."""
    names = [m["name"] for m in json.loads(SPEC.read_text())[kind]]
    missing = [n for n in names if n not in found]
    if missing:
        raise KeyError(f"declared {kind} metrics not measured: {missing}")
    return {n: found[n] for n in names}


def end_to_end(sweeps, n_trials, setup, attempted, failed) -> dict:
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    # times at the reference machine speed: each divided by the machine's
    # slowdown while it was taken (calibrate.py)
    return declared("end_to_end", {
        "trials_per_s": metric(
            statistics.median([n_trials * s.slowdown / s.wall_s for s in sweeps]), "trials/s"),
        "cpu_s_per_1k_trials": metric(statistics.median(
            [(s.cpu_self_s + s.cpu_children_s) / s.slowdown * 1000.0 / n_trials for s in sweeps]), "s"),
        "setup_s": metric(statistics.median([t / slowdown for t, slowdown in setup]), "s"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
        "pass_ratio": metric((attempted - failed) / attempted, "fraction"),
    })


def per_layer(tracer, plain, traced, n_trials, workers) -> dict:
    traced_trials = n_trials * len(traced)
    per_1k = 1000.0 / traced_trials
    traced_wall = sum(s.wall_s for s in traced)
    # The calibration loops ran inside whichever span was open, in proportion
    # to its time: `program_share` takes them out of the span times, and the
    # slowdown brings those to the reference machine speed, as end to end.
    program_share = traced_wall / (traced_wall + sum(s.calibration_s for s in traced))
    s_per_1k = per_1k * program_share / statistics.fmean(s.slowdown for s in traced)
    out = {}
    for name, st in tracer.stats.items():
        out[f"{name}.s_per_1k"] = metric(st.self_s * s_per_1k, "s")
        out[f"{name}.calls"] = metric(st.calls / len(traced), "count")
    for name in COUNT_BYTES:
        out[f"{name}.computed_in_mb_per_1k"] = metric(tracer.stat(name).in_bytes * per_1k / 1e6, "MB")
    out["theory.share"] = metric(
        tracer.outermost_s.get("theory", 0.0) * program_share / traced_wall, "fraction")
    out["harness.self.s_per_1k"] = metric(tracer.stat("harness.run_sweep").self_s * s_per_1k, "s")
    cli_self = tracer.stat("cli.cmd_sweep").total_s - tracer.stat("harness.run_sweep").total_s
    out["cli.self.s_per_1k"] = metric(cli_self * s_per_1k, "s")
    out["harness.pools_created"] = metric(tracer.pools_created / len(traced), "count")
    worker_cpu = [s.cpu_children_s if workers > 1 else s.cpu_self_s for s in plain]
    out["harness.parallel_efficiency"] = metric(
        statistics.median([c / (workers * s.wall_s) for c, s in zip(worker_cpu, plain)]), "fraction")
    out["receiver.erasure_ratio"] = metric(
        tracer.erasures / tracer.primary_symbols if tracer.primary_symbols else 0.0, "fraction")
    untraced = statistics.median([n_trials * s.slowdown / s.wall_s for s in plain])
    traced_rate = statistics.median([n_trials * s.slowdown / s.wall_s for s in traced])
    out["trace.untraced_trials_per_s"] = metric(untraced, "trials/s")
    out["trace.traced_trials_per_s"] = metric(traced_rate, "trials/s")
    out["trace.overhead_ratio"] = metric(traced_rate / untraced, "ratio")
    return declared("per_layer", out)


def measure(wl: Workload, seed: int, seconds: float, trace: bool,
            setup_repeats: int = SETUP_REPEATS) -> tuple:
    """One benchmark run; returns (result line dict, full record dict)."""
    cli = load_cli()
    setup = [] if trace else setup_seconds(setup_repeats)
    n_trials = len(cli.parse_points(wl.points)) * wl.trials
    env = environment(seed)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    tracer = Tracer(run_id=uuid.uuid4().hex)
    try:
        # untimed: pays first-call costs, and is checked like every other sweep
        warmup = run_sweep(cli, wl, seed, work, workers=wl.warmup_workers)
        sweeps = []
        deadline = time.perf_counter() + seconds
        while len(sweeps) < MIN_SWEEPS or time.perf_counter() + sweeps[-1].wall_s <= deadline:
            traced = trace and len(sweeps) % 2 == 1  # untraced and traced sweeps alternate
            if traced:
                with tracer:
                    s = run_sweep(cli, wl, seed, work)
                s.traced = True
            else:
                s = run_sweep(cli, wl, seed, work)
            sweeps.append(s)
    finally:
        shutil.rmtree(work)

    all_sweeps = [warmup] + sweeps
    attempted = len(all_sweeps)
    failed = check(all_sweeps, reference.get(wl.output_key(seed), {}))
    if trace:
        plain = [s for s in sweeps if not s.traced]
        traced = [s for s in sweeps if s.traced]
        metrics = per_layer(tracer, plain, traced, n_trials, wl.workers)
    else:
        metrics = end_to_end(sweeps, n_trials, setup, attempted, failed)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": wl.name,
        "argv": wl.argv(seed, Path("<out>")),
        "n_trials": n_trials,
        "env": env,
        "setup_s": setup,
        "sweeps": [vars(s) for s in all_sweeps],
        "failed_ratio": failed / attempted,
        "result": result,
    }
    if trace:
        record["trace"] = tracer.dump()
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    result, record = measure(wl, args.seed, args.seconds, bool(args.trace))

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record) + "\n")
    print(f"failed_ratio {record['failed_ratio']:.6g} ({result['failed']}/{result['attempted']} sweeps)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
