"""Smoke test of the benchmark itself, at the harness minimum of 10^3 trials
and one point per workload:

- every end-to-end and per-layer metric named in BENCHMARK.json is emitted,
  with its unit, and nothing else;
- a traced run leaves no wrapper behind, and no run leaves the calibration
  timer or its signal handler behind;
- the correctness check trips when one output byte is altered.

    python3 bench/smoke.py        (or: python3 -m pytest bench/smoke.py)

Takes about a minute on two cores.
"""
import json
import shutil
import signal
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402  (pins the BLAS threads before numpy loads)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def small(wl):
    cli = run.load_cli()
    return replace(wl, points=format(cli.parse_points(wl.points)[-1], "g"), trials=1000)


def expect_metrics(result, declared):
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise AssertionError(f"metrics differ from BENCHMARK.json: got {sorted(set(got) ^ set(want))}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{name} is not a number: {m['value']!r}")


def test_every_workload_emits_every_metric():
    if [w["name"] for w in SPEC["workloads"]] != list(run.WORKLOADS):
        raise AssertionError("BENCHMARK.json workloads differ from run.WORKLOADS")
    for wl in run.WORKLOADS.values():
        for trace, declared in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
            result, _ = run.measure(small(wl), seed=3, seconds=0, trace=trace, setup_repeats=1)
            if not result["correct"] or result["failed"] or result["attempted"] < run.MIN_SWEEPS:
                raise AssertionError(f"{wl.name}: {result}")
            expect_metrics(result, declared)
    harness = sys.modules["srofdm.harness"]
    if hasattr(harness.draw_frame_batch, "__wrapped__") or harness.ProcessPoolExecutor.__name__ != "ProcessPoolExecutor":
        raise AssertionError("the tracer left a wrapper installed")
    if signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0) or signal.getsignal(signal.SIGALRM) != signal.SIG_DFL:
        raise AssertionError("the calibration left its timer or signal handler installed")


def test_check_trips_on_one_altered_byte():
    cli = run.load_cli()
    wl = small(run.WORKLOADS["headline"])
    run.WORK.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        if cli.main(wl.argv(seed=3, out=out)) != 0:
            raise AssertionError("sweep failed")
        expected = run.hash_outputs(out)
        if run.check([run.Sweep(1.0, 1.0, 0.0, expected)], expected) != 0:
            raise AssertionError("check trips on unaltered output")
        victim = out / "manifest.json"
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0x01
        victim.write_bytes(bytes(data))
        altered = run.hash_outputs(out)
        if run.mismatches(expected, altered) != ["manifest.json"]:
            raise AssertionError("altered byte not found")
        if run.check([run.Sweep(1.0, 1.0, 0.0, altered)], expected) != 1:
            raise AssertionError("check did not count the altered sweep as failed")
    finally:
        shutil.rmtree(out)


if __name__ == "__main__":
    test_check_trips_on_one_altered_byte()
    test_every_workload_emits_every_metric()
    print("smoke ok")
