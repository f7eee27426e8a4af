"""The benchmark's per-layer metrics name srofdm functions by
`<module>.<fn>` or `<module>.<Class>.<method>`; its tracer wraps only the
functions in a module's `__all__` and the methods defined in a class body.
These tests fail when a refactor moves or renames one of them, instead of
the benchmark failing on a metric it cannot measure."""
import importlib
import inspect
import json
import sys
from pathlib import Path

import pytest

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
STAT_SUFFIXES = (".s_per_1k", ".calls", ".computed_in_mb_per_1k")


def traced_names():
    names = set()
    for metric in json.loads(SPEC.read_text())["per_layer"]:
        for suffix in STAT_SUFFIXES:
            if metric["name"].endswith(suffix):
                names.add(metric["name"][: -len(suffix)])
    return sorted(n for n in names if n.split(".")[1] != "self")  # <module>.self: module self time


@pytest.mark.parametrize("name", traced_names())
def test_traced_function_is_where_the_tracer_looks(name):
    module, attr, *method = name.split(".")
    mod = importlib.import_module(f"srofdm.{module}")
    assert attr in mod.__all__
    obj = getattr(mod, attr)
    assert obj.__module__ == mod.__name__
    fn = vars(obj)[method[0]] if method else obj
    assert inspect.isfunction(fn)


def test_patched_names_exist():
    harness = importlib.import_module("srofdm.harness")
    cli = importlib.import_module("srofdm.cli")
    assert inspect.isclass(harness.ProcessPoolExecutor)
    assert inspect.isfunction(harness.run_sweep) and inspect.isfunction(cli.run_sweep)
    assert inspect.isfunction(cli.cmd_sweep)


def test_every_traced_receiver_function_records_calls(tmp_path):
    # a stage table holding function objects captured at import would bypass
    # the tracer's rebinding and read 0 calls without any error
    sys.path.insert(0, str(SPEC.parent / "bench"))
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(str(SPEC.parent / "bench"))
    cli = importlib.import_module("srofdm.cli")
    harness = importlib.import_module("srofdm.harness")
    argv = ["sweep", "paper_default", "--points", "20", "--trials", "1000",
            "--receivers", ",".join(harness.RECEIVERS), "--no-theory", "--seed", "7",
            "--workers", "1", "--quiet", "--out", str(tmp_path / "out")]
    with Tracer("contract") as tracer:
        assert cli.main(argv) == 0
    silent = [n for n in traced_names() if n.startswith("receiver.") and not tracer.stat(n).calls]
    assert not silent, f"traced but never called: {silent}"
