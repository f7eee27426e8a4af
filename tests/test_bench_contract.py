"""The benchmark's per-layer metrics name srofdm functions by
`<module>.<fn>` or `<module>.<Class>.<method>`; its tracer wraps only the
functions in a module's `__all__` and the methods defined in a class body.
These tests fail when a refactor moves or renames one of them, instead of
the benchmark failing on a metric it cannot measure."""
import importlib
import inspect
import json
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
