"""Same seed, same bytes: each distinct benchmark sweep, run in process
through `cli.main` at the benchmark's seed, writes files whose SHA-256
digests are the ones stored in `bench/reference.json`.

The workloads (their argv and output key) come from `bench/run.py`, so the
list lives in one place; `bench/` is only read."""
import importlib.util
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from srofdm import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_run():
    """bench/run.py as a module; the thread pins it sets on import are undone."""
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(BENCH))  # for its own imports of calibrate and tracer
    try:
        with mock.patch.dict(os.environ):
            spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


RUN = _bench_run()
SEED = RUN.DEFAULT_SEED
REFERENCE = json.loads(RUN.REFERENCE.read_text())
# one workload per output key: headline_2w writes the bytes of headline
DISTINCT = {wl.output_key(SEED): name for name, wl in reversed(RUN.WORKLOADS.items())}


@pytest.mark.parametrize("name", sorted(DISTINCT.values()))
def test_sweep_writes_reference_bytes(name, tmp_path):
    wl = RUN.WORKLOADS[name]
    expected = REFERENCE[wl.output_key(SEED)]
    out = tmp_path / "out"
    assert cli.main(wl.argv(SEED, out)) == 0
    assert RUN.mismatches(expected, RUN.hash_outputs(out)) == []
