"""The benchmark keeps its own copy of the report digest, `content_digest`
in `bench/run.py`; it must agree with `RegretReport.content_digest()`. The
module is loaded from `bench/run.py` without writing anything there, and
`sys.path` and `sys.modules` are as they were afterwards."""
import importlib.util
import sys
from pathlib import Path

import pytest

from banditlab import harness
from test_engine import CASES, _config
from test_harness import nan_report

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_run():
    spec = importlib.util.spec_from_file_location("_bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    path, modules = list(sys.path), dict(sys.modules)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ under bench/
    sys.path.insert(0, str(BENCH))  # it imports metrics, workloads and tracer from there
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path[:] = path
        for name in set(sys.modules) - set(modules):
            del sys.modules[name]
    return module


@pytest.fixture(scope="module")
def run():
    return load_run()


def test_loading_writes_nothing_and_restores_the_interpreter():
    files, path, modules = sorted(BENCH.rglob("*")), list(sys.path), set(sys.modules)
    load_run()
    assert sorted(BENCH.rglob("*")) == files
    assert sys.path == path
    assert set(sys.modules) == modules


@pytest.mark.parametrize("report", [
    lambda: harness.run_experiment(_config(*CASES["exp3-oblivious"])), nan_report],
    ids=["golden", "nan"])
def test_the_benchmarks_digest_is_the_reports(run, report):
    report = report()
    assert run.content_digest(report) == report.content_digest()
