"""The benchmark's tracer patches banditlab by name. Every name it lists must
still resolve the way `Tracer.installed` resolves it: a method in its own
class's `__dict__`, a function at its module's level. The tracer is loaded
from `bench/tracer.py` without writing anything there."""
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import banditlab
from banditlab import harness

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ under bench/
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module


def _resolve(module: str, path: str):
    """(owner, attribute, object) as `Tracer.installed` finds them."""
    owner = getattr(banditlab, module)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr, (owner.__dict__ if classes else vars(owner)).get(attr)


def test_every_tracer_target_resolves(tracer):
    assert tracer.TARGETS
    for module, path, _ in tracer.TARGETS:
        owner, attr, found = _resolve(module, path)
        assert found is not None, f"{module}.{path} is not defined where the tracer looks"
        if inspect.isclass(owner):
            assert inspect.isfunction(found), f"{module}.{path} is not a method"
        else:
            assert inspect.isfunction(found), f"{module}.{path} is not a module-level function"
            assert found.__module__ == f"banditlab.{module}", \
                f"{module}.{path} is defined in {found.__module__}, not banditlab.{module}"


def test_tracer_installs_reaches_callers_and_restores(tracer):
    before = {(module, path): _resolve(module, path)[2] for module, path, _ in tracer.TARGETS}
    config = harness.parse_config("[experiment]\npolicy = exp4\nhorizon = 40\nreplicas = 2\n"
                          "[environment]\nkind = contextual\nk = 3\n")
    t = tracer.Tracer()
    with t.installed(banditlab):
        harness.run_experiment(config)  # through the patched module attribute
    after = {(module, path): _resolve(module, path)[2] for module, path, _ in tracer.TARGETS}
    assert after == before
    calls = {name: stat.calls for (_, name), stat in t.stats.items()}
    assert calls["harness.run_experiment"] == 1
    # exp4's update still weights its estimate through importance_loss_estimate
    assert calls["adversarial.importance_loss_estimate"] == 80
    assert calls["env.sample_categorical"] == 80
