"""The benchmark's own tests, at tiny sizes.

Run from the root of a checkout with:

    python3 -m pytest -q bench/checks.py
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer, package_modules  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def banditlab():
    return run.import_program()


def tiny(experiments, horizon=60, replicas=3):
    return tuple(dataclasses.replace(e, horizon=min(e.horizon, horizon),
                                     replicas=min(e.replicas, replicas))
                 for e in experiments)


@pytest.fixture
def tiny_workloads(monkeypatch):
    for name, experiments in list(workloads.WORKLOADS.items()):
        monkeypatch.setitem(workloads.WORKLOADS, name, tiny(experiments))


def declared(trace: int):
    return metrics.PER_LAYER if trace else metrics.END_TO_END


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_each_workload_prints_every_metric(banditlab, tiny_workloads, capsys,
                                           workload, trace):
    result = run.run(banditlab, workload, SEED, seconds=0.0, trace=trace)
    printed = capsys.readouterr().out
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert "failed_ratio 0 " in printed
    assert list(result["metrics"]) == [name for name, _, _ in declared(trace)]
    for name, unit, better in declared(trace):
        assert result["metrics"][name]["unit"] == unit
        assert f"  {name} " in printed and f" {unit} ({better} is better)" in printed
    for exp in workloads.WORKLOADS[workload]:
        assert f"  {exp.name} " in printed


def test_injected_failure_raises_failed_ratio(banditlab, tiny_workloads, monkeypatch, capsys):
    # exp3 at a vanishing rate plays uniformly, so on a matrix where arm 0
    # never loses its regret is n/2, far above the exp3 cap sqrt(2 n K ln K)
    doomed = workloads.Experiment(
        "injected-exp3", "exp3", {"kind": "oblivious", "losses": ";".join(["0,1"] * 200)},
        horizon=200, replicas=2, params={"eta": "1e-9"},
        overlays=("exp3",), asserted=("exp3",))
    broken = dataclasses.replace(doomed, env={"kind": "oblivious", "k": "2", "bogus": "1"})
    fine = workloads.WORKLOADS["finite-arm"]
    monkeypatch.setitem(workloads.WORKLOADS, "finite-arm", fine + (doomed, broken))
    result = run.run(banditlab, "finite-arm", SEED, seconds=0.0, trace=0)
    printed = capsys.readouterr().out
    passes = result["attempted"] // 4
    assert not result["correct"]
    assert result["failed"] == 2 * passes
    assert "mean + 2 SEM exceeds exp3" in printed and "ConfigError" in printed
    assert f"failed_ratio {0.5:.6g} " in printed


def test_times_are_scaled_to_reference_speed(banditlab, tiny_workloads, monkeypatch,
                                             tmp_path):
    # a machine twice as slow as the reference halves every measured time
    monkeypatch.setattr(run, "reference_loop", lambda: 2 * run.REF_LOOP_S)
    experiments = workloads.WORKLOADS["finite-arm"]
    ledger = run.Ledger(experiments)
    values, measured = run.timed_run(banditlab.harness, "finite-arm", experiments, SEED,
                                     0.0, tmp_path, ledger, run.Yardstick())
    assert set(measured) == {"us_per_replica_round", "experiment_s", "setup_s"}
    for name, value in measured.items():
        assert values[name] == pytest.approx(value / 2)


def test_changed_digest_is_a_failure():
    ledger = run.Ledger(tiny(workloads.WORKLOADS["finite-arm"]))
    ledger.add([run.Outcome("ucb-stochastic", digest="a"), run.Outcome("exp3-oblivious")])
    ledger.add([run.Outcome("ucb-stochastic", digest="b"), run.Outcome("exp3-oblivious")])
    assert [o.error for o in ledger.failures] == [
        "content digest differs from an earlier repeat"]


def _attributes(package) -> dict:
    """Every attribute of every banditlab module and class, by identity."""
    seen = {}
    for module in package_modules():
        for name, value in vars(module).items():
            seen[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__.startswith("banditlab"):
                for attr, member in vars(value).items():
                    seen[(module.__name__, name, attr)] = member
    return seen


def test_traced_run_restores_every_attribute(banditlab, tiny_workloads, capsys):
    before = _attributes(banditlab)
    for workload in workloads.WORKLOADS:
        run.run(banditlab, workload, SEED, seconds=0.0, trace=1)
    after = _attributes(banditlab)
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())


def test_wrappers_reach_the_callers(banditlab, tiny_workloads):
    tracer = Tracer()
    experiments = workloads.WORKLOADS["structured"] + workloads.WORKLOADS["long-horizon"] \
        + workloads.WORKLOADS["finite-arm"]
    with tracer.installed(banditlab):
        for exp in experiments:
            tracer.experiment = exp.name
            config = banditlab.harness.parse_config(exp.ini(SEED, "unused"))
            banditlab.harness.run_experiment(config)
    spans = {name for _, name in tracer.stats}
    assert {name for _, _, name in TARGETS} - {"harness.emit"} <= spans


def test_counts_repeat_across_traced_runs(banditlab, tiny_workloads, capsys):
    runs = [run.run(banditlab, "structured", SEED, seconds=0.0, trace=1) for _ in range(2)]
    values = [{name: m["value"] for name, m in r["metrics"].items()} for r in runs]
    for name in metrics.COUNTS:
        assert values[0][name] == values[1][name]
    assert values[0]["geometry.project_capped_simplex_potential.calls"] > 0
    assert values[0]["geometry.project_capped_simplex_potential.dual_evals_per_call"] > 1


def test_benchmark_json_matches_the_declared_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == metrics.PER_LAYER


def test_fails_without_the_program():
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=run.ROOT) as tmp:
        shutil.copytree(run.BENCH_DIR, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "finite-arm", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
