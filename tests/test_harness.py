import json
import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from banditlab import cli, harness
from banditlab.env import derive_stream
from banditlab.harness import (
    ConfigError,
    RegretReport,
    bound,
    build_environment,
    emit,
    parse_config,
    render_csv,
    run_experiment,
    run_replica,
    sweep,
)

BASE_INI = """
[experiment]
policy = ucb
horizon = 500
replicas = 4
seed = 11

[policy]
alpha = 2.5

[environment]
kind = stochastic
means = 0.9, 0.6

[overlays]
names = ucb

[output]
dir = {out}
format = csv
"""


def _config(**overrides):
    cfg = {
        "policy": "ucb", "horizon": 500, "replicas": 4, "seed": 11,
        "policy_params": {"alpha": "2.5"}, "env_kind": "stochastic",
        "env_params": {"means": "0.9,0.6"}, "overlays": ["ucb"],
        "output": {"dir": ".", "format": "csv", "basename": "report"},
    }
    cfg.update(overrides)
    return cfg


def test_parse_config_roundtrip(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(BASE_INI.format(out=tmp_path))
    cfg = parse_config(path)
    assert cfg["policy"] == "ucb"
    assert cfg["horizon"] == 500
    assert cfg["overlays"] == ["ucb"]


def test_parse_config_rejects_unknown_keys():
    bad = BASE_INI.format(out=".").replace("alpha = 2.5", "alpha = 2.5\nbogus = 1")
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(bad)
    with pytest.raises(ConfigError, match="section"):
        parse_config(BASE_INI.format(out=".") + "\n[mystery]\nx = 1\n")
    with pytest.raises(ConfigError, match="policy"):
        parse_config(BASE_INI.format(out=".").replace("policy = ucb", "policy = nosuch"))
    with pytest.raises(ConfigError, match="overlay"):
        parse_config(BASE_INI.format(out=".").replace("names = ucb", "names = nosuch"))


def test_empty_horizon_report():
    report = run_experiment(_config(horizon=0, replicas=1, overlays=[]))
    assert report.mean_terminal == 0.0
    assert report.mean_curve.size == 0
    csv_text = render_csv(report)
    assert csv_text.splitlines() == ["# banditlab-report-v1", "round,mean_regret,sem"]


def test_same_config_gives_byte_identical_csv():
    a = render_csv(run_experiment(_config()))
    b = render_csv(run_experiment(_config()))
    assert a == b


def test_aggregation_is_exact_mean():
    cfg = _config(replicas=5, overlays=[])
    env = build_environment(cfg["env_kind"], cfg["env_params"], cfg["horizon"], cfg["seed"])
    curves = [run_replica(cfg, env, derive_stream(cfg["seed"], i)) for i in range(5)]
    report = run_experiment(cfg)
    assert np.allclose(report.mean_curve, np.mean(curves, axis=0), atol=1e-12)
    sem = np.std(curves, axis=0, ddof=1) / math.sqrt(5)
    assert np.allclose(report.sem_curve, sem, atol=1e-12)


def test_stochastic_curve_monotone():
    report = run_experiment(_config(overlays=[]))
    assert (np.diff(report.mean_curve) >= -1e-12).all()


def test_report_json_roundtrip():
    report = run_experiment(_config())
    restored = RegretReport.from_dict(json.loads(json.dumps(report.to_dict())))
    assert restored.to_dict() == report.to_dict()


def test_emit_formats(tmp_path):
    report = run_experiment(_config())
    csv_path = emit(report, "csv", tmp_path / "r.csv")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "# banditlab-report-v1"
    assert lines[1] == "round,mean_regret,sem,overlay_ucb"
    assert len(lines) == 2 + report.horizon

    no_overlay = run_experiment(_config(overlays=[]))
    text = render_csv(no_overlay)
    assert "overlay" not in text

    json_path = emit(report, "json", tmp_path / "r.json")
    data = json.loads(json_path.read_text())
    assert data["schema"] == "banditlab-report-v1"

    svg_path = emit(report, "svg", tmp_path / "r.svg")
    root = ET.fromstring(svg_path.read_text())
    assert root.tag.endswith("svg")
    with pytest.raises(ConfigError):
        emit(report, "pdf", tmp_path / "r.pdf")


def test_sweep_grid():
    cfg = _config(overlays=[])
    reports = sweep(cfg, "experiment.horizon", [100, 200, 400])
    assert [r.horizon for r in reports] == [100, 200, 400]
    assert all(r.seed == cfg["seed"] for r in reports)
    with pytest.raises(ConfigError):
        sweep(cfg, "experiment.horizon", [])


def test_sweep_copies_typed_values():
    # an inline loss matrix given as an array, as run_experiment accepts it
    cfg = _config(policy="exp3", policy_params={}, env_kind="oblivious",
                  env_params={"losses": np.full((20, 2), 0.5)}, overlays=[])
    reports = sweep(cfg, "experiment.horizon", [10, 20])
    assert [r.horizon for r in reports] == [10, 20]
    assert cfg["horizon"] == 500 and isinstance(cfg["env_params"]["losses"], np.ndarray)


def test_bound_dispatch():
    assert bound("exp3", n=100, K=2) == pytest.approx(16.651, abs=1e-3)
    assert bound("minimax-lower", n=400, K=2) == pytest.approx(1.4142, abs=1e-4)
    assert bound("ucb", alpha=2.5, gaps=[0.3], n=10**4) == pytest.approx(158.5, abs=0.1)
    assert bound("sgs", n=10**5, C_L=1.0, C_H=1.0) == pytest.approx(3435793.4, rel=1e-6)
    with pytest.raises(ConfigError):
        bound("nosuch", n=1)


def test_nonoblivious_adversary_through_harness():
    cfg = _config(policy="exp3", policy_params={}, env_kind="nonoblivious",
                  env_params={"k": "3", "adversary": "grudge"}, overlays=["exp3"],
                  horizon=300, replicas=3)
    report = run_experiment(cfg)
    # the grudge adversary punishes concentration; exp3 stays below its cap
    assert report.mean_terminal <= report.overlays["exp3"]
    with pytest.raises(ConfigError, match="adversary"):
        run_experiment(_config(policy="exp3", env_kind="nonoblivious",
                               env_params={"k": "3", "adversary": "nosuch"},
                               overlays=[], policy_params={}))


def test_infeasible_parameters_name_the_condition():
    cfg = _config(policy="osmd-ball", policy_params={"eta": "0.2"},
                  env_kind="linear-ball", env_params={"d": "5"}, overlays=[],
                  horizon=100, replicas=1)
    with pytest.raises(ValueError, match="eta"):
        run_experiment(cfg)


def test_context_csv_loader(tmp_path):
    path = tmp_path / "ctx.csv"
    path.write_text("a,0.1,0.9\nb,0.5,0.5\na,0.2,0.8\n")
    cfg = _config(policy="sexp3", policy_params={}, env_kind="contextual",
                  env_params={"k": "2", "csv": str(path)}, overlays=["sexp3"],
                  horizon=3, replicas=2)
    report = run_experiment(cfg)
    assert report.horizon == 3
    assert report.overlays["sexp3"] > 0


def test_multiclass_csv_loader(tmp_path):
    path = tmp_path / "mc.csv"
    rows = ["1,0,0", "0,1,1", "1,0,0", "0,1,1"]
    path.write_text("\n".join(rows) + "\n")
    cfg = _config(policy="banditron", policy_params={"gamma": "0.2"},
                  env_kind="multiclass",
                  env_params={"k": "2", "d": "2", "csv": str(path)},
                  overlays=[], horizon=4, replicas=1)
    report = run_experiment(cfg)
    assert report.mean_terminal <= 4.0


def test_cli_run_and_bound(tmp_path, capsys):
    path = tmp_path / "exp.ini"
    path.write_text(BASE_INI.format(out=tmp_path))
    rc = cli.main(["run", "--config", str(path), "--replicas", "2",
                   "--assert-bounds"])
    assert rc == 0
    assert (tmp_path / "report.csv").exists()
    rc = cli.main(["bound", "exp3", "n=100", "K=2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "16.65" in out


def test_cli_sweep(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(BASE_INI.format(out=tmp_path))
    rc = cli.main(["sweep", "--config", str(path), "--param", "experiment.horizon",
                   "--values", "50,100", "--replicas", "2"])
    assert rc == 0
    assert (tmp_path / "report_horizon_50.csv").exists()
    assert (tmp_path / "report_horizon_100.csv").exists()


def test_cli_selftest_and_oracle(capsys):
    assert cli.main(["selftest"]) == 0
    capsys.readouterr()
    assert cli.main(["oracle", "--horizon", "4", "--replicas", "800"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "exact expected loss 1.823660, exact pseudo-regret 0.251763",
        "monte carlo 1.807343 +/- 0.010024 (800 replicas), z = 1.63",
    ]


def test_cli_reports_a_config_error_as_a_message(tmp_path, capsys):
    path = tmp_path / "exp.ini"
    path.write_text(BASE_INI.format(out=tmp_path))
    assert cli.main(["run", "--config", str(path), "--replicas", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("banditlab: ") and "experiment.replicas" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value", [
    ("replicas", "0"), ("replicas", "2.5"), ("horizon", "-1"), ("horizon", "abc"),
    ("seed", "x"), ("workers", "0"),
])
def test_parse_config_rejects_bad_experiment_values(key, value):
    experiment = {"policy": "ucb", "horizon": "50", "replicas": "2", "seed": "1", key: value}
    text = "\n".join(["[experiment]", *(f"{k} = {v}" for k, v in experiment.items()),
                      "[environment]", "kind = stochastic", "means = 0.9, 0.6"])
    # workers, once the size of a thread pool, is an unknown key like any other
    error = f"unknown key experiment.{key}" if key == "workers" else f"experiment.{key}"
    with pytest.raises(ConfigError, match=error):
        parse_config(text)


def test_replicas_below_one_fail_in_run_experiment_too():
    with pytest.raises(ConfigError, match="experiment.replicas"):
        run_experiment(_config(replicas=0))


# a row of each kind's csv (or inline losses), its other keys, and the
# number of rounds its environment holds
_SHORT_SOURCES = {
    "oblivious": ("0.1,0.9", {}, lambda env: env["adv"].horizon),
    "contextual": ("a,0.1,0.9", {"k": "2"}, lambda env: len(env["contexts"])),
    "multiclass": ("1,0,0", {"k": "2", "d": "2"}, lambda env: len(env["ys"])),
}


@pytest.mark.parametrize("kind, source", [
    ("oblivious", "losses"), ("oblivious", "csv"), ("contextual", "csv"), ("multiclass", "csv"),
], ids=["losses", "csv", "contextual-csv", "multiclass-csv"])
def test_short_oblivious_matrix_fails_at_build_time(tmp_path, kind, source):
    row, params, rounds = _SHORT_SOURCES[kind]
    if source == "csv":
        path = tmp_path / "rows.csv"
        path.write_text("\n".join([row] * 5) + "\n")
        params = {**params, "csv": str(path)}
    else:
        params = {**params, "losses": ";".join([row] * 5)}
    with pytest.raises(ConfigError, match=f"environment.{source}"):
        build_environment(kind, params, 6, 0)
    assert rounds(build_environment(kind, params, 5, 0)) == 5


@pytest.fixture
def no_replicas(monkeypatch):
    def no_replica(*args):
        raise AssertionError("a replica ran")

    monkeypatch.setattr(harness, "run_replica", no_replica)


def test_mismatched_overlay_fails_before_any_replica(no_replicas):
    cfg = _config(policy="exp3", policy_params={}, env_kind="oblivious",
                  env_params={"k": "2"}, overlays=["ucb"])
    with pytest.raises(ConfigError, match="'ucb'"):
        run_experiment(cfg)


_SEMIBANDIT = {"d": "4", "m": "2"}


@pytest.mark.parametrize("policy, params, kind, env_params, overlays, key", [
    pytest.param("ucb", {"alpha": "abc"}, "stochastic", {"means": "0.9"}, [], "policy.alpha",
                 id="alpha-abc"),
    pytest.param("osmd-msets", {"eta": "abc"}, "semibandit", _SEMIBANDIT, [], "policy.eta",
                 id="osmd-eta-abc"),
    pytest.param("osmd-msets", {"variant": "nosuch"}, "semibandit", _SEMIBANDIT, [],
                 "policy.variant", id="variant-nosuch"),
    pytest.param("osmd-msets", {}, "semibandit", {"d": "abc", "m": "2"}, [],
                 "environment.d", id="semibandit-d-abc"),
    pytest.param("ucb", {}, "stochastic", {}, [], "environment.means", id="no-means"),
    pytest.param("exp3", {"anytime": "yes"}, "oblivious", {"k": "3"}, [], "policy.anytime",
                 id="anytime-yes"),
    # an overlay reads the run's own value of a policy key, or refuses
    pytest.param("exp4", {}, "contextual", {"k": "3"}, ["exp4-mixing"], "policy.gamma",
                 id="exp4-mixing-without-gamma"),
    pytest.param("sexp3", {}, "contextual", {"k": "3"}, ["exp4-mixing"], "policy.gamma",
                 id="exp4-mixing-on-sexp3"),
    pytest.param("exp3p", {"delta_free": "true"}, "oblivious", {"k": "3"}, ["exp3p"],
                 "policy.delta_free", id="exp3p-delta-free"),
    pytest.param("ucb", {"alpha": "1.5"}, "stochastic", {"means": "0.9"}, ["ucb"],
                 "policy.alpha", id="ucb-alpha-uncovered"),
    # values a key's type admits but the policy or environment cannot use
    pytest.param("ucb", {"alpha": "1.5"}, "stochastic", {"means": "0.9"}, [],
                 "policy.alpha", id="ucb-alpha-1.5"),
    pytest.param("osmd-msets", {}, "semibandit", {"d": "4", "m": "5"}, [],
                 "environment.m", id="semibandit-m-above-d"),
    pytest.param("osmd-msets", {}, "semibandit", {"d": "4", "m": "0"}, [],
                 "environment.m", id="semibandit-m-0"),
    pytest.param("theta-exp4", {}, "contextual", {"k": "3"}, [], "environment.n_sets",
                 id="theta-exp4-without-sets"),
    pytest.param("exp3p", {"delta": "1.5"}, "oblivious", {"k": "3"}, [], "policy.delta",
                 id="exp3p-delta-1.5"),
    pytest.param("exp3p", {"delta": "0"}, "oblivious", {"k": "3"}, [], "policy.delta",
                 id="exp3p-delta-0"),
    pytest.param("eps-greedy", {"d_gap": "1.5"}, "stochastic", {"means": "0.9"}, [],
                 "policy.d_gap", id="eps-greedy-d_gap-1.5"),
    pytest.param("exp3", {"eta": "-1"}, "oblivious", {"k": "3"}, [], "policy.eta",
                 id="exp3-eta-negative"),
    pytest.param("osmd-msets", {"variant": "potential", "q": "0.5"}, "semibandit",
                 _SEMIBANDIT, [], "policy.q", id="osmd-potential-q-0.5"),
    pytest.param("banditron", {"gamma": "0.9"}, "multiclass", {"k": "3", "d": "4"}, [],
                 "policy.gamma", id="banditron-gamma-0.9"),
    pytest.param("ucb", {}, "lower-bound", {"k": "2", "eps": "1.5", "best": "0"}, [],
                 "environment.eps", id="lower-bound-eps-1.5"),
    pytest.param("ucb", {}, "lower-bound", {"k": "2", "eps": "0.2", "best": "5"}, [],
                 "environment.best", id="lower-bound-best-5"),
    pytest.param("ucb", {}, "lower-bound", {"k": "2", "eps": "0.2", "best": "-1"}, [],
                 "environment.best", id="lower-bound-best-negative"),
    # an osmd-msets overlay covers only its own variant
    pytest.param("osmd-msets", {"variant": "potential"}, "semibandit", _SEMIBANDIT,
                 ["osmd-negent"], "policy.variant", id="negent-overlay-on-potential"),
    pytest.param("osmd-msets", {"variant": "negent"}, "semibandit", _SEMIBANDIT,
                 ["osmd-potential"], "policy.variant", id="potential-overlay-on-negent"),
])
def test_bad_values_fail_before_any_replica(no_replicas, policy, params, kind, env_params,
                                            overlays, key):
    cfg = _config(policy=policy, policy_params=params, env_kind=kind,
                  env_params=env_params, overlays=overlays)
    with pytest.raises(ConfigError, match=re.escape(key)):
        run_experiment(cfg)


@pytest.mark.parametrize("policy, params, kind, env_params", [
    ("exp3p", {"delta": "1.5", "delta_free": "true"}, "oblivious", {"k": "3"}),
    ("osmd-msets", {"variant": "negent", "q": "0.5"}, "semibandit", _SEMIBANDIT),
    ("exp3", {}, "oblivious", {"k": "3"}),
    ("banditron", {}, "multiclass", {"k": "3", "d": "4"}),
    ("ucb", {}, "lower-bound", {"k": "2", "eps": "0", "best": "1"}),
])
def test_range_checks_admit_unset_and_boundary_values(policy, params, kind, env_params):
    harness.check_config(_config(policy=policy, policy_params=params, env_kind=kind,
                                 env_params=env_params, overlays=[]))


def test_osmd_potential_overlay_reads_the_runs_q():
    cfg = _config(policy="osmd-msets", policy_params={"q": "3.0"}, env_kind="semibandit",
                  env_params={"d": "6", "m": "2"}, overlays=["osmd-potential"], horizon=50)
    env = build_environment("semibandit", cfg["env_params"], 50, cfg["seed"])
    at_q3 = bound("osmd-potential", n=50, d=6, m=2, q=3.0)
    assert harness.compute_overlay("osmd-potential", cfg, env) == at_q3
    assert at_q3 != bound("osmd-potential", n=50, d=6, m=2)


@pytest.mark.parametrize("param, values", [
    ("experiment.nosuch", [1]), ("experiment.horizon", [10, "abc"]),
    ("policy.nosuch", [1]), ("policy.alpha", [3.0, "abc"]), ("environment.means", ["x"]),
])
def test_sweep_checks_every_cell_before_the_first(no_replicas, param, values):
    with pytest.raises(ConfigError, match=re.escape(param)):
        sweep(_config(overlays=[]), param, values)


# every (policy, kind) pair the policy table does not declare
@pytest.mark.parametrize("policy, kind", [
    (policy, kind) for policy, entry in harness._POLICIES.items()
    for kind in harness._ENV_KINDS if kind not in entry.kinds
])
def test_parse_config_rejects_policy_env_pairs(policy, kind):
    text = (f"[experiment]\npolicy = {policy}\nhorizon = 10\n\n"
            f"[environment]\nkind = {kind}\n")
    with pytest.raises(ConfigError, match=f"'{policy}'.*'{kind}'"):
        parse_config(text)
    with pytest.raises(ConfigError, match=f"'{policy}'.*'{kind}'"):
        run_experiment(_config(policy=policy, policy_params={}, env_kind=kind,
                               env_params={}, overlays=[]))


@pytest.mark.parametrize("policy, params", [
    ("ucb", {}), ("eps-greedy", {"d_gap": "0.5"}), ("thompson", {}),
])
def test_gain_learners_read_oblivious_losses_as_losses(policy, params):
    # arm 0 loses 0.1 and arm 1 loses 0.9 every round; playing arm 1 throughout
    # would cost 0.8 n
    n = 2000
    cfg = _config(policy=policy, policy_params=params, env_kind="oblivious",
                  env_params={"losses": ";".join(["0.1,0.9"] * n)}, overlays=[],
                  horizon=n, replicas=2)
    assert run_experiment(cfg).mean_terminal < 0.1 * n * 0.8
