import json
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import banditlab
from banditlab import cli, harness
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
    curves = [run_replica(cfg, env, cfg["seed"], i) for i in range(5)]
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


def test_package_version_matches_pyproject():
    # a regex, as tomllib needs Python 3.11 and the project allows 3.10
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', text, re.M)[1] == banditlab.__version__


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


def test_parse_config_names_a_missing_file(tmp_path):
    path = tmp_path / "nosuch.ini"
    with pytest.raises(ConfigError, match=re.escape(f"config {str(path)!r}: No such file")):
        parse_config(path)


def test_parse_config_names_a_directory(tmp_path):
    with pytest.raises(ConfigError, match=re.escape(f"config {str(tmp_path)!r}: Is a directory")):
        parse_config(tmp_path)


def test_parse_config_names_a_file_that_is_not_text(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_bytes(b"\xff\xfe[experiment]\n")
    with pytest.raises(ConfigError, match=re.escape(f"config {str(path)!r}: ") + ".*codec can't decode"):
        parse_config(path)


def test_parse_config_quotes_a_duplicate_section(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(BASE_INI.format(out=tmp_path) + "\n[policy]\nalpha = 3\n")
    with pytest.raises(ConfigError, match=re.escape(
            f"While reading from {str(path)!r} [line 22]: section 'policy' already exists")):
        parse_config(path)


def test_parse_config_quotes_a_duplicate_option():
    text = BASE_INI.format(out=".").replace("horizon = 500", "horizon = 500\nhorizon = 50")
    with pytest.raises(ConfigError, match="option 'horizon' in section 'experiment' "
                                          "already exists"):
        parse_config(text)


def test_parse_config_quotes_a_bad_interpolation():
    text = BASE_INI.format(out=".").replace("alpha = 2.5", "alpha = 2.5%")
    with pytest.raises(ConfigError, match="'%' must be followed by"):
        parse_config(text)


@pytest.mark.parametrize("case", ["missing", "directory", "duplicate"])
def test_cli_exits_2_on_a_config_it_cannot_read(tmp_path, capsys, case):
    path = {"missing": tmp_path / "nosuch.ini", "directory": tmp_path,
            "duplicate": tmp_path / "exp.ini"}[case]
    (tmp_path / "exp.ini").write_text(BASE_INI.format(out=tmp_path) * 2)
    assert cli.main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("banditlab: ") and "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))  # no replica ran, no report was written


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


def test_mismatched_overlay_fails_before_any_replica(no_replicas):
    cfg = _config(policy="exp3", policy_params={}, env_kind="oblivious",
                  env_params={"k": "2"}, overlays=["ucb"])
    with pytest.raises(ConfigError, match="'ucb'"):
        run_experiment(cfg)


_SEMIBANDIT = {"d": "4", "m": "2"}


@pytest.mark.parametrize("policy, params, kind, env_params, overlays, key, horizon", [
    pytest.param("ucb", {"alpha": "abc"}, "stochastic", {"means": "0.9"}, [], "policy.alpha",
                 500, id="alpha-abc"),
    pytest.param("osmd-msets", {"eta": "abc"}, "semibandit", _SEMIBANDIT, [], "policy.eta",
                 500, id="osmd-eta-abc"),
    pytest.param("osmd-msets", {"variant": "nosuch"}, "semibandit", _SEMIBANDIT, [],
                 "policy.variant", 500, id="variant-nosuch"),
    pytest.param("osmd-msets", {}, "semibandit", {"d": "abc", "m": "2"}, [],
                 "environment.d", 500, id="semibandit-d-abc"),
    pytest.param("ucb", {}, "stochastic", {}, [], "environment.means", 500, id="no-means"),
    pytest.param("exp3", {"anytime": "yes"}, "oblivious", {"k": "3"}, [], "policy.anytime",
                 500, id="anytime-yes"),
    # an overlay reads the run's own value of a policy key, or refuses
    pytest.param("exp4", {}, "contextual", {"k": "3"}, ["exp4-mixing"], "policy.gamma",
                 500, id="exp4-mixing-without-gamma"),
    pytest.param("sexp3", {}, "contextual", {"k": "3"}, ["exp4-mixing"], "policy.gamma",
                 500, id="exp4-mixing-on-sexp3"),
    pytest.param("exp3p", {"delta_free": "true"}, "oblivious", {"k": "3"}, ["exp3p"],
                 "policy.delta_free", 500, id="exp3p-delta-free"),
    pytest.param("ucb", {"alpha": "1.5"}, "stochastic", {"means": "0.9"}, ["ucb"],
                 "policy.alpha", 500, id="ucb-alpha-uncovered"),
    # values a key's type admits but the policy or environment cannot use
    pytest.param("ucb", {"alpha": "1.5"}, "stochastic", {"means": "0.9"}, [],
                 "policy.alpha", 500, id="ucb-alpha-1.5"),
    pytest.param("osmd-msets", {}, "semibandit", {"d": "4", "m": "5"}, [],
                 "environment.m", 500, id="semibandit-m-above-d"),
    pytest.param("osmd-msets", {}, "semibandit", {"d": "4", "m": "0"}, [],
                 "environment.m", 500, id="semibandit-m-0"),
    pytest.param("theta-exp4", {}, "contextual", {"k": "3"}, [], "environment.n_sets",
                 500, id="theta-exp4-without-sets"),
    pytest.param("exp3p", {"delta": "1.5"}, "oblivious", {"k": "3"}, [], "policy.delta",
                 500, id="exp3p-delta-1.5"),
    pytest.param("exp3p", {"delta": "0"}, "oblivious", {"k": "3"}, [], "policy.delta",
                 500, id="exp3p-delta-0"),
    pytest.param("eps-greedy", {"d_gap": "1.5"}, "stochastic", {"means": "0.9"}, [],
                 "policy.d_gap", 500, id="eps-greedy-d_gap-1.5"),
    pytest.param("exp3", {"eta": "-1"}, "oblivious", {"k": "3"}, [], "policy.eta",
                 500, id="exp3-eta-negative"),
    pytest.param("osmd-msets", {"variant": "potential", "q": "0.5"}, "semibandit",
                 _SEMIBANDIT, [], "policy.q", 500, id="osmd-potential-q-0.5"),
    pytest.param("banditron", {"gamma": "0.9"}, "multiclass", {"k": "3", "d": "4"}, [],
                 "policy.gamma", 500, id="banditron-gamma-0.9"),
    pytest.param("ucb", {}, "lower-bound", {"k": "2", "eps": "1.5", "best": "0"}, [],
                 "environment.eps", 500, id="lower-bound-eps-1.5"),
    pytest.param("ucb", {}, "lower-bound", {"k": "2", "eps": "0.2", "best": "5"}, [],
                 "environment.best", 500, id="lower-bound-best-5"),
    pytest.param("ucb", {}, "lower-bound", {"k": "2", "eps": "0.2", "best": "-1"}, [],
                 "environment.best", 500, id="lower-bound-best-negative"),
    # an osmd-msets overlay covers only its own variant
    pytest.param("osmd-msets", {"variant": "potential"}, "semibandit", _SEMIBANDIT,
                 ["osmd-negent"], "policy.variant", 500, id="negent-overlay-on-potential"),
    pytest.param("osmd-msets", {"variant": "negent"}, "semibandit", _SEMIBANDIT,
                 ["osmd-potential"], "policy.variant", 500, id="potential-overlay-on-negent"),
    # a number outside its key's declared range, whatever the policy
    pytest.param("exp4", {"gamma": "1.5"}, "contextual", {"k": "3"}, [], "policy.gamma", 50,
                 id="exp4-gamma-1.5"),
    pytest.param("exp4", {"gamma": "-0.5"}, "contextual", {"k": "3"}, [], "policy.gamma", 50,
                 id="exp4-gamma-negative"),
    pytest.param("exp4", {"eta": "nan"}, "contextual", {"k": "3"}, [], "policy.eta", 20,
                 id="exp4-eta-nan"),
    pytest.param("exp2-john", {"gamma": "1.5"}, "linear-points", {"d": "3", "n_points": "6"},
                 [], "policy.gamma", 50, id="exp2-gamma-1.5"),
    pytest.param("exp2-john", {"gamma": "-0.5"}, "linear-points", {"d": "3", "n_points": "6"},
                 [], "policy.gamma", 20, id="exp2-gamma-negative"),
    pytest.param("osmd-ball", {"gamma": "1.5"}, "linear-ball", {"d": "3"}, [], "policy.gamma",
                 50, id="osmd-ball-gamma-1.5"),
    pytest.param("osmd-ball", {"eta": "inf"}, "linear-ball", {"d": "3"}, [], "policy.eta", 20,
                 id="osmd-ball-eta-inf"),
    pytest.param("osmd-msets", {"eta": "-1"}, "semibandit", _SEMIBANDIT, [], "policy.eta", 20,
                 id="osmd-msets-eta-negative"),
    pytest.param("osgd-2pt", {"delta": "-0.1"}, "convex", {"d": "3"}, [], "policy.delta", 20,
                 id="osgd-delta-negative"),
    pytest.param("sgs", {"c_l": "-1"}, "unimodal", {}, [], "policy.c_l", 20, id="sgs-c_l-negative"),
    # stage 1 of the search asks for 2 / eps^2 plays; eps^2 underflows or overflows here
    pytest.param("sgs", {"c_l": "1e-200"}, "unimodal", {}, [], "policy.c_l", 20,
                 id="sgs-c_l-1e-200"),
    pytest.param("sgs", {"c_l": "1e-160"}, "unimodal", {}, [], "policy.c_l", 20,
                 id="sgs-c_l-1e-160"),
    pytest.param("sgs", {"c_l": "1e155"}, "unimodal", {}, [], "policy.c_l", 20,
                 id="sgs-c_l-1e155"),
    pytest.param("sgs", {}, "unimodal", {"xstar": "nan"}, [], "environment.xstar", 20,
                 id="sgs-xstar-nan"),
    pytest.param("sgs", {}, "unimodal", {"floor": "2"}, [], "environment.floor", 20,
                 id="sgs-floor-2"),
    pytest.param("ucb", {}, "stochastic", {"means": "0.9,1.5"}, [], "environment.means", 20,
                 id="means-1.5"),
    pytest.param("ucb", {}, "stochastic", {"means": "nan,0.5"}, [], "environment.means", 20,
                 id="means-nan"),
    pytest.param("osgd-1pt", {}, "convex", {"d": "3", "radius": "-1"}, [], "environment.radius",
                 20, id="convex-radius-negative"),
    pytest.param("exp3", {}, "oblivious", {"k": "0"}, [], "environment.k", 20, id="oblivious-k-0"),
    pytest.param("exp3", {}, "nonoblivious", {"k": "0"}, [], "environment.k", 20,
                 id="nonoblivious-k-0"),
    # one arm: exp3's and exp3p's rates take ln K = 0
    pytest.param("exp3", {}, "oblivious", {"k": "1"}, [], "environment.k", 20,
                 id="exp3-one-arm"),
    pytest.param("exp3", {}, "nonoblivious", {"k": "1"}, [], "environment.k", 20,
                 id="exp3-nonoblivious-one-arm"),
    pytest.param("exp3p", {}, "stochastic", {"means": "0.5"}, [], "environment.means", 20,
                 id="exp3p-one-mean"),
    pytest.param("exp3", {}, "oblivious", {"losses": ";".join(["0.5"] * 20)}, [],
                 "environment.losses", 20, id="exp3-one-loss-column"),
    # rules that span keys
    pytest.param("exp2-john", {}, "linear-points", {"d": "3", "n_points": "2"}, [],
                 "environment.n_points", 20, id="exp2-fewer-points-than-d"),
    pytest.param("banditron", {}, "multiclass", {"k": "3", "d": "2"}, [], "environment.d", 50,
                 id="multiclass-d-below-k"),
    pytest.param("osmd-ball", {}, "linear-ball", {"d": "3", "loss": "0.5,0.5"}, [],
                 "environment.loss", 20, id="linear-ball-loss-length"),
    pytest.param("osmd-ball", {}, "linear-ball", {"d": "2", "loss": "0.8,0.8"}, [],
                 "environment.loss", 20, id="linear-ball-loss-norm"),
    pytest.param("osmd-ball", {}, "linear-ball", {"d": "2", "loss": "3,4"}, [],
                 "environment.loss", 20, id="linear-ball-loss-3-4"),
    pytest.param("osgd-2pt", {"delta": "1.0"}, "convex", {"d": "3"}, [], "policy.delta", 20,
                 id="osgd-delta-at-radius"),
    pytest.param("osgd-1pt", {"delta": "2"}, "convex", {"d": "3", "radius": "1.5"}, [],
                 "environment.radius", 20, id="osgd-delta-above-radius"),
    pytest.param("osmd-ball", {"eta": "0.2"}, "linear-ball", {"d": "5"}, [], "policy.eta", 100,
                 id="osmd-ball-eta-times-d"),
    # a default schedule outside its constructor's domain at a short horizon
    pytest.param("banditron", {}, "multiclass", {"k": "5", "d": "5"}, [], "experiment.horizon",
                 30, id="banditron-schedule-short"),
    pytest.param("banditron", {}, "multiclass", {"k": "5", "d": "5"}, [], "policy.gamma",
                 30, id="banditron-schedule-names-gamma"),
    pytest.param("osmd-ball", {}, "linear-ball", {"d": "8"}, [], "experiment.horizon", 30,
                 id="osmd-ball-schedule-short"),
    pytest.param("osmd-ball", {}, "linear-ball", {"d": "8"}, [], "policy.eta", 30,
                 id="osmd-ball-schedule-names-eta"),
    pytest.param("exp3p", {}, "oblivious", {"k": "3"}, [], "experiment.horizon", 3,
                 id="exp3p-schedule-short"),
    pytest.param("exp2-john", {}, "linear-points", {"d": "3", "n_points": "20"}, [],
                 "policy.gamma", 1, id="exp2-schedule-short"),
    pytest.param("osgd-1pt", {}, "convex", {"d": "10"}, [], "experiment.horizon", 1,
                 id="osgd-schedule-short"),
])
def test_bad_values_fail_before_any_replica(no_replicas, policy, params, kind, env_params,
                                            overlays, key, horizon):
    cfg = _config(policy=policy, policy_params=params, env_kind=kind,
                  env_params=env_params, overlays=overlays, horizon=horizon)
    with pytest.raises(ConfigError, match=re.escape(key)):
        run_experiment(cfg)


@pytest.mark.parametrize("policy, params, kind, env_params", [
    ("exp3p", {"delta": "1.5", "delta_free": "true"}, "oblivious", {"k": "3"}),
    ("osmd-msets", {"variant": "negent", "q": "0.5"}, "semibandit", _SEMIBANDIT),
    ("exp3", {}, "oblivious", {"k": "3"}),
    ("banditron", {}, "multiclass", {"k": "3", "d": "4"}),
    ("ucb", {}, "lower-bound", {"k": "2", "eps": "0", "best": "1"}),
    ("exp4", {"gamma": "0"}, "contextual", {"k": "3"}),
    ("exp4", {"gamma": "1"}, "contextual", {"k": "3"}),
    ("ucb", {}, "stochastic", {"means": "0,1"}),
    ("theta-exp4", {"gamma": "1"}, "contextual", {"k": "3", "n_sets": "2"}),
    ("exp2-john", {"gamma": "1"}, "linear-points", {"d": "3", "n_points": "3"}),
    ("osmd-ball", {"eta": "0.1"}, "linear-ball", {"d": "5", "loss": "0.6,0,0,0,-0.8"}),
    ("osmd-msets", {"eta": "0"}, "semibandit", {"d": "4", "m": "4"}),
    ("sgs", {}, "unimodal", {"xstar": "1", "floor": "0"}),
    ("exp3p", {"delta": "-3", "delta_free": "true"}, "oblivious", {"k": "3"}),
])
def test_range_checks_admit_unset_and_boundary_values(policy, params, kind, env_params):
    harness.check_config(_config(policy=policy, policy_params=params, env_kind=kind,
                                 env_params=env_params, overlays=[]))


# a csv's text (None: no file), the policy, its [policy] keys, the kind, its
# other [environment] keys, and the key the ConfigError names
_CONTEXTUAL = ("sexp3", {}, "contextual", {"k": "2"})
_MULTICLASS = ("banditron", {"gamma": "0.2"}, "multiclass", {"k": "2", "d": "2"})
_BAD_CSVS = {
    "contextual-empty": ("", *_CONTEXTUAL, "environment.csv"),
    "contextual-text": ("a,0.1,x\n" * 3, *_CONTEXTUAL, "environment.csv"),
    "contextual-above-1": ("a,0.1,3.0\n" * 3, *_CONTEXTUAL, "environment.csv"),
    "contextual-missing": (None, *_CONTEXTUAL, "environment.csv"),
    "oblivious-above-1": ("0.1,1.7\n" * 3, "exp3", {}, "oblivious", {}, "environment.csv"),
    "oblivious-missing": (None, "exp3", {}, "oblivious", {}, "environment.csv"),
    "multiclass-missing": (None, *_MULTICLASS, "environment.csv"),
    "multiclass-label-7": ("1,0,7\n0,1,1\n1,0,0\n", *_MULTICLASS, "environment.csv"),
    "multiclass-label--1": ("1,0,1\n0,1,-1\n1,0,0\n", *_MULTICLASS, "environment.csv"),
    "multiclass-label-0.5": ("1,0,1\n0,1,0\n1,0,0.5\n", *_MULTICLASS, "environment.csv"),
    "multiclass-d": ("1,0,1\n0,1,0\n1,0,0\n", *_MULTICLASS[:3], {"k": "2", "d": "9"},
                     "environment.d"),
}


@pytest.mark.parametrize("name", sorted(_BAD_CSVS))
def test_bad_csv_fails_before_any_replica(no_replicas, tmp_path, name):
    text, policy, params, kind, env_params, key = _BAD_CSVS[name]
    path = tmp_path / "rows.csv"
    if text is not None:
        path.write_text(text)
    cfg = _config(policy=policy, policy_params=params, env_kind=kind,
                  env_params={**env_params, "csv": str(path)}, overlays=[], horizon=3)
    with pytest.raises(ConfigError, match=re.escape(key)):
        run_experiment(cfg)


def test_banditron_overlay_needs_the_competitor_norm(no_replicas, tmp_path):
    # a csv stream has no known separating competitor, so no U_norm to cap with
    path = tmp_path / "rows.csv"
    path.write_text("1,0,1\n0,1,0\n1,0,0\n")
    cfg = _config(policy="banditron", policy_params={"gamma": "0.2"}, env_kind="multiclass",
                  env_params={"k": "2", "d": "2", "csv": str(path)}, overlays=["banditron"],
                  horizon=3)
    with pytest.raises(ConfigError, match="'banditron'.*U_norm"):
        run_experiment(cfg)


def test_one_column_csv_fails_before_any_replica(no_replicas, tmp_path):
    path = tmp_path / "losses.csv"
    path.write_text("0.5\n" * 20)
    cfg = _config(policy="exp3", policy_params={}, env_kind="oblivious",
                  env_params={"csv": str(path)}, overlays=[], horizon=20)
    with pytest.raises(ConfigError, match="environment.csv"):
        run_experiment(cfg)


@pytest.mark.parametrize("family", ["absvalue", "linear"])
def test_osgd_one_point_runs_on_a_wide_ball(family):
    # |c . x| reaches radius |c| on the ball; the gradient cap must allow it
    cfg = _config(policy="osgd-1pt", policy_params={}, env_kind="convex",
                  env_params={"family": family, "d": "3", "radius": "4"}, overlays=["osgd-1pt"],
                  horizon=30, replicas=10)
    report = run_experiment(cfg)
    assert np.isfinite(report.mean_curve).all() and report.overlays["osgd-1pt"] > 0


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


# a config of each environment kind that every policy on it runs at the fuzz
# horizon; the walk below changes one key at a time
_FUZZ_ENV = {
    "stochastic": {"means": "0.9,0.6"}, "lower-bound": {"k": "2", "eps": "0.2", "best": "0"},
    "oblivious": {"k": "3"}, "nonoblivious": {"k": "3"}, "contextual": {"k": "3", "n_sets": "2"},
    "semibandit": {"d": "4", "m": "2"}, "linear-points": {"d": "3", "n_points": "6"},
    "linear-ball": {"d": "3"}, "convex": {"d": "3"}, "unimodal": {},
    "multiclass": {"k": "3", "d": "4"},
}
_FUZZ_HORIZON = 30
_FUZZ_PAIRS = [(policy, kind) for policy, entry in harness._POLICIES.items()
               for kind in entry.kinds]


def _fuzz_keys(policy, kind):
    """(section name, config entry, key, Key, integral) of every key the pair
    reads that holds a number, or a list or matrix of numbers; a numeric key
    must declare its range."""
    tables = [("experiment", None, harness._EXPERIMENT_KEYS),
              ("policy", "policy_params", harness._POLICIES[policy].keys),
              ("environment", "env_params", harness._ENV_KINDS[kind].keys)]
    for section, entry, keys in tables:
        for key, spec in keys.items():
            try:
                sample = np.asarray(spec.parse("1"))
            except ValueError:
                continue  # a flag or one of a fixed set of names
            if sample.dtype.kind not in "if":
                continue  # text
            assert spec.within is not None, f"{section}.{key} declares no range"
            yield section, entry, key, spec, sample.dtype.kind == "i"


def _interval(within):
    lo, hi = map(float, within[1:-1].split(","))
    return lo, hi, within[0] == "[", within[-1] == "]"


def _fuzz_config(policy, kind, entry, key, value):
    cfg = _config(policy=policy, policy_params={}, env_kind=kind,
                  env_params=dict(_FUZZ_ENV[kind]), overlays=[], horizon=_FUZZ_HORIZON,
                  replicas=2)
    (cfg if entry is None else cfg[entry])[key] = value
    return cfg


def _shaped(spec, kind, key, entries):
    """The key's value from `entries`, repeated as needed: a number, a list as
    long as the base config's (or environment.d), or a matrix with the fuzz
    horizon's rows and 3 columns."""
    rank = np.ndim(spec.parse("1"))
    if rank == 0:
        return entries[0]
    if rank == 2:
        return np.resize(np.asarray(entries, dtype=float), (_FUZZ_HORIZON, 3))
    base = _FUZZ_ENV[kind].get(key)
    length = len(base.split(",")) if base else int(_FUZZ_ENV[kind].get("d", 2))
    return [entries[i % len(entries)] for i in range(length)]


def _as_text(value):
    if isinstance(value, np.ndarray):
        return ";".join(",".join(str(float(v)) for v in row) for row in value)
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    return str(value)


@pytest.mark.parametrize("policy, kind", _FUZZ_PAIRS)
def test_values_outside_a_keys_range_fail_before_any_replica(no_replicas, policy, kind):
    """Just outside each end of every key's range, and nan and +-inf: a
    ConfigError that names the key, as text and as a typed value alike. In a
    list or matrix, every other entry lies inside the range."""
    for section, entry, key, spec, integral in _fuzz_keys(policy, kind):
        lo, hi, lo_closed, hi_closed = _interval(spec.within)
        inside = (lo + hi) / 2 if math.isfinite(lo + hi) else lo + 1 if math.isfinite(lo) else 0

        def past(end, way):  # the next value beyond a closed end
            return end + way if integral else np.nextafter(end, way * np.inf)

        outside = [math.nan, math.inf, -math.inf]
        if math.isfinite(lo):
            outside.append(past(lo, -1) if lo_closed else lo)
        if math.isfinite(hi):
            outside.append(past(hi, 1) if hi_closed else hi)
        for bad in outside:
            bad = int(bad) if integral and math.isfinite(bad) else float(bad)
            typed = _shaped(spec, kind, key, [bad, int(inside) if integral else inside])
            for value in (typed, _as_text(typed)):
                cfg = _fuzz_config(policy, kind, entry, key, value)
                with pytest.raises(ConfigError, match=re.escape(f"{section}.{key}")):
                    run_experiment(cfg)


def _draws(rng, within, integral, default, size):
    """Values of `size` numbers inside the range: its closed finite ends, then
    three random draws, uniform between finite ends. From one finite end (or
    the default) a draw is log-uniform over four decades, and the bounds of
    that span come first."""
    lo, hi, lo_closed, hi_closed = _interval(within)
    default = default if isinstance(default, (int, float)) else 0
    ends = [end for end, closed in ((lo, lo_closed), (hi, hi_closed))
            if closed and math.isfinite(end)]
    if integral:  # every integer range here is [lo, inf) or (-inf, inf)
        draws = (lo if math.isfinite(lo) else default - 3) + rng.integers(0, 8, size=(3, size))
    elif math.isfinite(lo) and math.isfinite(hi):
        draws = rng.uniform(lo, hi, size=(3, size))
    else:
        start = lo if math.isfinite(lo) else default
        sign = 1 if math.isfinite(lo) else rng.choice([-1, 1])
        scale = sign * max(1.0, abs(start))
        ends += [start + scale * 1e-3, start + scale * 10]
        draws = start + scale * 10 ** rng.uniform(-3, 1, size=(3, size))
    values = [[end] for end in ends] + [list(draw) for draw in draws]
    return [[int(v) for v in value] for value in values] if integral else values


@pytest.mark.parametrize("policy, kind", _FUZZ_PAIRS)
def test_values_inside_a_keys_range_run(monkeypatch, policy, kind):
    """Random values inside every key's range, and its closed finite ends, one
    key at a time: the run finishes with finite curves, or a rule that spans
    keys refuses the value with a ConfigError before any replica runs."""
    rng = np.random.default_rng([7, _FUZZ_PAIRS.index((policy, kind))])
    ran = []
    run_replica_ = harness.run_replica
    monkeypatch.setattr(harness, "run_replica", lambda *a: ran.append(1) or run_replica_(*a))
    for section, entry, key, spec, integral in _fuzz_keys(policy, kind):
        size = 1 if np.ndim(spec.parse("1")) == 0 else 4
        for entries in _draws(rng, spec.within, integral, spec.default, size):
            value = _shaped(spec, kind, key, entries)
            cfg = _fuzz_config(policy, kind, entry, key, _as_text(value))
            ran.clear()
            try:
                report = run_experiment(cfg)
            except ConfigError as why:
                # not the key's own parse or range, but a rule that spans keys
                name, why = f"{section}.{key}", str(why)
                assert not ran and name in why, (value, why)
                assert not why.startswith((f"{name} = '", f"{name} must lie in {spec.within},"))
                continue
            assert np.isfinite(report.mean_curve).all(), (section, key, value)
