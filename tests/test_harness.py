import json
import math
import re
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

import banditlab
from banditlab import cli, convex, harness
from banditlab.env import derive_stream
from banditlab.harness import (
    ConfigError,
    RegretReport,
    bound,
    build_environment,
    emit,
    parse_config,
    render_csv,
    render_json,
    run_experiment,
    run_replica,
    sweep,
)
from test_engine import CASES, GOLDEN, _config as case_config

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
    with pytest.raises(ConfigError, match="experiment.env_kind"):  # an entry of its own
        parse_config(BASE_INI.format(out=".").replace("seed = 11", "seed = 11\nenv_kind = ucb"))


def test_horizon_0_is_refused_before_any_replica(no_replicas):
    # no theorem's cap and no schedule has a value at n = 0; a sweep checks
    # every cell before the first one plays
    refused = re.escape("experiment.horizon must lie in [1, inf)")
    with pytest.raises(ConfigError, match=refused):
        harness.check_config(_config(horizon=0, overlays=[]))
    ini = BASE_INI.format(out=".").replace("[overlays]\nnames = ucb\n", "")
    with pytest.raises(ConfigError, match=refused):
        parse_config(ini.replace("horizon = 500", "horizon = 0"))
    with pytest.raises(ConfigError, match=refused):
        sweep(_config(overlays=[]), "experiment.horizon", [10, 0])


def test_same_config_gives_byte_identical_csv():
    a = render_csv(run_experiment(_config()))
    b = render_csv(run_experiment(_config()))
    assert a == b


def test_aggregation_is_exact_mean():
    cfg = harness.check_config(_config(replicas=5, overlays=[]))
    env = build_environment(cfg["env_kind"], cfg["env_params"], cfg["horizon"], cfg["seed"])
    curves = [run_replica(cfg, env, cfg["seed"], [i])[0] for i in range(5)]
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


def nan_report() -> RegretReport:
    """A hand-built two-round report whose mean curve holds a nan."""
    return RegretReport(policy="ucb", env_kind="stochastic", horizon=2, replicas=2, seed=0,
                        mean_curve=np.array([0.5, np.nan]), sem_curve=np.zeros(2),
                        terminal_values=np.array([0.0, 1.0]), overlays={}, wall_clock_s=0.25)


def test_reports_compare_by_their_content_digest():
    # `==` is identity, and answers; content is the digest, under which a
    # nan read back from JSON matches the nan written, as no dict `==` does
    a, b = (run_experiment(case_config(*CASES["ucb-stochastic"])) for _ in range(2))
    assert a == a and a != b
    assert a.content_digest() == b.content_digest() == GOLDEN["ucb-stochastic"]
    report = nan_report()
    restored = RegretReport.from_dict(json.loads(render_json(report)))
    assert restored.content_digest() == report.content_digest()
    assert restored.content_dict() != report.content_dict()


@pytest.mark.parametrize("key, value, as_int", [
    ("horizon", True, None), ("seed", False, None), ("replicas", True, None),
    ("seed", np.int64(3), 3), ("replicas", np.int32(2), 2)])
def test_an_integer_key_holds_a_python_int(request, key, value, as_int):
    # a bool is refused before any replica runs, and a numpy integer runs to
    # the report of the Python int of its value
    config = _config(**{"horizon": 50, "replicas": 2, "overlays": [], key: value})
    if as_int is None:
        request.getfixturevalue("no_replicas")
        with pytest.raises(ConfigError, match=rf"experiment\.{key} = {value!r}: invalid "
                                              rf"literal for int\(\) with base 10: '{value!r}'"):
            run_experiment(config)
        return
    assert type(harness.check_config(config)[key]) is int
    report = run_experiment(config)
    assert json.loads(render_json(report))[key] == as_int
    assert report.content_digest() == run_experiment({**config, key: as_int}).content_digest()


_OMITTED = object()  # a probe's key left out of its config


def _probe(policy, kind, env_params, section, key, value):
    """A two-replica, 50-round config of `policy` on `kind` with
    `section.key` set to `value`, or left out if it is `_OMITTED`."""
    cfg = _config(policy=policy, policy_params={}, env_kind=kind, env_params=dict(env_params),
                  overlays=[], horizon=50, replicas=2)
    entry = {"experiment": cfg, "policy": cfg["policy_params"], "environment": cfg["env_params"],
             "output": cfg["output"]}[section]
    entry.pop(key, None)
    if value is not _OMITTED:
        entry[key] = value
    return cfg


@pytest.mark.parametrize("policy, kind, env_params, section, key, value", [
    ("osgd-2pt", "convex", {"d": "2"}, "environment", "family", 3),
    ("ucb", "stochastic", {}, "environment", "means", None),
    ("osgd-2pt", "convex", {}, "environment", "d", None),
    ("osmd-msets", "semibandit", {"d": "4", "m": "2"}, "policy", "variant", 3),
    ("exp3", "oblivious", {"k": "3"}, "policy", "anytime", 5),
    ("exp3", "nonoblivious", {"k": "3"}, "environment", "adversary", 7),
    ("ucb", "stochastic", {"means": "0.9,0.6"}, "output", "format", 5),
    ("exp3", "oblivious", {"k": "3"}, "policy", "eta", True),
    ("ucb", "stochastic", {}, "environment", "means", [True, 0.5]),
    ("theta-exp4", "contextual", {"k": "3"}, "environment", "set_sizes", [True, np.int64(2)]),
    # inside (0, inf), but the quadratic family's L = (R + 1)**2 overflows
    ("osgd-1pt", "convex", {"d": "2", "family": "quadratic"}, "environment", "radius", 1e200),
    # inside (0, 1), but epsilon divides by d_gap**2, which is 0
    ("eps-greedy", "stochastic", {"means": "0.9,0.6"}, "policy", "d_gap", 1e-300),
], ids=["family-3", "means-None", "d-None", "variant-3", "anytime-5", "adversary-7", "format-5",
        "eta-True", "means-True", "set_sizes-True", "radius-1e200", "d_gap-1e-300"])
def test_every_value_goes_through_its_keys_parser(no_replicas, policy, kind, env_params,
                                                  section, key, value):
    # text, typed or None: a value no replica can run is a ConfigError that
    # names the key, never another exception, and never a run
    with pytest.raises(ConfigError, match=re.escape(f"{section}.{key}")):
        run_experiment(_probe(policy, kind, env_params, section, key, value))


@pytest.mark.parametrize("policy, kind, env_params, section, key, value", [
    ("exp3", "oblivious", {}, "environment", "losses", np.full((50, 3, 1), 0.5)),
    ("exp3", "oblivious", {}, "environment", "losses", [[[0.5, 0.5]]] * 50),
    ("ucb", "stochastic", {"means": "0.9,0.6"}, "experiment", "horizon", 10**400),
], ids=["losses-3d-array", "losses-3d-list", "horizon-past-the-doubles"])
def test_a_value_of_no_parsed_shape_is_refused(no_replicas, policy, kind, env_params, section,
                                               key, value):
    # a matrix key takes at most two dimensions, and an integer a double can hold
    with pytest.raises(ConfigError, match=re.escape(f"{section}.{key} = ")):
        run_experiment(_probe(policy, kind, env_params, section, key, value))


@pytest.mark.parametrize("policy, kind, env_params, section, key, typed, text", [
    ("theta-exp4", "contextual", {"k": "3"}, "environment", "set_sizes", [np.int64(2), 3],
     "2, 3"),
    ("exp3", "oblivious", {"k": "3"}, "policy", "eta", np.float64(0.1), "0.1"),
    ("ucb", "stochastic", {"means": "0.9,0.6"}, "experiment", "horizon", None, _OMITTED),
    ("ucb", "stochastic", {"means": "0.9,0.6"}, "policy", "alpha", None, _OMITTED),
], ids=["set_sizes-int64", "eta-float64", "horizon-None", "alpha-None"])
def test_a_typed_value_runs_as_its_text(policy, kind, env_params, section, key, typed, text):
    # a typed value is parsed from the text it is written as, and None is
    # the key's absence
    checked = harness.check_config(_probe(policy, kind, env_params, section, key, typed))
    if key == "set_sizes":
        assert checked["env_params"][key] == [2, 3]
        assert all(type(size) is int for size in checked["env_params"][key])
    digests = [run_experiment(_probe(policy, kind, env_params, section, key, value))
               .content_digest() for value in (typed, text)]
    assert digests[0] == digests[1]


@dataclass
class _LabelledReport(RegretReport):
    label: str = ""


@dataclass
class _CountedReport(RegretReport):
    arm_counts: np.ndarray = field(default_factory=lambda: np.zeros(0))


@pytest.mark.parametrize("cls, name, value", [(_LabelledReport, "label", "run-7"),
                                              (_CountedReport, "arm_counts", [3, 0, 9])])
def test_a_report_field_is_declared_once(cls, name, value):
    # content_dict, to_dict and from_dict read the fields off the dataclass,
    # so a subclass's extra field goes through all three
    base = run_experiment(_config(horizon=20, replicas=2))
    report = cls(**{**vars(base), name: value if isinstance(value, str) else np.array(value)})
    assert report.content_dict() == {**base.content_dict(), name: value}
    assert report.to_dict() == {**base.to_dict(), name: value}
    assert "wall_clock_s" not in report.content_dict()
    restored = cls.from_dict(json.loads(render_json(report)))
    assert type(restored) is cls
    assert restored.to_dict() == report.to_dict()
    assert type(getattr(restored, name)) is type(getattr(report, name))


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


def test_synthetic_contexts_and_set_streams_are_int_arrays():
    # one 8-byte integer per round, not one numpy scalar object per round
    env = build_environment("contextual", {"k": "3", "n_sets": "2"}, 50, 7)
    assert sorted(env["theta_streams"]) == ["set0", "set1"]
    for rounds in (env["contexts"], *env["theta_streams"].values()):
        assert isinstance(rounds, np.ndarray) and rounds.dtype == np.int64
        assert rounds.shape == (50,)


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


def test_every_public_name_resolves():
    for name in banditlab.__all__:
        assert getattr(banditlab, name) is not None, name


def test_readme_library_use_runs_as_the_engine_does(capsys):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text[text.index("## Library use"):]
    start = section.index("```python\n") + len("```python\n")
    block = section[start:section.index("```\n", start)]
    exec(compile(block, "README.md", "exec"), {})
    printed = float(capsys.readouterr().out)
    report = run_experiment(_config(policy="ucb", policy_params={"alpha": "2.5"},
                                    env_params={"means": "0.9, 0.6"}, overlays=[],
                                    horizon=10_000, replicas=1, seed=123))
    assert printed == report.mean_terminal > 0.0


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


def test_cli_sweep(tmp_path, capsys):
    path = tmp_path / "exp.ini"
    path.write_text(BASE_INI.format(out=tmp_path))
    rc = cli.main(["sweep", "--config", str(path), "--param", "experiment.horizon",
                   "--values", "50, 100 ", "--replicas", "2"])
    assert rc == 0
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == ["report_horizon_100.csv",
                                                               "report_horizon_50.csv"]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[::2]] == ["experiment.horizon=50",
                                                           "experiment.horizon=100"]
    # each cell's line is followed by its report's content digest
    config = {**parse_config(path), "replicas": 2}
    assert lines[1::2] == [f"  content sha256 {report.content_digest()}"
                           for report in sweep(config, "experiment.horizon", ["50", "100"])]


@pytest.mark.parametrize("args, params, message", [
    (["exp3", "n=100"], {"n": 100}, "missing a required argument: 'K'"),
    (["exp3", "n=100", "K=5", "foo=1"], {"n": 100, "K": 5, "foo": 1},
     "got an unexpected keyword argument 'foo'"),
    (["ucb", "alpha=1.5", "gaps=0.1:0.2", "n=100"], {"alpha": 1.5, "gaps": [0.1, 0.2], "n": 100},
     "alpha must exceed 2"),
], ids=["missing", "unknown", "cap-refuses"])
def test_bound_faults_are_config_errors(capsys, args, params, message):
    with pytest.raises(ConfigError, match=re.escape(f"bound '{args[0]}': {message}")):
        bound(args[0], **params)
    assert cli.main(["bound", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"banditlab: bound '{args[0]}': ") and message in err


def test_cli_bound_reads_one_gap_as_a_list_and_refuses_text(capsys):
    assert cli.main(["bound", "ucb", "alpha=3", "gaps=0.5", "n=100"]) == 0
    assert capsys.readouterr().out == f"ucb: {bound('ucb', alpha=3.0, gaps=[0.5], n=100)!r}\n"
    assert cli.main(["bound", "exp3", "n=abc", "K=2"]) == 2
    assert capsys.readouterr().err == "banditlab: bound 'exp3': n = 'abc' is not a number\n"


@pytest.mark.parametrize("args, key", [
    (["--replicas", "0"], "--replicas"), (["--replicas", "1"], "--replicas"),
    (["--horizon", "0"], "--horizon"), (["--horizon", "30"], "--horizon"),
    (["--horizon", "-2"], "--horizon"), (["--horizon", "10000000000"], "--horizon"),
])
def test_cli_oracle_faults_exit_2_before_any_replica(monkeypatch, capsys, args, key):
    def no_run(*args):
        raise AssertionError("a replica ran")

    monkeypatch.setattr(harness, "exp3_cumulative_losses", no_run)
    assert cli.main(["oracle", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"banditlab: {key} must") and "Traceback" not in err


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


def test_typed_loss_list_runs_as_its_text():
    rows = [[0.1, 0.9], [0.6, 0.2], [0.3, 0.3]] * 10
    text = ";".join(",".join(map(str, row)) for row in rows)
    reports = [run_experiment(_config(policy="exp3", policy_params={}, env_kind="oblivious",
                                      env_params={"losses": losses}, overlays=["exp3"],
                                      horizon=30, replicas=3))
               for losses in (text, rows)]
    assert reports[0].content_digest() == reports[1].content_digest()


def test_replicas_below_one_fail_in_run_experiment_too():
    with pytest.raises(ConfigError, match="experiment.replicas"):
        run_experiment(_config(replicas=0))


# a row of each kind's csv (or inline losses), its other keys, and the
# number of rounds its environment holds
_SHORT_SOURCES = {
    "oblivious": ("0.1,0.9", {}, lambda env: len(env["losses"])),
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


# a config's policy, [policy] keys, kind, [environment] keys, overlays and
# horizon, and the key the ConfigError names
_BAD_VALUES = [
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
    # a lower slope the loss does not have, which the theorem does not cover
    pytest.param("sgs", {"c_l": "4"}, "unimodal", {}, [], "policy.c_l", 20,
                 id="sgs-c_l-above-the-slope"),
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
    # the loss is clipped flat at 1 on [0.2, 1], where the theorem's C_L fails
    pytest.param("sgs", {}, "unimodal", {"floor": "0.8", "xstar": "0"}, [], "environment.floor",
                 20, id="sgs-unimodal-flat"),
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
    pytest.param("exp3", {}, "oblivious", {"losses": [[[0.5, 0.5]]] * 20}, [],
                 "environment.losses", 20, id="exp3-losses-not-a-matrix"),
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
    pytest.param("osmd-ball", {}, "linear-ball", {"d": "3"}, [], "policy.gamma", 1,
                 id="osmd-ball-gamma-schedule-at-horizon-1"),
    pytest.param("osmd-ball", {"gamma": "0.1"}, "linear-ball", {"d": "3"}, [], "policy.eta", 1,
                 id="osmd-ball-eta-schedule-at-horizon-1"),
    pytest.param("exp3p", {}, "oblivious", {"k": "3"}, [], "experiment.horizon", 3,
                 id="exp3p-schedule-short"),
    pytest.param("exp2-john", {}, "linear-points", {"d": "3", "n_points": "20"}, [],
                 "policy.gamma", 1, id="exp2-schedule-short"),
    pytest.param("osgd-1pt", {}, "convex", {"d": "10"}, [], "experiment.horizon", 1,
                 id="osgd-schedule-short"),
]


@pytest.mark.parametrize("policy, params, kind, env_params, overlays, key, horizon", _BAD_VALUES)
def test_bad_values_fail_before_any_replica(no_replicas, policy, params, kind, env_params,
                                            overlays, key, horizon):
    cfg = _config(policy=policy, policy_params=params, env_kind=kind,
                  env_params=env_params, overlays=overlays, horizon=horizon)
    with pytest.raises(ConfigError, match=re.escape(key)):
        run_experiment(cfg)


# each scheduled policy, its environment, and the values of each rate key
# to try: its interval's ends, a value inside, and for exp3p the ends of the
# rule that spans delta and delta_free
_SCHEDULED = [
    ("exp2-john", "linear-points", {"d": "3", "n_points": "20"},
     {"eta": [0.0, 0.1, math.inf], "gamma": [0.0, 0.5, 1.0]}),
    ("osmd-ball", "linear-ball", {"d": "3"},
     {"gamma": [0.0, 0.5, 1.0], "eta": [0.0, 0.1, 0.5]}),
    ("banditron", "multiclass", {"k": "5", "d": "5"}, {"gamma": [0.0, 0.25, 0.5]}),
    ("osgd-2pt", "convex", {"d": "3", "radius": "0.5"},
     {"delta": [0.0, 0.25, 0.5, math.inf], "eta": [0.0, 0.1, math.inf]}),
    ("osgd-1pt", "convex", {"d": "10"},
     {"delta": [0.0, 0.5, 1.0, math.inf], "eta": [0.0, 0.1, math.inf]}),
    ("exp3p", "oblivious", {"k": "3"}, {"delta": [0.0, 1e-300, 0.5, 1.0]}),
]


@pytest.mark.parametrize("policy, kind, env_params, values", _SCHEDULED,
                         ids=[case[0] for case in _SCHEDULED])
def test_the_check_refuses_exactly_the_rates_the_constructor_refuses(policy, kind, env_params,
                                                                      values):
    """At every horizon from 1 to 64, with every rate scheduled and with each
    value of one rate key given: `check_config` raises a ConfigError, naming
    a policy key or the horizon, exactly when building the run's state by
    `_POLICIES`' own make raises. Among the horizons are osmd-ball's 1, whose
    schedule gives gamma = 1 and eta = 0, and exp2-john's 2 and 3, between
    which its scheduled gamma falls through 1."""
    entry = harness._POLICIES[policy]
    make = entry.run.args[0]
    defaults = {key: spec.default for key, spec in entry.keys.items()}
    cases = [{}] + [{key: value} for key, vals in values.items() for value in vals]
    outcomes = set()
    for n in range(1, 65):
        env = build_environment(kind, env_params, n, 0)
        for given in cases:
            try:
                harness.check_config({"policy": policy, "horizon": n, "env_kind": kind,
                                      "env_params": env_params, "policy_params": given})
                checked = None
            except ConfigError as why:
                checked = str(why)
                names = [f"policy.{key}" for key in entry.keys] + ["experiment.horizon"]
                assert any(name in checked for name in names), checked
            try:
                make({**defaults, **given}, env, n)()
                built = True
            except ValueError:
                built = False
            assert (checked is None) == built, (n, given, checked)
            outcomes.add((n, tuple(given.items()), built))
    assert {built for *_, built in outcomes} == {True, False}
    scheduled = {n: built for n, given, built in outcomes if not given}
    # osgd-2pt's scheduled delta, min(R / 2, 1 / n), always lies below R
    assert set(scheduled.values()) == ({True} if policy == "osgd-2pt" else {True, False})
    if policy == "osmd-ball":
        assert not scheduled[1]
    if policy == "exp2-john":
        assert (scheduled[2], scheduled[3]) == (False, True)


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


@pytest.mark.parametrize("policy", ["osgd-2pt", "osgd-1pt"])
def test_osgd_caps_hold_on_a_wide_quadratic_ball(policy):
    # the quadratic family's own G = 2(R + 1) and L = (R + 1)^2 set the
    # schedule and the cap; read as G = 1 and L = R, the two-point run paid
    # about 1e7 against a cap of 1.9e4
    cfg = _config(policy=policy, policy_params={}, env_kind="convex",
                  env_params={"family": "quadratic", "d": "3", "radius": "100"},
                  overlays=[policy], horizon=1000, replicas=4)
    assert harness.assert_bounds(run_experiment(cfg)) == []


@pytest.mark.parametrize("mean, sem, violated", [
    (1.0, 0.5, []), (9.5, 0.5, ["exp3"]), (math.nan, 0.5, ["exp3"]), (1.0, math.nan, ["exp3"])])
def test_assert_bounds_fails_a_nan_terminal(mean, sem, violated):
    # mean + 2 SEM against the asserted exp3 cap of 10; minimax-lower is not asserted
    report = RegretReport(policy="exp3", env_kind="oblivious", horizon=2, replicas=2, seed=0,
                          mean_curve=np.array([0.5, mean]), sem_curve=np.array([0.1, sem]),
                          terminal_values=np.zeros(2),
                          overlays={"exp3": 10.0, "minimax-lower": 0.0}, wall_clock_s=0.0)
    assert harness.assert_bounds(report) == violated


def _built(policy: str, kind: str, env_params: dict, horizon: int = 200) -> tuple[dict, dict]:
    """A checked config without overlays and its environment as built."""
    cfg = harness.check_config(_config(policy=policy, policy_params={}, env_kind=kind,
                                       env_params=env_params, overlays=[], horizon=horizon))
    return cfg, build_environment(kind, cfg["env_params"], horizon, cfg["seed"])


@pytest.mark.parametrize("radius", [0.5, 1.0, 4.0])
@pytest.mark.parametrize("family", sorted(convex.FAMILIES))
def test_convex_constants_hold_on_the_built_losses(family, radius):
    # the G and L the osgd schedules and overlays read, against the family's
    # loss for the built directions at random points of the ball
    cfg, env = _built("osgd-1pt", "convex", {"family": family, "d": "3", "radius": str(radius)})
    declared = harness.BOUNDS["osgd-1pt"].params(cfg, env)
    G, L = declared["G"], declared["L"]
    assert harness.BOUNDS["osgd-2pt"].params(cfg, env)["G"] == G
    dirs = env["directions"]
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
    rng = derive_stream(0, 1)

    def uniform_in_the_ball() -> np.ndarray:
        z = rng.standard_normal((len(dirs), 3))
        return z * (radius * rng.random((len(dirs), 1)) ** (1 / 3)
                    / np.linalg.norm(z, axis=1, keepdims=True))

    loss = convex.FAMILIES[env["family"]].loss
    for c, a, b in zip(dirs, uniform_in_the_ball(), uniform_in_the_ball()):
        f_a, f_b = loss(a, c), loss(b, c)
        assert -L <= f_a <= L
        assert abs(f_a - f_b) <= G * np.linalg.norm(a - b) * (1 + 1e-12) + 1e-12


@pytest.mark.parametrize("xstar, floor", [(0.3, 0.3), (0.5, 0.2), (0.0, 0.0), (0.9, 0.1)])
def test_unimodal_slopes_hold_on_the_built_loss(xstar, floor):
    # away from xstar, where pairs lie on one side of it, the slope of the
    # built loss lies in the [C_L, C_H] the sgs overlay reads
    cfg, env = _built("sgs", "unimodal", {"xstar": str(xstar), "floor": str(floor)})
    declared = harness.BOUNDS["sgs"].params(cfg, env)
    x, y = derive_stream(0, 2).random((2, 500))
    one_side = (x - xstar) * (y - xstar) > 0
    assert one_side.sum() > 100
    slopes = np.abs(env["mu"](x) - env["mu"](y))[one_side] / np.abs(x - y)[one_side]
    assert (slopes >= declared["C_L"] * (1 - 1e-9)).all()
    assert (slopes <= declared["C_H"] * (1 + 1e-9)).all()


@pytest.mark.parametrize("k, d", [(2, 2), (3, 5), (9, 20)])
def test_multiclass_competitor_has_margin_1_and_its_declared_norm(k, d):
    cfg, env = _built("banditron", "multiclass", {"k": str(k), "d": str(d)}, horizon=10**5)
    U = env["prototypes"]
    # each prototype scores its own label 1 and every other label 0
    assert np.allclose(U @ env["prototypes"].T, np.eye(k), rtol=0, atol=1e-12)
    U_norm = harness.BOUNDS["banditron"].params(cfg, env)["U_norm"]
    assert np.linalg.norm(U) == pytest.approx(U_norm, rel=1e-12)


@pytest.mark.parametrize("c_l", [None, "0.25", "1"])
def test_sgs_overlay_reads_the_runs_c_l(c_l):
    params = {} if c_l is None else {"c_l": c_l}
    cfg = harness.check_config(_config(policy="sgs", policy_params=params, env_kind="unimodal",
                                       env_params={}, overlays=["sgs"], horizon=20000))
    env = build_environment("unimodal", cfg["env_params"], 20000, cfg["seed"])
    C_L = 1.0 if c_l is None else float(c_l)
    assert harness.compute_overlay("sgs", cfg, env) == bound("sgs", n=20000, C_L=C_L, C_H=1.0)


def test_osmd_potential_overlay_reads_the_runs_q():
    cfg = harness.check_config(_config(
        policy="osmd-msets", policy_params={"q": "3.0"}, env_kind="semibandit",
        env_params={"d": "6", "m": "2"}, overlays=["osmd-potential"], horizon=50))
    env = build_environment("semibandit", cfg["env_params"], 50, cfg["seed"])
    at_q3 = bound("osmd-potential", n=50, d=6, m=2, q=3.0)
    assert harness.compute_overlay("osmd-potential", cfg, env) == at_q3
    assert at_q3 != bound("osmd-potential", n=50, d=6, m=2)


@pytest.mark.parametrize("param, values", [
    ("experiment.nosuch", [1]), ("experiment.horizon", [10, "abc"]),
    ("policy.nosuch", [1]), ("policy.alpha", [3.0, "abc"]), ("environment.means", ["x"]),
    ("environment.means", ["0.9, 0.5", "0.5"]),
])
def test_sweep_checks_every_cell_before_the_first(no_replicas, param, values):
    with pytest.raises(ConfigError, match=re.escape(param)):
        sweep(_config(overlays=[]), param, values)


@pytest.mark.parametrize("config, param, values, key", [
    (_config(policy="exp3p", policy_params={}, env_kind="oblivious", env_params={"k": "3"},
             overlays=["exp3p"]), "policy.delta_free", ["false", "true"], "delta_free"),
    (_config(overlays=["kl-lower"]), "environment.means", ["0.9, 0.5", "1.0, 0.5"],
     "'kl-lower'"),
], ids=["exp3p-delta-free", "kl-lower-mean-1"])
def test_sweep_refuses_an_overlay_fault_before_any_cell_plays(no_replicas, config, param,
                                                               values, key):
    with pytest.raises(ConfigError, match=key):
        sweep(config, param, values)


def _counted(monkeypatch, module, name) -> list:
    """A list that gains an entry each time `module.name` is called."""
    calls, fn = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(1) or fn(*a, **k))
    return calls


def test_a_run_checks_its_config_once(monkeypatch):
    counts = [_counted(monkeypatch, harness, name)
              for name in ("check_config", "build_environment", "compute_overlay")]
    config = parse_config(BASE_INI.format(out=".").replace("names = ucb",
                                                           "names = ucb, kl-lower, exp3"))
    run_experiment(config)
    # parse_config's check and run_experiment's; no stage checks or builds again
    assert [len(c) for c in counts] == [2, 1, 3]
    for calls in counts:
        calls.clear()
    sweep(config, "experiment.horizon", [10, 20, 30])
    assert [len(c) for c in counts] == [3, 3, 9]  # each cell's, once, for its three overlays


def test_sweep_bills_each_cell_only_its_own_time():
    start = time.perf_counter()
    reports = sweep(_config(overlays=["ucb"]), "experiment.horizon", [200, 400, 800])
    elapsed = time.perf_counter() - start
    assert all(r.wall_clock_s > 0 for r in reports)
    assert sum(r.wall_clock_s for r in reports) <= elapsed


def test_a_csv_run_reads_its_csv_three_times(monkeypatch, tmp_path):
    # each of the two checks reads the first row once, for both the kind's
    # and exp3p's rules, and the build reads the whole file; the overlays
    # read none
    path = tmp_path / "losses.csv"
    path.write_text("0.2,0.7,0.5\n0.9,0.1,0.4\n" * 100)
    text = ("[experiment]\npolicy = exp3p\nhorizon = 200\nreplicas = 2\n"
            f"[environment]\nkind = oblivious\ncsv = {path}\n"
            "[overlays]\nnames = exp3p, exp3p-expected, minimax-lower\n")
    reads = _counted(monkeypatch, np, "loadtxt")
    config = parse_config(text)
    assert len(reads) == 1
    run_experiment(config)
    assert len(reads) == 3
    # a second check reads the file again, and sees a change to it
    path.write_text("0.2,0.7\n" * 100)
    with pytest.raises(ConfigError, match="too short for exp3p on 2 arms"):
        parse_config(text.replace("horizon = 200", "horizon = 1"))
    assert len(reads) == 4
    # a dict config that names the csv by a Path reads it as often
    path.write_text("0.2,0.7,0.5\n0.9,0.1,0.4\n" * 100)
    config = harness.check_config({"policy": "exp3p", "horizon": 200, "replicas": 2,
                                   "env_kind": "oblivious", "env_params": {"csv": path},
                                   "overlays": ["exp3p", "exp3p-expected", "minimax-lower"]})
    assert len(reads) == 5
    run_experiment(config)
    assert len(reads) == 7


def test_a_dict_config_may_omit_every_entry_but_the_kind():
    def digest(config):
        return run_experiment(config).content_digest()

    full = _config(horizon=100)
    for omitted in ("policy_params", "overlays", "output"):
        cut = {k: v for k, v in full.items() if k != omitted}
        whole = {**full, "overlays": []} if omitted == "overlays" else full
        assert digest(cut) == digest(whole)
    no_policy = {k: v for k, v in full.items() if k != "policy_params"}
    assert sweep(no_policy, "policy.alpha", ["2.5"])[0].content_digest() == digest(full)
    sgs = {"policy": "sgs", "horizon": 100, "env_kind": "unimodal"}
    assert digest(sgs) == digest({**sgs, "replicas": 1, "seed": 0, "policy_params": {},
                                  "env_params": {}, "overlays": [], "output": {}})
    with pytest.raises(ConfigError, match="environment.kind is required"):
        run_experiment({k: v for k, v in full.items() if k != "env_kind"})


def test_a_text_overlay_list_parses():
    reports = [run_experiment(_config(horizon=100, overlays=names))
               for names in ("ucb, kl-lower", ["ucb", "kl-lower"])]
    assert reports[0].overlays == reports[1].overlays
    assert sorted(reports[0].overlays) == ["kl-lower", "ucb"]


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
