"""The replica engine's contract: reports are fixed by (config, seed), whatever
the batch a replica runs in, and replica r reads only derive_stream(seed, r)."""
import importlib
import inspect
import pkgutil
import tracemalloc
from functools import partial

import numpy as np
import pytest

import banditlab
from banditlab import env as env_module
from banditlab import cli, geometry, harness
from banditlab.adversarial import (
    Exp3PState,
    Exp3State,
    exp3p_gain_estimate,
    exp3p_params,
    importance_loss_estimate,
)
from banditlab.env import (
    KERNEL_MIN_STREAMS,
    ReplicaDraws,
    RowDraws,
    StochasticEnv,
    derive_stream,
    sample_categorical,
)
from banditlab.stochastic import UcbState

# name: (policy, policy params, env kind, env params, horizon, replicas, seed[,
#        overlays])
CASES = {
    "ucb-stochastic": ("ucb", {"alpha": "2.5"}, "stochastic",
                       {"means": "0.9, 0.6, 0.5"}, 400, 3, 11),
    "ucb-lower-bound": ("ucb", {}, "lower-bound",
                        {"k": "4", "eps": "0.2", "best": "1"}, 300, 4, 12),
    "exp3-stochastic": ("exp3", {}, "stochastic",
                        {"means": "0.7, 0.4, 0.5, 0.2, 0.6"}, 300, 3, 13),
    "exp3-oblivious": ("exp3", {}, "oblivious", {"k": "10"}, 300, 3, 14),
    "exp3-oblivious-eta": ("exp3", {"eta": "0.3"}, "oblivious", {"k": "3"}, 200, 3, 15),
    "exp3-oblivious-anytime": ("exp3", {"anytime": "true"}, "oblivious", {"k": "5"},
                               300, 3, 16),
    "exp3p-stochastic": ("exp3p", {"delta": "0.1"}, "stochastic", {"means": "0.8, 0.5"},
                         300, 3, 17),
    "exp3p-oblivious": ("exp3p", {"delta_free": "true"}, "oblivious", {"k": "4"},
                        300, 3, 18),
    "exp3-nonoblivious": ("exp3", {}, "nonoblivious", {"k": "3", "adversary": "grudge"},
                          200, 3, 19),
    "eps-greedy-stochastic": ("eps-greedy", {"d_gap": "0.2"}, "stochastic",
                              {"means": "0.9, 0.6, 0.5"}, 300, 3, 20),
    "thompson-stochastic": ("thompson", {}, "stochastic", {"means": "0.9, 0.6, 0.5"},
                            300, 3, 21),
    # fractional losses: thompson binarizes each gain from the replica's stream
    "thompson-oblivious": ("thompson", {}, "oblivious", {"k": "4"}, 300, 3, 37),
    # the grudge adversary in lockstep, on (R, K) play counts, and one replica
    # at a time, on (K,) ones
    "ucb-nonoblivious": ("ucb", {}, "nonoblivious", {"k": "4", "adversary": "grudge"},
                         200, 3, 35),
    "eps-greedy-nonoblivious": ("eps-greedy", {"d_gap": "0.2"}, "nonoblivious", {"k": "3"},
                                200, 3, 36),
    # from here on each case also resolves overlays, so that every BOUNDS name
    # is resolved by some case
    "ucb-stochastic-overlays": ("ucb", {"alpha": "3.0"}, "stochastic",
                                {"means": "0.8, 0.5, 0.45"}, 200, 2, 22,
                                ["ucb", "kl-lower", "exp3", "exp3-anytime", "exp3p-expected",
                                 "minimax-lower"]),
    "exp3p-oblivious-overlays": ("exp3p", {"delta": "0.05"}, "oblivious", {"k": "3"},
                                 200, 2, 23, ["exp3p"]),
    "sexp3-contextual": ("sexp3", {}, "contextual", {"k": "3", "n_contexts": "3"},
                         200, 2, 24, ["sexp3"]),
    "exp4-contextual": ("exp4", {"gamma": "0.2"}, "contextual", {"k": "3"}, 200, 2, 25,
                        ["exp4", "exp4-mixing"]),
    "theta-exp4-contextual": ("theta-exp4", {}, "contextual", {"k": "3", "n_sets": "2"},
                              150, 2, 26, ["theta"]),
    "banditron-multiclass": ("banditron", {}, "multiclass", {"k": "3", "d": "4"},
                             300, 2, 27, ["banditron"]),
    "exp2-john-linear-points": ("exp2-john", {}, "linear-points", {"d": "3", "n_points": "8"},
                                150, 2, 28, ["exp2-john"]),
    "osmd-msets-potential": ("osmd-msets", {"variant": "potential", "q": "2.0"}, "semibandit",
                             {"d": "5", "m": "2"}, 150, 2, 29, ["osmd-potential"]),
    "osmd-msets-negent": ("osmd-msets", {"variant": "negent"}, "semibandit",
                          {"d": "5", "m": "2"}, 150, 2, 30, ["osmd-negent"]),
    "osmd-ball-linear-ball": ("osmd-ball", {}, "linear-ball", {"d": "3"}, 200, 2, 31,
                              ["osmd-ball"]),
    "osgd-2pt-convex": ("osgd-2pt", {"delta": "0.01"}, "convex",
                        {"family": "quadratic", "d": "2"}, 200, 2, 32, ["osgd-2pt"]),
    "osgd-1pt-convex": ("osgd-1pt", {}, "convex", {"family": "linear", "d": "2"},
                        200, 2, 33, ["osgd-1pt"]),
    "sgs-unimodal": ("sgs", {}, "unimodal", {}, 2000, 2, 34, ["sgs"]),
}

# each case's content_digest(), captured from the one-replica-at-a-time
# engine that preceded the lockstep one
GOLDEN = {
    "ucb-stochastic": "3868475990a8a5fe36daf7cb3c4ac1ba2cdd86f4fef5709f6b3ec72803f7e63f",
    "ucb-lower-bound": "ff63a5ac5cb27d33ce6dfc7608be47e749cdf59558efb4cc2a9dba5baefff6ef",
    "exp3-stochastic": "514961667773a7b4a3968429e73037312b238d83067aa928b86b44f56d8180df",
    "exp3-oblivious": "e7fa93c9e405b93ab23763446a1eb79cd2eaa46df018fad923bc9ff1e4fc136a",
    "exp3-oblivious-eta": "f2f46ed25ac1b20332dbd7d2316f0e7b339227fef54f2b449718401b8253d152",
    "exp3-oblivious-anytime":
        "c9e003666639e4d50ff724e2a140aa9a13850f6c2e5b485ee1152449f20a2ae9",
    "exp3p-stochastic": "13d1e5baf43449fda635dcd6edbf171715ad68a9018d486accf4cd2d593ca99e",
    "exp3p-oblivious": "8fe855dbe165cd465b375bf4c971e37c441d59a791b656f195440956a642b351",
    "exp3-nonoblivious": "b2eda69e05b339466a8e7d9d12177af34c6db5a54bf072ad119faa27f36800e1",
    "eps-greedy-stochastic":
        "98a7534dcfb1f6e1e6f2942217b4c8117e7274bcb7afc4590df90634f17c11e5",
    "thompson-stochastic": "220fc576a124d53dbeed1c400df2784c69bcd3e10cca3317caffe520259f286e",
    # captured from the engine that gave ThompsonState its stream at construction
    "thompson-oblivious": "2cf07663791305d032542571f1b3a65cb1b55034f30bc42e26ea762530900936",
    # captured from the adversary that reread each replica's whole history
    "ucb-nonoblivious": "563cc4bb184cd33459a25f0ece0b6ba774b14427f0642a0caa2e4122327e719a",
    "eps-greedy-nonoblivious":
        "1d20e11d0095bcdf5d049d7b0cccc347cddf30b0ffc8bd6b7b4b65bda5fd5f31",
    # captured from the engine that declared policies in several parallel tables
    "ucb-stochastic-overlays":
        "cd46433486a0548c6fb6064776e5e32e3bc8b3e1ad8f81c7fd624d07c1341e5f",
    "exp3p-oblivious-overlays":
        "034586b07899d48ca08e8e7f9188e2ca7012e806c01ea73e1587c4bc95b17747",
    "sexp3-contextual": "3444791ca24a9a46da84f089474aacc4b9066675ead215afd74bcfc17e5424e1",
    "exp4-contextual": "16ece34063cd533bfa30a207ed2473c37cf09d712142536274d34486c1130b5e",
    "theta-exp4-contextual":
        "bf58bf499471378b0a664de58633bf1a98fac70bd533e1ad002daa974952c03c",
    "banditron-multiclass": "07dbe176ee6f2b5d44cb7b505217c82729d4a0def0b49eafaa606fb2f5aa7245",
    "exp2-john-linear-points":
        "ca1f9b86976f4c39ce4dd6e6125d29913c57e27f67c57e5403ef005ecc825563",
    "osmd-msets-potential": "f53c0e1d1537070a95d9f04b766409dc3606fd134b292a14ae115ecd517d558f",
    "osmd-msets-negent": "a278d3e386b5e2ae83e5bbb9185d34c499fcb9d608ee6b09a9e2ab79611bc515",
    "osmd-ball-linear-ball":
        "dbcb0954a8fea790352ad809201f9c9eaaa9285146da4abb5921712138916a92",
    # captured once the quadratic family's schedule and overlay read its own
    # G = 2(R + 1) = 4 at R = 1
    "osgd-2pt-convex": "a05cfa8acc4e1f8b5bed7be70a67485c33a5d80d6fedbe1c02fe9178457e9a1f",
    "osgd-1pt-convex": "9dd81485cf57f107d9c69822df68e5efec5f1887880caed87f314641ed682bcd",
    "sgs-unimodal": "9b3423d2ed29eb391c6f08eb9e095fc1c45001f0328c967a818d7b34a223a691",
}


def _config(policy, policy_params, kind, env_params, n, replicas, seed, overlays=()):
    return {"policy": policy, "horizon": n, "replicas": replicas, "seed": seed,
            "policy_params": dict(policy_params), "env_kind": kind,
            "env_params": dict(env_params), "overlays": list(overlays),
            "output": {"dir": ".", "format": "csv", "basename": "report"}}


def _ini(config) -> str:
    """The INI text of a `_config` dict."""
    sections = {"experiment": {k: config[k] for k in ("policy", "horizon", "replicas", "seed")},
                "policy": config["policy_params"],
                "environment": {"kind": config["env_kind"], **config["env_params"]},
                "overlays": {"names": ", ".join(config["overlays"])}, "output": config["output"]}
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_typed_form(name):
    # check_config returns its own result unchanged, and parse_config returns
    # what check_config makes of the same config as a dict
    config = _config(*CASES[name])
    typed = harness.check_config(config)
    assert harness.check_config(typed) == typed
    assert harness.parse_config(_ini(config)) == typed


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_content_digest(name):
    assert harness.run_experiment(_config(*CASES[name])).content_digest() == GOLDEN[name]


def test_run_prints_the_golden_content_digest(tmp_path, capsys):
    config = _config(*CASES["exp3-oblivious"])
    config["output"]["dir"] = str(tmp_path)
    ini = tmp_path / "run.ini"
    ini.write_text(_ini(config))
    assert cli.main(["run", "--config", str(ini)]) == 0
    assert f"content sha256 {GOLDEN['exp3-oblivious']}\n" in capsys.readouterr().out


def test_every_policy_and_overlay_has_a_golden_case():
    assert set(harness._POLICIES) <= {case[0] for case in CASES.values()}
    assert set(harness.BOUNDS) <= {name for case in CASES.values() if len(case) > 7
                                   for name in case[7]}
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_rows_equal_single_stream_runs(name):
    cfg = harness.check_config(_config(*CASES[name]))
    env = harness.build_environment(cfg["env_kind"], cfg["env_params"], cfg["horizon"],
                                    cfg["seed"])
    batch = harness.run_replica(cfg, env, cfg["seed"], range(5))
    assert batch.shape == (5, cfg["horizon"])
    for r in range(5):
        single = harness.run_replica(cfg, env, cfg["seed"], [r])
        assert single.shape == (1, cfg["horizon"])
        assert np.array_equal(batch[r], single[0])


@pytest.mark.parametrize("name", sorted(name for name, case in CASES.items()
                                        if case[0] in ("ucb", "exp3", "exp3p", "exp2-john",
                                                       "osmd-msets")))
def test_kernel_rows_equal_single_stream_runs(monkeypatch, name):
    # at 8 rounds every lockstep policy reads at most KERNEL_MAX_DOUBLES doubles
    # per replica, so a batch of KERNEL_MIN_STREAMS comes from the Philox
    # kernel and one replica from its Generator, which `ReplicaDraws` derives,
    # or the harness for a batch narrow enough to play one at a time
    cfg = harness.check_config(_config(*CASES[name][:4], 8, KERNEL_MIN_STREAMS, CASES[name][6]))
    env = harness.build_environment(cfg["env_kind"], cfg["env_params"], 8, cfg["seed"])
    derived = []
    for module in (env_module, harness):
        monkeypatch.setattr(module, "derive_stream", lambda seed, i, derive=derive_stream:
                            derived.append(i) or derive(seed, i))
    ids = range(2**63 - 5, 2**63 - 5 + KERNEL_MIN_STREAMS)
    batch = harness.run_replica(cfg, env, cfg["seed"], ids)
    assert derived == []
    for row, i in zip(batch, ids):
        assert np.array_equal(row, harness.run_replica(cfg, env, cfg["seed"], [i])[0])
    assert len(derived) == KERNEL_MIN_STREAMS


def test_one_design_per_experiment(monkeypatch):
    # the design depends on the environment's points alone
    calls = []
    design = geometry.doptimal_design

    def counted(*args, **kwargs):
        calls.append(args)
        return design(*args, **kwargs)

    monkeypatch.setattr(geometry, "doptimal_design", counted)
    harness.run_experiment(_config("exp2-john", {}, "linear-points",
                                   {"d": "3", "n_points": "8"}, 50, 4, 28))
    assert len(calls) == 1


def _round_case(name):
    """A CASES entry whose policy plays through `_rounds`: its typed config,
    its environment, the `_rounds` functions, and whether its class runs in
    lockstep; None for a policy with another runner."""
    cfg = harness.check_config(_config(*CASES[name]))
    run = harness._POLICIES[cfg["policy"]].run
    if getattr(run, "func", None) is not harness._rounds:
        return None
    make, seen, best = run.args
    env = harness.build_environment(cfg["env_kind"], cfg["env_params"], cfg["horizon"],
                                    cfg["seed"])
    build = make(cfg["policy_params"], env, cfg["horizon"])
    return cfg, env, (make, seen, best), hasattr(build.func, "draws_per_round")


ROUND_CASES = {name: case for name in sorted(CASES) if (case := _round_case(name))}


def test_round_cases_cover_both_batchings():
    policies = {case[0]["policy"]: case[3] for case in ROUND_CASES.values()}
    assert {p for p, lockstep in policies.items() if lockstep} == {"exp2-john", "osmd-msets"}
    assert {"sexp3", "exp4", "theta-exp4", "banditron", "osmd-ball", "osgd-2pt",
            "osgd-1pt"} <= set(policies)


def test_golden_content_digest_in_either_form_of_a_narrow_class(monkeypatch):
    # each golden case of a class that declares a narrow_width, played one
    # replica at a time on RowDraws and as one lockstep batch
    narrow = {"ucb": UcbState, "exp3": Exp3State}
    for name, case in CASES.items():
        if case[0] not in narrow:
            continue
        for width in (case[5], 0):
            monkeypatch.setattr(narrow[case[0]], "narrow_width", staticmethod(lambda K: width))
            digest = harness.run_experiment(_config(*case)).content_digest()
            assert digest == GOLDEN[name], (name, width)


def test_batches_follow_the_lockstep_declaration():
    # every policy but sgs binds its class through make(p, env, n); the class
    # alone decides whether its replicas play as one batch or one at a time,
    # and ucb and exp3 play a batch no wider than their narrow_width at the
    # environment's K one replica at a time, each on its own RowDraws
    widths = {"ucb": UcbState.narrow_width, "exp3": Exp3State.narrow_width}
    crossed = set()
    for R in (2, 3, 5, 6, 7):
        lockstep, one_at_a_time = set(), set()
        for case in CASES.values():
            cfg = harness.check_config(_config(*case))
            run = harness._POLICIES[cfg["policy"]].run
            if getattr(run, "func", None) not in (harness._run_finite, harness._rounds):
                continue
            n, seed = cfg["horizon"], cfg["seed"]
            env = harness.build_environment(cfg["env_kind"], cfg["env_params"], n, seed)
            build = run.args[0](cfg["policy_params"], env, n)
            batches = list(harness._batches(build, env, n, seed, range(R)))
            rows = [rows for _, _, rows in batches]
            assert rows in ([(R,)], [()] * R)
            (lockstep if rows == [(R,)] else one_at_a_time).add(cfg["policy"])
            sources = {type(rng) for _, rng, _ in batches}
            if rows == [(R,)]:
                assert sources == {ReplicaDraws}
            else:
                assert sources == ({RowDraws} if cfg["policy"] in widths
                                   else {np.random.Generator}), cfg["policy"]
            if cfg["policy"] in widths:
                width = widths[cfg["policy"]](env["K"])
                assert (rows == [(R,)]) == (R > width), (cfg["policy"], env["K"], R)
                crossed.add((cfg["policy"], R > width))
        fixed = {"exp3p", "exp2-john", "osmd-msets"}
        assert lockstep - set(widths) == fixed
        assert one_at_a_time - set(widths) == set(harness._POLICIES) - fixed - set(widths) - {"sgs"}
    assert crossed == {(policy, wide) for policy in widths for wide in (False, True)}


def test_draws_per_round_is_the_one_lockstep_declaration():
    # a narrow batch's RowDraws total is built from draws_per_round, so a
    # class that declares a narrow_width declares it too
    narrow = set()
    for info in pkgutil.iter_modules(banditlab.__path__):
        module = importlib.import_module(f"banditlab.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            assert {name for name in vars(cls) if name.startswith("draws_per")} \
                <= {"draws_per_round"}, cls
            if "narrow_width" in vars(cls):
                assert "draws_per_round" in vars(cls), cls
                narrow.add(cls)
    assert narrow == {UcbState, Exp3State}


@pytest.mark.parametrize("name", sorted(name for name, (_, _, (_, _, best), lockstep)
                                        in ROUND_CASES.items() if best and not lockstep))
def test_seen_reads_no_stream_where_a_competitor_is_shared(name):
    # one replica's rounds fold the run's one competitor, so every replica
    # played one at a time must be shown the same rounds
    cfg, env, (_, seen, _), _ = ROUND_CASES[name]
    stream = derive_stream(cfg["seed"], 3)
    before = repr(stream.bit_generator.state)  # its counter and key are arrays
    rounds = list(seen(env, cfg["horizon"], stream))
    assert len(rounds) == cfg["horizon"]
    assert repr(stream.bit_generator.state) == before


@pytest.mark.parametrize("name", sorted(name for name, (_, _, (_, _, best), _)
                                        in ROUND_CASES.items() if best))
def test_one_competitor_per_run(monkeypatch, name):
    cfg, env, (make, seen, best), _ = ROUND_CASES[name]
    expected = harness.run_replica(cfg, env, cfg["seed"], range(5))
    calls = []
    counted = partial(harness._rounds, make, seen, lambda env: calls.append(1) or best(env))
    policy = harness._POLICIES[cfg["policy"]]
    monkeypatch.setitem(harness._POLICIES, cfg["policy"], policy._replace(run=counted))
    assert np.array_equal(harness.run_replica(cfg, env, cfg["seed"], range(5)), expected)
    assert len(calls) == 1


def test_replica_memory_holds_no_round_inputs():
    # the competitor folds each round's losses as they come, so one replica
    # keeps its curve-sized arrays (8 B per round each) and no round's losses
    def peak(n: int) -> int:
        cfg = harness.check_config(_config("osmd-msets", {"variant": "negent"}, "semibandit",
                                           {"d": "6", "m": "2"}, n, 1, 3))
        env = harness.build_environment("semibandit", cfg["env_params"], n, 3)
        harness.run_replica(cfg, env, 3, [0])  # warm every cache first
        tracemalloc.start()
        try:
            harness.run_replica(cfg, env, 3, [0])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    n = 500
    per_round = (peak(4 * n) - peak(n)) / (3 * n)
    assert per_round < 24


@pytest.mark.parametrize("overlay", sorted(harness.BOUNDS))
def test_overlays_need_a_round(no_replicas, overlay):
    # a theorem's cap at n = 0 takes log 0 or divides by 0, or reads 0
    case = next(case for case in CASES.values() if len(case) > 7 and overlay in case[7])
    cfg = _config(*case[:4], 0, *case[5:7], [overlay])
    with pytest.raises(harness.ConfigError, match="experiment.horizon"):
        harness.run_experiment(cfg)


def test_replica_draws_match_scalar_draws_across_blocks():
    total = 4100  # past the first block of 4096 doubles
    draws = ReplicaDraws(3, range(3), total=total)
    got = np.array([draws.random() for _ in range(total)])
    for r in range(3):
        stream = derive_stream(3, r)
        assert np.array_equal(got[:, r], [stream.random() for _ in range(total)])
    with pytest.raises(RuntimeError):
        draws.random()


def test_sample_categorical_rows_match_one_row_at_a_time():
    p = derive_stream(4, 0).dirichlet(np.ones(5), size=6)
    draws = ReplicaDraws(5, range(6), total=1)
    rows = sample_categorical(p, draws)
    singles = [sample_categorical(p[r], derive_stream(5, r)) for r in range(6)]
    assert rows.tolist() == singles
    assert sample_categorical(np.array([0.0, 1.0]), derive_stream(5, 0)) == 1


def test_lockstep_checks_hold_per_row():
    env = StochasticEnv([0.5, 0.5])
    draws = ReplicaDraws(1, range(2), total=1)
    with pytest.raises(IndexError):
        env.sample_reward(np.array([0, 2]), draws)
    p = np.array([[0.5, 0.5], [1.0, 0.0]])
    with pytest.raises(ZeroDivisionError):
        importance_loss_estimate(p, np.array([0, 1]), np.array([0.3, 0.3]))
    est = importance_loss_estimate(p, np.array([1, 0]), np.array([0.3, 0.6]))
    assert np.array_equal(est, [[0.0, 0.6], [0.6, 0.0]])
    with pytest.raises(ZeroDivisionError):
        exp3p_gain_estimate(p, np.array([0, 0]), np.array([1.0, 1.0]), 0.1)


def test_batched_states_keep_one_row_per_replica():
    ucb = UcbState(3, replicas=2)
    ucb.update(np.array([0, 2]), np.array([1.0, 0.5]))
    assert ucb.counts.tolist() == [[1, 0, 0], [0, 0, 1]]
    assert ucb.means.tolist() == [[1.0, 0.0, 0.0], [0.0, 0.0, 0.5]]
    assert ucb.select().tolist() == [1, 0]
    exp3 = Exp3State(2, n=10, replicas=3)
    assert exp3.probs().shape == (3, 2)
    exp3p = Exp3PState(2, *exp3p_params(10, 2, 0.1), replicas=3)
    assert np.allclose(exp3p.probs().sum(axis=-1), 1.0)
