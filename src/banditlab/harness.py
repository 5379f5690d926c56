"""Experiment configuration, Monte Carlo runner, regret aggregation with bound
overlays, and CSV/JSON/SVG emission."""
from __future__ import annotations

import configparser
import csv
import io
import json
import math
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import adversarial, contextual, convex, mirror, stochastic
from .env import (
    ENV_STREAM_ID,
    NonObliviousAdversary,
    ObliviousAdversary,
    ReplicaDraws,
    StochasticEnv,
    derive_stream,
    flat_index,
    lower_bound_env,
)

SCHEMA_VERSION = "banditlab-report-v1"


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_EXPERIMENT_KEYS = {"policy", "horizon", "replicas", "seed", "workers"}
_OUTPUT_KEYS = {"dir", "format", "basename"}
_OVERLAY_KEYS = {"names"}

_FINITE_KINDS = ("stochastic", "lower-bound", "oblivious", "nonoblivious")

# policy -> (its [policy] keys, the environment kinds it runs on). `_runner`
# rejects any other pairing and dispatches run_replica on the same kinds.
_POLICIES = {
    "ucb": ({"alpha"}, _FINITE_KINDS),
    "thompson": (set(), _FINITE_KINDS),
    "eps-greedy": ({"d_gap"}, _FINITE_KINDS),
    "exp3": ({"eta", "anytime"}, _FINITE_KINDS),
    "exp3p": ({"delta", "delta_free"}, _FINITE_KINDS),
    "sexp3": (set(), ("contextual",)),
    "exp4": ({"gamma", "eta"}, ("contextual",)),
    "theta-exp4": ({"gamma"}, ("contextual",)),
    "banditron": ({"gamma"}, ("multiclass",)),
    "exp2-john": ({"eta", "gamma"}, ("linear-points",)),
    "osmd-msets": ({"variant", "q", "eta"}, ("semibandit",)),
    "osmd-ball": ({"gamma", "eta"}, ("linear-ball",)),
    "osgd-2pt": ({"delta", "eta"}, ("convex",)),
    "osgd-1pt": ({"delta", "eta"}, ("convex",)),
    "sgs": ({"c_l"}, ("unimodal",)),
}

_ENV_KEYS = {
    "stochastic": {"means"},
    "lower-bound": {"k", "eps", "best"},
    "oblivious": {"k", "losses", "csv"},
    "nonoblivious": {"k", "adversary"},
    "contextual": {"k", "n_contexts", "n_sets", "set_sizes", "csv"},
    "semibandit": {"d", "m"},
    "linear-points": {"d", "n_points"},
    "linear-ball": {"d", "loss"},
    "convex": {"family", "d", "radius"},
    "unimodal": {"xstar", "floor"},
    "multiclass": {"k", "d", "csv"},
}


def parse_config(text_or_path) -> dict:
    """Parse and validate an INI experiment description; unknown keys are errors."""
    parser = configparser.ConfigParser()
    text = str(text_or_path)
    if "\n" not in text and Path(text).exists():
        parser.read_string(Path(text).read_text())
    else:
        parser.read_string(text)

    def section(name: str) -> dict:
        return dict(parser[name]) if parser.has_section(name) else {}

    known_sections = {"experiment", "policy", "environment", "overlays", "output"}
    unknown = set(parser.sections()) - known_sections
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")

    exp = section("experiment")
    _reject_unknown("experiment", exp, _EXPERIMENT_KEYS)
    if "policy" not in exp:
        raise ConfigError("experiment.policy is required")
    policy = exp["policy"]
    if policy not in _POLICIES:
        raise ConfigError(f"unknown policy {policy!r}")

    pol = section("policy")
    _reject_unknown("policy", pol, _POLICIES[policy][0])

    envsec = section("environment")
    kind = envsec.get("kind")
    if kind is None:
        raise ConfigError("environment.kind is required")
    if kind not in _ENV_KEYS:
        raise ConfigError(f"unknown environment kind {kind!r}")
    _reject_unknown("environment", {k: v for k, v in envsec.items() if k != "kind"},
                    _ENV_KEYS[kind])

    over = section("overlays")
    _reject_unknown("overlays", over, _OVERLAY_KEYS)
    names = [s.strip() for s in over.get("names", "").split(",") if s.strip()]
    for name in names:
        if name not in BOUNDS:
            raise ConfigError(f"unknown overlay {name!r}")

    out = section("output")
    _reject_unknown("output", out, _OUTPUT_KEYS)

    def integer(key: str, default: str) -> int:
        try:
            return int(exp.get(key, default))
        except ValueError:
            raise ConfigError(f"experiment.{key} must be an integer, "
                              f"got {exp[key]!r}") from None

    config = {
        "policy": policy,
        "horizon": integer("horizon", "1000"),
        "replicas": integer("replicas", "1"),
        "seed": integer("seed", "0"),
        "workers": integer("workers", "1"),
        "policy_params": pol,
        "env_kind": kind,
        "env_params": {k: v for k, v in envsec.items() if k != "kind"},
        "overlays": names,
        "output": {"dir": out.get("dir", "."),
                   "format": out.get("format", "csv"),
                   "basename": out.get("basename", "report")},
    }
    check_config(config)
    return config


def check_config(config: dict) -> None:
    """Raise ConfigError, naming the key, for a config no replica can run."""
    for key, least in (("horizon", 0), ("replicas", 1), ("seed", None), ("workers", 1)):
        value = config.get(key, 1)  # only workers may be absent; it defaults to 1
        if not isinstance(value, numbers.Integral) or (least is not None and value < least):
            rule = "an integer" if least is None else f"an integer >= {least}"
            raise ConfigError(f"experiment.{key} must be {rule}, got {value!r}")
    _runner(config["policy"], config["env_kind"])


def _reject_unknown(section: str, got: dict, allowed: set) -> None:
    unknown = set(got) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")


def _floats(text: str) -> list[float]:
    return [float(s) for s in text.replace(";", ",").split(",") if s.strip()]


def _matrix(text: str) -> np.ndarray:
    rows = [r for r in text.split(";") if r.strip()]
    return np.array([[float(v) for v in r.split(",")] for r in rows])


# ---------------------------------------------------------------------------
# environments
# ---------------------------------------------------------------------------


def load_multiclass_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """One row per round: feature columns followed by an integer label."""
    rows = np.loadtxt(path, delimiter=",", ndmin=2)
    return rows[:, :-1], rows[:, -1].astype(int)


def load_context_csv(path, K: int) -> tuple[list, np.ndarray]:
    """One row per round: a context id followed by the K arm losses."""
    contexts: list = []
    losses: list = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            contexts.append(row[0])
            losses.append([float(v) for v in row[1:]])
    mat = np.asarray(losses)
    if mat.shape[1] != K:
        raise ConfigError(f"context csv has {mat.shape[1]} loss columns, expected {K}")
    return contexts, mat


def build_environment(kind: str, params: dict, n: int, seed: int) -> dict:
    """Materialize the replica-independent part of the environment."""
    rng = derive_stream(seed, ENV_STREAM_ID)
    if kind == "stochastic":
        env = StochasticEnv.bernoulli(_floats(params["means"]))
        return {"kind": kind, "env": env, "K": env.n_arms}
    if kind == "lower-bound":
        env = lower_bound_env(int(params["k"]), float(params["eps"]), int(params["best"]))
        return {"kind": "stochastic", "env": env, "K": env.n_arms}
    if kind == "oblivious":
        if "losses" in params:
            matrix = _matrix(params["losses"])
        elif "csv" in params:
            matrix = np.loadtxt(params["csv"], delimiter=",", ndmin=2)
        else:
            matrix = rng.random((n, int(params["k"])))
        if matrix.shape[0] < n:
            source = "losses" if "losses" in params else "csv"
            raise ConfigError(f"environment.{source} has {matrix.shape[0]} rows, "
                              f"fewer than the horizon {n}")
        adv = ObliviousAdversary(matrix[:n])
        return {"kind": kind, "adv": adv, "K": adv.n_arms}
    if kind == "nonoblivious":
        K = int(params["k"])
        name = params.get("adversary", "grudge")
        if name != "grudge":
            raise ConfigError(f"unknown non-oblivious adversary {name!r}")

        def grudge(history):
            # full loss on the arm played most so far, ties to the lowest index
            losses = np.zeros(K)
            if history:
                losses[np.bincount(history, minlength=K).argmax()] = 1.0
            return losses

        return {"kind": kind, "adv": NonObliviousAdversary(grudge, K), "K": K}
    if kind == "contextual":
        K = int(params["k"])
        if "csv" in params:
            contexts, matrix = load_context_csv(params["csv"], K)
            contexts = contexts[:n]
            matrix = matrix[:n]
        else:
            n_contexts = int(params.get("n_contexts", "4"))
            contexts = list(rng.integers(n_contexts, size=n))
            matrix = rng.random((n, K))
        n_sets = int(params.get("n_sets", "1"))
        set_sizes = [int(s) for s in params.get("set_sizes", "").split(",") if s.strip()]
        theta_streams = None
        if n_sets > 1 or set_sizes:
            if not set_sizes:
                set_sizes = [4] * n_sets
            theta_streams = {
                f"set{j}": list(rng.integers(size_j, size=n))
                for j, size_j in enumerate(set_sizes)
            }
        return {"kind": kind, "contexts": contexts, "losses": matrix, "K": K,
                "theta_streams": theta_streams,
                "n_contexts": len(set(contexts)),
                "max_set_size": max(set_sizes) if set_sizes else len(set(contexts))}
    if kind == "semibandit":
        return {"kind": kind, "d": int(params["d"]), "m": int(params["m"])}
    if kind == "linear-points":
        d = int(params["d"])
        n_points = int(params["n_points"])
        while True:
            pts = rng.standard_normal((n_points, d))
            pts /= np.maximum(np.linalg.norm(pts, axis=1, keepdims=True), 1e-12)
            pts *= rng.random((n_points, 1)) ** (1.0 / d)  # uniform in the unit ball
            if np.linalg.matrix_rank(pts) == d:
                break
        loss = rng.standard_normal(d)
        loss /= np.linalg.norm(loss)
        losses = np.tile(loss, (n, 1))
        return {"kind": kind, "points": pts, "losses": losses, "d": d, "N": n_points}
    if kind == "linear-ball":
        d = int(params["d"])
        if "loss" in params:
            loss = np.array(_floats(params["loss"]))
        else:
            loss = rng.standard_normal(d)
            loss /= np.linalg.norm(loss)
        losses = np.tile(loss, (n, 1))
        return {"kind": kind, "losses": losses, "d": d}
    if kind == "convex":
        d = int(params["d"])
        radius = float(params.get("radius", "1.0"))
        family = params.get("family", "absvalue")
        dirs = rng.standard_normal((max(n, 1), d))
        dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)
        body = convex.ConvexBody.ball(d, radius)
        return {"kind": kind, "family": family, "directions": dirs, "body": body,
                "d": d, "G": 1.0, "L": radius}
    if kind == "unimodal":
        xstar = float(params.get("xstar", "0.3"))
        floor = float(params.get("floor", "0.3"))

        def mu(x: float) -> float:
            return min(1.0, max(0.0, floor + abs(x - xstar)))

        return {"kind": kind, "mu": mu, "xstar": xstar, "mu_star": mu(xstar),
                "C_L": 1.0, "C_H": 1.0}
    if kind == "multiclass":
        K = int(params["k"])
        d = int(params["d"])
        if "csv" in params:
            xs, ys = load_multiclass_csv(params["csv"])
            return {"kind": kind, "K": K, "d": xs.shape[1], "xs": xs[:n], "ys": ys[:n],
                    "U": None}
        # orthonormal class prototypes give unit-norm streams with margin 1
        basis, _ = np.linalg.qr(rng.standard_normal((d, K)))
        prototypes = basis.T
        return {"kind": kind, "K": K, "d": d, "prototypes": prototypes,
                "U": prototypes, "U_norm": math.sqrt(K)}
    raise ConfigError(f"unknown environment kind {kind!r}")


# ---------------------------------------------------------------------------
# replica runners
# ---------------------------------------------------------------------------


def _convex_oracle(family: str, c: np.ndarray, radius: float):
    if family == "absvalue":
        return convex.absvalue_oracle(c)
    if family == "linear":
        return convex.linear_oracle(c)
    if family == "quadratic":
        return convex.quadratic_oracle(c, radius)
    raise ConfigError(f"unknown convex family {family!r}")


def _finite_policy(name: str, cfg: dict, K: int, n: int, rng=None) -> partial:
    """The constructor of a finite-arm policy with its config bound; `.func`
    is the policy class. `rng` binarizes thompson's fractional rewards."""
    if name == "ucb":
        return partial(stochastic.UcbState, K, alpha=float(cfg.get("alpha", "2.5")))
    if name == "thompson":
        return partial(stochastic.ThompsonState, K, rng)
    if name == "eps-greedy":
        return partial(stochastic.EpsGreedyState, K, d_gap=float(cfg.get("d_gap", "0.1")))
    if name == "exp3":
        anytime = cfg.get("anytime", "false").lower() == "true"
        eta = float(cfg["eta"]) if "eta" in cfg else None
        return partial(adversarial.Exp3State, K, n=n, eta=eta, anytime=anytime)
    if name == "exp3p":
        delta = None if cfg.get("delta_free", "false").lower() == "true" \
            else float(cfg.get("delta", "0.1"))
        beta, eta, gamma = adversarial.exp3p_params(n, K, delta)
        return partial(adversarial.Exp3PState, K, eta, gamma, beta)
    raise ConfigError(f"{name!r} is not a finite-arm policy")


def _finite_rounds(policy, env: dict, n: int, rng) -> np.ndarray:
    """Play `policy` for n rounds on a finite-arm environment.

    The policy holds one replica, and `rng` is its Generator, or R replicas,
    and `rng` is a ReplicaDraws; the curve is (n,) or (R, n) to match.
    A policy that learns from gains gets the reward, or 1 - loss from an
    adversary; one that learns from losses gets the loss, or 1 - reward.
    """
    gain = policy.feedback == "gain"
    kind = env["kind"]
    shape = () if isinstance(rng, np.random.Generator) else (rng.replicas,)
    played = np.empty(shape + (n,))  # gap (stochastic) or loss of the arm played
    if kind == "stochastic":
        sto: StochasticEnv = env["env"]
        for t in range(n):
            arm = policy.select(rng)
            reward = sto.sample_reward(arm, rng)
            policy.update(arm, reward if gain else 1.0 - reward)
            played[..., t] = sto.gaps[arm]
        return np.cumsum(played, axis=-1)

    if kind == "oblivious":
        adv: ObliviousAdversary = env["adv"]
        for t in range(n):
            arm = policy.select(rng)
            loss = adv.loss_vector(t)[arm]
            policy.update(arm, 1.0 - loss if gain else loss)
            played[..., t] = loss
        best = np.cumsum(adv.loss_matrix[:n], axis=0).min(axis=1)
        return np.cumsum(played, axis=-1) - best

    # nonoblivious: each replica's adversary reacts to that replica's history
    adv: NonObliviousAdversary = env["adv"]
    histories = [[] for _ in range(shape[0] if shape else 1)]
    cum_losses = np.zeros(shape + (adv.n_arms,))
    best = np.empty(shape + (n,))
    for t in range(n):
        losses = np.array([adv.loss_vector(tuple(h)) for h in histories])
        losses = losses.reshape(cum_losses.shape)
        arm = policy.select(rng)
        loss = losses.reshape(-1)[flat_index(losses, arm)]
        policy.update(arm, 1.0 - loss if gain else loss)
        for history, a in zip(histories, np.atleast_1d(arm).tolist()):
            history.append(a)
        played[..., t] = loss
        cum_losses += losses
        best[..., t] = cum_losses.min(axis=-1)
    return np.cumsum(played, axis=-1) - best


def _run_finite(config: dict, env: dict, streams) -> np.ndarray:
    """One curve per stream for a finite-arm policy.

    A policy class that declares `draws_per_select` reads that many doubles
    per select(), so all its replicas advance in lockstep on one (R, K)
    state. eps-greedy and thompson read a data-dependent number of doubles
    per round and run one replica at a time.
    """
    name, cfg, n, K = config["policy"], config["policy_params"], config["horizon"], env["K"]
    make = _finite_policy(name, cfg, K, n)
    per_select = getattr(make.func, "draws_per_select", None)
    if per_select is None:
        return np.vstack([_finite_rounds(_finite_policy(name, cfg, K, n, stream)(), env, n, stream)
                          for stream in streams])
    draws = ReplicaDraws(streams, (per_select + (env["kind"] == "stochastic")) * n)
    return _finite_rounds(make(replicas=draws.replicas), env, n, draws)


def _one_at_a_time(run_one):
    """A runner over many streams from one that runs a single replica."""
    def run(config: dict, env: dict, streams) -> np.ndarray:
        return np.vstack([run_one(config, env, stream) for stream in streams])
    return run


def run_replica(config: dict, env: dict, streams) -> np.ndarray:
    """Cumulative pseudo-regret (or mistake) curves.

    `streams` is one replica's Generator, for its 1-D curve, or an iterable
    of per-replica Generators, for an (R, n) array with one row per stream.
    ucb, exp3 and exp3p run all the replicas in lockstep; the other policies
    run them one after another. Either way row r reads only its own stream.
    """
    runner = _runner(config["policy"], config["env_kind"])
    single = isinstance(streams, np.random.Generator)
    curves = runner(config, env, [streams] if single else streams)
    return curves[0] if single else curves


def _run_semibandit(config: dict, env: dict, stream: np.random.Generator) -> np.ndarray:
    cfg, n = config["policy_params"], config["horizon"]
    d, m = env["d"], env["m"]
    variant = cfg.get("variant", "potential")
    policy = mirror.OsmdMsets(d, m, n=n, variant=variant,
                              q=float(cfg.get("q", "2.0")),
                              eta=float(cfg["eta"]) if "eta" in cfg else None)
    coord_cum = np.zeros(d)
    curve = np.empty(n)
    cum_incurred = 0.0
    for t in range(n):
        losses = stream.random(d)
        _, incurred = policy.round(losses, stream)
        cum_incurred += incurred
        coord_cum += losses
        curve[t] = cum_incurred - np.sort(coord_cum)[:m].sum()
    return curve


def _run_linear_points(config: dict, env: dict, stream: np.random.Generator) -> np.ndarray:
    cfg, n = config["policy_params"], config["horizon"]
    pts = env["points"]
    policy = mirror.Exp2State(pts, n=n,
                              eta=float(cfg["eta"]) if "eta" in cfg else None,
                              gamma=float(cfg["gamma"]) if "gamma" in cfg else None)
    cum_loss_vec = np.zeros(env["d"])
    curve = np.empty(n)
    cum_incurred = 0.0
    for t in range(n):
        ell = env["losses"][t]
        idx = policy.select(stream)
        scalar = float(pts[idx] @ ell)
        policy.update(idx, scalar)
        cum_incurred += scalar
        cum_loss_vec += ell
        curve[t] = cum_incurred - (pts @ cum_loss_vec).min()
    return curve


def _run_linear_ball(config: dict, env: dict, stream: np.random.Generator) -> np.ndarray:
    cfg, n = config["policy_params"], config["horizon"]
    d = env["d"]
    policy = mirror.OsmdBall(d, n=n,
                             gamma=float(cfg["gamma"]) if "gamma" in cfg else None,
                             eta=float(cfg["eta"]) if "eta" in cfg else None)
    cum_loss_vec = np.zeros(d)
    curve = np.empty(n)
    cum_incurred = 0.0
    for t in range(n):
        ell = env["losses"][t]
        _, incurred = policy.round(ell, stream)
        cum_incurred += incurred
        cum_loss_vec += ell
        curve[t] = cum_incurred + np.linalg.norm(cum_loss_vec)
    return curve


def _run_unimodal(config: dict, env: dict, stream: np.random.Generator) -> np.ndarray:
    mu, mu_star = env["mu"], env["mu_star"]

    def sample_losses(x: float, count: int, rng: np.random.Generator) -> np.ndarray:
        return (rng.random(count) < mu(x)).astype(float)

    played, _bracket = convex.run_sgs(sample_losses, config["horizon"],
                                      float(config["policy_params"].get("c_l", env["C_L"])),
                                      stream)
    inc = np.array([mu(x) - mu_star for x in played])
    return np.cumsum(inc)


def _run_contextual(config: dict, env: dict, stream: np.random.Generator) -> np.ndarray:
    name, cfg, n = config["policy"], config["policy_params"], config["horizon"]
    K = env["K"]
    losses = env["losses"]
    curve = np.empty(n)
    cum_incurred = 0.0

    if name == "sexp3":
        contexts = env["contexts"]
        policy = contextual.SExp3(K)
        per_context = {}
        best_sum = 0.0
        for t in range(n):
            s = contexts[t]
            arm = policy.select(s, stream)
            loss = losses[t, arm]
            policy.update(s, arm, loss)
            cum_incurred += loss
            cums = per_context.setdefault(s, np.zeros(K))
            prev = cums.min()
            cums += losses[t]
            best_sum += cums.min() - prev
            curve[t] = cum_incurred - best_sum
        return curve

    if name == "exp4":
        # built-in experts: one dirac expert per arm plus the uniform expert
        advice_fixed = np.vstack([np.eye(K), np.full((1, K), 1.0 / K)])
        N = advice_fixed.shape[0]
        gamma = float(cfg.get("gamma", "0.0"))
        policy = contextual.Exp4State(N, K, n=n, gamma=gamma,
                                      eta=float(cfg["eta"]) if "eta" in cfg else None)
        cum_expert = np.zeros(N)
        for t in range(n):
            arm = policy.select(advice_fixed, stream)
            loss = losses[t, arm]
            policy.update(advice_fixed, arm, loss)
            cum_incurred += loss
            cum_expert += advice_fixed @ losses[t]
            curve[t] = cum_incurred - cum_expert.min()
        return curve

    if name == "theta-exp4":
        streams = env["theta_streams"]
        if streams is None:
            raise ConfigError("theta-exp4 needs environment n_sets or set_sizes")
        thetas = sorted(streams)
        policy = contextual.ThetaExp4(
            thetas, K, n, env["max_set_size"],
            gamma=float(cfg["gamma"]) if "gamma" in cfg else None)
        per_theta = {th: {} for th in thetas}
        best_by_theta = {th: 0.0 for th in thetas}
        for t in range(n):
            contexts = {th: streams[th][t] for th in thetas}
            arm = policy.select(contexts, stream)
            loss = losses[t, arm]
            policy.update(contexts, arm, loss)
            cum_incurred += loss
            for th in thetas:
                cums = per_theta[th].setdefault(contexts[th], np.zeros(K))
                prev = cums.min()
                cums += losses[t]
                best_by_theta[th] += cums.min() - prev
            curve[t] = cum_incurred - min(best_by_theta.values())
        return curve

    raise ConfigError(f"policy {name!r} does not run on a contextual environment")


def _run_convex(config: dict, env: dict, stream: np.random.Generator) -> np.ndarray:
    name, cfg, n = config["policy"], config["policy_params"], config["horizon"]
    body: convex.ConvexBody = env["body"]
    d = body.dim
    R, r = body.outer_radius, body.inner_radius
    family = env["family"]
    G, L = env["G"], env["L"]
    if name == "osgd-2pt":
        eta_d, delta_d = convex.osgd_two_point_schedule(n, d, R, G, r)
        mode = "two-point"
    elif name == "osgd-1pt":
        delta_d, eta_d = convex.osgd_one_point_schedule(n, d, R, r, G, L)
        mode = "one-point"
    else:
        raise ConfigError(f"policy {name!r} does not run on a convex environment")
    eta = float(cfg.get("eta", eta_d))
    delta = float(cfg.get("delta", delta_d))
    policy = convex.OsgdState(body, mode, eta, delta)

    dirs = env["directions"]
    cum_c = np.zeros(d)
    cum_sq = 0.0
    curve = np.empty(n)
    cum_incurred = 0.0
    for t in range(n):
        c = dirs[t]
        oracle = _convex_oracle(family, c, R)
        _, incurred = policy.round(oracle, stream)
        cum_incurred += incurred
        cum_c += c
        if family == "absvalue":
            comparator = 0.0
        elif family == "linear":
            comparator = -R * float(np.linalg.norm(cum_c))
        else:  # quadratic: sum_t ||x - c_t||^2 minimized at the projected mean
            cum_sq += float(c @ c)
            x_star = body.project(cum_c / (t + 1))
            comparator = (t + 1) * float(x_star @ x_star) - 2.0 * float(x_star @ cum_c) + cum_sq
        curve[t] = cum_incurred - comparator
    return curve


def _run_multiclass(config: dict, env: dict, stream: np.random.Generator) -> np.ndarray:
    cfg, n = config["policy_params"], config["horizon"]
    K, d = env["K"], env["d"]
    gamma = float(cfg.get("gamma", contextual.banditron_gamma(K, n)))
    policy = contextual.BanditronState(K, d, gamma)
    mistakes = np.empty(n)
    if "xs" in env:
        xs, ys = env["xs"], env["ys"]
        labels = lambda t: (xs[t], int(ys[t]))
    else:
        prototypes = env["prototypes"]
        label_seq = stream.integers(K, size=n)
        labels = lambda t: (prototypes[label_seq[t]], int(label_seq[t]))
    for t in range(n):
        x, y = labels(t)
        Y, yhat, p = policy.step(x, stream)
        correct = Y == y
        policy.update(x, yhat, Y, correct, p)
        mistakes[t] = 0.0 if correct else 1.0
    return np.cumsum(mistakes)


# replica runner per environment kind (lower-bound builds a stochastic env);
# each takes a list of streams and returns one curve per stream
_RUNNERS = {
    **dict.fromkeys(_FINITE_KINDS, _run_finite),
    "contextual": _one_at_a_time(_run_contextual),
    "semibandit": _one_at_a_time(_run_semibandit),
    "linear-points": _one_at_a_time(_run_linear_points),
    "linear-ball": _one_at_a_time(_run_linear_ball),
    "convex": _one_at_a_time(_run_convex),
    "unimodal": _one_at_a_time(_run_unimodal),
    "multiclass": _one_at_a_time(_run_multiclass),
}


def _runner(policy: str, kind: str):
    """The replica runner of `policy` on environment `kind`; ConfigError for
    a pair that cannot run together, or an unknown name."""
    if policy not in _POLICIES:
        raise ConfigError(f"unknown policy {policy!r}")
    if kind not in _RUNNERS:
        raise ConfigError(f"unknown environment kind {kind!r}")
    kinds = _POLICIES[policy][1]
    if kind not in kinds:
        raise ConfigError(f"policy {policy!r} does not run on environment kind {kind!r} "
                          f"(it runs on {', '.join(kinds)})")
    return _RUNNERS[kind]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class RegretReport:
    policy: str
    env_kind: str
    horizon: int
    replicas: int
    seed: int
    mean_curve: np.ndarray
    sem_curve: np.ndarray
    terminal_values: np.ndarray
    overlays: dict
    wall_clock_s: float
    schema: str = SCHEMA_VERSION

    @property
    def mean_terminal(self) -> float:
        return float(self.mean_curve[-1]) if self.mean_curve.size else 0.0

    @property
    def sem_terminal(self) -> float:
        return float(self.sem_curve[-1]) if self.sem_curve.size else 0.0

    def content_dict(self) -> dict:
        """Everything except wall-clock, for determinism comparisons."""
        return {
            "schema": self.schema,
            "policy": self.policy,
            "env_kind": self.env_kind,
            "horizon": self.horizon,
            "replicas": self.replicas,
            "seed": self.seed,
            "mean_curve": self.mean_curve.tolist(),
            "sem_curve": self.sem_curve.tolist(),
            "terminal_values": self.terminal_values.tolist(),
            "overlays": dict(self.overlays),
        }

    def to_dict(self) -> dict:
        out = self.content_dict()
        out["wall_clock_s"] = self.wall_clock_s
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "RegretReport":
        return cls(
            policy=d["policy"],
            env_kind=d["env_kind"],
            horizon=d["horizon"],
            replicas=d["replicas"],
            seed=d["seed"],
            mean_curve=np.array(d["mean_curve"]),
            sem_curve=np.array(d["sem_curve"]),
            terminal_values=np.array(d["terminal_values"]),
            overlays=dict(d["overlays"]),
            wall_clock_s=d["wall_clock_s"],
            schema=d["schema"],
        )


def run_experiment(config: dict) -> RegretReport:
    """Execute all replicas of a config and aggregate the curves.

    Replica r reads only `derive_stream(seed, r)`. With `workers` > 1 each
    worker thread runs a contiguous slice of the replicas.
    """
    start = time.perf_counter()
    check_config(config)
    n = config["horizon"]
    replicas = config["replicas"]
    seed = config["seed"]
    env = build_environment(config["env_kind"], config["env_params"], n, seed)
    overlays = {name: compute_overlay(name, config, env) for name in config["overlays"]}

    def run_slice(lo: int, hi: int) -> np.ndarray:
        # streams are derived as the runner reaches them, not all up front
        return run_replica(config, env, (derive_stream(seed, i) for i in range(lo, hi)))

    workers = min(config.get("workers", 1), replicas)
    if workers > 1:
        cuts = [replicas * w // workers for w in range(workers + 1)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            stacked = np.vstack(list(pool.map(run_slice, cuts[:-1], cuts[1:])))
    else:
        stacked = run_slice(0, replicas)

    mean_curve = stacked.mean(axis=0)
    if replicas > 1:
        sem_curve = stacked.std(axis=0, ddof=1) / math.sqrt(replicas)
    else:
        sem_curve = np.zeros(n)
    terminal = stacked[:, -1] if n > 0 else np.zeros(replicas)
    return RegretReport(
        policy=config["policy"],
        env_kind=config["env_kind"],
        horizon=n,
        replicas=replicas,
        seed=seed,
        mean_curve=mean_curve,
        sem_curve=sem_curve,
        terminal_values=np.asarray(terminal, dtype=float),
        overlays=overlays,
        wall_clock_s=time.perf_counter() - start,
    )


def sweep(config: dict, param: str, values: list) -> list[RegretReport]:
    """Re-run the experiment for each value of one dotted config parameter."""
    if not values:
        raise ConfigError("sweep needs at least one grid value")
    reports = []
    for v in values:
        cfg = json.loads(json.dumps(config))  # deep copy, keeps seeds identical per cell
        section, _, key = param.partition(".")
        if section == "experiment":
            cfg[key] = type(config[key])(v)
        elif section == "policy":
            cfg["policy_params"][key] = str(v)
        elif section == "environment":
            cfg["env_params"][key] = str(v)
        else:
            raise ConfigError(f"cannot sweep over {param!r}")
        reports.append(run_experiment(cfg))
    return reports


# ---------------------------------------------------------------------------
# bound registry
# ---------------------------------------------------------------------------

BOUNDS = {
    "ucb": lambda *, alpha, gaps, n: stochastic.ucb_bound(alpha, gaps, n),
    "kl-lower": lambda *, means: stochastic.kl_lower_bound_constant(means),
    "exp3": lambda *, n, K: adversarial.exp3_bound(int(n), int(K)),
    "exp3-anytime": lambda *, n, K: adversarial.exp3_bound(int(n), int(K), anytime=True),
    "exp3p": lambda *, n, K, delta: adversarial.exp3p_bound(int(n), int(K), delta),
    "exp3p-expected": lambda *, n, K: adversarial.exp3p_expected_bound(int(n), int(K)),
    "minimax-lower": lambda *, n, K: adversarial.minimax_lower(int(n), int(K)),
    "sexp3": lambda *, n, S, K: contextual.sexp3_bound(int(n), int(S), int(K)),
    "exp4": lambda *, n, K, N: contextual.exp4_bound(int(n), int(K), int(N)),
    "exp4-mixing": lambda *, n, K, N, gamma: contextual.exp4_mixing_bound(
        int(n), int(K), int(N), gamma),
    "theta": lambda *, n, S, K, n_theta: contextual.theta_bound(
        int(n), int(S), int(K), int(n_theta)),
    "banditron": lambda *, n, K, U_norm, avg_hinge=0.0: contextual.banditron_bound(
        int(n), int(K), U_norm, avg_hinge),
    "exp2-john": lambda *, n, d, N: mirror.exp2_bound(int(n), int(d), int(N)),
    "osmd-negent": lambda *, n, d, m: mirror.osmd_negent_bound(int(n), int(d), int(m)),
    "osmd-potential": lambda *, n, d, m, q=2.0: mirror.osmd_potential_bound(
        int(n), int(d), int(m), q),
    "osmd-ball": lambda *, n, d: mirror.ball_bound(int(n), int(d)),
    "osgd-2pt": lambda *, n, d, R, G, delta, r: convex.osgd_two_point_bound(
        int(n), int(d), R, G, delta, r),
    "osgd-1pt": lambda *, n, d, R, r, G, L: convex.osgd_one_point_bound(
        int(n), int(d), R, r, G, L),
    "sgs": lambda *, n, C_L, C_H: convex.sgs_bound(int(n), C_L, C_H),
}

# overlays that cap the measured quantity from above and may be asserted
ASSERTABLE_BOUNDS = set(BOUNDS) - {"kl-lower", "minimax-lower"}


def bound(name: str, **params) -> float:
    if name not in BOUNDS:
        raise ConfigError(f"unknown bound {name!r}")
    return float(BOUNDS[name](**params))


def compute_overlay(name: str, config: dict, env: dict) -> float:
    """Evaluate a bound with parameters pulled from the experiment config;
    ConfigError when the environment lacks what the bound needs."""
    try:
        return _resolve_overlay(name, config, env)
    except KeyError as missing:
        raise ConfigError(f"overlay {name!r} does not apply to environment kind "
                          f"{config['env_kind']!r} (no {missing} there)") from None


def _resolve_overlay(name: str, config: dict, env: dict) -> float:
    n = config["horizon"]
    cfg = config["policy_params"]
    if name == "ucb":
        return bound(name, alpha=float(cfg.get("alpha", "2.5")),
                     gaps=env["env"].gaps, n=n)
    if name == "kl-lower":
        return bound(name, means=env["env"].means)
    if name in ("exp3", "exp3-anytime", "exp3p-expected", "minimax-lower"):
        return bound(name, n=n, K=env["K"])
    if name == "exp3p":
        return bound(name, n=n, K=env["K"], delta=float(cfg.get("delta", "0.1")))
    if name == "sexp3":
        return bound(name, n=n, S=env["n_contexts"], K=env["K"])
    if name == "exp4":
        return bound(name, n=n, K=env["K"], N=env["K"] + 1)
    if name == "exp4-mixing":
        return bound(name, n=n, K=env["K"], N=env["K"] + 1,
                     gamma=float(cfg.get("gamma", "0.1")))
    if name == "theta":
        if env.get("theta_streams") is None:
            raise ConfigError("the theta overlay needs n_sets or set_sizes")
        return bound(name, n=n, S=env["max_set_size"], K=env["K"],
                     n_theta=len(env["theta_streams"]))
    if name == "banditron":
        return bound(name, n=n, K=env["K"], U_norm=env.get("U_norm", 0.0))
    if name == "exp2-john":
        return bound(name, n=n, d=env["d"], N=env["N"])
    if name in ("osmd-negent", "osmd-potential"):
        return bound(name, n=n, d=env["d"], m=env["m"])
    if name == "osmd-ball":
        return bound(name, n=n, d=env["d"])
    if name == "osgd-2pt":
        body = env["body"]
        _, delta_d = convex.osgd_two_point_schedule(n, body.dim, body.outer_radius,
                                                    env["G"], body.inner_radius)
        return bound(name, n=n, d=body.dim, R=body.outer_radius, G=env["G"],
                     delta=float(cfg.get("delta", delta_d)), r=body.inner_radius)
    if name == "osgd-1pt":
        body = env["body"]
        return bound(name, n=n, d=body.dim, R=body.outer_radius, r=body.inner_radius,
                     G=env["G"], L=env["L"])
    if name == "sgs":
        return bound(name, n=n, C_L=env["C_L"], C_H=env["C_H"])
    raise ConfigError(f"no overlay resolver for {name!r}")


def assert_bounds(report: RegretReport) -> list[str]:
    """Names of asserted overlays violated by mean + 2 SEM."""
    cap = report.mean_terminal + 2.0 * report.sem_terminal
    return [name for name, value in report.overlays.items()
            if name in ASSERTABLE_BOUNDS and cap > value]


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def emit(report: RegretReport, fmt: str, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        path.write_text(render_csv(report))
    elif fmt == "json":
        path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    elif fmt == "svg":
        path.write_text(render_svg(report))
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    return path


def render_csv(report: RegretReport) -> str:
    buf = io.StringIO()
    overlay_names = sorted(report.overlays)
    buf.write(f"# {report.schema}\n")
    cols = ["round", "mean_regret", "sem"] + [f"overlay_{n}" for n in overlay_names]
    buf.write(",".join(cols) + "\n")
    for t in range(report.horizon):
        row = [str(t + 1), repr(float(report.mean_curve[t])), repr(float(report.sem_curve[t]))]
        row += [repr(float(report.overlays[n])) for n in overlay_names]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def render_svg(report: RegretReport, width: int = 640, height: int = 400) -> str:
    """Self-contained line chart: the regret curve plus horizontal overlays."""
    margin = 50
    n = max(report.horizon, 1)
    values = list(report.mean_curve) if report.horizon else [0.0]
    ymax = max([max(values), *report.overlays.values(), 1e-12])
    xs = lambda t: margin + (width - 2 * margin) * t / n
    ys = lambda v: height - margin - (height - 2 * margin) * v / ymax
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
    ]
    for frac in (0.0, 0.5, 1.0):
        parts.append(
            f'<text x="{xs(frac * n):.1f}" y="{height - margin + 16}" font-size="10" '
            f'text-anchor="middle">{int(frac * n)}</text>')
        parts.append(
            f'<text x="{margin - 6}" y="{ys(frac * ymax):.1f}" font-size="10" '
            f'text-anchor="end">{frac * ymax:.3g}</text>')
    if report.horizon:
        pts = " ".join(f"{xs(t + 1):.2f},{ys(v):.2f}"
                       for t, v in enumerate(report.mean_curve))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="steelblue" '
                     f'stroke-width="1.5"/>')
    for i, (name, value) in enumerate(sorted(report.overlays.items())):
        if value <= ymax:
            y = ys(value)
            parts.append(f'<line x1="{margin}" y1="{y:.2f}" x2="{width - margin}" '
                         f'y2="{y:.2f}" stroke="crimson" stroke-dasharray="6,3"/>')
            parts.append(f'<text x="{width - margin}" y="{y - 4:.2f}" font-size="10" '
                         f'text-anchor="end">{name}={value:.4g}</text>')
    parts.append(f'<text x="{width / 2}" y="16" font-size="12" text-anchor="middle">'
                 f'{report.policy} on {report.env_kind} '
                 f'(n={report.horizon}, replicas={report.replicas})</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
