"""Experiment configuration, Monte Carlo runner, regret aggregation with bound
overlays, and CSV/JSON/SVG emission. Each policy, environment kind and overlay
is one entry of `_POLICIES`, `_ENV_KINDS` or `BOUNDS`."""
from __future__ import annotations

import configparser
import copy
import csv
import inspect
import json
import math
import numbers
import time
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from . import adversarial, contextual, convex, geometry, mirror, stochastic
from .env import (
    ENV_STREAM_ID,
    NonObliviousAdversary,
    ReplicaDraws,
    RowDraws,
    StochasticEnv,
    derive_stream,
    lower_bound_env,
)

SCHEMA_VERSION = "banditlab-report-v1"


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# typed config values
# ---------------------------------------------------------------------------

REQUIRED = object()  # the default of a key that has none

# one config key: how its text becomes a value; the value it takes when
# absent (None where the theorem's schedule applies); and for a number, the
# interval, as "(0, 1)" or "[1, inf)", that it or each of its entries lies in
Key = namedtuple("Key", "parse default within", defaults=(None, None))


def _flag(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError("expected true or false")
    return text.lower() == "true"


def _choice(*names: str) -> Callable:
    def parse(text: str) -> str:
        if text not in names:
            raise ValueError(f"expected one of {', '.join(names)}")
        return text
    return parse


def _list(cast: Callable) -> Callable:
    return lambda text: [cast(s) for s in text.replace(";", ",").split(",") if s.strip()]


def _matrix(text: str) -> np.ndarray:
    rows = [r for r in text.split(";") if r.strip()]
    return np.array([[float(v) for v in r.split(",")] for r in rows])


def _require(ok, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def _resolve(section: str, keys: dict, given: dict) -> dict:
    """Every key of `keys` with its typed value: the given text parsed, or the
    key's default when absent. A value that is not text is taken as typed.
    Either way a number must lie in its key's interval."""
    unknown = sorted(set(given) - set(keys))
    if unknown:
        raise ConfigError("unknown key " + ", ".join(f"{section}.{k}" for k in unknown))
    typed = {}
    for key, spec in keys.items():
        value = given.get(key, spec.default)
        if value is REQUIRED:
            raise ConfigError(f"{section}.{key} is required")
        if isinstance(value, str):
            try:
                value = spec.parse(value)
            except ValueError as exc:
                raise ConfigError(f"{section}.{key} = {value!r}: {exc}") from None
        if value is not None and spec.within is not None:  # nan lies in no interval
            lo, hi = map(float, spec.within[1:-1].split(","))
            try:
                a = np.asarray(value, dtype=float)
            except (TypeError, ValueError, OverflowError):
                a = np.asarray(np.nan)
            inside = (a > lo if spec.within[0] == "(" else a >= lo) \
                & (a < hi if spec.within[-1] == ")" else a <= hi)
            integer = spec.parse is int
            if not inside.all() or (integer and not isinstance(value, numbers.Integral)):
                raise ConfigError(f"{section}.{key} must lie in {spec.within}"
                                  f"{' as an integer' if integer else ''}, got {value!r}")
        typed[key] = value
    return typed


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_EXPERIMENT_KEYS = {"policy": Key(str, REQUIRED), "horizon": Key(int, 1000, "[0, inf)"),
                    "replicas": Key(int, 1, "[1, inf)"), "seed": Key(int, 0, "(-inf, inf)")}
# the entries of a config dict that are not [experiment] keys; the [output]
# keys, `_OUTPUT_KEYS`, sit with the renderers under emission
_SECTIONS = ("policy_params", "env_kind", "env_params", "overlays", "output")
_OVERLAYS = {"names": Key(_list(str.strip), ())}


def parse_config(text_or_path) -> dict:
    """The typed config of an INI experiment description, by `check_config`;
    unknown sections and keys are errors.

    One line of text is a path; a missing or unreadable file and every parser
    fault raise ConfigError.
    """
    parser = configparser.ConfigParser()
    text, source = str(text_or_path), "<string>"
    try:
        if "\n" not in text:  # INI text takes a section header and more
            source = text
            text = Path(source).read_text()
        parser.read_string(text, source)
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        # an OSError's own text repeats the path
        raise ConfigError(f"config {source!r}: {getattr(exc, 'strerror', None) or exc}") from None
    unknown = sorted(set(sections) - {"experiment", "policy", "environment", "overlays", "output"})
    _require(not unknown, f"unknown config sections: {unknown}")

    experiment, envsec = sections.get("experiment", {}), sections.get("environment", {})
    clash = sorted(set(experiment).intersection(_SECTIONS))  # entries of their own
    _require(not clash, "unknown key " + ", ".join(f"experiment.{k}" for k in clash))
    config = {**experiment, "policy_params": sections.get("policy", {}), "env_params": envsec,
              "overlays": _resolve("overlays", _OVERLAYS, sections.get("overlays", {}))["names"],
              "output": sections.get("output", {})}
    if "kind" in envsec:
        config["env_kind"] = envsec.pop("kind")
    return check_config(config)


def check_config(config: dict) -> dict:
    """The config with every section typed, from text or typed values, and
    every default filled in (only `env_kind` is required); a config it
    returned comes back unchanged.

    Raises ConfigError, naming the key, for a config no replica can run.
    """
    _require("env_kind" in config, "environment.kind is required")
    experiment = _resolve("experiment", _EXPERIMENT_KEYS,
                          {k: v for k, v in config.items() if k not in _SECTIONS})
    policy, kind = experiment["policy"], config["env_kind"]
    _require(policy in _POLICIES, f"unknown policy {policy!r}")
    _require(kind in _ENV_KINDS, f"unknown environment kind {kind!r}")
    kinds = _POLICIES[policy].kinds
    _require(kind in kinds, f"policy {policy!r} does not run on environment kind {kind!r} "
                            f"(it runs on {', '.join(kinds)})")
    overlays = _resolve("overlays", _OVERLAYS, {"names": config.get("overlays", ())})["names"]
    for name in overlays:
        _require(name in BOUNDS, f"unknown overlay {name!r}")
    _require(not overlays or experiment["horizon"] >= 1,  # a theorem's cap needs a round
             f"overlays need experiment.horizon of at least 1, got {experiment['horizon']!r}")
    p = _resolve("policy", _POLICIES[policy].keys, config.get("policy_params", {}))
    e = _resolve("environment", _ENV_KINDS[kind].keys, config.get("env_params", {}))
    n = experiment["horizon"]
    # a finite-arm environment's rules take its number of arms, found once
    # (a csv's first row is read once per check)
    arms = _check_finite(e) if kind in _FINITE_KINDS else None
    if _ENV_KINDS[kind].check is not None:
        _ENV_KINDS[kind].check(p, e, n)
    if _POLICIES[policy].check is not None:
        _POLICIES[policy].check(p, e if arms is None else arms, n)
    output = _resolve("output", _OUTPUT_KEYS, config.get("output", {}))
    return {**experiment, "policy_params": p, "env_kind": kind, "env_params": e,
            "overlays": list(overlays), "output": output}


# ---------------------------------------------------------------------------
# environments
# ---------------------------------------------------------------------------


_LOSSES = Key(_matrix, None, "[0, 1]")


@contextmanager
def _csv_errors(path) -> Iterator[None]:
    """A missing or unreadable csv, or text where a number belongs, as a ConfigError."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise ConfigError(f"environment.csv = {str(path)!r}: {exc}") from None


def load_multiclass_csv(path, K: int) -> tuple[np.ndarray, np.ndarray]:
    """One row per round: feature columns followed by a label in 0, ..., K - 1."""
    with _csv_errors(path):
        rows = np.loadtxt(path, delimiter=",", ndmin=2)
    bad = rows[:, -1][~np.isin(rows[:, -1], np.arange(K))]
    if bad.size:
        raise ConfigError(f"environment.csv labels must be integers in [0, {K}) "
                          f"(environment.k = {K}), got {float(bad[0])!r}")
    return rows[:, :-1], rows[:, -1].astype(int)


def load_context_csv(path, K: int) -> tuple[list, np.ndarray]:
    """One row per round: a context id followed by the K arm losses."""
    with _csv_errors(path), open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
        mat = np.array([[float(v) for v in row[1:]] for row in rows], ndmin=2)
    _require(not rows or mat.shape[1] == K, f"environment.csv has {mat.shape[1]} loss "
                                            f"columns, expected environment.k = {K}")
    _resolve("environment", {"csv": _LOSSES}, {"csv": mat})  # the inline losses' rule
    return [row[0] for row in rows], mat


def _check_rows(key: str, rows: int, n: int) -> None:
    if rows < n:
        raise ConfigError(f"environment.{key} has {rows} rows, fewer than the horizon {n}")


def _stochastic(env: StochasticEnv) -> dict:
    return {"kind": "stochastic", "env": env, "K": env.n_arms, "draws_per_round": 1}


def _oblivious_env(p: dict, n: int, rng) -> dict:
    """The loss matrix, one row per round: the inline losses, else the csv's
    rows, else i.i.d. uniform losses on k arms (`_check_finite` requires one)."""
    if p["losses"] is not None:
        key, matrix = "losses", np.array(p["losses"], dtype=float, ndmin=2)
    elif p["csv"] is not None:
        with _csv_errors(p["csv"]):
            key, matrix = "csv", np.loadtxt(p["csv"], delimiter=",", ndmin=2)
        _resolve("environment", {"csv": _LOSSES}, {"csv": matrix})  # the inline losses' rule
    else:
        key, matrix = "k", rng.random((n, p["k"]))
    _check_rows(key, matrix.shape[0], n)
    return {"kind": "oblivious", "losses": matrix[:n], "K": matrix.shape[1]}


def _set_sizes(p: dict) -> list:
    """The sizes of a contextual environment's context sets; none unless
    `set_sizes` is given or `n_sets` is above 1."""
    return p["set_sizes"] or ([4] * p["n_sets"] if p["n_sets"] > 1 else [])


def _contextual_env(p: dict, n: int, rng) -> dict:
    K = p["k"]
    if p["csv"] is not None:
        contexts, matrix = load_context_csv(p["csv"], K)
        _check_rows("csv", len(contexts), n)
        contexts = contexts[:n]
        matrix = matrix[:n]
    else:
        contexts = list(rng.integers(p["n_contexts"], size=n))
        matrix = rng.random((n, K))
    set_sizes = _set_sizes(p)
    theta_streams = {f"set{j}": list(rng.integers(size_j, size=n))
                     for j, size_j in enumerate(set_sizes)} if set_sizes else None
    return {"kind": "contextual", "contexts": contexts, "losses": matrix, "K": K,
            "theta_streams": theta_streams,
            "n_contexts": len(set(contexts)),
            "max_set_size": max(set_sizes) if set_sizes else len(set(contexts))}


def _linear_points_env(p: dict, n: int, rng) -> dict:
    d, n_points = p["d"], p["n_points"]
    while True:
        pts = rng.standard_normal((n_points, d))
        pts /= np.maximum(np.linalg.norm(pts, axis=1, keepdims=True), 1e-12)
        pts *= rng.random((n_points, 1)) ** (1.0 / d)  # uniform in the unit ball
        if np.linalg.matrix_rank(pts) == d:
            break
    loss = rng.standard_normal(d)
    loss /= geometry.norm(loss)
    # the design depends on the points alone, so every replica shares it
    return {"kind": "linear-points", "points": pts, "design": geometry.doptimal_design(pts),
            "loss": loss, "d": d, "N": n_points}


def _linear_ball_env(p: dict, n: int, rng) -> dict:
    d = p["d"]
    if p["loss"] is not None:
        loss = np.array(p["loss"])
    else:
        loss = rng.standard_normal(d)
        loss /= geometry.norm(loss)
    return {"kind": "linear-ball", "loss": loss, "d": d}


def _convex_env(p: dict, n: int, rng) -> dict:
    """One unit direction per round; the family's loss and constants are its
    `convex.FAMILIES` entry at the radius."""
    d = p["d"]
    dirs = rng.standard_normal((max(n, 1), d))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)
    return {"kind": "convex", "family": p["family"], "directions": dirs, "d": d,
            "radius": p["radius"]}


# the lower and upper slopes of the unimodal kind's loss floor + |x - xstar|,
# which its check keeps unclipped on [0, 1]
_UNIMODAL_SLOPES = {"C_L": 1.0, "C_H": 1.0}


def _unimodal_env(p: dict, n: int, rng) -> dict:
    xstar, floor = p["xstar"], p["floor"]

    def mu(x):
        """The loss at a point x, or at each point of an array."""
        return np.clip(floor + np.abs(x - xstar), 0.0, 1.0)

    return {"kind": "unimodal", "mu": mu, "xstar": xstar, "mu_star": mu(xstar),
            **_UNIMODAL_SLOPES}


def _multiclass_env(p: dict, n: int, rng) -> dict:
    K, d = p["k"], p["d"]
    if p["csv"] is not None:
        xs, ys = load_multiclass_csv(p["csv"], K)
        _require(xs.shape[1] == d, f"environment.d = {d} differs from the "
                                   f"{xs.shape[1]} feature columns of environment.csv")
        _check_rows("csv", len(ys), n)
        return {"kind": "multiclass", "K": K, "d": d, "xs": xs[:n], "ys": ys[:n], "U": None}
    # orthonormal class prototypes give unit-norm streams with margin 1
    basis, _ = np.linalg.qr(rng.standard_normal((d, K)))
    prototypes = basis.T
    return {"kind": "multiclass", "K": K, "d": d, "prototypes": prototypes,
            "U": prototypes, "U_norm": math.sqrt(K)}


def _check_linear_ball(p: dict, e: dict, n: int) -> None:
    loss = e["loss"]
    _require(loss is None or (len(loss) == e["d"] and np.linalg.norm(loss) <= 1 + 1e-9),
             f"environment.loss must have environment.d = {e['d']} entries and norm at "
             f"most 1, got {loss!r}")


def _arms(e: dict) -> tuple[str, int | None]:
    """The [environment] key that sets a finite-arm environment's number of
    arms, in its builder's order, and that number (None when no key is set).
    A csv is read for its first row only."""
    if "means" in e:
        return "means", len(e["means"])
    if e.get("losses") is not None:
        return "losses", np.shape(e["losses"])[-1]
    if e.get("csv") is not None:
        with _csv_errors(e["csv"]):
            return "csv", np.loadtxt(e["csv"], delimiter=",", ndmin=2, max_rows=1).shape[1]
    return "k", e["k"]


def _check_finite(e: dict) -> int:
    """A finite-arm environment's number of arms: one key sets it, and it
    gives at least 2 (with one there is nothing to learn, and exp3's and
    exp3p's rates take ln K = 0)."""
    key, K = _arms(e)
    _require(K is not None, "environment.k, environment.losses or environment.csv is required")
    _require(np.ndim(e.get("losses")) <= 2, "environment.losses must be a matrix, one row "
                                             "per round")
    _require(K >= 2, f"environment.{key} gives {K} arm(s), fewer than 2")
    return K


# an environment kind's [environment] keys; its builder, which materializes
# the replica-independent part: build(params, n, rng) -> env, with the
# doubles each replica's stream gives the environment per round, if any, as
# env["draws_per_round"]; and the check, if any, of the rules that span keys:
# check(policy params, env params, horizon), raising ConfigError. The
# finite-arm kinds' number of arms has its own check, `_check_finite`.
EnvKind = namedtuple("EnvKind", "keys build check", defaults=(None,))


_ENV_KINDS = {
    "stochastic": EnvKind({"means": Key(_list(float), REQUIRED, "[0, 1]")}, lambda p, n, rng:
                          _stochastic(StochasticEnv(p["means"]))),
    "lower-bound": EnvKind({"k": Key(int, REQUIRED, "[2, inf)"),
                            "eps": Key(float, REQUIRED, "[0, 1)"),
                            "best": Key(int, REQUIRED, "[0, inf)")}, lambda p, n, rng:
                           _stochastic(lower_bound_env(p["k"], p["eps"], p["best"])),
                           check=lambda p, e, n: _require(
                               e["best"] < e["k"], f"environment.best must lie below "
                               f"environment.k = {e['k']}, got {e['best']!r}")),
    "oblivious": EnvKind({"k": Key(int, None, "[2, inf)"), "losses": _LOSSES,
                          "csv": Key(str)}, _oblivious_env),
    "nonoblivious": EnvKind({"k": Key(int, REQUIRED, "[2, inf)"),
                             "adversary": Key(_choice("grudge"), "grudge")},
                            lambda p, n, rng: {"kind": "nonoblivious", "K": p["k"]}),
    "contextual": EnvKind({"k": Key(int, REQUIRED, "[2, inf)"),
                           "n_contexts": Key(int, 4, "[1, inf)"),
                           "n_sets": Key(int, 1, "[1, inf)"),
                           "set_sizes": Key(_list(int), (), "[1, inf)"), "csv": Key(str)},
                          _contextual_env),
    "semibandit": EnvKind({"d": Key(int, REQUIRED, "[1, inf)"),
                           "m": Key(int, REQUIRED, "[1, inf)")},
                          lambda p, n, rng: {"d": p["d"], "m": p["m"], "draws_per_round": p["d"]},
                          check=lambda p, e, n: _require(
                              e["m"] <= e["d"], f"environment.m must be at most "
                              f"environment.d = {e['d']}, got {e['m']!r}")),
    # fewer points than dimensions never span the space the builder redraws for
    "linear-points": EnvKind({"d": Key(int, REQUIRED, "[1, inf)"),
                              "n_points": Key(int, REQUIRED, "[2, inf)")}, _linear_points_env,
                             check=lambda p, e, n: _require(
                                 e["n_points"] >= e["d"], f"environment.n_points must be at "
                                 f"least environment.d = {e['d']}, got {e['n_points']!r}")),
    "linear-ball": EnvKind({"d": Key(int, REQUIRED, "[1, inf)"),
                            "loss": Key(_list(float), None, "[-1, 1]")}, _linear_ball_env,
                           check=_check_linear_ball),
    "convex": EnvKind({"family": Key(_choice(*convex.FAMILIES), "absvalue"),
                       "d": Key(int, REQUIRED, "[1, inf)"),
                       "radius": Key(float, 1.0, "(0, inf)")}, _convex_env),
    # a loss clipped flat at 1 somewhere has no lower slope C_L there
    "unimodal": EnvKind({"xstar": Key(float, 0.3, "[0, 1]"), "floor": Key(float, 0.3, "[0, 1]")},
                        _unimodal_env, check=lambda p, e, n: _require(
                            e["floor"] + max(e["xstar"], 1.0 - e["xstar"]) <= 1.0,
                            f"environment.floor + max(environment.xstar, 1 - environment.xstar) "
                            f"must be at most 1, got {e['floor']!r} and {e['xstar']!r}")),
    # the synthetic stream needs k orthonormal prototypes in d dimensions
    "multiclass": EnvKind({"k": Key(int, REQUIRED, "[2, inf)"), "d": Key(int, REQUIRED, "[1, inf)"),
                           "csv": Key(str)}, _multiclass_env,
                          check=lambda p, e, n: _require(
                              e["csv"] is not None or e["d"] >= e["k"],
                              f"environment.d must be at least environment.k = {e['k']} "
                              f"without environment.csv, got {e['d']!r}")),
}


def build_environment(kind: str, params: dict, n: int, seed: int) -> dict:
    """Materialize the replica-independent part of the environment."""
    if kind not in _ENV_KINDS:
        raise ConfigError(f"unknown environment kind {kind!r}")
    entry = _ENV_KINDS[kind]
    p = _resolve("environment", entry.keys, params)
    return entry.build(p, n, derive_stream(seed, ENV_STREAM_ID))


# ---------------------------------------------------------------------------
# replica runners
# ---------------------------------------------------------------------------


def _batches(build: partial, env: dict, n: int, seed: int, ids) -> Iterator[tuple]:
    """Each batch of a run as (policy, rng, rows): `build`'s policy, its source
    of doubles, and the shape of one round's records. A class that declares
    `draws_per_round`, the doubles its state reads per round, plays all R
    replicas in lockstep as one batch, a state with `replicas=R` on
    `ReplicaDraws` that also give the environment its `env["draws_per_round"]`,
    rows (R,), unless R is at most the `narrow_width` it declares: then each
    replica plays alone, a one-row state on `RowDraws` of the same total,
    rows (). Any other class plays each on its own `derive_stream(seed, i)`,
    rows ()."""
    per_round = getattr(build.func, "draws_per_round", None)
    if per_round is None:
        yield from ((build(), derive_stream(seed, i), ()) for i in ids)
        return
    total = (per_round + env.get("draws_per_round", 0)) * n
    if len(ids) <= getattr(build.func, "narrow_width", 0):
        yield from ((build(), RowDraws(seed, i, total), ()) for i in ids)
    else:
        draws = ReplicaDraws(seed, ids, total)
        yield build(replicas=draws.replicas), draws, (draws.replicas,)


def _curves(paid: np.ndarray, held: np.ndarray | None) -> np.ndarray:
    """A batch's curves, (R, n) or (n,), in the memory of its records `paid`,
    one row per round: summed down the columns in place, with the additions
    of a sum along the rows of the transpose, less the competitor's
    cumulative loss `held`, if any, for all rows or per row."""
    np.cumsum(paid, axis=0, out=paid)
    if held is not None:
        np.subtract(paid.T, held.T, out=paid.T)
    return paid.T


def _finite_rounds(policy, env: dict, n: int, rng, rows: tuple) -> np.ndarray:
    """A batch's curves, its (policy, rng, rows) from `_batches` played for n
    rounds on a finite-arm environment. A policy that learns from gains gets
    the reward, or 1 - loss from an adversary; one that learns from losses
    gets the loss, or 1 - reward."""
    gain = policy.feedback == "gain"
    kind = env["kind"]
    # a round's records fill one row of an (n, R) array, or one entry of an
    # (n,) one; at most two curve-sized arrays at a time
    if kind == "stochastic":
        sto: StochasticEnv = env["env"]
        arms = np.empty((n,) + rows, dtype=np.intp)  # the arm played; its gap after the loop
        record = arms if rows else memoryview(arms)  # a memoryview stores one int faster
        for t in range(n):
            arm = policy.select(rng)
            reward = sto.sample_reward(arm, rng)
            policy.update(arm, reward if gain else 1.0 - reward)
            record[t] = arm
        del record  # which holds the arms, freed below
        played = sto.gaps.take(arms)
        del arms
        return _curves(played, None)

    played = np.empty((n,) + rows)  # loss of the arm played
    if kind == "oblivious":
        losses = env["losses"]
        record = played if rows else memoryview(played)
        for t in range(n):
            arm = policy.select(rng)
            # one replica's loss as a Python float, which its one-row state adds in less time
            loss = losses[t].take(arm) if rows else losses.item(t, arm)
            policy.update(arm, 1.0 - loss if gain else loss)
            record[t] = loss
        return _curves(played, np.cumsum(losses, axis=0).min(axis=1))

    # nonoblivious: a fresh adversary per call, reacting to each replica's plays
    grudge = NonObliviousAdversary(env["K"], *rows)
    best = np.empty((n,) + rows)
    record, held = (played, best) if rows else (memoryview(played), memoryview(best))
    for t in range(n):
        arm = policy.select(rng)
        loss, held[t] = grudge.play(arm)
        policy.update(arm, 1.0 - loss if gain else loss)
        record[t] = loss
    return _curves(played, best)


def _run_finite(make: Callable, p: dict, env: dict, n: int, seed: int, ids) -> list:
    """Each batch's curves for a finite-arm class, which `make(p, env, n)` binds."""
    return [_finite_rounds(policy, env, n, rng, rows)
            for policy, rng, rows in _batches(make(p, env, n), env, n, seed, ids)]


def _rounds(make: Callable, seen: Callable, best: Callable | None, p: dict, env: dict,
            n: int, seed: int, ids) -> list:
    """Each batch's curves for a class, bound by `make(p, env, n)`, that plays
    `round(x, rng)`. `seen(env, n, rng)` yields each round's x, and
    `policy.round(x, rng)` plays it and returns (action, loss), a loss per
    row in lockstep. `best(env)` makes the competitor, once per run on the
    first batch's rounds (replicas played one at a time all see the same
    rounds): a fold that takes each x as it comes and returns the
    competitor's cumulative loss so far, for all rows or per row, so no x
    outlives its round. Without one the curve counts losses.
    """
    curves, held = [], None
    for policy, rng, rows in _batches(make(p, env, n), env, n, seed, ids):
        fold = best(env) if best is not None and held is None else None
        paid = np.empty((n,) + rows)
        if fold is not None:
            held = np.empty((n,) + rows)
        for t, x in enumerate(seen(env, n, rng)):
            paid[t] = policy.round(x, rng)[1]
            if fold is not None:
                held[t] = fold(x)
        del policy  # freed before the next replica's is built
        curves.append(_curves(paid, held))
    return curves


def _hindsight(value: Callable, row: Callable = lambda x: x) -> Callable:
    """A fold over the rounds: fed each round's x, it returns value(the sum
    of the rows `row(x)` so far), the best fixed action's cumulative loss
    when its loss is linear in the row."""
    cum = 0.0

    def step(x) -> float:
        nonlocal cum
        cum = cum + row(x)
        return value(cum)

    return step


def _per_context_best(K: int) -> Callable:
    """A fold over (context, arm losses) rounds: the cumulative loss of the
    best arm for each context in hindsight, after each round."""
    cums, total = {}, 0.0

    def step(x) -> float:
        nonlocal total
        context, losses = x
        cum = cums.setdefault(context, np.zeros(K))
        prev = cum.min()
        cum += losses
        total += cum.min() - prev
        return total

    return step


def _exp3p_state(p: dict, env: dict, n: int) -> partial:
    delta = None if p["delta_free"] else p["delta"]
    beta, eta, gamma = adversarial.exp3p_params(n, env["K"], delta)
    return partial(adversarial.Exp3PState, env["K"], eta, gamma, beta)


def _expert_rounds(env: dict, n: int, stream) -> Iterator:
    """exp4's built-in experts, one dirac expert per arm plus the uniform
    expert, beside each round's arm losses."""
    K = env["K"]
    advice = np.vstack([np.eye(K), np.full((1, K), 1.0 / K)])
    return ((advice, losses) for losses in env["losses"])


_NO_SETS = ("theta-exp4 and the theta overlay need environment.n_sets above 1 "
            "or environment.set_sizes")


def _theta_streams(env: dict) -> dict:
    _require(env["theta_streams"] is not None, _NO_SETS)
    return env["theta_streams"]


def _theta_rounds(env: dict, n: int, stream) -> Iterator:
    sets = sorted(env["theta_streams"].items())
    return (({theta: stream[t] for theta, stream in sets}, losses)
            for t, losses in enumerate(env["losses"]))


def _theta_best(env: dict) -> Callable:
    """A fold: the cumulative loss of the best context set, each of whose
    contexts plays its best arm in hindsight, after each round."""
    folds = {theta: _per_context_best(env["K"]) for theta in env["theta_streams"]}
    return lambda x: min(fold((x[0][theta], x[1])) for theta, fold in folds.items())


def _labelled(env: dict, n: int, stream) -> Iterator:
    """Each round's (features, label): the csv's rows, or the prototypes of
    labels drawn from the replica's stream before round 1."""
    if "xs" in env:
        return zip(env["xs"], env["ys"].tolist())
    labels = stream.integers(env["K"], size=n)
    return ((env["prototypes"][y], int(y)) for y in labels)


def _convex(n: int, e: dict, mode: str) -> dict:
    """The keywords of the osgd theorem of `mode` on a convex run of horizon
    n: d, the ball's outer and inner radii R = r, and the Lipschitz constant
    G, and for one-point feedback the loss bound L, that the run's loss
    family declares at R. `e` is the run's environment or its [environment]
    params, which share the keys read here."""
    family, R = convex.FAMILIES[e["family"]], e["radius"]
    k = {"n": n, "d": e["d"], "R": R, "r": R, "G": family.G(R)}
    return k if mode == "two-point" else {**k, "L": family.L(R)}


def _osgd_params(mode: str, p: dict, n: int, e: dict) -> tuple[float, float]:
    """(eta, delta) of an osgd run: its own, or what its mode's theorem
    prescribes; `e` as for `_convex`."""
    if mode == "two-point":
        eta, delta = convex.osgd_two_point_schedule(**_convex(n, e, mode))
    else:
        delta, eta = convex.osgd_one_point_schedule(**_convex(n, e, mode))
    return (eta if p["eta"] is None else p["eta"]), (delta if p["delta"] is None else p["delta"])


def _osgd_best(env: dict) -> Callable:
    """A fold: the best fixed point's cumulative loss on the directions of
    the rounds so far."""
    R = env["radius"]
    if env["family"] == "absvalue":
        return lambda c: 0.0
    if env["family"] == "linear":
        return _hindsight(lambda cum: -R * geometry.norm(cum))
    # quadratic: sum_t ||x - c_t||^2 minimized at the projected mean
    cum_c, cum_sq, t = np.zeros(env["d"]), 0.0, 0

    def step(c) -> float:
        nonlocal cum_c, cum_sq, t
        cum_c += c
        cum_sq += float(c @ c)
        t += 1
        x_star = geometry.project_ball(cum_c / t, R)
        return t * float(x_star @ x_star) - 2.0 * float(x_star @ cum_c) + cum_sq

    return step


def _osgd(mode: str) -> Callable:
    return partial(_rounds,
                   lambda p, env, n: partial(convex.OsgdState, convex.FAMILIES[env["family"]],
                                             env["d"], env["radius"], mode,
                                             *_osgd_params(mode, p, n, env)),
                   lambda env, n, stream: env["directions"][:n],
                   _osgd_best)


def _sgs_c_l(p: dict, env: dict) -> float:
    """The lower slope an sgs run plays with: its own, or the environment's
    (whose absence a run of another policy meets first)."""
    return env["C_L"] if p.get("c_l") is None else p["c_l"]


def _run_sgs(p: dict, env: dict, n: int, seed: int, ids) -> list:
    mu, mu_star = env["mu"], env["mu_star"]
    c_l = _sgs_c_l(p, env)

    def sample_losses(x: float, count: int, rng: np.random.Generator) -> np.ndarray:
        return (rng.random(count) < mu(x)).astype(float)

    def curve(stream: np.random.Generator) -> np.ndarray:
        played, _bracket = convex.run_sgs(sample_losses, n, c_l, stream)
        inc = mu(played)
        inc -= mu_star
        return _curves(inc, None)

    return [curve(derive_stream(seed, i)) for i in ids]


def _check_exp3p(p: dict, K: int, n: int) -> None:
    _require(p["delta_free"] or 0 < p["delta"] < 1, f"policy.delta must lie in (0, 1) "
             f"unless policy.delta_free = true, got {p['delta']!r}")
    if n:
        beta, _, gamma = adversarial.exp3p_params(n, K, None if p["delta_free"] else p["delta"])
        _require(max(beta, gamma) <= 1, f"experiment.horizon = {n} is too short for exp3p "
                 f"on {K} arms: its schedule gives gamma = {gamma:.4g} and beta = {beta:.4g} "
                 f"(beta grows as policy.delta falls), and both must be at most 1")


def _check_schedule(p: dict, key: str, n: int, schedule: Callable, ok: Callable,
                    rule: str) -> None:
    """ConfigError unless policy.`key`, or when it is unset the value
    `schedule(n)` its theorem prescribes, passes `ok`, which `rule` states."""
    if p[key] is not None:
        _require(ok(p[key]), f"policy.{key} {rule}, got {p[key]!r}")
    elif n:  # nothing runs at horizon 0
        value = schedule(n)
        _require(ok(value), f"experiment.horizon = {n} is too short for the schedule of "
                 f"policy.{key}: it gives {value:.4g}, and policy.{key} {rule}; set "
                 f"policy.{key} or a longer horizon")


def _check_banditron(p: dict, e: dict, n: int) -> None:
    _check_schedule(p, "gamma", n, lambda n: contextual.banditron_gamma(e["k"], n),
                    lambda gamma: gamma < 0.5, f"must lie below 1/2 (environment.k = {e['k']})")


def _check_exp2(p: dict, e: dict, n: int) -> None:
    _check_schedule(p, "gamma", n, lambda n: mirror.exp2_schedule(n, e["d"], e["n_points"])[1],
                    lambda gamma: gamma <= 1, f"must be at most 1 (environment.d = {e['d']}, "
                                              f"environment.n_points = {e['n_points']})")


def _check_osmd_ball(p: dict, e: dict, n: int) -> None:
    _check_schedule(p, "eta", n, lambda n: mirror.ball_schedule(n, e["d"])[1],
                    lambda eta: eta * e["d"] <= 0.5,
                    f"times environment.d = {e['d']} must be at most 1/2")


def _check_osgd(mode: str, p: dict, e: dict, n: int) -> None:
    _check_schedule(p, "delta", n, lambda n: _osgd_params(mode, p, n, e)[1],
                    lambda delta: delta < e["radius"], f"must lie below environment.radius "
                    f"= {e['radius']!r} (environment.d = {e['d']})")


def _check_sgs(p: dict, e: dict, n: int) -> None:
    """A c_l the search and its theorem can use: at most the loss's lower
    slope, and one whose first stage has a finite number of plays."""
    C_L = _UNIMODAL_SLOPES["C_L"]
    _require(p["c_l"] is None or p["c_l"] <= C_L, f"policy.c_l must be at most the loss's "
             f"lower slope C_L = {C_L!r}, got {p['c_l']!r}")
    if p["c_l"] is not None and n:  # nothing runs at horizon 0
        try:
            convex.sgs_stage_plan(1, p["c_l"], n)
        except (ZeroDivisionError, OverflowError):
            raise ConfigError(f"policy.c_l = {p['c_l']!r} gives stage 1 of the golden section "
                              f"search no finite number of plays") from None


# a policy's [policy] keys, the environment kinds it runs on, and how it plays
# its replicas: run(params, env, n, seed, ids) -> each batch's curves, by
# `_run_finite` or `_rounds` bound to make(params, env, n), which binds the
# policy's class, whose `draws_per_round` makes one batch of all replicas
# (`_rounds` also to its rounds and competitor), or by `_run_sgs`. `check`,
# as for an environment kind, except that a policy on the finite-arm kinds
# takes their number of arms in place of the env params.
Policy = namedtuple("Policy", "keys kinds run check", defaults=(None,))


_FINITE_KINDS = ("stochastic", "lower-bound", "oblivious", "nonoblivious")

_POLICIES = {
    "ucb": Policy({"alpha": Key(float, 2.5, "(2, inf)")}, _FINITE_KINDS, partial(
        _run_finite, lambda p, env, n: partial(stochastic.UcbState, env["K"], alpha=p["alpha"]))),
    "thompson": Policy({}, _FINITE_KINDS, partial(
        _run_finite, lambda p, env, n: partial(stochastic.ThompsonState, env["K"]))),
    "eps-greedy": Policy({"d_gap": Key(float, 0.1, "(0, 1)")}, _FINITE_KINDS, partial(
        _run_finite, lambda p, env, n: partial(stochastic.EpsGreedyState, env["K"],
                                               d_gap=p["d_gap"]))),
    "exp3": Policy({"eta": Key(float, None, "(0, inf)"), "anytime": Key(_flag, False)},
                   _FINITE_KINDS, partial(_run_finite, lambda p, env, n: partial(
                       adversarial.Exp3State, env["K"], n=n, eta=p["eta"], anytime=p["anytime"]))),
    # delta is read only without delta_free, so its range is a rule across keys
    "exp3p": Policy({"delta": Key(float, 0.1, "(-inf, inf)"), "delta_free": Key(_flag, False)},
                    _FINITE_KINDS, partial(_run_finite, _exp3p_state), check=_check_exp3p),
    "sexp3": Policy({}, ("contextual",), partial(
        _rounds, lambda p, env, n: partial(contextual.SExp3, env["K"]),
        lambda env, n, stream: zip(env["contexts"], env["losses"]),
        lambda env: _per_context_best(env["K"]))),
    "exp4": Policy({"gamma": Key(float, 0.0, "[0, 1]"), "eta": Key(float, None, "(0, inf)")},
                   ("contextual",), partial(
                       _rounds, lambda p, env, n: partial(
                           contextual.Exp4State, env["K"] + 1, env["K"], n=n,
                           gamma=p["gamma"], eta=p["eta"]),
                       _expert_rounds,
                       lambda env: _hindsight(np.min, lambda x: x[0] @ x[1]))),
    "theta-exp4": Policy({"gamma": Key(float, None, "(0, 1]")}, ("contextual",), partial(
        _rounds, lambda p, env, n: partial(contextual.ThetaExp4, sorted(
            env["theta_streams"]), env["K"], n, env["max_set_size"], gamma=p["gamma"]),
        _theta_rounds, _theta_best), check=lambda p, e, n: _require(_set_sizes(e), _NO_SETS)),
    "banditron": Policy({"gamma": Key(float, None, "(0, 0.5)")}, ("multiclass",), partial(
        _rounds, lambda p, env, n: partial(contextual.BanditronState, env["K"], env["d"], (
            contextual.banditron_gamma(env["K"], n) if p["gamma"] is None else p["gamma"])),
        _labelled, None), check=_check_banditron),
    "exp2-john": Policy({"eta": Key(float, None, "(0, inf)"), "gamma": Key(float, None, "(0, 1]")},
                        ("linear-points",), partial(
        _rounds, lambda p, env, n: partial(mirror.Exp2State, env["points"], env["design"], n=n,
                                           eta=p["eta"], gamma=p["gamma"]),
        lambda env, n, rng: repeat(env["loss"], n),
        lambda env: _hindsight(lambda c: (env["points"] @ c).min())), check=_check_exp2),
    # q is read only by the potential variant, so its range is a rule across keys
    "osmd-msets": Policy({"variant": Key(_choice("potential", "negent"), "potential"),
                          "q": Key(float, 2.0, "(-inf, inf)"),
                          "eta": Key(float, None, "[0, inf)")}, ("semibandit",), partial(
        _rounds, lambda p, env, n: partial(mirror.OsmdMsets, env["d"], env["m"], n=n,
                                           variant=p["variant"], q=p["q"], eta=p["eta"]),
        lambda env, n, rng: (rng.random(env["d"]) for _ in range(n)),
        # each replica draws its own losses, so each row has its own best m-set
        lambda env: _hindsight(lambda c: np.add.reduce(np.sort(c)[..., :env["m"]], -1))),
        check=lambda p, e, n: _require(p["variant"] != "potential" or p["q"] > 1, f"policy.q "
                                       f"must exceed 1 for the potential variant, got {p['q']!r}")),
    "osmd-ball": Policy({"gamma": Key(float, None, "(0, 1)"), "eta": Key(float, None, "(0, 0.5]")},
                        ("linear-ball",), partial(
                            _rounds, lambda p, env, n: partial(
                                mirror.OsmdBall, env["d"], n=n, gamma=p["gamma"], eta=p["eta"]),
                            lambda env, n, stream: repeat(env["loss"], n),
                            lambda env: _hindsight(lambda c: -geometry.norm(c))),
                        check=_check_osmd_ball),
    "osgd-2pt": Policy({"delta": Key(float, None, "(0, inf)"), "eta": Key(float, None, "(0, inf)")},
                       ("convex",), _osgd("two-point"), check=partial(_check_osgd, "two-point")),
    "osgd-1pt": Policy({"delta": Key(float, None, "(0, inf)"), "eta": Key(float, None, "(0, inf)")},
                       ("convex",), _osgd("one-point"), check=partial(_check_osgd, "one-point")),
    "sgs": Policy({"c_l": Key(float, None, "(0, inf)")}, ("unimodal",), _run_sgs,
                  check=_check_sgs),
}


def run_replica(config: dict, env: dict, seed: int, ids) -> np.ndarray:
    """Cumulative pseudo-regret (or mistake) curves of a config `check_config` returned.

    `ids` is one replica's stream id, for its 1-D curve, or a sequence of
    ids, for an (R, n) array in C order with one row per id; row r reads
    only the stream `derive_stream(seed, ids[r])`, in whichever batch
    `_batches` plays it: all replicas in lockstep (exp3, exp3p, exp2-john,
    osmd-msets, and ucb above its `narrow_width`) or one at a time.
    """
    p, n = config["policy_params"], config["horizon"]
    single = isinstance(ids, numbers.Integral)
    ids = [ids] if single else ids
    if n == 0:  # no round to play, so no policy to build
        curves = np.empty((len(ids), 0))
    else:  # made once the batches are done, so never a third curve-sized array
        batches = _POLICIES[config["policy"]].run(p, env, n, seed, ids)
        curves = np.concatenate([np.atleast_2d(c) for c in batches], out=np.empty((len(ids), n)))
    return curves[0] if single else curves


def exp3_cumulative_losses(loss_matrix, seed: int, ids) -> np.ndarray:
    """Each replica's cumulative loss under default `exp3` on the oblivious
    adversary `loss_matrix` (one row per round), replica r on the stream
    `derive_stream(seed, ids[r])`: the Monte Carlo side of
    `adversarial.exact_expectation_oracle`."""
    matrix = np.asarray(loss_matrix, dtype=float)
    n = len(matrix)
    config = check_config({"policy": "exp3", "horizon": n, "env_kind": "oblivious",
                           "env_params": {"losses": matrix}})
    env = build_environment("oblivious", config["env_params"], n, 0)
    curves = run_replica(config, env, seed, ids)
    return curves[:, -1] + matrix.sum(axis=0).min()


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

    Replica r reads only `derive_stream(seed, r)`.
    """
    start = time.perf_counter()
    config = check_config(config)
    return _play(config, *_prepare(config), time.perf_counter() - start)


def _prepare(config: dict) -> tuple[dict, dict]:
    """A checked config's environment and its overlays' values."""
    env = build_environment(config["env_kind"], config["env_params"], config["horizon"],
                            config["seed"])
    return env, {name: compute_overlay(name, config, env) for name in config["overlays"]}


def _play(config: dict, env: dict, overlays: dict, prepared_s: float) -> RegretReport:
    """A checked config's report, played on what `_prepare` made in `prepared_s`."""
    start = time.perf_counter()
    n, replicas, seed = config["horizon"], config["replicas"], config["seed"]
    stacked = run_replica(config, env, seed, range(replicas))

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
        wall_clock_s=prepared_s + time.perf_counter() - start,
    )


def sweep(config: dict, param: str, values: list) -> list[RegretReport]:
    """Re-run the experiment for each value of one dotted config parameter.

    Every cell is checked, and its environment built and overlays computed,
    once, before the first one plays; each cell's environment is dropped
    once it has played.
    """
    if not values:
        raise ConfigError("sweep needs at least one grid value")
    section, _, key = param.partition(".")
    cells = []
    for v in values:
        start = time.perf_counter()
        cell = copy.deepcopy(config)  # keeps seeds identical per cell
        if section == "experiment" and key in _EXPERIMENT_KEYS:
            cell[key] = str(v)
        elif section == "policy":
            cell.setdefault("policy_params", {})[key] = str(v)
        elif section == "environment":
            cell.setdefault("env_params", {})[key] = str(v)
        else:
            raise ConfigError(f"unknown key {param}")
        cell = check_config(cell)
        # every cell is prepared first, so a fault in any comes before any cell plays
        cells.append((cell, *_prepare(cell), time.perf_counter() - start))
    return [_play(*cells.pop(0)) for _ in values]  # popped, so each env goes once played


# ---------------------------------------------------------------------------
# bound registry
# ---------------------------------------------------------------------------


# a theorem's cap, a function of the keywords `bound` takes; how an experiment
# resolves them, params(config, env) -> dict; and whether the measured regret
# must stay below it (lower bounds are only plotted)
Bound = namedtuple("Bound", "cap params asserted", defaults=(True,))


def _policy_param(config: dict, key: str, low: float, high: float = math.inf) -> float:
    """The run's [policy] `key`, for a theorem that covers it in (low, high]."""
    p = config["policy_params"]
    if key not in p:
        raise ConfigError(f"policy {config['policy']!r} has no policy.{key}")
    if p[key] is None or not low < p[key] <= high:
        raise ConfigError(f"the theorem covers policy.{key} in ({low}, {high}], "
                          f"not the run's {p[key]!r}")
    return p[key]


def _exp3p_delta(config: dict) -> float:
    if config["policy_params"].get("delta_free"):
        raise ConfigError("policy.delta_free = true gives the bound no delta")
    return _policy_param(config, "delta", 0.0, 1.0)


def _n_K(c: dict, env: dict) -> dict:
    return {"n": c["horizon"], "K": env["K"]}


def _msets(c: dict, env: dict, variant: str) -> dict:
    """n, d and m of an osmd-msets run, whose `variant` must be the theorem's."""
    params = {"n": c["horizon"], "d": env["d"], "m": env["m"]}
    ran = c["policy_params"].get("variant")
    _require(ran == variant, f"the theorem covers policy.variant = {variant}, "
                             f"not the run's {ran!r}")
    return params


BOUNDS = {
    "ucb": Bound(stochastic.ucb_bound, lambda c, env: {
        "alpha": _policy_param(c, "alpha", 2.0), "gaps": env["env"].gaps, "n": c["horizon"]}),
    "kl-lower": Bound(stochastic.kl_lower_bound_constant,
                      lambda c, env: {"means": env["env"].means}, asserted=False),
    "exp3": Bound(adversarial.exp3_bound, _n_K),
    "exp3-anytime": Bound(partial(adversarial.exp3_bound, anytime=True), _n_K),
    "exp3p": Bound(adversarial.exp3p_bound,
                   lambda c, env: {**_n_K(c, env), "delta": _exp3p_delta(c)}),
    "exp3p-expected": Bound(adversarial.exp3p_expected_bound, _n_K),
    "minimax-lower": Bound(adversarial.minimax_lower, _n_K, asserted=False),
    "sexp3": Bound(contextual.sexp3_bound,
                   lambda c, env: {**_n_K(c, env), "S": env["n_contexts"]}),
    "exp4": Bound(contextual.exp4_bound, lambda c, env: {**_n_K(c, env), "N": env["K"] + 1}),
    "exp4-mixing": Bound(contextual.exp4_mixing_bound, lambda c, env: {
        **_n_K(c, env), "N": env["K"] + 1, "gamma": _policy_param(c, "gamma", 0.0, 1.0)}),
    "theta": Bound(lambda *, n, S, K, n_theta: contextual.theta_bound(n, S, K, n_theta),
                   lambda c, env: {**_n_K(c, env), "S": env["max_set_size"],
                                   "n_theta": len(_theta_streams(env))}),
    "banditron": Bound(contextual.banditron_bound,
                       lambda c, env: {**_n_K(c, env), "U_norm": env["U_norm"]}),
    "exp2-john": Bound(mirror.exp2_bound,
                       lambda c, env: {"n": c["horizon"], "d": env["d"], "N": env["N"]}),
    "osmd-negent": Bound(mirror.osmd_negent_bound, partial(_msets, variant="negent")),
    "osmd-potential": Bound(mirror.osmd_potential_bound, lambda c, env: {
        **_msets(c, env, "potential"), "q": _policy_param(c, "q", 1.0)}),
    "osmd-ball": Bound(mirror.ball_bound, lambda c, env: {"n": c["horizon"], "d": env["d"]}),
    "osgd-2pt": Bound(convex.osgd_two_point_bound, lambda c, env: {
        **_convex(c["horizon"], env, "two-point"),
        "delta": _osgd_params("two-point", c["policy_params"], c["horizon"], env)[1]}),
    "osgd-1pt": Bound(convex.osgd_one_point_bound,
                      lambda c, env: _convex(c["horizon"], env, "one-point")),
    "sgs": Bound(convex.sgs_bound, lambda c, env: {
        "n": c["horizon"], "C_L": _sgs_c_l(c["policy_params"], env), "C_H": env["C_H"]}),
}


def bound(name: str, **params) -> float:
    """The cap of the theorem `name` at `params`, which must be the keywords
    its cap takes; ConfigError naming a missing or unknown keyword, or
    quoting the cap's refusal of a value."""
    if name not in BOUNDS:
        raise ConfigError(f"unknown bound {name!r}")
    cap = BOUNDS[name].cap
    try:
        inspect.signature(cap).bind(**params)
    except TypeError as exc:
        raise ConfigError(f"bound {name!r}: {exc}") from None
    try:
        return float(cap(**params))
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"bound {name!r}: {exc}") from None


def compute_overlay(name: str, config: dict, env: dict) -> float:
    """Evaluate a bound with parameters pulled from a config that
    `check_config` returned; ConfigError when the environment or the policy
    lacks what the bound needs, or sets it outside what the theorem covers."""
    if name not in BOUNDS:
        raise ConfigError(f"unknown overlay {name!r}")
    try:
        params = BOUNDS[name].params(config, env)
    except KeyError as missing:
        raise ConfigError(f"overlay {name!r} does not apply to environment kind "
                          f"{config['env_kind']!r} (no {missing} there)") from None
    except ConfigError as why:
        raise ConfigError(f"overlay {name!r}: {why}") from None
    return bound(name, **params)


def assert_bounds(report: RegretReport) -> list[str]:
    """Names of asserted overlays violated by mean + 2 SEM."""
    cap = report.mean_terminal + 2.0 * report.sem_terminal
    return [name for name, value in report.overlays.items()
            if BOUNDS[name].asserted and cap > value]


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


# Each renderer turns a curve into Python floats with `tolist()` and formats
# them in one pass, so no numpy scalar is made per round. The CSV and SVG
# passes go in blocks of `_BLOCK` rounds, so a long curve's floats and row
# strings are never alive all at once. tests/test_emit.py pins their bytes
# against frozen per-round renderers.
_BLOCK = 4096


def _blocks(*curves) -> Iterator[tuple]:
    """For each block of `_BLOCK` rounds: its first index, then each curve's
    values in it as Python floats."""
    for lo in range(0, len(curves[0]), _BLOCK):
        yield (lo, *(np.asarray(c[lo:lo + _BLOCK], dtype=float).tolist() for c in curves))


def render_csv(report: RegretReport) -> str:
    """The schema line, the column names, then one row per round: the round,
    the mean regret, its SEM and each overlay's value, overlays by name."""
    names = sorted(report.overlays)
    columns = ",".join(["round", "mean_regret", "sem"] + [f"overlay_{k}" for k in names])
    tail = "".join(f",{float(report.overlays[k])!r}" for k in names)
    parts = [f"# {report.schema}\n{columns}\n"]
    for lo, means, sems in _blocks(report.mean_curve, report.sem_curve):
        parts.append("".join([f"{t},{mean!r},{sem!r}{tail}\n"
                              for t, mean, sem in zip(range(lo + 1, lo + _BLOCK + 1), means, sems)]))
    return "".join(parts)


def render_json(report: RegretReport) -> str:
    """`report.to_dict()` exactly as `json.dumps(..., indent=2, sort_keys=True)`
    writes it. `indent` selects the pure-Python encoder, so each curve goes
    through the C encoder instead, with the indent as its item separator; both
    write floats with `float.__repr__`, and NaN and Infinity alike."""
    fields = report.to_dict()
    entries = []
    for key in sorted(fields):
        value = fields.pop(key)  # a curve's floats go once its text is made
        if isinstance(value, list) and value:
            items = json.dumps(value, separators=(",\n    ", ": "))[1:-1]
            text = f"[\n    {items}\n  ]"
        else:
            text = json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
        entries.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(entries) + "\n}\n"


def render_svg(report: RegretReport, width: int = 640, height: int = 400) -> str:
    """Self-contained line chart: the regret curve plus horizontal overlays."""
    margin = 50
    n = max(report.horizon, 1)
    values = report.mean_curve.tolist() if report.horizon else [0.0]
    ymax = max([max(values), *report.overlays.values(), 1e-12])  # Python's: a leading nan stays
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
        # xs and ys on whole arrays: (width - 2 * margin) * t / n on ints
        # below 2**53 rounds as Python's int true division does, and every
        # other step is the same IEEE operation as on one float
        pts = " ".join(" ".join([f"{x:.2f},{y:.2f}" for x, y in zip(px, py)]) for _, px, py
                       in _blocks(xs(np.arange(1, report.mean_curve.size + 1)),
                                  ys(report.mean_curve)))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="steelblue" '
                     f'stroke-width="1.5"/>')
    for name, value in sorted(report.overlays.items()):
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


# the output formats, each with the renderer of a whole report as its text
RENDERERS = {"csv": render_csv, "json": render_json, "svg": render_svg}
_OUTPUT_KEYS = {"dir": Key(str, "."), "format": Key(_choice(*RENDERERS), "csv"),
                "basename": Key(str, "report")}


def emit(report: RegretReport, fmt: str, path) -> Path:
    """Write the report's `fmt` rendering to `path`, making its directory."""
    if fmt not in RENDERERS:
        raise ConfigError(f"unknown output format {fmt!r}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(RENDERERS[fmt](report))
    return path
