"""Exp3 and Exp3.P with their estimators, bound calculators and an exact oracle."""
from __future__ import annotations

import copy
import math

import numpy as np

from .env import ZERO, any_true, flat_index, sample_categorical


def exp_weights(scores: np.ndarray) -> np.ndarray:
    """Normalized exponential weights of `scores` along the last axis, shifted
    by the max for stability."""
    scores = np.asarray(scores, dtype=float)
    keep = scores.ndim > 1  # rows broadcast against their own max and sum
    w = scores - np.maximum.reduce(scores, -1, keepdims=keep)
    np.exp(w, out=w)
    w /= np.add.reduce(w, -1, keepdims=keep)
    return w


def exp3_probs(cum_losses: np.ndarray, eta: float) -> np.ndarray:
    if eta <= 0:
        raise ValueError("eta must be positive")
    return exp_weights(-eta * np.asarray(cum_losses, dtype=float))


def _importance_weight(p: np.ndarray, chosen, loss):
    """The flat index of each row's chosen entry of `p` (see `flat_index`)
    and loss / p[chosen] there; every row's probability is checked before
    the caller writes anything."""
    i = flat_index(p, chosen)
    p_chosen = p.take(i)
    if any_true(p_chosen <= ZERO):
        raise ZeroDivisionError("chosen arm has zero probability")
    return i, loss / p_chosen


def importance_loss_estimate(p: np.ndarray, chosen, loss) -> np.ndarray:
    """loss / p[chosen] at the chosen coordinate, zero elsewhere; row by row
    for an (R, K) `p` with one chosen arm and one loss per row."""
    p = np.asarray(p, dtype=float)
    i, weight = _importance_weight(p, chosen, loss)
    est = np.zeros(p.shape)
    est.put(i, weight)
    return est


class Exp3State:
    """Exponential weights over importance-weighted loss estimates.

    With a known horizon the fixed rate sqrt(2 ln K / (n K)) is used; the
    anytime variant recomputes eta_t = sqrt(ln K / (t K)) each round. With
    `replicas` set, the state holds one row per replica and `select`/`update`
    take and return one arm per row.
    """

    feedback = "loss"
    draws_per_round = 1  # one double per round, the arm's draw, so replicas run in lockstep

    def __init__(self, K: int, n: int | None = None, eta: float | None = None,
                 anytime: bool = False, replicas: int | None = None):
        self.K = K
        self.anytime = anytime
        if eta is not None:
            self.eta = eta
        elif anytime:
            self.eta = None
        elif n is not None:
            self.eta = math.sqrt(2.0 * math.log(K) / (n * K))
        else:
            raise ValueError("need a horizon, an explicit eta, or anytime=True")
        self.cum_losses = np.zeros(K if replicas is None else (replicas, K))
        self.t = 0  # rounds completed
        self._drawn_from = None  # the distribution the last select() drew from

    def current_eta(self) -> float:
        if self.eta is not None:
            return self.eta
        t = max(self.t, 1)
        return math.sqrt(math.log(self.K) / (t * self.K))

    def probs(self) -> np.ndarray:
        if self.t == 0:
            return np.full(self.cum_losses.shape, 1.0 / self.K)
        return exp3_probs(self.cum_losses, self.current_eta())

    def select(self, rng):
        self._drawn_from = self.probs()
        return sample_categorical(self._drawn_from, rng)

    def update(self, chosen, loss, sampling_probs: np.ndarray | None = None) -> None:
        """Apply the round's estimate, importance-weighted by the distribution
        the last select() drew from; `sampling_probs` overrides it when the
        arm was drawn from another distribution."""
        if sampling_probs is not None:
            p = np.asarray(sampling_probs, float)
        else:
            p = self.probs() if self._drawn_from is None else self._drawn_from
        self._drawn_from = None
        # Only the chosen entries move: the estimate is +0.0 elsewhere, and
        # x + 0.0 == x for every x but -0.0, which a sum that starts at
        # +0.0 never holds. So adding there alone keeps every bit.
        i, weight = _importance_weight(p, chosen, loss)
        cum = self.cum_losses
        cum.put(i, cum.take(i) + weight)
        self.t += 1


def exp3p_params(n: int, K: int, delta: float | None = None) -> tuple[float, float, float]:
    """Return (beta, eta, gamma); delta=None selects the confidence-free beta."""
    if n < 1 or K < 2:
        raise ValueError("need n >= 1 and K >= 2")
    if delta is None:
        beta = math.sqrt(math.log(K) / (n * K))
    else:
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        beta = math.sqrt(math.log(K / delta) / (n * K))
    eta = 0.95 * math.sqrt(math.log(K) / (n * K))
    gamma = 1.05 * math.sqrt(K * math.log(K) / n)
    return beta, eta, gamma


def exp3p_gain_estimate(p: np.ndarray, chosen, gain, beta: float) -> np.ndarray:
    """(gain * 1{chosen=i} + beta) / p_i for every arm i; row by row for an
    (R, K) `p` with one chosen arm and one gain per row."""
    p = np.asarray(p, dtype=float)
    if beta > 1.0:
        raise ValueError("beta must be at most 1")
    if any_true(p <= ZERO):
        raise ZeroDivisionError("all arm probabilities must be positive")
    # the bits of (beta + gain * 1{chosen=i}) / p_i, without a dense sum
    est = beta / p
    i = flat_index(p, chosen)
    est.put(i, (beta + gain) / p.take(i))
    return est


class Exp3PState:
    """Gain-form exponential weights mixed with gamma/K uniform exploration.

    With `replicas` set, the state holds one row per replica.
    """

    feedback = "gain"
    draws_per_round = 1  # one double per round, the arm's draw, so replicas run in lockstep

    def __init__(self, K: int, eta: float, gamma: float, beta: float,
                 replicas: int | None = None):
        if not 0.0 <= gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        self.K = K
        self.eta = eta
        self.gamma = gamma
        self.beta = beta
        self.cum_gains = np.zeros(K if replicas is None else (replicas, K))
        self.t = 0
        self._drawn_from = None  # the distribution the last select() drew from

    @classmethod
    def from_horizon(cls, K: int, n: int, delta: float | None = None,
                     replicas: int | None = None) -> "Exp3PState":
        beta, eta, gamma = exp3p_params(n, K, delta)
        return cls(K, eta, gamma, beta, replicas)

    def probs(self) -> np.ndarray:
        soft = exp_weights(self.eta * self.cum_gains)
        return (1.0 - self.gamma) * soft + self.gamma / self.K

    def select(self, rng):
        self._drawn_from = self.probs()
        return sample_categorical(self._drawn_from, rng)

    def update(self, chosen, gain) -> None:
        """Apply the round's estimate, weighted by the distribution the last
        select() drew from."""
        p = self.probs() if self._drawn_from is None else self._drawn_from
        self._drawn_from = None
        self.cum_gains += exp3p_gain_estimate(p, chosen, gain, self.beta)
        self.t += 1


def exp3_bound(n: int, K: int, anytime: bool = False) -> float:
    if anytime:
        return 2.0 * math.sqrt(n * K * math.log(K))
    return math.sqrt(2.0 * n * K * math.log(K))


def exp3p_bound(n: int, K: int, delta: float) -> float:
    return 5.15 * math.sqrt(n * K * math.log(K / delta))


def exp3p_expected_bound(n: int, K: int) -> float:
    return 5.15 * math.sqrt(n * K * math.log(K)) + math.sqrt(n * K / math.log(K))


def minimax_lower(n: int, K: int) -> float:
    return math.sqrt(n * K) / 20.0


MAX_PATHS = 10**6  # the oracle's default enumeration budget


def exact_expectation_oracle(policy_factory, loss_matrix, max_paths: int = MAX_PATHS):
    """Exact expected cumulative loss and pseudo-regret of a randomized policy.

    Enumerates every action path, weighting it by the product of the policy's
    conditional probabilities. The policy object returned by `policy_factory`
    must be deterministic given past (arm, loss) observations and expose
    `probs()` and `update(chosen, loss)`.
    """
    losses = np.asarray(loss_matrix, dtype=float)
    n, K = losses.shape
    if K**n > max_paths:
        raise ValueError(f"{K}^{n} paths exceed the enumeration budget")

    def walk(state, t: int, weight: float) -> float:
        if t == n:
            return 0.0
        p = state.probs()
        total = 0.0
        for arm in range(K):
            if weight * p[arm] < np.finfo(float).tiny:  # its share of the total is below 1e-307
                continue
            child = copy.deepcopy(state)
            child.update(arm, losses[t, arm])
            total += p[arm] * (losses[t, arm] + walk(child, t + 1, weight * p[arm]))
        return total

    expected_loss = walk(policy_factory(), 0, 1.0)
    best_arm_loss = losses.sum(axis=0).min()
    return expected_loss, expected_loss - float(best_arm_loss)
