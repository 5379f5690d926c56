"""Exp3 and Exp3.P with their estimators, bound calculators and an exact oracle."""
from __future__ import annotations

import copy
import math
import operator

import numpy as np

from .env import POSITIVE, ZERO, any_true, check_rate, flat_index, rates, sample_categorical


def exp_weights(scores: np.ndarray) -> np.ndarray:
    """Normalized exponential weights of `scores` along the last axis, shifted
    by the max for stability."""
    scores = np.asarray(scores, dtype=float)
    keep = scores.ndim > 1  # rows broadcast against their own max and sum
    w = scores - np.maximum.reduce(scores, -1, keepdims=keep)
    np.exp(w, out=w)
    w /= np.add.reduce(w, -1, keepdims=keep)
    return w


def row_sum(values: list) -> float:
    """The sum of a row of Python floats as numpy's float64 `add.reduce`
    adds it: below 8 terms one running sum from 0.0; up to 128, eight
    running sums, the j-th over terms j, j + 8, ..., joined pairwise, then
    the terms past the last multiple of 8 one by one; above 128, the two
    halves, cut at a multiple of 8, summed apart."""
    n = len(values)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return row_sum(values[:half]) + row_sum(values[half:])
    total, rest = 0.0, values
    if n >= 8:
        end = n - n % 8
        acc = values[:8]
        for i in range(8, end, 8):
            acc = list(map(operator.add, acc, values[i:i + 8]))
        a0, a1, a2, a3, a4, a5, a6, a7 = acc
        total = ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7))
        rest = values[end:]
    for x in rest:
        total += x
    return total


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
    anytime variant recomputes eta_t = sqrt(ln K / (t K)) each round. The
    rate is checked once, at construction. With `replicas` set, the state
    holds one row per replica and `select`/`update` take and return one arm
    per row. Without, `cum_losses` is one row of Python floats and a round
    is Python float operations, the correctly rounded IEEE-754 ones of
    numpy's float64 ufuncs, but for the exponentials and their sum, so a row
    keeps the bits that `exp_weights(-eta * L)` gives it in an array.
    `probs()` returns an array either way.

    A one-row state builds every distribution from `_row_weights`: its K
    weights exp(-eta L_i - top), top = -eta min(L), cached under the key
    (-eta, top) and recomputed all K only when the key has moved, because
    the least L_i moved. An update recomputes the played arm's weight alone,
    with `np.exp` on that one double, which gives the bits of its entry in a
    whole-row call (the `exp-lane-agreement` selftest). The anytime rate
    steps with t, so an anytime update drops the key instead. `select`
    divides by the weights' `row_sum` and draws in one pass that stops at
    the drawn arm, keeping that arm's probability for `update`. The cache
    assumes that the row moves only through `update`.
    """

    feedback = "loss"
    draws_per_round = 1  # one double per round, the arm's draw, so replicas run in lockstep

    @staticmethod
    def narrow_width(K: int) -> int:
        """The widest batch on K arms that plays one replica at a time as
        one-row states. On the 2-core Xeon of README's "Narrow batches", a
        one-row round cost about (K + 20) / 9 µs per replica and a lockstep
        round 13 to 16 µs whatever its width, so the one-row form costs
        less while R (K + 20) <= 125."""
        return 125 // (K + 20)

    def __init__(self, K: int, n: int | None = None, eta: float | None = None,
                 anytime: bool = False, replicas: int | None = None):
        if K < 2:
            raise ValueError(f"need at least 2 arms, got K = {K!r}")
        # the anytime rate sqrt(ln K / (t K)) is positive at K >= 2
        if eta is not None or not anytime:
            eta, = rates(n, lambda n: (math.sqrt(2.0 * math.log(K) / (n * K)),),
                         {"eta": POSITIVE}, eta=eta)
        self.K = K
        self.eta = eta
        if replicas is None:
            self.cum_losses = [0.0] * K
            self._key = self._weights = None  # the cached weights and their (-eta, top)
        else:
            self.cum_losses = np.zeros((replicas, K))
        self.t = 0  # rounds completed
        # in lockstep, the distribution the last select() drew from; in one
        # row, the arm it drew and that arm's probability
        self._drawn_from = None

    def current_eta(self) -> float:
        if self.eta is not None:
            return self.eta
        t = max(self.t, 1)
        return math.sqrt(math.log(self.K) / (t * self.K))

    def probs(self) -> np.ndarray:
        cum = self.cum_losses
        if cum.__class__ is list:
            w, total = self._row_weights()
            return np.array([x / total for x in w])
        return exp_weights(-self.current_eta() * cum)

    def _row_weights(self) -> tuple[list, float]:
        """A one-row state's weights exp(-eta L_i - top) and their `row_sum`,
        the K weights recomputed in one `np.exp` call, whose SIMD loop rounds
        some doubles differently from `math.exp`, only when the key
        (-eta, top) has moved. The largest score -eta L_i is -eta times the
        least L_i, since rounding keeps order."""
        cum = self.cum_losses
        neg = -self.current_eta()
        top = neg * min(cum)
        key = self._key
        if key is None or neg != key[0] or top != key[1]:
            self._weights = np.exp([neg * c - top for c in cum]).tolist()
            self._key = neg, top
        w = self._weights
        return w, row_sum(w)

    def select(self, rng):
        cum = self.cum_losses
        if cum.__class__ is not list:
            self._drawn_from = exp_weights(-self.current_eta() * cum)
            return sample_categorical(self._drawn_from, rng)
        w, total = self._row_weights()
        # sample_categorical's rule: the first running sum above u, capped at the last arm
        u, run, last = rng.random(), 0.0, len(w) - 1
        for arm in range(last):
            p = w[arm] / total
            run += p
            if run > u:
                break
        else:
            arm, p = last, w[last] / total
        self._drawn_from = arm, p
        return arm

    def update(self, chosen, loss, sampling_probs: np.ndarray | None = None) -> None:
        """Apply the round's estimate, importance-weighted by the distribution
        the last select() drew from; `sampling_probs` overrides it when the
        arm was drawn from another distribution."""
        cum = self.cum_losses
        drawn, self._drawn_from = self._drawn_from, None
        if cum.__class__ is list:
            if sampling_probs is not None:
                p_chosen = float(sampling_probs[chosen])
            elif drawn is not None and drawn[0] == chosen:
                p_chosen = drawn[1]
            else:
                w, total = self._row_weights()
                p_chosen = w[chosen] / total
            if p_chosen <= 0.0:
                raise ZeroDivisionError("chosen arm has zero probability")
            cum[chosen] += float(loss) / p_chosen
            self.t += 1
            key = self._key
            if self.eta is None:
                self._key = None  # the anytime rate steps with t
            elif key is not None:
                neg, top = key
                self._weights[chosen] = float(np.exp(neg * cum[chosen] - top))
            return
        p = (np.asarray(sampling_probs, float) if sampling_probs is not None
             else self.probs() if drawn is None else drawn)
        # Only the chosen entries move: the estimate is +0.0 elsewhere, and
        # x + 0.0 == x for every x but -0.0, which a sum that starts at
        # +0.0 never holds. So adding there alone keeps every bit.
        i, weight = _importance_weight(p, chosen, loss)
        cum.put(i, cum.take(i) + weight)
        self.t += 1


# Exp3.P's rates where its bound holds
_EXP3P = {"beta": (lambda beta: beta <= 1.0, "must be at most 1"), "eta": POSITIVE,
          "gamma": (lambda gamma: 0.0 <= gamma <= 1.0, "must lie in [0, 1]")}


def exp3p_params(n: int, K: int, delta: float | None = None) -> tuple[float, float, float]:
    """Return (beta, eta, gamma); delta=None selects the confidence-free beta.
    RateError for a delta outside (0, 1), or at a horizon too short for beta
    and gamma to be at most 1."""
    if K < 2:
        raise ValueError(f"need at least 2 arms, got K = {K!r}")
    if delta is not None:
        check_rate("delta", delta, lambda delta: 0.0 < delta < 1.0, "must lie in (0, 1)")
    return rates(n, lambda n: (math.sqrt(math.log(K if delta is None else K / delta) / (n * K)),
                               0.95 * math.sqrt(math.log(K) / (n * K)),
                               1.05 * math.sqrt(K * math.log(K) / n)),
                 _EXP3P, beta=None, eta=None, gamma=None)


def exp3p_gain_estimate(p: np.ndarray, chosen, gain, beta: float) -> np.ndarray:
    """(gain * 1{chosen=i} + beta) / p_i for every arm i; row by row for an
    (R, K) `p` with one chosen arm and one gain per row."""
    p = np.asarray(p, dtype=float)
    if any_true(p <= ZERO):
        raise ZeroDivisionError("all arm probabilities must be positive")
    # the bits of (beta + gain * 1{chosen=i}) / p_i, without a dense sum
    est = beta / p
    i = flat_index(p, chosen)
    est.put(i, (beta + gain) / p.take(i))
    return est


class Exp3PState:
    """Gain-form exponential weights mixed with gamma/K uniform exploration,
    at the (beta, eta, gamma) that `exp3p_params` returns for a horizon.

    With `replicas` set, the state holds one row per replica.
    """

    feedback = "gain"
    draws_per_round = 1  # one double per round, the arm's draw, so replicas run in lockstep

    def __init__(self, K: int, beta: float, eta: float, gamma: float,
                 replicas: int | None = None):
        self.K = K
        self.beta, self.eta, self.gamma = rates(None, None, _EXP3P, beta=beta, eta=eta, gamma=gamma)
        self.cum_gains = np.zeros(K if replicas is None else (replicas, K))
        self._drawn_from = None  # the distribution the last select() drew from

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
