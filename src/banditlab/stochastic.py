"""UCB-family policies, epsilon-greedy, Thompson sampling and their bound calculators."""
from __future__ import annotations

import math

import numpy as np

from .env import INF, ONE, TWO, as_arm, flat_index, smallest


def hoeffding_psi_star_inv(x):
    """Inverse of the rate function 2*eps^2 that governs [0,1]-bounded rewards,
    elementwise on arrays."""
    x = np.asarray(x)
    if smallest(x) < 0:
        raise ValueError("argument must be non-negative")
    return np.sqrt(x / TWO)


class UcbState:
    """Optimistic index policy over K arms.

    At round t the index of arm i is its empirical mean plus the Hoeffding
    radius sqrt(alpha * ln t / T_i / 2); untried arms have index +inf and
    ties go to the lowest arm index. With `replicas` set, the state holds
    one row per replica in (R, K) arrays and `select`/`update` take and
    return one arm per row. Without, it is one row of Python numbers, and a
    round is the same +, -, *, /, sqrt and comparisons on Python floats,
    which are the correctly rounded IEEE-754 operations of numpy's float64
    ufuncs, so a row keeps the bits it has in an array.
    """

    feedback = "gain"
    draws_per_round = 0  # select reads no double, so replicas run in lockstep
    # a batch of up to this many replicas plays one at a time as one-row
    # states, which cost less there than lockstep rows (README, "Narrow ucb batches")
    narrow_width = 6

    def __init__(self, K: int, alpha: float = 2.5, replicas: int | None = None):
        if alpha <= 2.0:
            raise ValueError("alpha must exceed 2")
        self.K = K
        self.alpha = alpha
        if replicas is None:
            self.counts = [0] * K
            self.means = [0.0] * K
        else:
            self.counts = np.zeros((replicas, K), dtype=int)
            self.means = np.zeros((replicas, K))
        self.t = 0  # rounds completed

    def select(self, rng=None):
        counts = self.counts
        a = self.alpha * math.log(self.t + 1)
        if counts.__class__ is list:
            means, best, arm = self.means, -math.inf, 0
            for i, c in enumerate(counts):
                if not c:
                    return i  # the first untried arm's +inf index wins
                index = means[i] + math.sqrt(a / c / 2.0)
                if index > best:  # strictly above, so ties keep the lowest arm
                    best, arm = index, i
            return arm
        # a float divisor spares the ufunc a cast; the quotients are the same
        rates = a / np.maximum(counts, ONE).astype(float)
        idx = self.means + hoeffding_psi_star_inv(rates)
        np.putmask(idx, np.logical_not(counts), INF)  # untried arms
        return as_arm(idx.argmax(-1))  # argmax takes the lowest index on ties

    def update(self, arm, reward) -> None:
        counts, means = self.counts, self.means
        if counts.__class__ is list:
            c = counts[arm] = counts[arm] + 1
            m = means[arm]
            means[arm] = m + (reward - m) / c
        else:
            i = flat_index(counts, arm)
            c = counts.take(i) + ONE
            m = means.take(i)
            counts.put(i, c)
            means.put(i, m + (reward - m) / c)
        self.t += 1


def kl_bernoulli(p: float, q: float) -> float:
    """Divergence between Bernoulli(p) and Bernoulli(q), with 0*ln 0 = 0."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly inside (0, 1)")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    out = 0.0
    if p > 0.0:
        out += p * math.log(p / q)
    if p < 1.0:
        out += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
    return out


def kl_lower_bound_constant(means) -> float:
    """Asymptotic ln(n) coefficient no consistent policy can beat."""
    means = np.asarray(means, dtype=float)
    best = float(means.max())
    if not 0.0 < best < 1.0:
        raise ValueError("the best mean must lie strictly inside (0, 1)")
    total = 0.0
    for mu in means:
        gap = best - mu
        if gap > 0.0:
            total += gap / kl_bernoulli(mu, best)
    return total


def ucb_bound(alpha: float, gaps, n: int) -> float:
    """Finite-time pseudo-regret cap: sum over positive gaps of (2a/gap) ln n + a/(a-2)."""
    if alpha <= 2.0:
        raise ValueError("alpha must exceed 2")
    gaps = [g for g in np.asarray(gaps, dtype=float) if g > 0.0]
    if not gaps:
        return 0.0
    log_n = math.log(n)
    return sum(2.0 * alpha / g * log_n + alpha / (alpha - 2.0) for g in gaps)


class ThompsonState:
    """Per-arm Beta posteriors starting from the uniform prior Beta(1, 1);
    `update` binarizes a fractional reward with the stream the last `select` drew from."""

    feedback = "gain"

    def __init__(self, K: int):
        self.K = K
        self.successes = np.zeros(K)
        self.failures = np.zeros(K)
        self._drawn_from = None  # the stream the last select() drew from

    def posterior_params(self) -> tuple[np.ndarray, np.ndarray]:
        return self.successes + 1.0, self.failures + 1.0

    def select(self, rng: np.random.Generator) -> int:
        self._drawn_from = rng
        # one draw per arm in turn, the doubles numpy's array call reads; on
        # Python floats, s + 1.0 is the posterior parameter numpy adds
        beta = rng.beta
        theta = [beta(s + 1.0, f + 1.0)
                 for s, f in zip(self.successes.tolist(), self.failures.tolist())]
        return theta.index(max(theta))  # the first arm of the largest draw, as argmax

    def update(self, arm: int, reward: float) -> None:
        # Non-binary rewards in [0,1] are binarized with an auxiliary
        # Bernoulli(reward) draw, which keeps the Beta update conjugate.
        if reward not in (0.0, 1.0):
            if self._drawn_from is None:
                raise ValueError("a fractional reward is binarized with the stream of a select")
            reward = float(self._drawn_from.random() < reward)
        if reward == 1.0:
            self.successes[arm] += 1.0
        else:
            self.failures[arm] += 1.0


class EpsGreedyState:
    """Greedy play with exploration probability min(1, K / (d_gap^2 * t))."""

    feedback = "gain"

    def __init__(self, K: int, d_gap: float):
        if not 0.0 < d_gap < 1.0:
            raise ValueError("d_gap must lie in (0, 1)")
        self.K = K
        self.d_gap = d_gap
        self.counts = np.zeros(K, dtype=int)
        self.means = np.zeros(K)
        self.t = 0

    def epsilon(self, t: int) -> float:
        return min(1.0, self.K / (self.d_gap**2 * t))

    def select(self, rng: np.random.Generator) -> int:
        # forced initialization: each arm once before the epsilon rule starts;
        # every update counts one arm, so only the first K rounds can find one
        if self.t < self.K:
            untried = np.flatnonzero(self.counts == 0)
            if untried.size:
                return int(untried[0])
        t = self.t + 1
        if rng.random() < self.epsilon(t):
            return int(rng.integers(self.K))
        return int(self.means.argmax())

    def update(self, arm: int, reward: float) -> None:
        self.counts[arm] += 1
        self.means[arm] += (reward - self.means[arm]) / self.counts[arm]
        self.t += 1
