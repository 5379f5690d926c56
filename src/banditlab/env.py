"""Environments, adversaries, regret accounting and reproducible RNG streams."""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

ENV_STREAM_ID = 2**63  # reserved stream for config-level (replica-independent) draws


def derive_stream(master_seed: int, stream_id: int) -> np.random.Generator:
    """Return the RNG stream for (master_seed, stream_id).

    Streams are backed by the counter-based Philox4x64-10 generator keyed on
    `[master_seed % 2**64, stream_id % 2**64]`, so the draw sequence depends
    only on the pair and never on scheduling or on draws made from other
    streams. `philox_doubles` computes the same doubles without a Generator.
    """
    key = np.array([master_seed % 2**64, stream_id % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# Philox4x64-10 (Salmon et al. 2011): the round multipliers and Weyl key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)
_PHILOX_CHUNK = 2**14  # counters per pass; larger passes leave the cache


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64 bits of the 128-bit products m * x, for a constant
    m and a uint64 array x, from 32-bit halves."""
    mh, ml = np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF)
    xh, xl = x >> _U32, x & _LOW32
    hl, lh = xh * ml, xl * mh
    mid = ((xl * ml) >> _U32) + (hl & _LOW32) + (lh & _LOW32)
    return xh * mh + (hl >> _U32) + (lh >> _U32) + (mid >> _U32), x * np.uint64(m)


def _philox_blocks(seed: int, ids: np.ndarray, blocks: int) -> np.ndarray:
    """The first `blocks` Philox4x64-10 outputs of each key (seed, id), as
    an (R, 4 blocks) uint64 array. The counter is (c, 0, 0, 0) for c = 1, 2,
    ..., and each output's four words are read in order."""
    key0, key1 = seed % 2**64, ids[:, None]
    zero = np.zeros((1, 1), np.uint64)
    # rows and counters broadcast: the first round's words depend on one of them
    c = [np.arange(1, blocks + 1, dtype=np.uint64)[None, :], zero, zero, zero]
    for _ in range(10):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c[0])
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c[2])
        c = [hi1 ^ c[1] ^ np.uint64(key0), lo1, hi0 ^ c[3] ^ key1, lo0]
        key0 = (key0 + _PHILOX_W[0]) % 2**64  # a Python int: no scalar overflow
        key1 = key1 + np.uint64(_PHILOX_W[1])  # an array wraps silently
    return np.stack(np.broadcast_arrays(*c), axis=-1).reshape(len(ids), 4 * blocks)


def philox_doubles(seed: int, ids, k: int) -> np.ndarray:
    """The first k doubles of the stream `derive_stream(seed, i)` for every
    i in `ids`, as an (R, k) array, bit for bit what `.random(k)` returns:
    each double is `(u64 >> 11) * 2**-53`."""
    ids = np.array([i % 2**64 for i in ids], dtype=np.uint64)
    blocks = -(-k // 4)
    out = np.empty((len(ids), k))
    step = max(1, _PHILOX_CHUNK // max(blocks, 1))
    for lo in range(0, len(ids), step):
        u = _philox_blocks(seed, ids[lo:lo + step], blocks)[:, :k]
        np.multiply(u >> np.uint64(11), 2.0**-53, out=out[lo:lo + step])
    return out


_BLOCK = 4096  # doubles read from a replica's stream at a time
# The kernel costs about 0.5 ms a call plus 0.2-0.3 us per stream and counter
# of four doubles, a Generator about 10-18 us per stream plus 0.06 us per
# counter; up to 64 doubles per stream the two meet near 32 streams (README,
# "Replica streams").
KERNEL_MIN_STREAMS = 32
KERNEL_MAX_DOUBLES = 64


class ReplicaDraws:
    """Uniform doubles for replicas that advance in lockstep.

    Replica r reads the stream `derive_stream(seed, ids[r])`. `random()`
    returns one double per replica: the next one of that replica's own
    stream, exactly the double `stream.random()` would return. `total` is
    the number of doubles each replica reads.

    This is the one place that decides how those doubles are made. A wide
    batch of short streams, at least `KERNEL_MIN_STREAMS` of them reading at
    most `KERNEL_MAX_DOUBLES` each, is computed whole by `philox_doubles` in
    one array pass. Every other batch builds each replica's Generator and
    reads it in blocks of up to `_BLOCK` doubles (`Generator.random(b)`
    yields the same doubles as b scalar calls); a stream whose total fits in
    one block is read once and not kept. A block holds one row per replica,
    and each stream's next block is read straight into its row, so a replica
    holds one block at a time. Either way a replica's draws never depend on
    the batch it runs in.
    """

    def __init__(self, seed: int, ids, total: int):
        ids = list(ids)
        if not ids:
            raise ValueError("need at least one stream")
        self.replicas = len(ids)
        self._streams = []
        if self.replicas >= KERNEL_MIN_STREAMS and total <= KERNEL_MAX_DOUBLES:
            self._rows = philox_doubles(seed, ids, total)
            self._left = 0
        else:
            first = min(total, _BLOCK)
            rows = []
            for i in ids:
                stream = derive_stream(seed, i)
                rows.append(stream.random(first))
                if total > first:
                    self._streams.append(stream)
            self._rows = np.array(rows)
            self._left = total - first
        self._next = 0

    def _refill(self) -> None:
        if self._left <= 0:
            raise RuntimeError("replica streams read past their declared total")
        size = min(self._left, _BLOCK)
        self._rows = None  # free the spent block before reading the next
        self._rows = np.empty((self.replicas, size))
        for stream, row in zip(self._streams, self._rows):
            stream.random(size, out=row)
        self._left -= size
        self._next = 0

    def random(self, k: int | None = None) -> np.ndarray:
        """The next double of each replica, as an (R,) array; with `k`, the
        next k doubles of each, as a C-contiguous (R, k) array, exactly what
        `stream.random(k)` would return for each row."""
        if k is None:
            if self._next == self._rows.shape[1]:
                self._refill()
            u = self._rows[:, self._next]
            self._next += 1
            return u
        parts = []
        while k > 0:
            if self._next == self._rows.shape[1]:
                self._refill()
            take = min(k, self._rows.shape[1] - self._next)
            # a copy, so that a refill frees the spent block
            parts.append(self._rows[:, self._next:self._next + take].copy())
            self._next += take
            k -= take
        return parts[0] if len(parts) == 1 else np.hstack(parts)


def constant(value) -> np.ndarray:
    """`value` as a read-only 0-d array."""
    a = np.array(value)
    a.flags.writeable = False
    return a


# The constants that per-round code hands to ufuncs, as read-only 0-d arrays.
# numpy turns a Python scalar operand into an array on every call, which adds
# 40-90% to a ufunc on a few elements; an int costs more than a float, and a
# numpy scalar more than either. UNIT is ONE for float operands.
ONE, TWO, ZERO, INF, UNIT = (constant(v) for v in (1, 2.0, 0.0, np.inf, 1.0))


def as_arm(idx):
    """A Python int for one replica's arm (a numpy scalar), the array as is
    for many."""
    return int(idx) if idx.ndim == 0 else idx


def largest(a: np.ndarray):
    """`a.max()` as a Python scalar, nan included: the entry that `argmax`
    picks, which is the first nan if there is one. A method call on a small
    array costs a fraction of a reduction's set-up."""
    return a.item(a.argmax())


def smallest(a: np.ndarray):
    """`a.min()` as a Python scalar, nan included, as `largest` is."""
    return a.item(a.argmin())


def within(a: np.ndarray, low: float, high: float) -> bool:
    """Whether every entry of `a` lies in [low, high], a nan failing, by one
    `smallest` and one `largest`."""
    return not a.size or (smallest(a) >= low and largest(a) <= high)


def any_true(mask) -> bool:
    """`mask.any()`: one replica's scalar as is; for many, argmax finds the
    first True entry, if there is one (and an empty mask has none)."""
    return bool(mask) if mask.ndim == 0 else bool(mask.size and largest(mask))


@functools.lru_cache(maxsize=16)
def _row_starts(rows: int, K: int) -> np.ndarray:
    """r * K for each row r, built once per shape and read-only."""
    starts = np.arange(0, rows * K, K)
    starts.flags.writeable = False
    return starts


def flat_index(a: np.ndarray, chosen):
    """Where each row's `chosen` entry sits in `a.reshape(-1)`, the index
    that `take` and `put` read: `chosen` itself for a 1-D `a`, `r * K +
    chosen[r]` for an (R, K) one."""
    if a.ndim == 1:
        return chosen
    rows, K = a.shape
    return _row_starts(rows, K) + chosen


def _check_arms(arm, K: int) -> None:
    if isinstance(arm, np.ndarray):
        ok = largest(arm.astype(np.uint64)) < K  # a negative arm wraps to a huge one
    else:
        ok = 0 <= arm < K
    if not ok:
        raise IndexError(f"arm {arm} out of range for K={K}")


def sample_categorical(p: np.ndarray, rng) -> int | np.ndarray:
    """Index drawn with probabilities p; one uniform draw per call.

    With an (R, K) `p` and lockstep draws (`ReplicaDraws`), row r is drawn
    with the r-th double and an array of R indices is returned. The index is
    the number of cumulative sums at or below u (`searchsorted(...,
    side="right")`), capped at K - 1: the first sum above u once the last
    sum is raised to +inf.
    """
    cum = np.add.accumulate(p, -1)  # what cumsum calls, without its wrapper
    cum[..., -1] = INF
    # transposed, the (K, R) sums broadcast against one u per replica
    return as_arm((cum.T > rng.random()).argmax(0))


class BernoulliArm:
    """Reward in {0, 1} with the given mean."""

    def __init__(self, mean: float):
        if not 0.0 <= mean <= 1.0:
            raise ValueError(f"Bernoulli mean {mean} outside [0, 1]")
        self.mean = float(mean)

    def from_uniform(self, u: float) -> float:
        return float(u < self.mean)

    def sample(self, rng: np.random.Generator) -> float:
        return self.from_uniform(rng.random())


class DiscreteArm:
    """Reward drawn from a finite support inside [0, 1]."""

    def __init__(self, support: Sequence[float], probs: Sequence[float]):
        self.support = np.asarray(support, dtype=float)
        self.probs = np.asarray(probs, dtype=float)
        if self.support.min() < 0.0 or self.support.max() > 1.0:
            raise ValueError("support values must lie in [0, 1]")
        if abs(self.probs.sum() - 1.0) > 1e-9 or (self.probs < 0).any():
            raise ValueError("probs must be a probability vector")
        self.mean = float(self.support @ self.probs)
        self._cdf = self.probs.cumsum()
        self._cdf /= self._cdf[-1]

    def from_uniform(self, u: float) -> float:
        """The support value at u's quantile: the draw `rng.choice(support,
        p=probs)` makes from the same uniform."""
        return float(self.support[self._cdf.searchsorted(u, side="right")])

    def sample(self, rng: np.random.Generator) -> float:
        return self.from_uniform(rng.random())


class StochasticEnv:
    """K arms with i.i.d. rewards in [0, 1].

    Each arm turns one uniform double into a reward (`from_uniform`), which
    lets replicas in lockstep draw their rewards from their own streams.
    """

    def __init__(self, arms: Sequence):
        if len(arms) < 1:
            raise ValueError("need at least one arm")
        self.arms = list(arms)
        self._all_bernoulli = all(isinstance(a, BernoulliArm) for a in self.arms)
        self.means = np.array([a.mean for a in arms], dtype=float)
        if self.means.min() < 0.0 or self.means.max() > 1.0:
            raise ValueError("arm means must lie in [0, 1]")
        self.best_mean = float(self.means.max())
        self.best_arm = int(self.means.argmax())
        self.gaps = self.best_mean - self.means

    @classmethod
    def bernoulli(cls, means: Sequence[float]) -> "StochasticEnv":
        return cls([BernoulliArm(m) for m in means])

    @property
    def n_arms(self) -> int:
        return len(self.arms)

    def sample_reward(self, arm, rng):
        """Reward of `arm`; with one arm per replica (an array) and lockstep
        draws, one reward per replica."""
        _check_arms(arm, self.n_arms)
        if not isinstance(arm, np.ndarray):
            return self.arms[arm].sample(rng)
        u = rng.random()
        if self._all_bernoulli:
            return (u < self.means.take(arm)).astype(float)
        return np.array([self.arms[a].from_uniform(x) for a, x in zip(arm.tolist(), u.tolist())])


def lower_bound_env(K: int, eps: float, best: int) -> StochasticEnv:
    """Bernoulli instance with means (1-eps)/2 everywhere except (1+eps)/2 at `best`."""
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps {eps} outside [0, 1)")
    if not 0 <= best < K:
        raise IndexError(f"best arm {best} out of range for K={K}")
    means = np.full(K, (1.0 - eps) / 2.0)
    means[best] = (1.0 + eps) / 2.0
    return StochasticEnv.bernoulli(means)


class ObliviousAdversary:
    """Loss sequence fixed in advance as an n-by-K matrix with entries in [0, 1]."""

    def __init__(self, loss_matrix: np.ndarray):
        m = np.asarray(loss_matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("loss matrix must be 2-dimensional (rounds x arms)")
        if not np.all((m >= 0.0) & (m <= 1.0)):  # an empty matrix passes; nan fails
            raise ValueError("losses must lie in [0, 1]")
        self.loss_matrix = m

    @property
    def horizon(self) -> int:
        return self.loss_matrix.shape[0]

    @property
    def n_arms(self) -> int:
        return self.loss_matrix.shape[1]

    def loss_vector(self, t: int) -> np.ndarray:
        return self.loss_matrix[t]


class NonObliviousAdversary:
    """The grudge adversary: a loss of 1 on the arm played most so far, ties
    to the lowest index, and all zeros before the first play.

    It reacts to past actions only through per-arm play counts, (K,) for one
    replica or (R, K) for R replicas in lockstep, and never sees the
    forecaster's internal randomness.
    """

    def __init__(self, n_arms: int, replicas: int | None = None):
        self.n_arms = n_arms
        self.counts = np.zeros((n_arms,) if replicas is None else (replicas, n_arms), dtype=int)
        self._played = False

    def loss_vector(self) -> np.ndarray:
        losses = np.zeros(self.counts.shape)
        if self._played:
            losses.put(flat_index(losses, self.counts.argmax(-1)), 1.0)
        return losses

    def observe(self, arms):
        """One play per replica: an arm, or one arm per row of the counts.
        Returns their `flat_index` in the counts, and so in a loss vector."""
        _check_arms(arms, self.n_arms)
        i = flat_index(self.counts, arms)
        self.counts.put(i, self.counts.take(i) + ONE)
        self._played = True
        return i


@dataclass
class RunTrace:
    """Actions and realized losses of one run, plus per-arm pull counts."""

    actions: list = field(default_factory=list)
    losses: list = field(default_factory=list)

    def record(self, action: int, loss: float) -> None:
        self.actions.append(action)
        self.losses.append(loss)

    def __len__(self) -> int:
        return len(self.actions)

    def counts(self, n_arms: int) -> np.ndarray:
        c = np.zeros(n_arms, dtype=int)
        for a in self.actions:
            c[a] += 1
        return c


def pseudo_regret_stochastic(trace: RunTrace, env: StochasticEnv) -> float:
    """Sum over arms of gap times pull count, computed from the true means."""
    counts = trace.counts(env.n_arms)
    return float(env.gaps @ counts)


def pseudo_regret_oblivious(trace: RunTrace, adv: ObliviousAdversary) -> float:
    """Realized cumulative loss minus the best single arm's cumulative loss."""
    n = len(trace)
    if n > adv.horizon:
        raise ValueError(f"trace length {n} exceeds adversary horizon {adv.horizon}")
    if n == 0:
        return 0.0
    incurred = sum(adv.loss_matrix[t, a] for t, a in enumerate(trace.actions))
    best = adv.loss_matrix[:n].sum(axis=0).min()
    return float(incurred - best)

