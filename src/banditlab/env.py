"""Environments, adversaries and reproducible RNG streams."""
from __future__ import annotations

import functools
from typing import Callable, Sequence

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


class RowDraws:
    """Uniform doubles for one replica that plays alone.

    The replica reads the stream `derive_stream(seed, i)`. `random()`
    returns its next double as a Python float, exactly the double
    `stream.random()` would return, for one-row states, which compute on
    Python floats. The doubles are read in blocks of up to `_BLOCK`
    (`Generator.random(b)` yields the same doubles as b scalar calls), which
    spares the cost of a scalar `Generator.random()` call on every draw.
    `total` is the number of doubles the replica reads, and a read past it
    raises, as in `ReplicaDraws`.
    """

    def __init__(self, seed: int, i: int, total: int):
        self._stream = derive_stream(seed, i)
        self._left = total
        self._next = iter(()).__next__  # the next double of the current block

    def random(self) -> float:
        try:
            return self._next()
        except StopIteration:
            pass
        if self._left <= 0:
            raise RuntimeError("a replica stream read past its declared total")
        size = min(self._left, _BLOCK)
        self._left -= size
        self._next = iter(self._stream.random(size).tolist()).__next__
        return self._next()


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


class RateError(ValueError):
    """A rate outside the domain its policy's theorem holds on: `key` names
    it (`horizon` for a schedule's n), `value` is it, `rule` states the domain."""

    def __init__(self, key: str, value, rule: str):
        super().__init__(f"{key} {rule}, got {value!r}")
        self.key, self.value, self.rule = key, value, rule


POSITIVE = (lambda rate: 0.0 < rate < np.inf, "must be positive and finite")  # a `rates` rule


def check_rate(key: str, value, test: Callable, rule: str):
    """`value` if `test(value)`, false at nan, holds; else RateError."""
    if not test(value):
        raise RateError(key, value, rule)
    return value


def rates(n, schedule: Callable | None, rules: dict, **given) -> tuple:
    """The values `given` maps each key to, where None takes the key's entry
    of `schedule(n)`, each checked by its (test, rule) in `rules`: the given
    first, then n, which a schedule needs to be at least 1, then the rest."""
    for key, value in given.items():
        if value is not None:
            check_rate(key, value, *rules[key])
    if None not in given.values():
        return tuple(given.values())
    check_rate("horizon", n, lambda n: n is not None and n >= 1, "must be at least 1 to schedule")
    return tuple(check_rate(key, s, *rules[key]) if value is None else value
                 for (key, value), s in zip(given.items(), schedule(n)))


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


def sample_categorical(p, rng) -> int | np.ndarray:
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


class StochasticEnv:
    """K Bernoulli arms with the given means."""

    def __init__(self, means: Sequence[float]):
        self.means = np.array(means, dtype=float)
        if self.means.ndim != 1 or not self.means.size:
            raise ValueError("need at least one arm")
        if not within(self.means, 0.0, 1.0):
            raise ValueError("arm means must lie in [0, 1]")
        self.means.flags.writeable = False  # `_mean_of` copies it
        self._mean_of = self.means.tolist()  # one arm's mean as a Python float
        self.best_arm = int(self.means.argmax())
        self.gaps = self.means[self.best_arm] - self.means

    @property
    def n_arms(self) -> int:
        return len(self.means)

    def sample_reward(self, arm, rng):
        """Reward of `arm`, 1.0 with its mean's probability and else 0.0, from
        one uniform double; with one arm per replica (an array) and lockstep
        draws, one reward per replica."""
        if isinstance(arm, np.ndarray):
            _check_arms(arm, self.n_arms)
            return (rng.random() < self.means.take(arm)).astype(float)
        if not 0 <= arm < len(self._mean_of):  # what `_check_arms` checks of one arm
            raise IndexError(f"arm {arm} out of range for K={self.n_arms}")
        return 1.0 if rng.random() < self._mean_of[arm] else 0.0


def lower_bound_env(K: int, eps: float, best: int) -> StochasticEnv:
    """Bernoulli instance with means (1-eps)/2 everywhere except (1+eps)/2 at `best`."""
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps {eps} outside [0, 1)")
    if not 0 <= best < K:
        raise IndexError(f"best arm {best} out of range for K={K}")
    means = np.full(K, (1.0 - eps) / 2.0)
    means[best] = (1.0 + eps) / 2.0
    return StochasticEnv(means)


class NonObliviousAdversary:
    """The grudge adversary: a loss of 1 on the arm played most so far, ties
    to the lowest index, and all zeros before the first play.

    It reacts to past actions only through per-arm play counts, and never
    sees the forecaster's internal randomness. For R replicas in lockstep
    the counts are an (R, K) array. For one replica they are a Python list,
    and `target`, the arm the next round's loss hits (-1 before the first
    play), is kept up to date as each play is counted. `cum_losses`, the
    same shape as the counts, sums the loss vectors of the rounds `play`ed.
    """

    def __init__(self, n_arms: int, replicas: int | None = None):
        self.n_arms = n_arms
        if replicas is None:
            self.counts = [0] * n_arms
            self.target = -1
            self.cum_losses = [0.0] * n_arms
        else:
            self.counts = np.zeros((replicas, n_arms), dtype=int)
            self._played = False
            self.cum_losses = np.zeros(self.counts.shape)

    def loss_vector(self) -> np.ndarray:
        """The (R, K) loss vectors of the next round, in lockstep only."""
        losses = np.zeros(self.counts.shape)
        if self._played:
            losses.put(flat_index(losses, self.counts.argmax(-1)), 1.0)
        return losses

    def observe(self, arms):
        """One play per replica: an arm, or one arm per row of the counts.
        Returns their `flat_index` in the counts, and so in a loss vector."""
        _check_arms(arms, self.n_arms)
        counts = self.counts
        if counts.__class__ is list:
            c = counts[arms] = counts[arms] + 1
            top = self.target
            # the first index of the largest count: the arm played takes over
            # with a larger count, or with an equal one at a lower index
            if top < 0 or c > counts[top] or (c == counts[top] and arms < top):
                self.target = arms
            return arms
        i = flat_index(counts, arms)
        counts.put(i, counts.take(i) + ONE)
        self._played = True
        return i

    def play(self, arms):
        """One round: the loss vector is set, then `arms` are observed.
        Returns the loss of each play and the least cumulative loss of one
        arm after the round: Python floats for one replica, which builds no
        loss vector, else (R,) arrays."""
        if self.counts.__class__ is list:
            hit = self.target  # -1 before the first play, when every loss is 0
            self.observe(arms)
            if hit < 0:
                return 0.0, 0.0
            self.cum_losses[hit] += 1.0
            return 1.0 if arms == hit else 0.0, min(self.cum_losses)
        losses = self.loss_vector()
        loss = losses.take(self.observe(arms))  # where the plays sit in losses too
        self.cum_losses += losses
        return loss, np.minimum.reduce(self.cum_losses, -1)
