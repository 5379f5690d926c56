import copy
import math

import numpy as np
import pytest

from banditlab.env import StochasticEnv, derive_stream
from banditlab.stochastic import (
    EpsGreedyState,
    ThompsonState,
    UcbState,
    hoeffding_psi_star_inv,
    kl_bernoulli,
    kl_lower_bound_constant,
    ucb_bound,
)


def test_hoeffding_psi_star_inv():
    assert hoeffding_psi_star_inv(0.0) == 0.0
    assert hoeffding_psi_star_inv(2.0) == pytest.approx(1.0)
    assert hoeffding_psi_star_inv(0.5) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        hoeffding_psi_star_inv(-1e-9)


def _ucb_forms(counts, means, t, **kw):
    """A one-row state (Python numbers) and a one-row lockstep state ((1, K)
    arrays), both holding `counts` and `means` after t rounds."""
    row = UcbState(len(counts), **kw)
    row.counts, row.means, row.t = list(counts), list(means), t
    batch = UcbState(len(counts), replicas=1, **kw)
    batch.counts, batch.means, batch.t = np.array([counts]), np.array([means]), t
    return row, batch


def _arms(*states):
    return [state.select() if isinstance(state.counts, list) else int(state.select()[0])
            for state in states]


def test_ucb_untried_arm_forced():
    assert _arms(*_ucb_forms([0, 5], [0.0, 0.9], 5)) == [0, 0]
    assert _arms(*_ucb_forms([3, 0, 0], [0.1, 0.0, 0.0], 3)) == [1, 1]


def test_ucb_hand_index():
    # alpha * ln t / T_i = 0.5 turns into a confidence radius of exactly 0.5,
    # so the indices are the means shifted by 0.5 and arm 1 wins
    radius = hoeffding_psi_star_inv(2.0 * 1.0 / 4)
    idx = np.array([0.5, 0.9]) + radius
    assert np.allclose(idx, [1.0, 1.4])
    assert _arms(*_ucb_forms([4, 4], [0.5, 0.9], 8, alpha=2.5)) == [1, 1]


def test_ucb_tie_breaks_lowest_index():
    assert _arms(*_ucb_forms([2, 2, 2], [0.4, 0.4, 0.4], 6)) == [0, 0]
    assert _arms(*_ucb_forms([2, 3, 2], [0.4, 0.7, 0.7], 7)) == [2, 2]


def test_ucb_argmax_invariant_under_uniform_shift():
    rng = derive_stream(5, 0)
    for _ in range(20):
        counts = rng.integers(1, 50, size=4).tolist()
        means = rng.random(4)
        t = sum(counts)
        base = _arms(*_ucb_forms(counts, means.tolist(), t))
        assert base[0] == base[1]
        assert _arms(*_ucb_forms(counts, (means + 0.123).tolist(), t)) == base


def test_one_row_ucb_holds_python_numbers():
    state = UcbState(3, alpha=3.0)
    for arm, reward in ((0, 1.0), (0, 1.0), (0, 0.5), (1, 0.0), (2, 0.5)):
        state.update(arm, reward)
    assert state.counts == [3, 1, 1] and state.means == [1.0 + (0.5 - 1.0) / 3, 0.0, 0.5]
    assert all(type(c) is int for c in state.counts)
    assert all(type(m) is float for m in state.means)
    radius = [math.sqrt(3.0 * math.log(6) / c / 2.0) for c in (3, 1, 1)]
    index = [m + r for m, r in zip(state.means, radius)]
    assert state.select() == index.index(max(index)) == 2
    with pytest.raises(ValueError):
        UcbState(3, alpha=2.0)


def test_first_k_rounds_round_robin():
    rng = derive_stream(17, 0)
    env = StochasticEnv([0.3, 0.6, 0.9])
    for policy in (UcbState(3), EpsGreedyState(3, d_gap=0.1)):
        seen = []
        for _ in range(3):
            arm = policy.select(rng)
            policy.update(arm, env.sample_reward(arm, rng))
            seen.append(arm)
        assert sorted(seen) == [0, 1, 2]


def test_kl_bernoulli_values():
    assert kl_bernoulli(0.3, 0.3) == 0.0
    assert kl_bernoulli(0.5, 0.75) == pytest.approx(0.14384, abs=1e-5)
    assert kl_bernoulli(0.6, 0.9) == pytest.approx(0.31124, abs=1e-5)
    assert kl_bernoulli(0.6, 0.9) >= 2 * 0.3**2
    with pytest.raises(ValueError):
        kl_bernoulli(0.5, 0.0)
    with pytest.raises(ValueError):
        kl_bernoulli(0.5, 1.0)


def test_kl_pinsker_sandwich_on_grid():
    grid = np.linspace(0.05, 0.95, 19)
    for p in grid:
        for q in grid:
            val = kl_bernoulli(p, q)
            assert val >= 2 * (p - q) ** 2 - 1e-12
            assert val <= (p - q) ** 2 / (q * (1 - q)) + 1e-12


def test_kl_lower_bound_constant():
    assert kl_lower_bound_constant([0.9, 0.6]) == pytest.approx(0.9639, abs=1e-4)
    assert kl_lower_bound_constant([0.7, 0.7, 0.7]) == 0.0
    expected = 2 * (0.4 / kl_bernoulli(0.5, 0.9))
    assert kl_lower_bound_constant([0.5, 0.5, 0.9]) == pytest.approx(expected)
    with pytest.raises(ValueError):
        kl_lower_bound_constant([0.5, 1.0])


def test_ucb_bound():
    assert ucb_bound(2.5, [], 100) == 0.0
    assert ucb_bound(2.5, [0.3], 10**4) == pytest.approx(158.5, abs=0.1)
    delta = ucb_bound(2.5, [0.3], 2000) - ucb_bound(2.5, [0.3], 1000)
    assert delta == pytest.approx(2 * 2.5 / 0.3 * math.log(2))
    with pytest.raises(ValueError):
        ucb_bound(2.0, [0.3], 100)


def test_thompson_posteriors():
    state = ThompsonState(2)
    a, b = state.posterior_params()
    assert np.array_equal(a, [1.0, 1.0]) and np.array_equal(b, [1.0, 1.0])
    state.update(0, 1.0)
    a, b = state.posterior_params()
    assert (a[0], b[0]) == (2.0, 1.0)
    assert a[0] / (a[0] + b[0]) == pytest.approx(2 / 3)


def test_thompson_posterior_mean_formula():
    rng = derive_stream(3, 0)
    state = ThompsonState(1)
    S = F = 0
    for _ in range(40):
        r = float(rng.random() < 0.6)
        state.update(0, r)
        S += r == 1.0
        F += r == 0.0
    a, b = state.posterior_params()
    assert a[0] / (a[0] + b[0]) == pytest.approx((S + 1) / (S + F + 2))


def test_thompson_samples_in_unit_interval():
    rng = derive_stream(4, 0)
    state = ThompsonState(3)
    for _ in range(100):
        arm = state.select(rng)
        assert 0 <= arm < 3
        state.update(arm, float(rng.random() < 0.5))
    theta = rng.beta(*state.posterior_params())
    assert ((theta >= 0) & (theta <= 1)).all()


def test_thompson_binarizes_with_the_stream_it_selected_on():
    state, rng = ThompsonState(3), derive_stream(7, 0)
    for _ in range(200):
        arm = state.select(rng)
        ahead = copy.deepcopy(rng)
        success = float(ahead.random() < 0.5)
        before = state.successes[arm], state.failures[arm]
        state.update(arm, 0.5)
        assert (state.successes[arm], state.failures[arm]) == (before[0] + success,
                                                               before[1] + 1.0 - success)
        assert rng.random() == ahead.random()  # the update read exactly one double


def test_thompson_fractional_reward_binarized():
    rng = derive_stream(6, 0)
    state = ThompsonState(1)
    with pytest.raises(ValueError):
        state.update(0, 0.5)  # no select has drawn from a stream yet
    state.select(rng)
    ahead = copy.deepcopy(rng)
    state.update(0, 0.5)
    success = float(ahead.random() < 0.5)
    a, b = state.posterior_params()
    assert (a[0], b[0]) == (1.0 + success, 2.0 - success)


def test_eps_greedy_schedule():
    state = EpsGreedyState(2, d_gap=0.1)
    assert state.epsilon(1) == 1.0  # clamped
    assert state.epsilon(10**4) == pytest.approx(0.02)


def test_eps_greedy_exploit_argmax():
    state = EpsGreedyState(2, d_gap=0.9)
    state.counts = np.array([50, 50])
    state.means = np.array([0.2, 0.7])
    state.t = 100
    rng = derive_stream(8, 0)
    picks = [state.select(rng) for _ in range(200)]
    # eps is tiny at t=101, so the overwhelming majority must exploit arm 1
    assert np.mean([p == 1 for p in picks]) > 0.9


def test_eps_greedy_uniform_when_clamped():
    # K/(d^2 t) >= 1 up to t = 10000, so every pick in this run explores
    state = EpsGreedyState(4, d_gap=0.02)
    rng = derive_stream(9, 0)
    picks = []
    for _ in range(4000):
        arm = state.select(rng)
        state.update(arm, 0.0)
        picks.append(arm)
    counts = np.bincount(np.array(picks), minlength=4)
    assert counts.min() > 800


class _FrozenThompson:
    """ThompsonState as it was before its scalar draws: one array beta call."""

    def __init__(self, K):
        self.successes, self.failures, self._drawn_from = np.zeros(K), np.zeros(K), None

    def select(self, rng):
        self._drawn_from = rng
        return int(rng.beta(self.successes + 1.0, self.failures + 1.0).argmax())

    def update(self, arm, reward):
        if reward not in (0.0, 1.0):
            reward = float(self._drawn_from.random() < reward)
        if reward == 1.0:
            self.successes[arm] += 1.0
        else:
            self.failures[arm] += 1.0


class _FrozenEpsGreedy:
    """EpsGreedyState as it was before its untried-arm search was bounded."""

    def __init__(self, K, d_gap):
        self.K, self.d_gap, self.t = K, d_gap, 0
        self.counts, self.means = np.zeros(K, dtype=int), np.zeros(K)

    def select(self, rng):
        untried = np.flatnonzero(self.counts == 0)
        if untried.size:
            return int(untried[0])
        if rng.random() < min(1.0, self.K / (self.d_gap**2 * (self.t + 1))):
            return int(rng.integers(self.K))
        return int(self.means.argmax())

    def update(self, arm, reward):
        self.counts[arm] += 1
        self.means[arm] += (reward - self.means[arm]) / self.counts[arm]
        self.t += 1


def _pin(state, frozen, seed, n, rewards, names):
    """Play `state` and `frozen` on copies of one stream for n rounds, the
    reward of arm i at round t being `rewards(t, i, draw)`, and require the
    same arm, the same state arrays and the same stream position every round."""
    rng, again = derive_stream(seed, 0), derive_stream(seed, 0)
    feed = derive_stream(seed, 1)
    for t in range(n):
        arm = state.select(rng)
        assert frozen.select(again) == arm and type(arm) is int
        reward = rewards(t, arm, feed.random())
        state.update(arm, reward)
        frozen.update(arm, reward)
        for name in names:
            assert np.array_equal(getattr(state, name), getattr(frozen, name)), (t, name)
        assert copy.deepcopy(rng).random() == copy.deepcopy(again).random()  # the same position


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("K", [2, 5, 14, 15, 24])
def test_thompson_keeps_the_array_draws_bits(K, seed):
    # the frozen copy makes one array call; every third reward is fractional,
    # so its update reads the binarizing double from the stream
    means = np.linspace(0.2, 0.8, K)
    _pin(ThompsonState(K), _FrozenThompson(K), seed, 300,
         lambda t, i, u: 0.5 * u if t % 3 == 2 else float(u < means[i]),
         ("successes", "failures"))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("K", [2, 5, 9])
def test_eps_greedy_keeps_the_frozen_rounds_bits(K, seed):
    means = np.linspace(0.9, 0.1, K)
    _pin(EpsGreedyState(K, d_gap=0.3), _FrozenEpsGreedy(K, 0.3), seed, 400,
         lambda t, i, u: float(u < means[i]), ("counts", "means", "t"))


def test_eps_greedy_tries_the_lowest_untried_arm_first():
    state, rng = EpsGreedyState(4, d_gap=0.5), derive_stream(11, 0)
    state.update(2, 1.0)
    state.update(0, 0.0)
    assert [state.select(rng) for _ in range(2)] == [1, 1]
    state.update(1, 0.5)
    assert state.select(rng) == 3
