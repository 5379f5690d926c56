import math

import numpy as np
import pytest

from banditlab.env import StochasticEnv, derive_stream
from banditlab.stochastic import (
    EpsGreedyState,
    HOEFFDING,
    PsiSpec,
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


def test_ucb_untried_arm_forced():
    state = UcbState(2)
    state.counts = np.array([0, 5])
    state.means = np.array([0.0, 0.9])
    state.t = 5
    assert state.select() == 0


def test_ucb_hand_index():
    # alpha * ln t / T_i = 0.5 turns into a confidence radius of exactly 0.5,
    # so the indices are the means shifted by 0.5 and arm 1 wins
    radius = hoeffding_psi_star_inv(2.0 * 1.0 / 4)
    idx = np.array([0.5, 0.9]) + radius
    assert np.allclose(idx, [1.0, 1.4])
    state = UcbState(2, alpha=2.5)
    state.counts = np.array([4, 4])
    state.means = np.array([0.5, 0.9])
    state.t = 8
    assert state.select() == 1


def test_ucb_tie_breaks_lowest_index():
    state = UcbState(3)
    state.counts = np.array([2, 2, 2])
    state.means = np.array([0.4, 0.4, 0.4])
    state.t = 6
    assert state.select() == 0


def test_ucb_argmax_invariant_under_uniform_shift():
    rng = derive_stream(5, 0)
    for _ in range(20):
        state = UcbState(4)
        state.counts = rng.integers(1, 50, size=4)
        state.means = rng.random(4)
        state.t = int(state.counts.sum())
        base = state.select()
        state.means = state.means + 0.123
        assert state.select() == base


def test_first_k_rounds_round_robin():
    rng = derive_stream(17, 0)
    env = StochasticEnv.bernoulli([0.3, 0.6, 0.9])
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
    remembered, given = ThompsonState(3), ThompsonState(3)
    ours, theirs = derive_stream(7, 0), derive_stream(7, 0)
    for _ in range(200):
        arm = remembered.select(ours)
        assert given.select(theirs) == arm
        remembered.update(arm, 0.5)
        given.update(arm, 0.5, theirs)
    assert np.array_equal(remembered.successes, given.successes)
    assert np.array_equal(remembered.failures, given.failures)
    assert ours.random() == theirs.random()


def test_thompson_fractional_reward_binarized():
    rng = derive_stream(6, 0)
    state = ThompsonState(1)
    with pytest.raises(ValueError):
        state.update(0, 0.5)
    state.update(0, 0.5, rng)
    a, b = state.posterior_params()
    assert a[0] + b[0] == 3.0  # one observation landed somewhere


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


def test_psi_spec_is_pluggable():
    # a custom confidence shape still drives selection through the same index
    spec = HOEFFDING
    state = UcbState(2, psi=spec)
    assert state.psi.name == "hoeffding"


def test_custom_psi_spec_gets_every_rate_at_once():
    # a spec is applied elementwise to the array of rates, one per arm (and
    # per replica): here a narrow linear radius in place of Hoeffding's
    seen = []

    def narrow(rates):
        seen.append(np.shape(rates))
        return rates / 100.0

    spec = PsiSpec(narrow, name="narrow")
    for replicas in (None, 3):
        state = UcbState(3, alpha=3.0, psi=spec, replicas=replicas)
        rows = 1 if replicas is None else replicas
        arms = np.zeros(rows, dtype=int)
        for arm, reward in ((0, 1.0), (0, 1.0), (0, 0.5), (1, 0.0), (2, 0.5)):
            state.update(arm if replicas is None else arms + arm, reward)
        rates = 3.0 * math.log(6) / np.array([3, 1, 1])
        index = np.array([2.5 / 3, 0.0, 0.5]) + rates / 100.0
        assert int(index.argmax()) == 0
        assert np.atleast_1d(state.select()).tolist() == [0] * rows
        assert seen[-1] == state.means.shape
        assert np.atleast_1d(state.select(psi=HOEFFDING)).tolist() == [2] * rows
