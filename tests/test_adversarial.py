import math
import warnings

import numpy as np
import pytest

from banditlab import harness
from banditlab.adversarial import (
    Exp3PState,
    Exp3State,
    exact_expectation_oracle,
    exp3_bound,
    exp3p_bound,
    exp3p_expected_bound,
    exp3p_gain_estimate,
    exp3p_params,
    exp_weights,
    importance_loss_estimate,
    minimax_lower,
)
from banditlab.contextual import Exp4State
from banditlab.env import ReplicaDraws, derive_stream, flat_index


def test_exp_weights_hand_values():
    assert np.allclose(exp_weights(-1.0 * np.zeros(4)), 0.25)
    p = exp_weights(-1.0 * np.array([0.0, math.log(2)]))
    assert np.allclose(p, [2 / 3, 1 / 3])


def test_exp_weights_shift_invariance():
    rng = derive_stream(1, 0)
    for _ in range(20):
        L = rng.random(5) * 10
        p = exp_weights(-0.3 * L)
        assert np.allclose(p, exp_weights(-0.3 * (L + 7.5)), atol=1e-12)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_importance_loss_estimate():
    est = importance_loss_estimate(np.array([0.25, 0.75]), 0, 0.5)
    assert np.allclose(est, [2.0, 0.0])
    assert np.allclose(importance_loss_estimate(np.array([0.5, 0.5]), 1, 0.0), 0.0)
    with pytest.raises(ZeroDivisionError):
        importance_loss_estimate(np.array([0.0, 1.0]), 0, 0.5)


def test_importance_estimate_exact_unbiasedness():
    rng = derive_stream(2, 0)
    for _ in range(20):
        K = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(K))
        losses = rng.random(K)
        mean = sum(p[j] * importance_loss_estimate(p, j, losses[j]) for j in range(K))
        assert np.allclose(mean, losses, atol=1e-12)


def test_exp3p_params_paper_values():
    beta, eta, gamma = exp3p_params(10**4, 10, 0.1)
    assert beta == pytest.approx(math.sqrt(math.log(100) / 10**5), rel=1e-12)
    assert eta == pytest.approx(0.004559, abs=1e-6)
    assert gamma == pytest.approx(0.050385, abs=1e-6)


def test_exp3p_params_delta_free_matches_limit():
    beta_free, _, _ = exp3p_params(500, 4, None)
    # delta -> 1 collapses ln(K/delta) to ln K
    beta_lim, _, _ = exp3p_params(500, 4, 1.0 - 1e-12)
    assert beta_free == pytest.approx(beta_lim, rel=1e-6)
    with pytest.raises(ValueError):
        exp3p_params(500, 4, 1.5)


def test_exp3p_gamma_scaling():
    _, _, g1 = exp3p_params(1000, 5, 0.1)
    _, _, g4 = exp3p_params(4000, 5, 0.1)
    assert g1 == pytest.approx(2 * g4)


def test_exp3p_gain_estimate():
    est = exp3p_gain_estimate(np.array([0.5, 0.5]), 0, 1.0, 0.1)
    assert np.allclose(est, [2.2, 0.2])
    plain = exp3p_gain_estimate(np.array([0.25, 0.75]), 1, 0.6, 0.0)
    assert np.allclose(plain, [0.0, 0.8])
    # every bit of the dense form: beta everywhere, plus the gain at each
    # row's chosen arm, then divided by p
    rng = derive_stream(5, 0)
    for shape in ((4,), (3, 4)):
        for _ in range(50):
            p = rng.dirichlet(np.ones(4), size=shape[:-1] or None)
            chosen = rng.integers(4, size=shape[:-1] or None)
            gain, beta = rng.random(shape[:-1] or None), float(rng.random())
            dense = np.full(shape, beta)
            dense.reshape(-1)[flat_index(p, chosen)] += gain
            assert np.array_equal(exp3p_gain_estimate(p, chosen, gain, beta), dense / p)


def test_exp3p_gain_estimate_expectation():
    # expectation over the drawn arm is gain_i + beta / p_i for every i
    rng = derive_stream(3, 0)
    for _ in range(20):
        K = int(rng.integers(2, 5))
        p = rng.dirichlet(np.ones(K))
        gains = rng.random(K)
        beta = float(rng.random())
        mean = sum(p[j] * exp3p_gain_estimate(p, j, gains[j], beta) for j in range(K))
        assert np.allclose(mean, gains + beta / p, atol=1e-12)


def test_exp3p_probs_mixture():
    state = Exp3PState(2, eta=1.0, gamma=0.1, beta=0.0)
    assert np.allclose(state.probs(), 0.5)
    state.cum_gains = np.array([math.log(2), 0.0])
    assert np.allclose(state.probs(), [0.65, 0.35])
    state_uniform = Exp3PState(3, eta=1.0, gamma=1.0, beta=0.0)
    state_uniform.cum_gains = np.array([5.0, 1.0, 0.0])
    assert np.allclose(state_uniform.probs(), 1 / 3)


def test_exp3p_floor_every_round():
    rng = derive_stream(4, 0)
    state = Exp3PState(3, *exp3p_params(500, 3, 0.05))
    floor = state.gamma / 3
    for t in range(500):
        p = state.probs()
        assert (p >= floor - 1e-15).all()
        arm = state.select(rng)
        state.update(arm, float(rng.random()))


def test_probability_vectors_sum_to_one_100k_updates():
    rng = derive_stream(5, 0)
    exp3 = Exp3State(6, eta=0.07)
    exp3p = Exp3PState(6, eta=0.02, gamma=0.05, beta=0.01)
    for _ in range(50_000):
        for state in (exp3, exp3p):
            p = state.probs()
            assert abs(p.sum() - 1.0) <= 1e-12
            state.update(int(rng.integers(6)) if state is exp3p else state.select(rng),
                         float(rng.random()))


@pytest.mark.parametrize("K", [2, 3, 7, 8, 9, 10, 17, 129, 300, 1000])
def test_round_one_is_exactly_uniform(K):
    # the exponential-weights rule at zero cumulative loss, with no shortcut
    for replicas in (None, 3):
        for rate in ({"n": 100}, {"anytime": True}, {"eta": 1e-9}, {"eta": 50.0}):
            state = Exp3State(K, replicas=replicas, **rate)
            uniform = np.full(np.shape(state.cum_losses), 1.0 / K)
            assert np.array_equal(state.probs(), uniform)
            if replicas is None:  # a one-row select keeps the drawn arm's probability alone
                arm = state.select(derive_stream(0, 0))
                assert state._drawn_from == (arm, 1.0 / K)
            else:
                state.select(ReplicaDraws(0, range(replicas), 1))
                assert np.array_equal(state._drawn_from, uniform)
    for N in (2, 5, 9, K):
        for rate in ({"n": 100}, {"gamma": 0.1}, {"eta": 50.0}):
            assert np.array_equal(Exp4State(N, K, **rate).expert_probs(), np.full(N, 1.0 / N))


def test_bound_values():
    assert exp3_bound(100, 2) == pytest.approx(16.651, abs=1e-3)
    assert exp3_bound(100, 2, anytime=True) == pytest.approx(math.sqrt(2) * 16.651092,
                                                             rel=1e-6)
    assert minimax_lower(400, 2) == pytest.approx(1.4142, abs=1e-4)
    assert exp3p_bound(1000, 3, 0.1) == pytest.approx(520.216, abs=1e-2)
    assert exp3p_expected_bound(1000, 3) > exp3p_bound(1000, 3, 1.0 - 1e-9)


def test_exp3_anytime_schedule():
    state = Exp3State(4, anytime=True)
    state.t = 9
    assert state.current_eta() == pytest.approx(math.sqrt(math.log(4) / (9 * 4)))


@pytest.mark.parametrize("rate", [{"eta": -1.0}, {"eta": 0.0}, {"eta": -0.0},
                                  {"eta": math.nan}, {"n": math.inf}])
@pytest.mark.parametrize("replicas", [None, 3])
def test_exp3_refuses_a_rate_at_or_below_zero(rate, replicas):
    # the rate is checked once, here, and no round checks it; at nan a
    # one-row state played its last arm every round, since every running sum
    # compared false against u. The eta key's range is (0, inf); an infinite
    # horizon schedules eta = 0
    with pytest.raises(ValueError, match="eta must be positive"):
        Exp3State(4, replicas=replicas, **rate)
    assert Exp3State(4, eta=1e-300, replicas=replicas).probs().sum(-1) == pytest.approx(1.0)


@pytest.mark.parametrize("K", [1, 0])
def test_exp3_refuses_fewer_than_two_arms(K):
    # at K = 1 the schedules sqrt(2 ln K / (n K)) and sqrt(ln K / (t K)) are 0
    for rate in ({"n": 10}, {"anytime": True}, {"eta": 0.5}):
        with pytest.raises(ValueError, match="at least 2 arms"):
            Exp3State(K, **rate)


def test_oracle_single_round_uniform():
    losses = np.array([[0.2, 0.8]])
    exp_loss, regret = exact_expectation_oracle(lambda: Exp3State(2, n=1), losses)
    assert exp_loss == pytest.approx(0.5)
    assert regret == pytest.approx(0.3)


def test_oracle_constant_matrix_zero_regret():
    losses = np.full((4, 2), 0.6)
    _, regret = exact_expectation_oracle(lambda: Exp3State(2, n=4), losses)
    assert regret == pytest.approx(0.0, abs=1e-12)


def test_oracle_frozen_hand_instance():
    # brute-force value computed by independent path enumeration: eta = 1,
    # losses [[1,0],[1,0]] -> expected cumulative loss 0.80960146...
    losses = np.array([[1.0, 0.0], [1.0, 0.0]])
    exp_loss, regret = exact_expectation_oracle(lambda: Exp3State(2, eta=1.0), losses)
    assert exp_loss == pytest.approx(0.8096014610110588, abs=1e-12)
    assert regret == pytest.approx(0.8096014610110588, abs=1e-12)


def test_oracle_skips_paths_below_the_smallest_normal_double():
    # from horizon 14 on, some paths' probabilities underflow to subnormals,
    # and exp3's loss / p on such a path overflowed; those paths weigh nothing,
    # so the totals are the full walk's, whose warnings were ignored
    losses = derive_stream(0, 0).random((16, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = exact_expectation_oracle(lambda: Exp3State(2, n=16), losses)
    assert result == (7.938287754256816, 0.19594087608010646)


def test_oracle_instance_too_large():
    with pytest.raises(ValueError):
        exact_expectation_oracle(lambda: Exp3State(3, n=20), np.zeros((20, 3)),
                                 max_paths=1000)


def test_monte_carlo_matches_oracle_three_sems():
    rng = derive_stream(6, 0)
    losses = rng.random((5, 2))
    exact_loss, _ = exact_expectation_oracle(lambda: Exp3State(2, n=5), losses)
    reps = 3000
    totals = harness.exp3_cumulative_losses(losses, 6, range(1, reps + 1))
    sem = totals.std(ddof=1) / math.sqrt(reps)
    assert abs(totals.mean() - exact_loss) <= 3 * sem
