import math

import numpy as np
import pytest

from banditlab import harness
from banditlab.adversarial import (
    Exp3PState,
    Exp3State,
    adversary_mean_gap_lower,
    exact_expectation_oracle,
    exp3_bound,
    exp3_probs,
    exp3p_bound,
    exp3p_expected_bound,
    exp3p_gain_estimate,
    exp3p_params,
    importance_loss_estimate,
    minimax_lower,
)
from banditlab.env import derive_stream


def test_exp3_probs_hand_values():
    assert np.allclose(exp3_probs(np.zeros(4), 1.0), 0.25)
    p = exp3_probs(np.array([0.0, math.log(2)]), 1.0)
    assert np.allclose(p, [2 / 3, 1 / 3])


def test_exp3_probs_shift_invariance():
    rng = derive_stream(1, 0)
    for _ in range(20):
        L = rng.random(5) * 10
        p = exp3_probs(L, 0.3)
        assert np.allclose(p, exp3_probs(L + 7.5, 0.3), atol=1e-12)
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
    state = Exp3PState.from_horizon(3, 500, 0.05)
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


def test_bound_values():
    assert exp3_bound(100, 2) == pytest.approx(16.651, abs=1e-3)
    assert exp3_bound(100, 2, anytime=True) == pytest.approx(math.sqrt(2) * 16.651092,
                                                             rel=1e-6)
    assert minimax_lower(400, 2) == pytest.approx(1.4142, abs=1e-4)
    assert exp3p_bound(1000, 3, 0.1) == pytest.approx(520.216, abs=1e-2)
    assert exp3p_expected_bound(1000, 3) > exp3p_bound(1000, 3, 1.0 - 1e-9)
    assert adversary_mean_gap_lower(400, 2, 0.0) == 0.0


def test_exp3_anytime_schedule():
    state = Exp3State(4, anytime=True)
    state.t = 9
    assert state.current_eta() == pytest.approx(math.sqrt(math.log(4) / (9 * 4)))


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
