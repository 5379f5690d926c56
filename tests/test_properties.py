"""Seeded randomized properties the estimators depend on: the probability
floors of the mixing forecasters hold every round, and the capped-simplex
projections land on the capped simplex."""
import numpy as np

from banditlab.adversarial import Exp3PState
from banditlab.contextual import BanditronState, Exp4State
from banditlab.env import ReplicaDraws, derive_stream
from banditlab.geometry import (
    PROJECTION_TOL,
    project_capped_simplex_negent,
    project_capped_simplex_potential,
)
from banditlab.mirror import exp_potential, power_potential

PROPERTY_SEED = 20240602


def test_exp3p_probs_keep_their_floor_every_round():
    rng = derive_stream(PROPERTY_SEED, 1)
    for trial in range(10):
        K, n, R = int(rng.integers(2, 8)), int(rng.integers(20, 200)), 3
        delta = float(rng.uniform(0.01, 0.99))
        policy = Exp3PState.from_horizon(K, n, delta, replicas=R)
        draws = ReplicaDraws(PROPERTY_SEED + trial, range(R), n)
        floor = policy.gamma / K
        gains = rng.random((n, K))  # one gain sequence, as an oblivious adversary plays
        for t in range(n):
            assert (policy.probs() >= floor).all()
            arm = policy.select(draws)
            policy.update(arm, gains[t, arm])


def test_exp4_mixing_arm_probs_keep_their_floor_every_round():
    rng = derive_stream(PROPERTY_SEED, 2)
    for trial in range(10):
        K, N, n = int(rng.integers(2, 6)), int(rng.integers(1, 6)), int(rng.integers(20, 200))
        gamma = float(rng.uniform(0.01, 1.0))
        policy = Exp4State(N, K, n=n, gamma=gamma)
        stream = derive_stream(PROPERTY_SEED + trial, 0)
        for _ in range(n):
            advice = rng.dirichlet(np.full(K, 0.2), size=N)  # near-dirac experts
            assert (policy.arm_probs(advice) >= gamma / K).all()
            arm = policy.select(advice, stream)
            policy.update(advice, arm, float(rng.random()))


def test_banditron_probs_keep_their_floor_every_round():
    rng = derive_stream(PROPERTY_SEED, 3)
    for trial in range(10):
        K, d, n = int(rng.integers(2, 6)), int(rng.integers(1, 6)), int(rng.integers(20, 200))
        gamma = float(rng.uniform(0.01, 0.49))
        policy = BanditronState(K, d, gamma)
        stream = derive_stream(PROPERTY_SEED + trial, 0)
        for _ in range(n):
            x, y = rng.standard_normal(d), int(rng.integers(K))
            Y, yhat, p = policy.step(x, stream)
            assert (p >= gamma / K).all()
            policy.update(x, yhat, Y, Y == y, p)


def _check_on_capped_simplex(x: np.ndarray, d: int, m: int) -> None:
    assert x.shape == (d,)
    assert ((0.0 <= x) & (x <= 1.0)).all()
    assert abs(x.sum() - m) <= PROJECTION_TOL


def _random_weights(d: int, rng) -> np.ndarray:
    """Positive weights spread over five orders of magnitude."""
    return 10.0 ** rng.uniform(-4.0, 1.0, d)


def test_negent_projection_lands_on_the_capped_simplex():
    rng = derive_stream(PROPERTY_SEED, 4)
    for _ in range(200):
        d = int(rng.integers(1, 12))
        m = int(rng.integers(1, d + 1))
        _check_on_capped_simplex(project_capped_simplex_negent(_random_weights(d, rng), m),
                                 d, m)


def test_potential_projection_lands_on_the_capped_simplex():
    rng = derive_stream(PROPERTY_SEED, 5)
    for _ in range(200):
        d = int(rng.integers(1, 12))
        m = int(rng.integers(1, d + 1))
        psi = exp_potential() if rng.random() < 0.25 else \
            power_potential(float(rng.uniform(1.1, 4.0)))
        _check_on_capped_simplex(
            project_capped_simplex_potential(_random_weights(d, rng), m, psi), d, m)
