import warnings

import numpy as np
import pytest

from banditlab import env as env_module
from banditlab.adversarial import Exp3State, exp_weights, importance_loss_estimate
from banditlab.env import (
    ENV_STREAM_ID,
    KERNEL_MAX_DOUBLES,
    KERNEL_MIN_STREAMS,
    NonObliviousAdversary,
    ObliviousAdversary,
    ReplicaDraws,
    RunTrace,
    StochasticEnv,
    derive_stream,
    lower_bound_env,
    philox_doubles,
    pseudo_regret_oblivious,
    pseudo_regret_stochastic,
)


def test_sample_reward_degenerate_bernoulli():
    rng = derive_stream(1, 0)
    env = StochasticEnv.bernoulli([1.0, 0.0])
    assert env.sample_reward(0, rng) == 1.0
    assert env.sample_reward(1, rng) == 0.0


def test_sample_reward_law_of_large_numbers():
    rng = derive_stream(42, 0)
    env = StochasticEnv.bernoulli([0.3])
    draws = [env.sample_reward(0, rng) for _ in range(10**5)]
    assert abs(np.mean(draws) - 0.3) < 0.01


def test_sample_reward_out_of_range():
    env = StochasticEnv.bernoulli([0.5])
    with pytest.raises(IndexError):
        env.sample_reward(1, derive_stream(0, 0))


def test_bad_means_rejected():
    with pytest.raises(ValueError):
        StochasticEnv.bernoulli([1.2])
    with pytest.raises(ValueError):
        StochasticEnv.bernoulli([])


def test_discrete_arm():
    from banditlab.env import DiscreteArm

    arm = DiscreteArm([0.0, 0.5, 1.0], [0.2, 0.5, 0.3])
    assert arm.mean == pytest.approx(0.55)
    rng = derive_stream(21, 0)
    draws = np.array([arm.sample(rng) for _ in range(20_000)])
    assert set(np.unique(draws)).issubset({0.0, 0.5, 1.0})
    assert abs(draws.mean() - 0.55) < 0.01
    env = StochasticEnv([arm, DiscreteArm([0.25], [1.0])])
    assert env.best_arm == 0
    with pytest.raises(ValueError):
        DiscreteArm([2.0], [1.0])
    with pytest.raises(ValueError):
        DiscreteArm([0.5], [0.7])


def test_pseudo_regret_stochastic_hand_values():
    env = StochasticEnv.bernoulli([0.9, 0.5])
    trace = RunTrace(actions=[0] * 10, losses=[0.0] * 10)
    assert pseudo_regret_stochastic(trace, env) == 0.0
    trace = RunTrace(actions=[0] * 5 + [1] * 5, losses=[0.0] * 10)
    assert pseudo_regret_stochastic(trace, env) == pytest.approx(2.0)
    single = StochasticEnv.bernoulli([0.7])
    trace = RunTrace(actions=[0] * 7, losses=[0.0] * 7)
    assert pseudo_regret_stochastic(trace, single) == 0.0


def test_pseudo_regret_stochastic_nonnegative_zero_iff_optimal():
    rng = derive_stream(7, 0)
    env = StochasticEnv.bernoulli([0.2, 0.9, 0.4])
    for _ in range(50):
        actions = list(rng.integers(3, size=20))
        trace = RunTrace(actions=actions, losses=[0.0] * 20)
        value = pseudo_regret_stochastic(trace, env)
        assert value >= 0.0
        assert (value == 0.0) == all(a == env.best_arm for a in actions)


def test_pseudo_regret_oblivious_hand_values():
    adv = ObliviousAdversary(np.zeros((4, 2)))
    trace = RunTrace(actions=[0, 1, 0, 1], losses=[0.0] * 4)
    assert pseudo_regret_oblivious(trace, adv) == 0.0

    adv = ObliviousAdversary(np.array([[1.0, 0.0], [1.0, 0.0]]))
    trace = RunTrace(actions=[0, 0], losses=[1.0, 1.0])
    assert pseudo_regret_oblivious(trace, adv) == pytest.approx(2.0)
    # playing the argmin column every round leaves nothing on the table
    trace = RunTrace(actions=[1, 1], losses=[0.0, 0.0])
    assert pseudo_regret_oblivious(trace, adv) == 0.0


def test_pseudo_regret_oblivious_trace_too_long():
    adv = ObliviousAdversary(np.zeros((2, 2)))
    trace = RunTrace(actions=[0, 0, 0], losses=[0.0] * 3)
    with pytest.raises(ValueError):
        pseudo_regret_oblivious(trace, adv)


def test_lower_bound_env():
    env = lower_bound_env(3, 0.0, 1)
    assert np.allclose(env.means, 0.5)
    env = lower_bound_env(2, 0.2, 0)
    assert np.allclose(env.means, [0.6, 0.4])
    env = lower_bound_env(5, 0.3, 2)
    gaps = np.delete(env.gaps, 2)
    assert np.allclose(gaps, 0.3)
    with pytest.raises(ValueError):
        lower_bound_env(2, 1.0, 0)


def test_derive_stream_determinism_and_independence():
    a = derive_stream(123, 0).random(100)
    b = derive_stream(123, 0).random(100)
    assert np.array_equal(a, b)
    c = derive_stream(123, 1).random(100)
    assert not np.array_equal(a, c)
    draws = derive_stream(123, 5).random(10**5)
    assert abs(draws.mean() - 0.5) < 0.01


def _generator_doubles(seed: int, ids, k: int) -> np.ndarray:
    return np.array([derive_stream(seed, i).random(k) for i in ids])


@pytest.mark.parametrize("k", [*range(1, 10), KERNEL_MAX_DOUBLES])
def test_philox_kernel_matches_numpy_philox(k):
    rng = derive_stream(31, k)
    ids = [ENV_STREAM_ID, 2**64 - 1, 0, *rng.integers(0, 2**64, 12, dtype=np.uint64).tolist(),
           # Python ints past uint64, reduced mod 2**64 as derive_stream does
           2**64, 2**64 + 7, 2**70 + 3, -1]
    seeds = [ENV_STREAM_ID, 2**64 - 1, 2**64 + 11,
             *rng.integers(0, 2**64, 3, dtype=np.uint64).tolist()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no scalar uint64 overflow in the key schedule
        for seed in seeds:
            got = philox_doubles(seed, ids, k)
            assert got.shape == (len(ids), k)
            assert np.array_equal(got, _generator_doubles(seed, ids, k))


def test_philox_kernel_passes_join_where_rows_split(monkeypatch):
    monkeypatch.setattr(env_module, "_PHILOX_CHUNK", 8)  # 9 doubles: 2 rows per pass
    ids = range(2**63 - 3, 2**63 + 4)
    assert np.array_equal(philox_doubles(5, ids, 9), _generator_doubles(5, ids, 9))


@pytest.mark.parametrize("R", [KERNEL_MIN_STREAMS - 1, KERNEL_MIN_STREAMS])
@pytest.mark.parametrize("total", [KERNEL_MAX_DOUBLES, KERNEL_MAX_DOUBLES + 1])
def test_replica_draws_read_the_same_doubles_on_both_sides_of_the_rule(monkeypatch, R, total):
    ids = [3 * r + 2**63 for r in range(R)]
    derived = []
    derive = env_module.derive_stream
    monkeypatch.setattr(env_module, "derive_stream",
                        lambda seed, i: derived.append(i) or derive(seed, i))
    draws = ReplicaDraws(7, ids, total)
    on_kernel = R >= KERNEL_MIN_STREAMS and total <= KERNEL_MAX_DOUBLES
    assert len(derived) == (0 if on_kernel else R)
    got = np.hstack([draws.random(5), *(draws.random()[:, None] for _ in range(total - 5))])
    assert np.array_equal(got, _generator_doubles(7, ids, total))
    with pytest.raises(RuntimeError):
        draws.random()


def _grudge_reference(history, K: int) -> np.ndarray:
    """One-hot on the most-played arm of `history` (lowest index on ties);
    zeros before the first play."""
    losses = np.zeros(K)
    if history:
        losses[np.bincount(history, minlength=K).argmax()] = 1.0
    return losses


def test_non_oblivious_adversary_matches_history_reference():
    R, K = 4, 3
    rng = derive_stream(9, 0)
    adv = NonObliviousAdversary(K, replicas=R)
    histories = [[] for _ in range(R)]
    for _ in range(50):
        losses = adv.loss_vector()
        assert losses.shape == (R, K)
        for r in range(R):
            assert np.array_equal(losses[r], _grudge_reference(histories[r], K))
        arms = rng.integers(K, size=R)
        adv.observe(arms)
        for history, arm in zip(histories, arms.tolist()):
            history.append(arm)

    one = NonObliviousAdversary(K)
    assert np.array_equal(one.loss_vector(), np.zeros(K))
    for arm in (1, 1, 2, 2, 0):
        one.observe(arm)
    assert np.array_equal(one.loss_vector(), [0.0, 1.0, 0.0])  # tie 1-2 goes to 1


def test_non_oblivious_adversary_rejects_out_of_range_arms():
    # a flat index past a row's end would land in the next replica's row
    adv = NonObliviousAdversary(3, replicas=4)
    for bad in (3, -1):
        for row in range(4):
            arms = np.zeros(4, dtype=int)
            arms[row] = bad
            with pytest.raises(IndexError):
                adv.observe(arms)
        with pytest.raises(IndexError):
            NonObliviousAdversary(3).observe(bad)
    assert not adv.counts.any()


def test_gain_loss_duality_action_distributions():
    # gain-form exponential weights with the whole-vector estimate 1 - est(loss)
    # match the loss-form forecaster round by round
    rng = derive_stream(99, 0)
    K, n = 4, 200
    eta = 0.11
    loss_form = Exp3State(K, eta=eta)
    cum_gains = np.zeros(K)
    t = 0
    for _ in range(n):
        p_loss = loss_form.probs()
        p_gain = np.full(K, 1.0 / K) if t == 0 else exp_weights(eta * cum_gains)
        assert np.allclose(p_loss, p_gain, atol=1e-12)
        gains = rng.random(K)
        arm = loss_form.select(rng)
        est = importance_loss_estimate(p_loss, arm, 1.0 - gains[arm])
        loss_form.cum_losses += est
        loss_form.t += 1
        cum_gains += 1.0 - est
        t += 1


def test_trace_determinism_bytes():
    # the same (seed, stream) pair reproduces every byte of a full trace
    def run():
        rng = derive_stream(2024, 3)
        env = StochasticEnv.bernoulli([0.7, 0.4])
        policy = Exp3State(2, n=50)
        trace = RunTrace()
        for _ in range(50):
            arm = policy.select(rng)
            reward = env.sample_reward(arm, rng)
            policy.update(arm, 1.0 - reward)
            trace.record(arm, 1.0 - reward)
        return trace

    t1, t2 = run(), run()
    assert t1.actions == t2.actions
    assert t1.losses == t2.losses
    assert np.array_equal(t1.counts(2), t2.counts(2))
