import warnings

import numpy as np
import pytest

from banditlab import env as env_module
from banditlab import harness
from banditlab.adversarial import Exp3State, exp_weights, importance_loss_estimate
from banditlab.env import (
    ENV_STREAM_ID,
    KERNEL_MAX_DOUBLES,
    KERNEL_MIN_STREAMS,
    _BLOCK,
    NonObliviousAdversary,
    ReplicaDraws,
    RowDraws,
    StochasticEnv,
    derive_stream,
    lower_bound_env,
    philox_doubles,
)


def test_sample_reward_degenerate_bernoulli():
    rng = derive_stream(1, 0)
    env = StochasticEnv([1.0, 0.0])
    assert env.sample_reward(0, rng) == 1.0
    assert env.sample_reward(1, rng) == 0.0


def test_sample_reward_law_of_large_numbers():
    rng = derive_stream(42, 0)
    env = StochasticEnv([0.3])
    draws = [env.sample_reward(0, rng) for _ in range(10**5)]
    assert abs(np.mean(draws) - 0.3) < 0.01


def test_sample_reward_out_of_range():
    env = StochasticEnv([0.5])
    with pytest.raises(IndexError):
        env.sample_reward(1, derive_stream(0, 0))


def test_bad_means_rejected():
    with pytest.raises(ValueError):
        StochasticEnv([1.2])
    with pytest.raises(ValueError):
        StochasticEnv([])


class _Scripted:
    """Plays the given arms in turn and learns nothing."""

    feedback = "loss"

    def __init__(self, arms):
        self._arms = iter(arms)

    def select(self, rng):
        return next(self._arms)

    def update(self, arm, loss):
        pass


def _regret(arms, env: dict) -> np.ndarray:
    """The pseudo-regret curve the run loop keeps of playing `arms` on `env`."""
    return harness._finite_rounds(_Scripted(arms), env, len(arms), derive_stream(0, 0), ())


def _oblivious(losses) -> dict:
    return harness.build_environment("oblivious", {"losses": losses}, len(losses), 0)


def test_stochastic_regret_curve_hand_values():
    env = harness._stochastic(StochasticEnv([0.9, 0.5]))
    assert _regret([0] * 10, env)[-1] == 0.0
    assert _regret([0] * 5 + [1] * 5, env)[-1] == pytest.approx(2.0)
    single = harness._stochastic(StochasticEnv([0.7]))
    assert _regret([0] * 7, single)[-1] == 0.0


def test_stochastic_regret_curve_nonnegative_zero_iff_optimal():
    rng = derive_stream(7, 0)
    sto = StochasticEnv([0.2, 0.9, 0.4])
    for _ in range(50):
        actions = list(rng.integers(3, size=20))
        curve = _regret(actions, harness._stochastic(sto))
        assert (np.diff(curve) >= 0.0).all() and curve[0] >= 0.0
        assert (curve[-1] == 0.0) == all(a == sto.best_arm for a in actions)


def test_oblivious_regret_curve_hand_values():
    assert _regret([0, 1, 0, 1], _oblivious(np.zeros((4, 2))))[-1] == 0.0
    env = _oblivious([[1.0, 0.0], [1.0, 0.0]])
    assert _regret([0, 0], env)[-1] == pytest.approx(2.0)
    # playing the argmin column every round leaves nothing on the table
    assert _regret([1, 1], env)[-1] == 0.0


def test_oblivious_run_longer_than_its_losses_is_refused():
    # a run longer than the loss sequence is refused before any round
    with pytest.raises(harness.ConfigError, match="environment.losses has 2 rows"):
        harness.build_environment("oblivious", {"losses": np.zeros((2, 2))}, 3, 0)


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


def test_row_draws_read_the_stream_across_block_edges():
    # 10,000 doubles span three blocks; each is the stream's own double, a Python float
    total = 10_000
    assert total > 2 * _BLOCK
    for i in (0, 5, 2**63 + 1):
        draws = RowDraws(11, i, total)
        got = [draws.random() for _ in range(total)]
        assert all(type(u) is float for u in got)
        assert got == derive_stream(11, i).random(total).tolist()
        with pytest.raises(RuntimeError):
            draws.random()


@pytest.mark.parametrize("total", [0, 1, _BLOCK, _BLOCK + 1])
def test_row_draws_stop_at_their_declared_total(total):
    draws = RowDraws(3, 2, total)
    stream = derive_stream(3, 2)
    for _ in range(total):
        assert draws.random() == stream.random()
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
    ones = [NonObliviousAdversary(K) for _ in range(R)]  # one replica's form beside each row
    histories = [[] for _ in range(R)]
    for _ in range(50):
        losses = adv.loss_vector()
        assert losses.shape == (R, K)
        arms = rng.integers(K, size=R)
        for r, (one, arm) in enumerate(zip(ones, arms.tolist())):
            assert np.array_equal(losses[r], _grudge_reference(histories[r], K))
            assert one.play(arm)[0] == losses[r, arm]
            histories[r].append(arm)
        adv.observe(arms)

    one = NonObliviousAdversary(K)
    assert [one.play(arm)[0] for arm in (1, 1, 2, 2, 0)] == [0.0, 1.0, 0.0, 0.0, 0.0]
    assert one.play(1)[0] == 1.0  # tie 1-2 goes to 1


def test_non_oblivious_play_returns_the_played_and_least_cumulative_losses():
    R, K = 4, 3
    rng = derive_stream(9, 1)
    adv = NonObliviousAdversary(K, replicas=R)
    ones = [NonObliviousAdversary(K) for _ in range(R)]
    histories = [[] for _ in range(R)]
    cum = np.zeros((R, K))
    for _ in range(60):
        arms = rng.integers(K, size=R)
        vectors = np.array([_grudge_reference(h, K) for h in histories])
        cum += vectors
        loss, least = adv.play(arms)
        assert np.array_equal(loss, vectors[np.arange(R), arms])
        assert np.array_equal(least, cum.min(axis=1))
        for r, (one, arm) in enumerate(zip(ones, arms.tolist())):
            histories[r].append(arm)
            got = one.play(arm)
            assert all(x.__class__ is float for x in got)
            assert got == (loss[r], least[r])
    assert np.array_equal(np.array([one.cum_losses for one in ones]), adv.cum_losses)


def test_non_oblivious_adversary_rejects_out_of_range_arms():
    # a flat index past a row's end would land in the next replica's row
    adv = NonObliviousAdversary(3, replicas=4)
    for bad in (3, -1):
        for row in range(4):
            arms = np.zeros(4, dtype=int)
            arms[row] = bad
            with pytest.raises(IndexError):
                adv.observe(arms)
        one = NonObliviousAdversary(3)
        with pytest.raises(IndexError):
            one.observe(bad)
        with pytest.raises(IndexError):
            one.play(bad)
        assert one.counts == [0, 0, 0] and one.target == -1 and one.cum_losses == [0.0] * 3
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
        env = StochasticEnv([0.7, 0.4])
        policy = Exp3State(2, n=50)
        actions, losses = [], []
        for _ in range(50):
            arm = policy.select(rng)
            reward = env.sample_reward(arm, rng)
            policy.update(arm, 1.0 - reward)
            actions.append(arm)
            losses.append(1.0 - reward)
        return actions, losses

    (a1, l1), (a2, l2) = run(), run()
    assert a1 == a2
    assert l1 == l2


def test_round_helpers_match_the_reductions_they_replace():
    rng = derive_stream(44, 0)
    arrays = [rng.random((3, 5)), rng.integers(-4, 9, size=7), np.array([2.0, np.nan, -1.0, np.nan]),
              np.array(3.5), np.array([-0.0, 0.0])]
    for a in arrays:
        assert np.array_equal(env_module.largest(a), a.max(), equal_nan=True)
        assert np.array_equal(env_module.smallest(a), a.min(), equal_nan=True)
    for mask in (np.zeros(0, bool), np.zeros((2, 3), bool), np.eye(3, dtype=bool), np.array(True),
                 np.array(False), np.array([False, False, True])):
        assert env_module.any_true(mask) is bool(mask.any())
    starts = env_module.flat_index(np.zeros((4, 3)), np.zeros(4, dtype=int))
    assert starts.tolist() == [0, 3, 6, 9]
    with pytest.raises(ValueError):  # the cached row starts are read-only
        env_module._row_starts(4, 3)[0] = 1
    assert env_module.flat_index(np.zeros(3), 2) == 2
