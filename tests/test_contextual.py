import math

import numpy as np
import pytest

from banditlab import contextual
from banditlab.adversarial import Exp3State, exp_weights, importance_loss_estimate
from banditlab.contextual import (
    BanditronState,
    Exp4State,
    SExp3,
    ThetaExp4,
    banditron_bound,
    banditron_gamma,
    banditron_probs,
    banditron_update,
    exp4_arm_probs,
    exp4_bound,
    exp4_mixing_bound,
    expert_loss_estimates,
    sexp3_bound,
    theta_bound,
    theta_gamma,
)
from banditlab.env import derive_stream, sample_categorical


def test_exp4_arm_probs_hand_values():
    advice = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(exp4_arm_probs(np.array([0.5, 0.5]), advice, 0.0), [0.5, 0.5])
    assert np.allclose(exp4_arm_probs(np.array([0.9, 0.1]), advice, 1.0), [0.5, 0.5])
    advice = np.array([[0.2, 0.8]])
    p = exp4_arm_probs(np.array([1.0]), advice, 0.1)
    assert np.allclose(p, [0.23, 0.77])


def test_expert_loss_estimates():
    advice = np.array([[1.0, 0.0], [0.5, 0.5]])
    assert np.allclose(expert_loss_estimates(advice, np.zeros(2)), 0.0)
    assert np.allclose(expert_loss_estimates(advice, np.array([2.0, 0.0])), [2.0, 1.0])
    with pytest.raises(ValueError):
        expert_loss_estimates(advice, np.zeros(3))


def test_exp4_update_hand_value():
    state = Exp4State(2, 2, eta=1.0)
    state.cum_expert_losses = np.array([math.log(2), 0.0])
    assert np.allclose(state.expert_probs(), [1 / 3, 2 / 3])


def test_exp4_identical_experts_stay_uniform():
    rng = derive_stream(11, 0)
    advice = np.tile(np.array([0.3, 0.7]), (4, 1))
    state = Exp4State(4, 2, n=100)
    for _ in range(60):
        arm = state.select(advice, rng)
        state.update(advice, arm, float(rng.random()))
        assert np.allclose(state.expert_probs(), 0.25, atol=1e-12)
        assert np.allclose(state.arm_probs(advice), [0.3, 0.7], atol=1e-12)


def test_exp4_mixing_floor():
    rng = derive_stream(12, 0)
    state = Exp4State(3, 4, gamma=0.2)
    assert state.eta == pytest.approx(0.05)  # eta defaults to gamma / K
    for _ in range(50):
        advice = rng.dirichlet(np.ones(4), size=3)
        p = state.arm_probs(advice)
        assert (p >= 0.05 - 1e-15).all()
        arm = state.select(advice, rng)
        state.update(advice, arm, float(rng.random()))


@pytest.mark.parametrize("eta", [-0.5, 0.0, math.nan])
def test_exp4_refuses_a_rate_at_or_below_zero(eta):
    # at nan every cumulative expert loss was nan within 5 rounds, and -0.5
    # raised only at the first select; the eta key's range is (0, inf)
    with pytest.raises(ValueError, match="eta must be positive"):
        Exp4State(4, 3, eta=eta)
    assert Exp4State(4, 3, eta=1e-300).expert_probs().sum() == pytest.approx(1.0)


def test_exp3_external_step():
    """An Exp3 instance fed an arm drawn from an outside distribution q
    weights the loss by 1 / q[arm]."""
    state = Exp3State(2, eta=0.5)
    state.update(0, 1.0, sampling_probs=np.array([0.5, 0.5]))
    assert np.allclose(state.cum_losses, [2.0, 0.0])
    state.update(1, 0.3, sampling_probs=[0.25, 0.75])
    assert np.allclose(state.cum_losses, [2.0, 0.4])
    assert state.t == 2


def test_exp3_external_coincides_with_plain_when_q_is_p():
    rng = derive_stream(13, 0)
    a = Exp3State(3, eta=0.2)
    b = Exp3State(3, eta=0.2)
    for _ in range(50):
        p = a.probs()
        arm = a.select(rng)
        loss = float(rng.random())
        a.update(arm, loss)
        b.update(arm, loss, sampling_probs=p)
        assert np.array_equal(a.cum_losses, b.cum_losses)


def test_external_estimate_unbiased_under_q():
    rng = derive_stream(14, 0)
    for _ in range(20):
        K = int(rng.integers(2, 5))
        q = rng.dirichlet(np.ones(K)) * 0.9 + 0.1 / K
        q /= q.sum()
        losses = rng.random(K)
        mean = sum(q[j] * importance_loss_estimate(q, j, losses[j]) for j in range(K))
        assert np.allclose(mean, losses, atol=1e-12)
        # Exp3State.update(sampling_probs=q) adds exactly this estimate
        for j in range(K):
            state = Exp3State(K, eta=0.1)
            state.update(j, losses[j], sampling_probs=q)
            assert np.array_equal(state.cum_losses, importance_loss_estimate(q, j, losses[j]))


def test_theta_update_refuses_a_distribution_below_its_floor():
    rng = derive_stream(20, 0)
    policy = ThetaExp4(["s0", "s1"], K=2, n=200, max_context_set_size=1, gamma=0.2)
    contexts = {"s0": 0, "s1": 0}
    for _ in range(100):
        arm = policy.select(contexts, rng)
        policy.update(contexts, arm, float(arm == 1))  # arm 1 always loses
    policy.exp4.gamma = 0.0  # the forecaster stops mixing, so its gamma/K floor breaks
    p = policy.exp4.arm_probs(policy.advice_matrix(contexts))
    assert p[1] < policy.gamma / policy.K
    before = (policy.exp4.cum_expert_losses.copy(),
              [policy.experts[th].instances[0].cum_losses.copy() for th in policy.thetas])
    with pytest.raises(ValueError, match="floor"):
        policy.update(contexts, 0, 0.5)  # no select came first
    policy.select(contexts, rng)
    with pytest.raises(ValueError, match="floor"):
        policy.update(contexts, 0, 0.5)
    # the refused rounds wrote nothing
    assert np.array_equal(policy.exp4.cum_expert_losses, before[0])
    for th, cum in zip(policy.thetas, before[1]):
        assert np.array_equal(policy.experts[th].instances[0].cum_losses, cum)
        assert policy.experts[th].instances[0].t == 100


def test_sexp3_lazy_instances_and_partition():
    rng = derive_stream(15, 0)
    policy = SExp3(2)
    contexts = ["a", "b", "a", "c", "b", "a"]
    for s in contexts:
        arm = policy.select(s, rng)
        policy.update(s, arm, 0.5)
    assert set(policy.instances) == {"a", "b", "c"}
    rounds = {s: policy.instances[s].t for s in "abc"}
    assert rounds == {"a": 3, "b": 2, "c": 1}
    assert sum(rounds.values()) == len(contexts)


def test_sexp3_jensen_partition_inequality():
    rng = derive_stream(16, 0)
    K = 3
    for _ in range(50):
        S = int(rng.integers(1, 8))
        parts = rng.multinomial(1000, np.ones(S) / S)
        lhs = sum(math.sqrt(2 * ns * K * math.log(K)) for ns in parts)
        assert lhs <= sexp3_bound(1000, S, K) + 1e-9


def test_theta_gamma_hand_value_and_clamp():
    g = theta_gamma(1000, 4, 2, 2)
    assert g == pytest.approx(0.1474, abs=1e-3)
    assert theta_gamma(2, 50, 10, 50) == 0.5


def test_theta_single_set_mixture_identity():
    rng = derive_stream(17, 0)
    policy = ThetaExp4(["only"], K=2, n=100, max_context_set_size=3)
    gamma = policy.gamma
    for t in range(40):
        contexts = {"only": t % 3}
        advice = policy.experts["only"].instance(t % 3).probs()
        p = policy.exp4.arm_probs(policy.advice_matrix(contexts))
        assert np.allclose(p, (1 - gamma) * advice + gamma / 2, atol=1e-12)
        arm = policy.select(contexts, rng)
        policy.update(contexts, arm, float(rng.random()))


def test_theta_experts_learn_from_shared_estimates():
    rng = derive_stream(18, 0)
    policy = ThetaExp4(["s0", "s1"], K=2, n=200, max_context_set_size=2)
    for t in range(100):
        contexts = {"s0": t % 2, "s1": 0}
        arm = policy.select(contexts, rng)
        policy.update(contexts, arm, float(arm == 0))  # arm 1 is always better
    inner = policy.experts["s1"].instances[0]
    assert inner.t == 100
    assert inner.probs()[1] > 0.6


def test_banditron_probs():
    p = banditron_probs(1, 0.2, 4)
    assert np.allclose(p, [0.05, 0.85, 0.05, 0.05])
    assert p.sum() == pytest.approx(1.0)
    tiny = banditron_probs(0, 1e-6, 3)
    assert tiny[0] > 0.999
    with pytest.raises(ValueError):
        banditron_probs(0, 0.6, 3)


def test_banditron_update_cases():
    x = np.array([1.0, 0.0])
    W = np.zeros((3, 2))
    # wrong guess observed: only the predicted row is pushed away
    W2 = banditron_update(W, x, yhat=1, Y=2, correct=False, p=np.full(3, 1 / 3))
    assert np.allclose(W2[1], [-1.0, 0.0])
    assert np.allclose(W2[[0, 2]], 0.0)
    # correct and predicted coincide
    p = np.array([0.05, 0.85, 0.10])
    W3 = banditron_update(W, x, yhat=1, Y=1, correct=True, p=p)
    assert np.allclose(W3[1], [1 / 0.85 - 1.0, 0.0])
    # zero context leaves the weights alone
    W4 = banditron_update(W, np.zeros(2), 0, 0, True, np.full(3, 1 / 3))
    assert np.allclose(W4, 0.0)


def test_banditron_update_expectation_is_perceptron_update():
    rng = derive_stream(19, 0)
    for _ in range(20):
        K, d = 4, 3
        x = rng.standard_normal(d)
        y = int(rng.integers(K))
        yhat = int(rng.integers(K))
        p = banditron_probs(yhat, 0.3, K)
        mean = np.zeros((K, d))
        for Y in range(K):
            mean += p[Y] * (banditron_update(np.zeros((K, d)), x, yhat, Y, Y == y, p))
        full_info = np.zeros((K, d))
        full_info[y] += x
        full_info[yhat] -= x
        assert np.allclose(mean, full_info, atol=1e-12)


def test_banditron_argmax_tie_lowest():
    state = BanditronState(3, 2, gamma=0.1)
    assert state.predict(np.array([0.4, 0.4])) == 0


def test_banditron_gamma_schedule():
    assert banditron_gamma(9, 10**5) == pytest.approx((9 / 10**5) ** (1 / 3))


def test_contextual_bound_values():
    assert sexp3_bound(1000, 4, 2) == pytest.approx(math.sqrt(2 * 1000 * 4 * 2 * math.log(2)))
    assert exp4_bound(500, 3, 10) == pytest.approx(math.sqrt(2 * 500 * 3 * math.log(10)))
    assert exp4_mixing_bound(500, 3, 10, 0.1) == pytest.approx(
        0.1 * 500 / 2 + 3 * math.log(10) / 0.1)
    assert theta_bound(1000, 4, 2, 2) == pytest.approx(
        1000 ** (2 / 3) * (8 * math.log(2)) ** (1 / 3) * math.sqrt(math.log(2)))
    # separable competitor: the hinge term vanishes
    n = 10**5
    b = banditron_bound(n, 9, 3.0)
    expected = 9 ** (1 / 3) * n ** (2 / 3) + 18 * 9 ** (2 / 3) * n ** (1 / 3) \
        + math.sqrt(2) * 3 * 9 ** (1 / 6) * n ** (1 / 3)
    assert b == pytest.approx(expected)


# frozen copies of Exp4State, SExp3 and ThetaExp4 as they were before select()
# remembered its advice and distribution: each round rebuilt the advice matrix
# in select and update, and every expert took the composite distribution
# through an external-update step that checked the gamma/K floor itself


class _FrozenExp4State:
    def __init__(self, N, K, n=None, eta=None, gamma=0.0):
        self.N = N
        self.K = K
        self.gamma = gamma
        if eta is not None:
            self.eta = eta
        elif gamma > 0.0:
            self.eta = gamma / K
        elif n is not None:
            self.eta = math.sqrt(2.0 * math.log(N) / (n * K))
        else:
            raise ValueError("need a horizon, an explicit eta, or gamma > 0")
        self.cum_expert_losses = np.zeros(N)
        self.t = 0

    def expert_probs(self):
        if self.t == 0:
            return np.full(self.N, 1.0 / self.N)
        return exp_weights(-self.eta * self.cum_expert_losses)

    def arm_probs(self, advice):
        return exp4_arm_probs(self.expert_probs(), advice, self.gamma)

    def select(self, advice, rng):
        return sample_categorical(self.arm_probs(advice), rng)

    def update(self, advice, chosen, loss):
        p = self.arm_probs(advice)
        arm_est = importance_loss_estimate(p, chosen, loss)
        self.cum_expert_losses += expert_loss_estimates(advice, arm_est)
        self.t += 1


def _frozen_external_step(state, q, chosen, loss, eps=0.0):
    q = np.asarray(q, dtype=float)
    if (q < eps).any():
        raise ValueError("external sampling distribution violates its floor")
    state.update(chosen, loss, sampling_probs=q)


class _FrozenSExp3:
    def __init__(self, K):
        self.K = K
        self.instances = {}

    def _instance(self, context):
        inst = self.instances.get(context)
        if inst is None:
            inst = Exp3State(self.K, anytime=True)
            self.instances[context] = inst
        return inst

    def advice(self, context):
        return self._instance(context).probs()

    def external_update(self, context, q, chosen, loss, eps=0.0):
        _frozen_external_step(self._instance(context), q, chosen, loss, eps)


class _FrozenThetaExp4:
    def __init__(self, thetas, K, n, max_context_set_size, gamma=None):
        self.thetas = list(thetas)
        self.K = K
        self.gamma = theta_gamma(n, max_context_set_size, K, len(thetas)) \
            if gamma is None else gamma
        self.exp4 = _FrozenExp4State(len(self.thetas), K, gamma=self.gamma)
        self.experts = {theta: _FrozenSExp3(K) for theta in self.thetas}

    def advice_matrix(self, contexts):
        return np.stack([self.experts[th].advice(contexts[th]) for th in self.thetas])

    def arm_probs(self, contexts):
        return self.exp4.arm_probs(self.advice_matrix(contexts))

    def select(self, contexts, rng):
        return sample_categorical(self.arm_probs(contexts), rng)

    def update(self, contexts, chosen, loss):
        advice = self.advice_matrix(contexts)
        p = self.exp4.arm_probs(advice)
        self.exp4.update(advice, chosen, loss)
        floor = self.gamma / self.K
        for theta in self.thetas:
            self.experts[theta].external_update(contexts[theta], p, chosen, loss, eps=floor)


ROUNDS = 300
NO_SELECT_EVERY = 7  # every 7th round's update has no select before it


def _pin(new, old, drawn_from, rounds, seed):
    """Play `new` and the frozen `old` on the same rounds, each with its own
    copy of one stream, and require the same bits every round. Every
    NO_SELECT_EVERY-th round updates an arm taken from the rounds, with no
    select before it."""
    rng_new, rng_old = derive_stream(seed, 1), derive_stream(seed, 1)
    for t, (x, losses, free_arm) in enumerate(rounds):
        if t % NO_SELECT_EVERY == NO_SELECT_EVERY - 1:
            arm = free_arm
        else:
            p = old.arm_probs(x)
            arm = new.select(x, rng_new)
            assert arm == old.select(x, rng_old)
            assert np.array_equal(drawn_from(new), p)
        new.update(x, arm, losses[arm])
        old.update(x, arm, losses[arm])
        yield t


@pytest.mark.parametrize("K, N, gamma, eta, n", [
    (2, 3, 0.0, None, ROUNDS), (3, 4, 0.1, None, None), (5, 6, 0.3, 0.05, None),
    (4, 5, 0.0, 0.2, None), (6, 7, 1.0, None, None),
])
def test_exp4_matches_its_frozen_copy_bit_for_bit(K, N, gamma, eta, n):
    env = derive_stream(30 + K, 0)
    rounds = [(env.dirichlet(np.full(K, 0.5), size=N), env.random(K), int(env.integers(K)))
              for _ in range(ROUNDS)]
    new, old = Exp4State(N, K, n=n, eta=eta, gamma=gamma), \
        _FrozenExp4State(N, K, n=n, eta=eta, gamma=gamma)
    for _ in _pin(new, old, lambda policy: policy._drawn_from, rounds, seed=K):
        assert np.array_equal(new.cum_expert_losses, old.cum_expert_losses)


@pytest.mark.parametrize("K, sizes, gamma", [
    (2, [3], None), (3, [2, 4], None), (4, [1, 3, 5], 0.3), (2, [2, 2, 6], 0.05),
    (5, [4, 1], 1.0),
])
def test_theta_exp4_matches_its_frozen_copy_bit_for_bit(K, sizes, gamma):
    env = derive_stream(40 + K, len(sizes))
    thetas = [f"set{i}" for i in range(len(sizes))]
    rounds = [({th: int(env.integers(size)) for th, size in zip(thetas, sizes)},
               env.random(K), int(env.integers(K))) for _ in range(ROUNDS)]
    new = ThetaExp4(thetas, K, ROUNDS, max(sizes), gamma=gamma)
    old = _FrozenThetaExp4(thetas, K, ROUNDS, max(sizes), gamma=gamma)
    for _ in _pin(new, old, lambda policy: policy.exp4._drawn_from, rounds, seed=len(sizes)):
        assert np.array_equal(new.exp4.cum_expert_losses, old.exp4.cum_expert_losses)
        for th in thetas:
            ours, theirs = new.experts[th].instances, old.experts[th].instances
            assert ours.keys() == theirs.keys()
            for context in ours:
                assert np.array_equal(ours[context].cum_losses, theirs[context].cum_losses)
                assert ours[context].t == theirs[context].t


def _counting(monkeypatch, owner, name, counts):
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("policy, sets", [("exp4", 0), ("theta-exp4", 1),
                                          ("theta-exp4", 3)])
def test_each_round_builds_its_distribution_once(monkeypatch, policy, sets):
    """exp3_probs is patched where contextual imports it
    (Exp4State.expert_probs), and Exp3State._row_weights on its class (every
    one-row Exp3 distribution is built there)."""
    counts = {}
    _counting(monkeypatch, contextual, "exp3_probs", counts)
    _counting(monkeypatch, Exp3State, "_row_weights", counts)
    _counting(monkeypatch, contextual, "exp4_arm_probs", counts)
    _counting(monkeypatch, ThetaExp4, "advice_matrix", counts)
    env, rng = derive_stream(50, 0), derive_stream(50, 1)
    K = 3
    if policy == "exp4":
        state = Exp4State(K + 1, K, n=100)
        advice = np.vstack([np.eye(K), np.full((1, K), 1.0 / K)])
        xs = [(advice, env.random(K)) for _ in range(100)]
    else:
        thetas = [f"set{i}" for i in range(sets)]
        state = ThetaExp4(thetas, K, 100, 4)
        xs = [({th: int(env.integers(4)) for th in thetas}, env.random(K)) for _ in range(100)]
    for x in xs:
        counts.clear()
        state.round(x, rng)
        assert counts.get("exp4_arm_probs") == 1
        assert counts.get("exp3_probs", 0) <= 1
        if policy != "exp4":
            assert counts.get("advice_matrix") == 1
            assert counts.get("_row_weights", 0) <= sets
    assert counts.get("exp3_probs") == 1
    assert counts.get("_row_weights", 0) == sets
