"""ucb, exp3 and exp3p in lockstep: each row of an (R, K) state keeps the
arms and state arrays of a one-row state on its own stream, every round, and
Exp3's in-place update adds exactly the importance-weighted estimate."""
import tracemalloc

import numpy as np
import pytest

from banditlab import harness, selftest
from banditlab.adversarial import Exp3PState, Exp3State, importance_loss_estimate
from banditlab.env import derive_stream
from banditlab.stochastic import UcbState

K, N = 4, 300
STATES = {
    "ucb": lambda r: UcbState(K, replicas=r),
    "exp3": lambda r: Exp3State(K, n=N, replicas=r),
    "exp3-eta": lambda r: Exp3State(K, eta=0.3, replicas=r),
    "exp3-anytime": lambda r: Exp3State(K, anytime=True, replicas=r),
    "exp3p": lambda r: Exp3PState.from_horizon(K, N, 0.1, replicas=r),
}


@pytest.mark.parametrize("kind", ["stochastic", "oblivious", "nonoblivious"])
@pytest.mark.parametrize("name", sorted(STATES))
def test_lockstep_rows_keep_one_row_states_every_round(name, kind):
    assert selftest.finite_rows_mismatch(STATES[name], kind, K, N, 5, seed=41) is None


def test_finite_selftest_fails_when_a_lockstep_row_moves(monkeypatch):
    assert selftest.check_finite_rows_agreement()[0]
    update = Exp3State.update

    def nudged(self, chosen, loss, sampling_probs=None):
        update(self, chosen, loss, sampling_probs)
        if self.cum_losses.ndim == 2:  # one ulp on the last row of a lockstep state
            self.cum_losses[-1, 0] = np.nextafter(self.cum_losses[-1, 0], np.inf)

    monkeypatch.setattr(Exp3State, "update", nudged)
    passed, detail = selftest.check_finite_rows_agreement()
    assert not passed
    assert "exp3 on stochastic at round 0 (cum_losses)" in detail
    assert "exp3p" not in detail and "ucb" not in detail


@pytest.mark.parametrize("replicas", [None, 6])
@pytest.mark.parametrize("given", [False, True], ids=["drawn", "sampling-probs"])
def test_exp3_update_adds_the_importance_estimate(replicas, given):
    rng = derive_stream(43, 0)
    rows = 1 if replicas is None else replicas
    for _ in range(50):
        state = Exp3State(5, eta=0.1, replicas=replicas)
        cum = rng.random((rows, 5)) * 20 * (rng.random((rows, 5)) < 0.7)  # some zeros
        state.cum_losses = cum[0] if replicas is None else cum
        state.t = 3
        p = rng.dirichlet(np.ones(5), size=rows) if given else state.probs().reshape(rows, 5)
        chosen, loss = rng.integers(5, size=rows), rng.random(rows)
        if replicas is None:
            p, chosen, loss = p[0], int(chosen[0]), float(loss[0])
        expected = state.cum_losses + importance_loss_estimate(p, chosen, loss)
        state.update(chosen, loss, p if given else None)
        assert np.array_equal(state.cum_losses, expected)
        assert state.t == 4


def test_exp3_update_refuses_a_zero_probability_before_writing():
    state = Exp3State(3, eta=0.1, replicas=2)
    state.cum_losses = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    p = np.array([[0.5, 0.5, 0.0], [0.2, 0.8, 0.0]])
    with pytest.raises(ZeroDivisionError):
        state.update(np.array([1, 2]), np.array([0.3, 0.3]), p)  # row 0 alone is fine
    assert state.cum_losses.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    assert state.t == 0
    one = Exp3State(3, eta=0.1)
    with pytest.raises(ZeroDivisionError):
        one.update(2, 0.3, p[0])
    assert not one.cum_losses.any() and one.t == 0


@pytest.mark.parametrize("kind, policy, params, ids", [
    ("stochastic", "ucb", {"means": [0.9, 0.5]}, 0),
    ("stochastic", "ucb", {"means": [0.9, 0.5]}, range(3)),
    ("nonoblivious", "exp3", {"k": 2, "adversary": "grudge"}, range(3)),
], ids=["stochastic-one-stream", "stochastic-lockstep", "grudge-lockstep"])
def test_finite_rounds_keep_two_curve_sized_arrays(kind, policy, params, ids):
    # stochastic: the arms played, then their gaps, summed in place; grudge:
    # the losses played and the best arm's, then the curve. 16 B per
    # replica-round; past the first block of 4096 draws, those are a fixed cost
    R = 1 if isinstance(ids, int) else len(ids)

    def peak(n: int) -> int:
        cfg = harness.check_config({"policy": policy, "horizon": n, "replicas": R, "seed": 3,
                                    "env_kind": kind, "env_params": params})
        env = harness.build_environment(kind, params, n, 3)
        tracemalloc.start()
        try:
            harness.run_replica(cfg, env, 3, ids)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100)  # warm every cache first
    n = 4500
    assert (peak(2 * n) - peak(n)) / (n * R) < 20
