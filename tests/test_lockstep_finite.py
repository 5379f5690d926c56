"""ucb, exp3 and exp3p in lockstep: each row of an (R, K) state keeps the
arms and state arrays of a one-row state on its own stream, every round, and
Exp3's in-place update adds exactly the importance-weighted estimate. A ucb
or exp3 batch no wider than its class's `narrow_width` plays one replica at a
time, with the curves of the lockstep form, and the one-row Exp3State on
Python floats, with its cached weights, keeps the bits of the numpy one-row
state it replaced."""
import copy
import math
import tracemalloc

import numpy as np
import pytest

from banditlab import harness, selftest
from banditlab.adversarial import (
    Exp3PState,
    Exp3State,
    exp3p_params,
    importance_loss_estimate,
)
from banditlab.env import ENV_STREAM_ID, NonObliviousAdversary, RowDraws, derive_stream
from banditlab.stochastic import UcbState

K, N = 4, 300
STATES = {
    "ucb": lambda r: UcbState(K, replicas=r),
    "exp3": lambda r: Exp3State(K, n=N, replicas=r),
    "exp3-eta": lambda r: Exp3State(K, eta=0.3, replicas=r),
    "exp3-anytime": lambda r: Exp3State(K, anytime=True, replicas=r),
    "exp3p": lambda r: Exp3PState(K, *exp3p_params(N, K, 0.1), replicas=r),
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
        if isinstance(self.cum_losses, np.ndarray):  # one ulp on the last row of a lockstep state
            self.cum_losses[-1, 0] = np.nextafter(self.cum_losses[-1, 0], np.inf)

    monkeypatch.setattr(Exp3State, "update", nudged)
    passed, detail = selftest.check_finite_rows_agreement()
    assert not passed
    assert "exp3 on stochastic at round 0 (cum_losses)" in detail
    assert "exp3p" not in detail and "ucb" not in detail


def test_finite_selftest_fails_when_a_one_row_ucb_moves(monkeypatch):
    update = UcbState.update

    def nudged(self, arm, reward):
        update(self, arm, reward)
        if isinstance(self.means, list):  # one ulp on a one-row state's mean
            self.means[0] = math.nextafter(self.means[0], math.inf)

    monkeypatch.setattr(UcbState, "update", nudged)
    passed, detail = selftest.check_finite_rows_agreement()
    assert not passed
    assert "ucb on stochastic at round 0 (means)" in detail
    assert "exp3" not in detail


def test_finite_selftest_fails_when_a_one_row_exp3_moves(monkeypatch):
    update = Exp3State.update

    def nudged(self, chosen, loss, sampling_probs=None):
        update(self, chosen, loss, sampling_probs)
        if isinstance(self.cum_losses, list):  # one ulp on a one-row state's loss
            self.cum_losses[0] = math.nextafter(self.cum_losses[0], math.inf)

    monkeypatch.setattr(Exp3State, "update", nudged)
    passed, detail = selftest.check_finite_rows_agreement()
    assert not passed
    assert "exp3 on stochastic at round 0 (cum_losses), K = 5" in detail
    assert "exp3 on oblivious at round 0 (cum_losses), K = 10" in detail
    assert "exp3p" not in detail and "ucb" not in detail


class _FrozenExp3:
    """Exp3State's one-row form as it was on numpy arrays, before it moved
    to Python floats: `exp_weights` of -eta L, `sample_categorical`'s
    accumulated sums and the in-place importance-weighted update."""

    def __init__(self, K, n=None, anytime=False):
        self.K = K
        self.eta = None if anytime else math.sqrt(2.0 * math.log(K) / (n * K))
        self.cum_losses = np.zeros(K)
        self.t = 0
        self._drawn_from = None

    def current_eta(self):
        if self.eta is not None:
            return self.eta
        return math.sqrt(math.log(self.K) / (max(self.t, 1) * self.K))

    def probs(self):
        if self.t == 0:
            return np.full(self.K, 1.0 / self.K)
        w = -self.current_eta() * self.cum_losses
        w = w - np.maximum.reduce(w, -1)
        np.exp(w, out=w)
        w /= np.add.reduce(w, -1)
        return w

    def select(self, rng):
        self._drawn_from = self.probs()
        cum = np.add.accumulate(self._drawn_from)
        cum[-1] = np.inf
        return int((cum > rng.random()).argmax())

    def update(self, chosen, loss, sampling_probs=None):
        if sampling_probs is not None:
            p = np.asarray(sampling_probs, float)
        else:
            p = self.probs() if self._drawn_from is None else self._drawn_from
        self._drawn_from = None
        if p[chosen] <= 0.0:
            raise ZeroDivisionError("chosen arm has zero probability")
        self.cum_losses[chosen] += loss / p[chosen]
        self.t += 1


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


# K crosses numpy's row sums at 8 terms (pairwise, 8 accumulators) and at 128
# (halves summed apart)
@pytest.mark.parametrize("K", [2, 4, 7, 8, 9, 10, 16, 17, 129])
@pytest.mark.parametrize("rate", ["fixed", "anytime"])
@pytest.mark.parametrize("losses", ["oblivious", "grudge", "sampling-probs"])
def test_one_row_exp3_keeps_the_bits_of_its_numpy_form(K, rate, losses):
    # the new state draws from RowDraws, the frozen one from a Generator on
    # the same stream; "sampling-probs" draws each arm from an outside
    # distribution on another stream and updates with it, as ThetaExp4 does
    n, seed = 200, 60 + K
    kwargs = {"anytime": True} if rate == "anytime" else {"n": n}
    new, old = Exp3State(K, **kwargs), _FrozenExp3(K, **kwargs)
    rng_new, rng_old = RowDraws(seed, 0, n), derive_stream(seed, 0)
    env = derive_stream(seed, ENV_STREAM_ID)
    matrix = env.random((n, K))
    grudges = NonObliviousAdversary(K), NonObliviousAdversary(K)
    for t in range(n):
        assert _bits(new.probs()) == _bits(old.probs()), t
        if losses == "sampling-probs":
            q = 0.5 * old.probs() + 0.5 * env.dirichlet(np.ones(K))
            arm = int(np.add.accumulate(q).searchsorted(env.random(), side="right"))
            arm = min(arm, K - 1)
            loss = matrix.item(t, arm)
            new.update(arm, loss, q)
            old.update(arm, loss, q)
        else:
            arm = new.select(rng_new)
            assert arm == old.select(rng_old), t
            if losses == "grudge":
                loss, _ = grudges[0].play(arm)
                assert grudges[1].play(arm)[0] == loss
            else:
                loss = matrix.item(t, arm)
            new.update(arm, loss)
            old.update(arm, loss)
        assert type(new.cum_losses) is list and _bits(new.cum_losses) == _bits(old.cum_losses), t
    assert new.t == old.t == n and any(new.cum_losses)


def _key_now(state) -> tuple:
    """The (-eta, top) a one-row state's weights are due under now."""
    neg = -state.current_eta()
    return neg, neg * min(state.cum_losses)


def _weights_under(state, key) -> list:
    neg, top = key
    return np.exp([neg * c - top for c in state.cum_losses]).tolist()


CACHE_ROUNDS = 300
LEAST_EVERY = 5  # every 5th round updates the arm with the least loss; every 10th with no select


@pytest.mark.parametrize("K", [2, 4, 10, 17, 129])
@pytest.mark.parametrize("rate", ["fixed", "anytime"])
@pytest.mark.parametrize("losses", ["drawn", "sampling-probs"])
def test_one_row_exp3_cache_keeps_the_frozen_rounds_bits(K, rate, losses):
    """After every select, the cached weights are np.exp of the shifted
    scores under the current key, bit for bit; after every update, under the
    key they hold. The arm, the drawn arm's probability and cum_losses keep
    the frozen class's bits. Every LEAST_EVERY-th round plays the arm with
    the least loss, which moves the key, after a select on even multiples
    and with none on odd ones; "sampling-probs" updates every other round
    with an outside distribution, as ThetaExp4 does; halfway, between a
    select and its update, both states are deep-copied, as the exact oracle
    copies them."""
    n, seed = CACHE_ROUNDS, 70 + K
    kwargs = {"anytime": True} if rate == "anytime" else {"n": n}
    new, old = Exp3State(K, **kwargs), _FrozenExp3(K, **kwargs)
    rng_new, rng_old = RowDraws(seed, 0, n), derive_stream(seed, 0)
    env = derive_stream(seed, ENV_STREAM_ID)
    matrix = env.random((n, K))
    kept = moved = 0  # selects that kept the cached key, and that moved it
    for t in range(n):
        least = t % LEAST_EVERY == LEAST_EVERY - 1
        if not (least and t // LEAST_EVERY % 2):
            key = new._key
            arm = new.select(rng_new)
            assert arm == old.select(rng_old), t
            assert new._key == _key_now(new), t
            assert _bits(new._weights) == _bits(_weights_under(new, new._key)), t
            assert _bits(new._drawn_from) == _bits([arm, old._drawn_from[arm]]), t
            if key is not None:
                kept, moved = kept + (key == new._key), moved + (key != new._key)
        if t == n // 2:
            new, old = copy.deepcopy(new), copy.deepcopy(old)
        q = None
        if least:
            arm = min(range(K), key=new.cum_losses.__getitem__)
        elif losses == "sampling-probs" and t % 2:
            q = 0.5 * old.probs() + 0.5 * env.dirichlet(np.ones(K))
            arm = min(int(np.add.accumulate(q).searchsorted(env.random(), side="right")), K - 1)
        new.update(arm, matrix.item(t, arm), q)
        old.update(arm, matrix.item(t, arm), q)
        assert _bits(new.cum_losses) == _bits(old.cum_losses), t
        assert new._drawn_from is None
        if new._key is not None:
            assert _bits(new._weights) == _bits(_weights_under(new, new._key)), t
    assert new.t == old.t == n
    # the fixed rate keeps its key but where the least loss moved; the
    # anytime rate drops it every update, so every select recomputes
    assert (kept and moved) if rate == "fixed" else not (kept or moved)


def test_exp_lane_selftest_fails_when_a_lone_double_rounds_apart(monkeypatch):
    assert selftest.check_exp_lane_agreement() == (
        True, "0 of 3300 rows differ from np.exp of each double alone")
    exp = np.exp

    def lone_apart(x):  # one ulp up on a lone double, a row's lanes as they were
        y = exp(x)
        return np.nextafter(y, np.inf) if np.ndim(x) == 0 else y

    monkeypatch.setattr(np, "exp", lone_apart)
    passed, detail = selftest.check_exp_lane_agreement()
    assert not passed
    assert detail.startswith("3300 of 3300 rows")


SWITCH = {"stochastic": {"means": [0.9, 0.8, 0.7, 0.6, 0.5]},
          "lower-bound": {"k": 4, "eps": 0.2, "best": 2},
          "oblivious": {"k": 5},
          "nonoblivious": {"k": 3, "adversary": "grudge"}}


def _curves_in_both_forms(monkeypatch, cls, policy, kind, R):
    # the same replicas played one at a time and in lockstep, whichever of
    # the two the width picks at this R
    n = 400
    cfg = harness.check_config({"policy": policy, "horizon": n, "replicas": R, "seed": 9,
                                "env_kind": kind, "env_params": SWITCH[kind]})
    env = harness.build_environment(kind, SWITCH[kind], n, 9)
    curves = {"as declared": harness.run_replica(cfg, env, 9, range(R))}
    for form, width in (("one at a time", R), ("lockstep", 0)):
        monkeypatch.setattr(cls, "narrow_width", staticmethod(lambda K: width))
        curves[form] = harness.run_replica(cfg, env, 9, range(R))
    assert curves["lockstep"].shape == (R, n) and curves["lockstep"][:, -1].any()
    for form in ("as declared", "one at a time"):
        assert np.array_equal(curves[form], curves["lockstep"]), form


@pytest.mark.parametrize("R", [1, 2, UcbState.narrow_width(K), UcbState.narrow_width(K) + 1])
@pytest.mark.parametrize("kind", sorted(SWITCH))
def test_ucb_curves_match_across_the_narrow_width(monkeypatch, kind, R):
    _curves_in_both_forms(monkeypatch, UcbState, "ucb", kind, R)


# 1 to 3 replicas, and the width and one above it at each kind's K (3 to 5
# arms): 5 and 6
@pytest.mark.parametrize("R", sorted({1, 2, 3, *(Exp3State.narrow_width(k) + extra
                                                for k in (3, 4, 5) for extra in (0, 1))}))
@pytest.mark.parametrize("kind", sorted(SWITCH))
def test_exp3_curves_match_across_the_narrow_width(monkeypatch, kind, R):
    _curves_in_both_forms(monkeypatch, Exp3State, "exp3", kind, R)


def test_exp3_narrow_width_follows_the_measured_crossover():
    # README's "Narrow batches": the widest batch whose one-row form measured
    # cheaper, from 2 to 128 arms, but at 8, 10 and 24 arms, where one
    # replica more won by at most 3%; the benchmark's R = 2 exp3 runs, at 4
    # and 10 arms, play one at a time
    ks = (2, 4, 8, 10, 16, 24, 32, 48, 64, 128)
    assert [Exp3State.narrow_width(k) for k in ks] == [5, 5, 4, 4, 3, 2, 2, 1, 1, 0]
    assert all(Exp3State.narrow_width(k) >= Exp3State.narrow_width(k + 1) for k in range(1, 300))
    assert min(Exp3State.narrow_width(4), Exp3State.narrow_width(10)) >= 2


@pytest.mark.parametrize("replicas", [None, 6])
@pytest.mark.parametrize("given", [False, True], ids=["drawn", "sampling-probs"])
def test_exp3_update_adds_the_importance_estimate(replicas, given):
    rng = derive_stream(43, 0)
    rows = 1 if replicas is None else replicas
    for _ in range(50):
        state = Exp3State(5, eta=0.1, replicas=replicas)
        cum = rng.random((rows, 5)) * 20 * (rng.random((rows, 5)) < 0.7)  # some zeros
        state.cum_losses = cum[0].tolist() if replicas is None else cum
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
    assert one.cum_losses == [0.0] * 3 and one.t == 0


@pytest.mark.parametrize("kind, policy, params, ids", [
    ("stochastic", "ucb", {"means": [0.9, 0.5]}, 0),
    ("stochastic", "ucb", {"means": [0.9, 0.5]}, range(3)),
    ("nonoblivious", "exp3", {"k": 2, "adversary": "grudge"}, range(Exp3State.narrow_width(2))),
    ("nonoblivious", "exp3", {"k": 2, "adversary": "grudge"},
     range(Exp3State.narrow_width(2) + 1)),
    ("stochastic", "ucb", {"means": [0.9, 0.5]}, range(UcbState.narrow_width(2) + 1)),
], ids=["stochastic-one-stream", "stochastic-one-at-a-time", "grudge-one-at-a-time",
        "grudge-lockstep", "stochastic-above-the-narrow-width"])
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
