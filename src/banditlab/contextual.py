"""Per-context Exp3, Exp4 over expert advice, their composition, and Banditron."""
from __future__ import annotations

import math

import numpy as np

from .adversarial import Exp3State, exp3_probs, importance_loss_estimate
from .env import sample_categorical


def exp4_arm_probs(q: np.ndarray, advice: np.ndarray, gamma: float = 0.0) -> np.ndarray:
    """Mix the experts' arm distributions by q, then mix with gamma/K uniform."""
    p = np.asarray(q, dtype=float) @ np.asarray(advice, dtype=float)
    if gamma > 0.0:
        p = (1.0 - gamma) * p + gamma / p.shape[-1]
    return p


def expert_loss_estimates(advice: np.ndarray, arm_estimates: np.ndarray) -> np.ndarray:
    """Each expert's inner product with the estimated arm losses."""
    advice = np.asarray(advice, dtype=float)
    arm_estimates = np.asarray(arm_estimates, dtype=float)
    if advice.shape[1] != arm_estimates.shape[0]:
        raise ValueError("advice and estimate dimensions do not match")
    return advice @ arm_estimates


def _round(policy, x, rng: np.random.Generator):
    """Play one round on x = (what select and update read, the arms' losses);
    returns (arm, loss)."""
    given, losses = x
    arm = policy.select(given, rng)
    loss = losses[arm]
    policy.update(given, arm, loss)
    return arm, loss


class Exp4State:
    """Exponential weights over experts, with optional uniform mixing.

    Experts supply one probability vector over arms per round and may depend
    on the realized history. With mixing gamma > 0 the learning rate defaults
    to gamma / K.
    """

    def __init__(self, N: int, K: int, n: int | None = None, eta: float | None = None,
                 gamma: float = 0.0):
        self.gamma = gamma
        if eta is not None:
            self.eta = eta
        elif gamma > 0.0:
            self.eta = gamma / K
        elif n is not None:
            self.eta = math.sqrt(2.0 * math.log(N) / (n * K))
        else:
            raise ValueError("need a horizon, an explicit eta, or gamma > 0")
        if not self.eta > 0.0:  # a nan fails too
            raise ValueError(f"eta must be positive, got {self.eta!r}")
        self.cum_expert_losses = np.zeros(N)
        self._drawn_from = None  # the distribution the last select() drew from

    def expert_probs(self) -> np.ndarray:
        return exp3_probs(self.cum_expert_losses, self.eta)

    def arm_probs(self, advice: np.ndarray) -> np.ndarray:
        return exp4_arm_probs(self.expert_probs(), advice, self.gamma)

    def select(self, advice: np.ndarray, rng: np.random.Generator) -> int:
        self._drawn_from = self.arm_probs(advice)
        return sample_categorical(self._drawn_from, rng)

    def update(self, advice: np.ndarray, chosen: int, loss: float) -> None:
        """Apply the round's estimate, importance-weighted by the distribution
        the last select() drew from."""
        p = self.arm_probs(advice) if self._drawn_from is None else self._drawn_from
        self._drawn_from = None
        arm_est = importance_loss_estimate(p, chosen, loss)
        self.cum_expert_losses += expert_loss_estimates(advice, arm_est)

    round = _round  # x = (advice, losses)


class SExp3:
    """One anytime Exp3 instance per context, created on first sight."""

    def __init__(self, K: int):
        self.K = K
        self.instances: dict = {}

    def instance(self, context) -> Exp3State:
        inst = self.instances.get(context)
        if inst is None:
            inst = Exp3State(self.K, anytime=True)
            self.instances[context] = inst
        return inst

    def select(self, context, rng: np.random.Generator) -> int:
        return self.instance(context).select(rng)

    def update(self, context, chosen: int, loss: float) -> None:
        self.instance(context).update(chosen, loss)

    round = _round  # x = (context, losses)


def theta_gamma(n: int, max_context_set_size: int, K: int, n_theta: int) -> float:
    """Default mixing rate for the composite forecaster, clamped to 1/2."""
    if n_theta < 1:
        raise ValueError("need at least one context set")
    # ln|Theta| = 0 would switch mixing off entirely; keep factor 1 for a singleton
    factor = math.sqrt(math.log(n_theta)) if n_theta > 1 else 1.0
    g = n ** (-1.0 / 3.0) * (max_context_set_size * K * math.log(K)) ** (1.0 / 3.0) * factor
    return min(g, 0.5)


class ThetaExp4:
    """Exp4 with mixing whose experts are lazily updated per-context Exp3 banks.

    Each round carries one context per context set; every expert reports the
    distribution of its active Exp3 instance, and after the draw every expert
    updates that instance with the estimate importance-weighted by the
    composite sampling distribution.
    """

    def __init__(self, thetas: list, K: int, n: int, max_context_set_size: int,
                 gamma: float | None = None):
        if not thetas:
            raise ValueError("Theta must be non-empty")
        self.thetas = list(thetas)
        self.K = K
        self.gamma = theta_gamma(n, max_context_set_size, K, len(thetas)) \
            if gamma is None else gamma
        self.exp4 = Exp4State(len(self.thetas), K, gamma=self.gamma)
        self.experts = {theta: SExp3(K) for theta in self.thetas}
        self._advice = None  # the advice matrix of the last select()

    def advice_matrix(self, contexts: dict) -> np.ndarray:
        return np.stack([self.experts[th].instance(contexts[th]).probs() for th in self.thetas])

    def select(self, contexts: dict, rng: np.random.Generator) -> int:
        self._advice = self.advice_matrix(contexts)
        return self.exp4.select(self._advice, rng)

    def update(self, contexts: dict, chosen: int, loss: float) -> None:
        """Update exp4 and each active instance with the last select()'s advice
        and arm distribution, whose gamma/K floor is checked before any write."""
        advice, self._advice = self._advice, None
        if advice is None:  # no select() came first
            advice = self.advice_matrix(contexts)
            self.exp4._drawn_from = self.exp4.arm_probs(advice)
        p = self.exp4._drawn_from
        if (p < self.gamma / self.K).any():
            raise ValueError("the arm distribution falls below its gamma/K floor")
        self.exp4.update(advice, chosen, loss)
        for theta in self.thetas:
            self.experts[theta].instance(contexts[theta]).update(chosen, loss, sampling_probs=p)

    round = _round  # x = (one context per set, losses)


def banditron_probs(yhat: int, gamma: float, K: int) -> np.ndarray:
    """(1-gamma) on the predicted class plus gamma/K everywhere."""
    if not 0.0 < gamma < 0.5:
        raise ValueError("gamma must lie in (0, 1/2)")
    p = np.full(K, gamma / K)
    p[yhat] += 1.0 - gamma
    return p


def banditron_update(W: np.ndarray, x: np.ndarray, yhat: int, Y: int, correct: bool,
                     p: np.ndarray) -> np.ndarray:
    """Add the estimated Perceptron update to the weight matrix."""
    W = np.asarray(W, dtype=float)
    x = np.asarray(x, dtype=float)
    coeff = np.zeros(W.shape[0])
    if correct:
        coeff[Y] += 1.0 / p[Y]
    coeff[yhat] -= 1.0
    return W + np.outer(coeff, x)


def banditron_gamma(K: int, n: int) -> float:
    return (K / n) ** (1.0 / 3.0)


class BanditronState:
    """Bandit multiclass Perceptron with exploration rate gamma."""

    def __init__(self, K: int, d: int, gamma: float):
        if not 0.0 < gamma < 0.5:
            raise ValueError("gamma must lie in (0, 1/2)")
        self.K = K
        self.gamma = gamma
        self.W = np.zeros((K, d))

    def predict(self, x: np.ndarray) -> int:
        scores = self.W @ x
        return int(scores.argmax())  # lowest class index on ties

    def step(self, x: np.ndarray, rng: np.random.Generator):
        yhat = self.predict(x)
        p = banditron_probs(yhat, self.gamma, self.K)
        Y = sample_categorical(p, rng)
        return Y, yhat, p

    def update(self, x: np.ndarray, yhat: int, Y: int, correct: bool, p: np.ndarray) -> None:
        self.W = banditron_update(self.W, x, yhat, Y, correct, p)

    def round(self, x, rng: np.random.Generator):
        """Predict on x = (features, label); the loss is the mistake indicator."""
        features, label = x
        Y, yhat, p = self.step(features, rng)
        correct = Y == label
        self.update(features, yhat, Y, correct, p)
        return Y, 0.0 if correct else 1.0


def sexp3_bound(n: int, S: int, K: int) -> float:
    return math.sqrt(2.0 * n * S * K * math.log(K))


def exp4_bound(n: int, K: int, N: int) -> float:
    return math.sqrt(2.0 * n * K * math.log(N))


def exp4_mixing_bound(n: int, K: int, N: int, gamma: float) -> float:
    return gamma * n / 2.0 + K * math.log(N) / gamma


def theta_bound(n: int, S: int, K: int, n_theta: int) -> float:
    """The composite forecaster's cap; S is the size of the largest context set."""
    return n ** (2.0 / 3.0) * (S * K * math.log(K)) ** (1.0 / 3.0) \
        * math.sqrt(math.log(max(n_theta, 2)))


def banditron_bound(n: int, K: int, U_norm: float, avg_hinge: float = 0.0) -> float:
    """Expected-mistakes cap in terms of the competitor's norm and hinge loss."""
    L = n * avg_hinge
    return (
        L
        + (1.0 + U_norm * math.sqrt(2.0 * avg_hinge)) * K ** (1 / 3) * n ** (2 / 3)
        + 2.0 * U_norm**2 * K ** (2 / 3) * n ** (1 / 3)
        + math.sqrt(2.0) * U_norm * K ** (1 / 6) * n ** (1 / 3)
    )
