"""Legendre/potential machinery, mirror-descent cores, Exp2 with design
exploration, the m-set semi-bandit, and the Euclidean-ball strategy."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .adversarial import exp_weights
from .env import POSITIVE, ZERO, constant, largest, rates, sample_categorical, smallest, within
from .geometry import (
    DesignWeights,
    madow_sample,
    norm,
    project_ball,
    project_capped_simplex_negent,
    project_capped_simplex_potential,
    singular_raises,
    solve,
)

X_FLOOR = 1e-12  # smallest coordinate kept alive for importance weighting
_FLOOR = constant(X_FLOOR)


class DomainError(ValueError):
    pass


@dataclass(frozen=True)
class PotentialSpec:
    """Increasing convex bijection onto (0, inf) generating a coordinate-wise
    Legendre function; `a` is the supremum of its domain."""

    psi: Callable[[np.ndarray], np.ndarray]
    psi_prime: Callable[[np.ndarray], np.ndarray]
    psi_inv: Callable[[np.ndarray], np.ndarray]
    F_term: Callable[[np.ndarray], np.ndarray]
    a: float


def power_potential(q: float) -> PotentialSpec:
    """psi(u) = (-u)^(-q) on (-inf, 0); q > 1."""
    if q <= 1.0:
        raise ValueError("the power exponent must exceed 1")
    # the per-round maps' constants, as read-only 0-d arrays (see env.ONE)
    q_, psi_exp, slope_exp, inv_exp = (constant(v) for v in (q, -q, -q - 1.0, -1.0 / q))
    return PotentialSpec(
        psi=lambda u: (-u) ** psi_exp,
        psi_prime=lambda u: q_ * (-u) ** slope_exp,
        psi_inv=lambda s: -(s ** inv_exp),
        F_term=lambda x: -(q / (q - 1.0)) * x ** ((q - 1.0) / q),
        a=0.0,
    )


def exp_potential() -> PotentialSpec:
    """psi = exp; its coordinate-wise Legendre function is the negative entropy."""
    return PotentialSpec(
        psi=np.exp,
        psi_prime=np.exp,
        psi_inv=np.log,
        F_term=lambda x: np.where(x > 0.0, x * np.log(np.maximum(x, 1e-300)) - x, 0.0),
        a=math.inf,
    )


@dataclass(frozen=True)
class LegendreSpec:
    """A mirror map together with the Bregman projection onto its feasible set."""

    F: Callable[[np.ndarray], float]
    grad_F: Callable[[np.ndarray], np.ndarray]
    grad_F_star: Callable[[np.ndarray], np.ndarray]
    bregman_project: Callable[[np.ndarray], np.ndarray]
    dual_domain_check: Callable[[np.ndarray], bool]

    def divergence(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(self.F(x) - self.F(y) - self.grad_F(y) @ (x - y))


def _negentropy_value(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    pos = x > 0.0
    return float((x[pos] * np.log(x[pos])).sum() - x.sum())


def negentropy_simplex() -> LegendreSpec:
    return LegendreSpec(
        F=_negentropy_value,
        grad_F=np.log,
        grad_F_star=np.exp,
        bregman_project=lambda w: w / w.sum(),
        dual_domain_check=lambda u: True,
    )


def negentropy_capped_simplex(m: float) -> LegendreSpec:
    return LegendreSpec(
        F=_negentropy_value,
        grad_F=np.log,
        grad_F_star=np.exp,
        bregman_project=lambda w: project_capped_simplex_negent(w, m),
        dual_domain_check=lambda u: True,
    )


def potential_capped_simplex(psi: PotentialSpec, m: float) -> LegendreSpec:
    return LegendreSpec(
        F=lambda x: float(psi.F_term(np.asarray(x, dtype=float)).sum()),
        grad_F=psi.psi_inv,
        grad_F_star=psi.psi,
        bregman_project=lambda w: project_capped_simplex_potential(w, m, psi),
        # written so that nan fails too: largest() picks the first nan
        dual_domain_check=lambda u: not u.size or largest(u) < psi.a,
    )


def ball_grad(x: np.ndarray) -> np.ndarray:
    """Primal-to-dual map x / (1 - ||x||) of the log-barrier ball geometry."""
    x = np.asarray(x, dtype=float)
    length = norm(x)
    if length >= 1.0:
        raise DomainError("primal point must lie strictly inside the unit ball")
    return x / (1.0 - length)


def ball_grad_star(u: np.ndarray) -> np.ndarray:
    """Dual-to-primal map u / (1 + ||u||); always lands inside the unit ball."""
    u = np.asarray(u, dtype=float)
    return u / (1.0 + norm(u))


def log_barrier_ball(radius: float) -> LegendreSpec:
    """Geometry for the ball strategy; the Bregman projection onto a centered
    ball is exact radial scaling for this divergence."""

    def F(x: np.ndarray) -> float:
        length = norm(x)
        if length >= 1.0:
            raise DomainError("primal point must lie strictly inside the unit ball")
        return -math.log(1.0 - length) - length

    return LegendreSpec(
        F=F,
        grad_F=ball_grad,
        grad_F_star=ball_grad_star,
        bregman_project=lambda w: project_ball(w, radius),
        dual_domain_check=lambda u: True,
    )


def omd_step(x: np.ndarray, gradient: np.ndarray, eta: float, spec: LegendreSpec) -> np.ndarray:
    """Dual gradient step followed by the Bregman projection. With a spec
    whose maps and projection act row by row, as the capped-simplex ones do,
    x and the gradient may be (R, d), and any row that leaves the dual
    domain fails the whole step."""
    u = spec.grad_F(np.asarray(x, dtype=float)) - eta * np.asarray(gradient, dtype=float)
    if not spec.dual_domain_check(u):
        raise DomainError("dual step left the gradient image; lower eta or rescale losses")
    return spec.bregman_project(spec.grad_F_star(u))


def exp2_schedule(n: int, d: int, N: int) -> tuple[float, float]:
    eta = math.sqrt(math.log(N) / (3.0 * n * d))
    return eta, eta * d


def exp2_rates(n: int | None, d: int, N: int, eta: float | None = None,
               gamma: float | None = None) -> tuple[float, float]:
    """(eta, gamma), each given or by `exp2_schedule`: eta > 0, and gamma in
    (0, 1], where P(p) is invertible and the softmax's share is not negative."""
    return rates(n, lambda n: exp2_schedule(n, d, N), {"eta": POSITIVE, "gamma": (
        lambda gamma: 0.0 < gamma <= 1.0, "must lie in (0, 1]")}, eta=eta, gamma=gamma)


class Exp2State:
    """Exponential weights over a finite point set with design-based exploration.

    `design` is the D-optimal design of the points (`geometry.doptimal_design`),
    a function of the points alone, so one design serves every replica. With
    `replicas` set, the state holds one row of cumulative estimates per
    replica, and `select`/`update` take and return one point and one scalar
    loss per row. Each row's products are taken one row at a time
    (`np.matmul` over a leading axis), so a row's bits do not depend on the
    batch it runs in. `exp2_rates` resolves `eta` and `gamma`, once.
    """

    draws_per_round = 1  # one double per round, the point's draw, so replicas run in lockstep

    def __init__(self, points, design: DesignWeights, n: int | None = None,
                 eta: float | None = None, gamma: float | None = None,
                 replicas: int | None = None):
        self.points = np.asarray(points, dtype=float)
        self._points_t = self.points.T
        self.N, self.d = self.points.shape
        eta, gamma = exp2_rates(n, self.d, self.N, eta, gamma)
        # probs' constants, taken once: the negated rate and the softmax's
        # share as read-only 0-d arrays, and the design's share of each point
        self._neg_eta, self._soft_share = constant(-eta), constant(1.0 - gamma)
        self._explore = gamma * design.weights
        self.cum_estimate = np.zeros(self.d if replicas is None else (replicas, self.d))
        self._drawn_from = None  # the distribution the last select() drew from

    def probs(self) -> np.ndarray:
        scores = np.matmul(self.points, self.cum_estimate[..., None])[..., 0]
        return self._soft_share * exp_weights(self._neg_eta * scores) + self._explore

    def select(self, rng):
        self._drawn_from = self.probs()
        return sample_categorical(self._drawn_from, rng)

    def estimate(self, x: np.ndarray, scalar_loss, p: np.ndarray | None = None) -> np.ndarray:
        """scalar_loss P(p)^-1 x, the unbiased estimate of the loss vector,
        for the point x played from `p` (by default, the current probs); one
        per row of (R, d) points. A singular P(p) raises LinAlgError."""
        scalar_loss = np.asarray(scalar_loss, dtype=float)
        if not within(scalar_loss, -1.0, 1.0):  # a nan fails too
            raise ValueError("scalar loss must lie in [-1, 1]")
        if p is None:
            p = self.probs()
        P = np.matmul(self._points_t, p[..., None] * self.points)
        with singular_raises():
            solved = solve(P, x[..., None])
        return scalar_loss[..., None] * solved[..., 0]

    def update(self, x: np.ndarray, scalar_loss) -> None:
        """Apply the estimate for the played point x, weighted by the
        distribution the last select() drew from."""
        p = self.probs() if self._drawn_from is None else self._drawn_from
        self._drawn_from = None
        self.cum_estimate += self.estimate(x, scalar_loss, p)

    def round(self, loss_vector: np.ndarray, rng):
        """Select, pay the played point's loss, and update; returns (the index
        of the point played, its scalar loss), one of each per row."""
        idx = self.select(rng)
        x = self.points[idx]
        scalar = np.matmul(x[..., None, :], loss_vector[:, None])[..., 0, 0]
        self.update(x, scalar)
        return idx, scalar


def semibandit_estimate(x: np.ndarray, v: np.ndarray, losses: np.ndarray) -> np.ndarray:
    """Importance-weighted coordinate losses: loss_i * v_i / x_i, zero when
    inactive; one estimate per row of (R, d) arguments. Any row's active
    coordinate below `X_FLOOR` fails the whole call."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    losses = np.asarray(losses, dtype=float)
    active = v > ZERO
    # one min when no coordinate is below the floor (a nan takes the full rule)
    if x.size and not smallest(x) >= X_FLOOR and (x[active] < X_FLOOR).any():
        raise ZeroDivisionError("active coordinate fell below the importance floor")
    return np.divide(losses, x, out=np.zeros(x.shape), where=active)


def osmd_negent_eta(n: int, d: int, m: int) -> float:
    return math.sqrt(2.0 * m / (n * d) * math.log(d / m)) if m < d else 0.0


def osmd_potential_eta(n: int, d: int, m: int, q: float = 2.0) -> float:
    return math.sqrt((2.0 / (q - 1.0)) * (m / d) ** (1.0 - 2.0 / q) / n)


class OsmdMsets:
    """Mirror descent over the convex hull of m-sets with semi-bandit feedback.

    Plays a random m-set whose inclusion probabilities match the current
    fractional point, so the played set is an unbiased perturbation of it.
    With `replicas` set, the point is (R, d), one row per replica, and
    `select`/`round` take lockstep draws (`ReplicaDraws`): each row's Madow
    start is the next double of its own stream. Madow sampling, the
    estimate, the dual step and both projections act on each row as they
    would on that row alone, so a row has the same bits in any batch.
    """

    draws_per_round = 1  # one double per round, the Madow start, so replicas run in lockstep

    def __init__(self, d: int, m: int, n: int | None = None, variant: str = "negent",
                 q: float = 2.0, eta: float | None = None, replicas: int | None = None):
        if not 1 <= m <= d:
            raise ValueError("need 1 <= m <= d")
        self.m = m
        if variant == "negent":
            self.spec, schedule = negentropy_capped_simplex(m), osmd_negent_eta
        elif variant == "potential":
            self.spec = potential_capped_simplex(power_potential(q), m)
            schedule = partial(osmd_potential_eta, q=q)
        else:
            raise ValueError(f"unknown variant {variant!r}")
        self.eta, = rates(n, lambda n: (schedule(n, d, m),), {"eta": (  # 0 switches learning off
            lambda eta: 0.0 <= eta < np.inf, "must be at least 0 and finite")}, eta=eta)
        self.x = np.full(d if replicas is None else (replicas, d), m / d)

    def select(self, rng) -> np.ndarray:
        return madow_sample(self.x, rng, self.m)

    def update(self, v: np.ndarray, losses: np.ndarray) -> None:
        est = semibandit_estimate(self.x, v, losses)
        if self.eta > 0.0:
            x = omd_step(self.x, est, self.eta, self.spec)
            self.x = np.maximum(x, _FLOOR)

    def round(self, losses: np.ndarray, rng):
        """Select, pay the played set's loss and update; returns (the played
        indicator, its loss), one of each per row."""
        v = self.select(rng)
        # one dot product per row: the bits of `v @ losses` for each
        incurred = np.matmul(v[..., None, :], losses[..., :, None])[..., 0, 0]
        self.update(v, losses)
        return v, incurred


def ball_schedule(n: int, d: int) -> tuple[float, float]:
    gamma = 1.0 / math.sqrt(n)
    eta = math.sqrt(math.log(n) / (2.0 * n * d))
    return gamma, eta


def ball_rates(n: int | None, d: int, gamma: float | None = None,
               eta: float | None = None) -> tuple[float, float]:
    """(gamma, eta), each given or by `ball_schedule`, whose gamma = 1 and
    eta = 0 at n = 1 fail: gamma in (0, 1), so that the iterate's ball of
    radius 1 - gamma is not empty, and eta > 0 with eta d at most 1/2."""
    return rates(n, lambda n: ball_schedule(n, d), {
        "gamma": (lambda gamma: 0.0 < gamma < 1.0, "must lie in (0, 1)"),
        "eta": (lambda eta: eta > 0.0 and eta * d <= 0.5, "must be positive, and times d at most "
                "1/2")}, gamma=gamma, eta=eta)


class OsmdBall:
    """Mirror descent on the shrunken unit ball with one-scalar bandit feedback.

    Plays either the radial boundary point or a random signed coordinate, with
    the Bernoulli(||x||) switch making the played point unbiased for x. The
    iterate stays in the ball of radius 1 - gamma; `ball_rates` gives its rates.
    """

    def __init__(self, d: int, n: int | None = None, gamma: float | None = None,
                 eta: float | None = None):
        gamma, eta = ball_rates(n, d, gamma, eta)
        self.d = d
        self.eta = eta
        self.spec = log_barrier_ball(1.0 - gamma)
        self.x = np.zeros(d)

    def select(self, rng: np.random.Generator) -> tuple[np.ndarray, int]:
        """Return the played point and the Bernoulli switch value."""
        length = norm(self.x)
        if rng.random() < length:
            return self.x / length, 1
        coord = int(rng.integers(self.d))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        played = np.zeros(self.d)
        played[coord] = sign
        return played, 0

    def loss_estimate(self, played: np.ndarray, xi: int, feedback: float) -> np.ndarray:
        if xi == 1:
            return np.zeros(self.d)
        return self.d * feedback / (1.0 - norm(self.x)) * played

    def update(self, played: np.ndarray, xi: int, feedback: float) -> None:
        est = self.loss_estimate(played, xi, feedback)
        self.x = omd_step(self.x, est, self.eta, self.spec)

    def round(self, loss_vector: np.ndarray, rng: np.random.Generator):
        played, xi = self.select(rng)
        feedback = float(played @ loss_vector)
        self.update(played, xi, feedback)
        return played, feedback


def exp2_bound(n: int, d: int, N: int) -> float:
    return 2.0 * math.sqrt(3.0 * n * d * math.log(N))


def osmd_negent_bound(n: int, d: int, m: int) -> float:
    # degenerates to 0 at m = d, where the action set is a single point
    return math.sqrt(2.0 * m * d * n * math.log(d / m)) if m < d else 0.0


def osmd_potential_bound(n: int, d: int, m: int, q: float = 2.0) -> float:
    return q * math.sqrt(2.0 / (q - 1.0) * m * d * n)


def ball_bound(n: int, d: int) -> float:
    return 3.0 * math.sqrt(d * n * math.log(n))
