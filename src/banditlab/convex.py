"""Zeroth-order gradient descent with one- and two-point feedback, and golden
section search under noisy evaluations."""
from __future__ import annotations

import math
from collections import namedtuple
from functools import partial
from typing import Callable

import numpy as np

from .env import POSITIVE, rates
from .geometry import norm, project_ball, sample_sphere

PHI = (1.0 + math.sqrt(5.0)) / 2.0


# a convex loss family on the centred ball of radius R: its loss at x for the
# round's unit direction c, and its Lipschitz constant G and loss bound L on
# that ball, each a function of R
LossFamily = namedtuple("LossFamily", "loss G L")

FAMILIES = {
    "absvalue": LossFamily(lambda x, c: abs(float(c @ x)), lambda R: 1.0, lambda R: R),
    "linear": LossFamily(lambda x, c: float(c @ x), lambda R: 1.0, lambda R: R),
    # ||x - c|| is at most R + 1 on the ball
    "quadratic": LossFamily(lambda x, c: float(np.dot(x - c, x - c)),
                            lambda R: 2.0 * (R + 1.0), lambda R: (R + 1.0) ** 2),
}


def two_point_estimate(f_plus: float, f_minus: float, S: np.ndarray, d: int,
                       delta: float) -> np.ndarray:
    """(d / 2 delta) (f+ - f-) S."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    return d / (2.0 * delta) * (f_plus - f_minus) * np.asarray(S, dtype=float)


def one_point_estimate(f_val: float, S: np.ndarray, d: int, delta: float) -> np.ndarray:
    """(d / delta) f S."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    return d / delta * f_val * np.asarray(S, dtype=float)


def osgd_two_point_schedule(n: int, d: int, R: float, G: float, r: float) -> tuple[float, float]:
    eta = R / (G * d * math.sqrt(n))
    delta = min(r / 2.0, 1.0 / n)
    return eta, delta


def osgd_one_point_schedule(n: int, d: int, R: float, r: float, G: float,
                            L: float) -> tuple[float, float]:
    shape = (3.0 + R / r) * G
    delta = (2.0 * n) ** (-0.25) * math.sqrt(R * d * L / shape)
    eta = (2.0 * n) ** (-0.75) * math.sqrt(R**3 / (d * L * shape))
    return delta, eta


def osgd_constants(family: LossFamily, d: int, R: float, mode: str) -> dict:
    """The osgd theorem's constants for `mode` on `family`'s losses on the
    centred ball of radius R in d dimensions: d, its outer and inner radii
    R = r, and the family's G, and for one-point feedback its L, at R."""
    k = {"d": d, "R": R, "r": R, "G": family.G(R)}
    return k if mode == "two-point" else {**k, "L": family.L(R)}


def osgd_rates(n: int | None, mode: str, eta: float | None = None,
               delta: float | None = None, **k) -> tuple[float, float]:
    """(eta, delta) of osgd in `mode`, each given or by the mode's schedule
    at the constants `k` (`osgd_constants`): eta > 0, and delta in (0, R),
    which keeps every query in the ball."""
    schedule = (partial(osgd_two_point_schedule, **k) if mode == "two-point"
                else lambda n: osgd_one_point_schedule(n, **k)[::-1])
    return rates(n, schedule, {"eta": POSITIVE, "delta": (
        lambda delta: 0.0 < delta < k["R"], "must lie between 0 and the ball's radius")},
        eta=eta, delta=delta)


class OsgdState:
    """Projected gradient descent driven by sphere-sampled value queries of
    one loss family's losses on the centred ball of `radius` in `dim`
    dimensions.

    The iterate lives on the ball shrunk by (1 - delta / radius) so that
    every query point stays feasible; `osgd_rates` resolves eta and delta.
    """

    def __init__(self, family: LossFamily, dim: int, radius: float, mode: str,
                 eta: float | None = None, delta: float | None = None, n: int | None = None):
        if mode not in ("two-point", "one-point"):
            raise ValueError(f"unknown feedback mode {mode!r}")
        eta, delta = osgd_rates(n, mode, eta, delta, **osgd_constants(family, dim, radius, mode))
        self.loss = family.loss
        self.dim = dim
        self.radius = radius
        self.mode = mode
        self.eta = eta
        self.delta = delta
        self.play_radius = (1.0 - delta / radius) * radius
        # the certified norm of a gradient estimate
        self.norm_cap = family.G(radius) * dim if mode == "two-point" \
            else dim * family.L(radius) / delta
        self.x = np.zeros(dim)

    def round(self, c: np.ndarray, rng: np.random.Generator):
        """Query the loss of direction c, play, and step; returns (played
        point, incurred loss)."""
        d = self.dim
        S = sample_sphere(d, rng)
        if self.mode == "two-point":
            x_plus = self.x + self.delta * S
            x_minus = self.x - self.delta * S
            queries = (x_plus, x_minus)
            f_plus = self.loss(x_plus, c)
            f_minus = self.loss(x_minus, c)
            grad = two_point_estimate(f_plus, f_minus, S, d, self.delta)
            if rng.random() < 0.5:
                played, incurred = x_plus, f_plus
            else:
                played, incurred = x_minus, f_minus
        else:
            played = self.x + self.delta * S
            queries = (played,)
            incurred = self.loss(played, c)
            grad = one_point_estimate(incurred, S, d, self.delta)
        if max(map(norm, queries)) > self.radius + 1e-9:
            raise RuntimeError("query point escaped the ball")
        # a relative slack: a direction's norm is 1 only to within rounding,
        # and the one-point cap grows as 1 / delta
        if norm(grad) > self.norm_cap * (1.0 + 1e-9):
            raise RuntimeError("gradient estimate exceeded its certified norm cap")
        self.x = project_ball(self.x - self.eta * grad, self.play_radius)
        return played, float(incurred)


def osgd_two_point_bound(n: int, d: int, R: float, G: float, delta: float, r: float) -> float:
    return 2.0 * R * G * d * math.sqrt(n) + delta * (3.0 + R / r) * G * n


def osgd_one_point_bound(n: int, d: int, R: float, r: float, G: float, L: float) -> float:
    return 4.0 * n**0.75 * math.sqrt(R * d * L * (3.0 + R / r) * G)


def sgs_next_query(x_a: float, x_b: float, x_c: float) -> float:
    """Fourth golden-section point inside the current bracket."""
    if not x_a < x_b < x_c:
        raise ValueError("bracket must satisfy x_a < x_b < x_c")
    if x_b - x_a > x_c - x_b:
        return x_b - (x_b - x_a) / PHI**2
    return x_b + (x_c - x_b) / PHI**2  # equal gaps fall through to this branch


def sgs_stage_plan(s: int, C_L: float, n: int) -> tuple[float, int]:
    """Target accuracy for stage s and the plays each of the 4 points receives."""
    if s < 1 or n < 1 or C_L <= 0.0:
        raise ValueError("need s >= 1, n >= 1 and C_L > 0")
    eps = C_L * PHI ** (-(s + 3))
    plays = math.ceil(2.0 / eps**2 * math.log(6.0 * n))
    return eps, plays


def sgs_eliminate(points: tuple[float, float, float, float],
                  totals) -> tuple[float, float, float]:
    """Drop one golden-ratio segment based on the lowest total loss.

    `points` must be sorted; ties in the minimum go to the leftmost point. The
    surviving bracket is shorter by exactly 1/phi.
    """
    x_a, x_b, x_bp, x_c = points
    totals = np.asarray(totals, dtype=float)
    best = int(totals.argmin())
    if best <= 1:
        return x_a, x_b, x_bp
    return x_b, x_bp, x_c


class SgsState:
    """Stage-based golden section search on [0, 1] with noisy point values."""

    def __init__(self, n: int, C_L: float = 1.0):
        self.n = n
        self.C_L = C_L
        self.bracket = (0.0, 1.0 / PHI**2, 1.0)
        self.stage = 0

    def stage_points(self) -> tuple[float, float, float, float]:
        x_a, x_b, x_c = self.bracket
        x_new = sgs_next_query(x_a, x_b, x_c)
        pts = sorted((x_a, x_b, x_new, x_c))
        return tuple(pts)

    def plays_per_point(self) -> int:
        return sgs_stage_plan(self.stage + 1, self.C_L, self.n)[1]

    def finish_stage(self, points, totals) -> None:
        self.bracket = sgs_eliminate(points, totals)
        self.stage += 1


def run_sgs(sample_losses: Callable[[float, int, np.random.Generator], np.ndarray],
            n: int, C_L: float, rng: np.random.Generator):
    """Drive SGS for n plays; returns the played points and the final bracket.

    `sample_losses(x, count, rng)` must return `count` loss realizations in
    [0, 1] with mean equal to the unknown loss at x. Points inside a stage are
    played round-robin, and a partial final stage stops without eliminating.
    """
    state = SgsState(n, C_L)
    played = np.empty(n)
    spent = 0
    while spent < n:
        points = state.stage_points()
        per_point = state.plays_per_point()
        stage_len = min(4 * per_point, n - spent)
        order = np.tile(points, math.ceil(stage_len / 4))[:stage_len]  # never past the budget
        played[spent:spent + stage_len] = order
        totals = np.zeros(4)
        for j, x in enumerate(points):
            reps = order[j::4].shape[0]
            if reps:
                totals[j] = sample_losses(x, reps, rng).sum()
        spent += stage_len
        if stage_len == 4 * per_point:
            state.finish_stage(points, totals)
    return played, (state.bracket[0], state.bracket[2])


def sgs_bound(n: int, C_L: float, C_H: float) -> float:
    """Pseudo-regret cap of golden section search under noisy evaluations."""
    log6n = math.log(6.0 * n)
    stages_term = 0.25 * (math.log(1.0 + C_L**2 * n) / math.log(PHI)) ** 2
    sweep_term = 2.0 * PHI / (PHI - 1.0) * math.sqrt(1.0 + C_L**2 * n)
    return C_H / C_L**2 * 8.0 * PHI**6 * log6n * (sweep_term + stages_term)
