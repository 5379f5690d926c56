"""Zeroth-order gradient descent with one- and two-point feedback, and golden
section search under noisy evaluations."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import project_ball, sample_sphere

PHI = (1.0 + math.sqrt(5.0)) / 2.0


class ConvexBody:
    """Centered ball or box with certified inner/outer radii and closed-form projection."""

    def __init__(self, kind: str, dim: int, radius: float | None = None,
                 halfwidths=None):
        self.kind = kind
        self.dim = dim
        if kind == "ball":
            if radius is None or radius <= 0.0:
                raise ValueError("a ball needs a positive radius")
            self.radius = float(radius)
            self.halfwidths = None
            self.inner_radius = self.radius
            self.outer_radius = self.radius
        elif kind == "box":
            hw = np.asarray(halfwidths, dtype=float)
            if hw.shape != (dim,) or (hw <= 0.0).any():
                raise ValueError("a box needs positive half-widths of the right dimension")
            self.radius = None
            self.halfwidths = hw
            self.inner_radius = float(hw.min())
            self.outer_radius = float(np.linalg.norm(hw))
        else:
            raise ValueError(f"unknown body kind {kind!r}")

    @classmethod
    def ball(cls, d: int, radius: float = 1.0) -> "ConvexBody":
        return cls("ball", d, radius=radius)

    @classmethod
    def box(cls, halfwidths) -> "ConvexBody":
        hw = np.asarray(halfwidths, dtype=float)
        return cls("box", hw.shape[0], halfwidths=hw)

    def project(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "ball":
            return project_ball(x, self.radius)
        return np.clip(x, -self.halfwidths, self.halfwidths)

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        if self.kind == "ball":
            return bool(np.linalg.norm(x) <= self.radius + tol)
        return bool((np.abs(x) <= self.halfwidths + tol).all())

    def shrink(self, factor: float) -> "ConvexBody":
        if not 0.0 < factor <= 1.0:
            raise ValueError("shrink factor must lie in (0, 1]")
        if self.kind == "ball":
            return ConvexBody.ball(self.dim, factor * self.radius)
        return ConvexBody.box(factor * self.halfwidths)


@dataclass(frozen=True)
class LossOracle:
    """Black-box loss with its Lipschitz constant G and sup bound L."""

    query: Callable[[np.ndarray], float]
    G: float
    L: float

    def spot_check_lipschitz(self, body: ConvexBody, rng: np.random.Generator,
                             trials: int = 50) -> bool:
        for _ in range(trials):
            x = body.project(rng.uniform(-1.0, 1.0, body.dim) * body.outer_radius)
            y = body.project(rng.uniform(-1.0, 1.0, body.dim) * body.outer_radius)
            if abs(self.query(x) - self.query(y)) > self.G * np.linalg.norm(x - y) + 1e-9:
                return False
        return True


def linear_oracle(c, radius: float = 1.0) -> LossOracle:
    c = np.asarray(c, dtype=float)
    return LossOracle(lambda x: float(c @ x), G=float(np.linalg.norm(c)),
                      L=radius * float(np.linalg.norm(c)))


def absvalue_oracle(c, radius: float = 1.0) -> LossOracle:
    c = np.asarray(c, dtype=float)
    return LossOracle(lambda x: abs(float(c @ x)), G=float(np.linalg.norm(c)),
                      L=radius * float(np.linalg.norm(c)))


def quadratic_oracle(c, radius: float = 1.0) -> LossOracle:
    c = np.asarray(c, dtype=float)
    span = radius + float(np.linalg.norm(c))
    return LossOracle(lambda x: float(np.dot(x - c, x - c)), G=2.0 * span, L=span**2)


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


class OsgdState:
    """Projected gradient descent driven by sphere-sampled value queries.

    The iterate lives on the body shrunk by (1 - delta / r) so that both query
    points stay feasible.
    """

    def __init__(self, body: ConvexBody, mode: str, eta: float, delta: float):
        if mode not in ("two-point", "one-point"):
            raise ValueError(f"unknown feedback mode {mode!r}")
        if delta >= body.inner_radius:
            raise ValueError("delta must be smaller than the body's inner radius")
        self.body = body
        self.mode = mode
        self.eta = eta
        self.delta = delta
        self.play_body = body.shrink(1.0 - delta / body.inner_radius)
        self.x = np.zeros(body.dim)
        self.t = 0

    def round(self, oracle: LossOracle, rng: np.random.Generator):
        """Query, play, and step; returns (played point, incurred loss)."""
        d = self.body.dim
        S = sample_sphere(d, rng)
        if self.mode == "two-point":
            x_plus = self.x + self.delta * S
            x_minus = self.x - self.delta * S
            if not (self.body.contains(x_plus, 1e-9) and self.body.contains(x_minus, 1e-9)):
                raise RuntimeError("query point escaped the body")
            f_plus = oracle.query(x_plus)
            f_minus = oracle.query(x_minus)
            grad = two_point_estimate(f_plus, f_minus, S, d, self.delta)
            norm_cap = oracle.G * d
            if rng.random() < 0.5:
                played, incurred = x_plus, f_plus
            else:
                played, incurred = x_minus, f_minus
        else:
            x_query = self.x + self.delta * S
            if not self.body.contains(x_query, 1e-9):
                raise RuntimeError("query point escaped the body")
            f_val = oracle.query(x_query)
            grad = one_point_estimate(f_val, S, d, self.delta)
            norm_cap = d * oracle.L / self.delta
            played = x_query
            incurred = f_val
        if np.linalg.norm(grad) > norm_cap + 1e-9:
            raise RuntimeError("gradient estimate exceeded its certified norm cap")
        self.x = self.play_body.project(self.x - self.eta * grad)
        self.t += 1
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
