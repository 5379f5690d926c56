"""Convex-geometric primitives: sphere sampling, centered MVEE, D-optimal design,
capped-simplex Bregman projections, and systematic m-subset sampling."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DESIGN_TOL = 1e-7
PROJECTION_TOL = 1e-10
MAX_ITER = 10**5


class ConvergenceError(RuntimeError):
    pass


def sample_sphere(d: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the unit sphere (normalized Gaussian)."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    while True:
        g = rng.standard_normal(d)
        norm = np.linalg.norm(g)
        if norm > 0.0:
            return g / norm


def _check_full_rank(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be an N x d array")
    if np.isnan(pts).any():
        raise ValueError("points contain NaN")
    d = pts.shape[1]
    if np.linalg.matrix_rank(pts) < d:
        raise ValueError("points do not span the full space")
    return pts


@dataclass
class DesignWeights:
    """Probability vector over a point set together with its second-moment matrix."""

    weights: np.ndarray
    design_matrix: np.ndarray

    def leverage(self, points: np.ndarray) -> np.ndarray:
        sol = np.linalg.solve(self.design_matrix, points.T)
        return np.einsum("ij,ji->i", points, sol)


def doptimal_design(points, tol: float = DESIGN_TOL, max_iter: int = MAX_ITER) -> DesignWeights:
    """Log-det maximizing weights via Frank-Wolfe with away steps.

    Stops once max_x x^T P^{-1} x <= d (1 + tol), the equalized-leverage
    certificate of optimality; raises if the budget runs out first.
    """
    pts = _check_full_rank(points)
    N, d = pts.shape
    if d == 1:
        j = int(np.abs(pts[:, 0]).argmax())
        w = np.zeros(N)
        w[j] = 1.0
        return DesignWeights(w, pts.T @ (w[:, None] * pts))
    w = np.full(N, 1.0 / N)
    for _ in range(max_iter):
        P = pts.T @ (w[:, None] * pts)
        lev = np.einsum("ij,ji->i", pts, np.linalg.solve(P, pts.T))
        j_fw = int(lev.argmax())
        g_fw = lev[j_fw]
        if g_fw <= d * (1.0 + tol):
            return DesignWeights(w, P)
        support = np.flatnonzero(w > 0)
        j_aw = int(support[lev[support].argmin()])
        g_aw = lev[j_aw]
        if g_fw - d >= d - g_aw:
            # toward step: exact line search for log det
            s = (g_fw - d) / (g_fw * (d - 1.0)) if d > 1 else 1.0
            lam = s / (1.0 + s)
            w = (1.0 - lam) * w
            w[j_fw] += lam
        else:
            s = (d - g_aw) / (g_aw * (d - 1.0)) if d > 1 else w[j_aw]
            s = min(s, w[j_aw])
            w = w.copy()
            w[j_aw] -= s
            w /= 1.0 - s
    raise ConvergenceError("design iteration did not reach its certificate")


def mvee(points, tol: float = DESIGN_TOL, max_iter: int = MAX_ITER):
    """Minimal-volume origin-centered ellipsoid of the symmetric hull of `points`.

    The input set is treated as {+x, -x : x in points}. Returns the shape
    matrix E with ellipsoid {y : y^T E^{-1} y <= 1} and the support weights;
    every input point satisfies x^T E^{-1} x <= 1 + tol.
    """
    pts = _check_full_rank(points)
    d = pts.shape[1]
    design = doptimal_design(pts, tol=tol, max_iter=max_iter)
    E = d * design.design_matrix
    return E, design.weights


def project_capped_simplex_negent(w, m: float) -> np.ndarray:
    """Entropy projection onto {x in [0,1]^d : sum x = m} by waterfilling.

    The optimum is x_i = min(1, c * w_i); sorting w descending identifies how
    many coordinates saturate at 1, then c is the exact normalizer for the rest.
    """
    w = np.asarray(w, dtype=float)
    d = w.shape[0]
    if m > d:
        raise ValueError("cap total m exceeds the dimension")
    if (w <= 0.0).any():
        raise ValueError("weights must be strictly positive")
    order = np.argsort(-w)
    ws = w[order]
    suffix = np.cumsum(ws[::-1])[::-1]
    for k in range(d):
        c = (m - k) / suffix[k]
        if c * ws[k] <= 1.0:
            x = np.minimum(1.0, c * w)
            x[order[:k]] = 1.0
            return x
    return np.ones(d)  # m == d


def project_capped_simplex_potential(w, m: float, psi, tol: float = PROJECTION_TOL,
                                     max_iter: int = MAX_ITER) -> np.ndarray:
    """Bregman projection onto the capped simplex for a coordinate-wise potential.

    Solves sum_i min(1, psi(psi_inv(w_i) - lam)) = m for the single dual
    variable lam by Newton steps safeguarded with a bisection bracket.
    """
    w = np.asarray(w, dtype=float)
    d = w.shape[0]
    if m > d:
        raise ValueError("cap total m exceeds the dimension")
    duals = psi.psi_inv(w)
    # a coordinate whose dual reaches psi_inv(1) saturates at 1 (psi(cap) is
    # exactly 1); the clamp keeps psi inside its domain u < a when the bracket
    # search steps lam far down
    cap = float(psi.psi_inv(1.0))

    def value(lam: float) -> np.ndarray:
        return psi.psi(np.minimum(duals - lam, cap))

    def total(lam: float) -> float:
        return float(np.minimum(1.0, value(lam)).sum())

    lo, hi = 0.0, 0.0
    step = 1.0
    for _ in range(200):
        if total(lo) >= m:
            break
        lo -= step
        step *= 2.0
    else:
        raise ConvergenceError("no lower bracket for the projection dual")
    step = 1.0
    for _ in range(200):
        if total(hi) <= m:
            break
        hi += step
        step *= 2.0
    else:
        raise ConvergenceError("no upper bracket for the projection dual")
    lam = 0.5 * (lo + hi)
    for _ in range(max_iter):
        vals = value(lam)
        err = float(np.minimum(1.0, vals).sum()) - m
        if abs(err) <= tol:
            return np.minimum(1.0, vals)
        if err > 0.0:
            lo = lam
        else:
            hi = lam
        free = vals < 1.0
        slope = float(psi.psi_prime(duals[free] - lam).sum())
        nxt = lam + err / slope if slope > 0.0 else lam
        lam = nxt if lo < nxt < hi else 0.5 * (lo + hi)
        if hi - lo < 1e-16 * max(1.0, abs(hi)):
            break
    if abs(total(lam) - m) > 1e-6:
        raise ConvergenceError("projection dual solve did not converge")
    return np.minimum(1.0, value(lam))


def _madow_cumulative(x, m: int | None) -> tuple[np.ndarray, int]:
    x = np.asarray(x, dtype=float)
    if (x < -1e-12).any() or (x > 1.0 + 1e-12).any():
        raise ValueError("coordinates must lie in [0, 1]")
    total = x.sum()
    if m is None:
        m = int(round(total))
    if abs(total - m) > 1e-6:
        raise ValueError(f"coordinates sum to {total}, expected the integer {m}")
    cum = np.concatenate(([0.0], np.cumsum(np.clip(x, 0.0, 1.0))))
    # pin the endpoint and keep the array monotone against rounding drift
    cum = np.minimum(cum, float(m))
    cum[-1] = m
    return cum, m


def _madow_pick(cum: np.ndarray, m: int, u: float) -> np.ndarray:
    idx = np.searchsorted(cum, u + np.arange(m), side="right") - 1
    v = np.zeros(cum.shape[0] - 1)
    v[idx] = 1.0
    return v


def madow_sample(x, rng: np.random.Generator, m: int | None = None) -> np.ndarray:
    """Systematic sampling of an m-subset with inclusion probabilities exactly x.

    A single uniform start u spawns thresholds u, u+1, ..., u+m-1; item i is
    selected when a threshold lands in [cum_{i-1}, cum_i). Requires x in [0,1]^d
    with integer coordinate sum m.
    """
    cum, m = _madow_cumulative(x, m)
    return _madow_pick(cum, m, rng.random())


def madow_start_intervals(x, m: int | None = None):
    """Pieces of the start range [0, 1) on which the selected set is constant.

    Yields (length, indicator) pairs; integrating any function of the selected
    set over these pieces is exact, which makes small-d enumeration checks of
    `madow_sample` possible.
    """
    cum, m = _madow_cumulative(x, m)
    cuts = np.unique(np.concatenate(([0.0, 1.0], np.mod(cum[:-1], 1.0))))
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b > a:
            yield b - a, _madow_pick(cum, m, 0.5 * (a + b))


def madow_inclusion_probabilities(x) -> np.ndarray:
    """Exact inclusion probabilities by integrating over the uniform start."""
    x = np.asarray(x, dtype=float)
    probs = np.zeros(x.shape[0])
    for length, v in madow_start_intervals(x):
        probs += length * v
    return probs
