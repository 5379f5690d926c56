"""Convex-geometric primitives: sphere sampling, centered MVEE, D-optimal design,
capped-simplex Bregman projections, and systematic m-subset sampling."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .env import largest

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
    cap = d * (1.0 + tol)
    for _ in range(max_iter):
        P = pts.T @ (w[:, None] * pts)
        lev = np.einsum("ij,ji->i", pts, np.linalg.solve(P, pts.T))
        j_fw = int(lev.argmax())
        g_fw = lev[j_fw]
        if g_fw <= cap:
            return DesignWeights(w, P)
        j_aw = int(np.where(w > 0, lev, np.inf).argmin())  # least leverage in the support
        g_aw = lev[j_aw]
        if g_fw - d >= d - g_aw:
            # toward step: exact line search for log det
            s = (g_fw - d) / (g_fw * (d - 1.0))
            lam = s / (1.0 + s)
            w = (1.0 - lam) * w
            w[j_fw] += lam
        else:
            s = min((d - g_aw) / (g_aw * (d - 1.0)), w[j_aw])
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


_SUM_SAFE = float(np.finfo(float).max) / 2  # d weights, each below this over d, sum to a finite total


def _suffix_sums(ws: np.ndarray) -> np.ndarray:
    """Each row's sums of its last k entries, for k = d, ..., 1."""
    return np.add.accumulate(ws[:, ::-1], axis=-1)[:, ::-1]


def project_capped_simplex_negent(w, m: float) -> np.ndarray:
    """Entropy projection onto {x in [0,1]^d : sum x = m} by waterfilling.

    The optimum is x_i = min(1, c * w_i); sorting w descending identifies how
    many coordinates saturate at 1, then c is the exact normalizer for the rest.
    `w` is one point (d,) or one point per row (R, d); each row takes the first
    k at which c_k = (m - k) / (sum of all but its k largest weights) leaves its
    k-th largest weight at most 1. The projection does not change when a row
    is scaled, so a row whose weights sum past the largest double is divided
    by its largest weight first; every other row keeps its bits.
    """
    w = np.asarray(w, dtype=float)
    d = w.shape[-1]
    if m > d:
        raise ValueError("cap total m exceeds the dimension")
    if not (w > 0.0).all():  # written so that nan fails too
        raise ValueError("weights must be strictly positive")
    W = w.reshape(-1, d)
    rows = np.arange(len(W))[:, None]
    order = np.argsort(-W, axis=-1)
    ws = W[rows, order]  # each row sorted descending
    if len(W) and largest(ws[:, 0]) > _SUM_SAFE / d:  # some row's sum may overflow
        with np.errstate(over="ignore"):
            huge = _suffix_sums(ws)[:, 0] == np.inf
        if not (ws[huge, 0] < np.inf).all():
            raise ValueError("weights must be finite")
        ws[huge] /= ws[huge, :1]
    suffix = _suffix_sums(ws)
    c = (m - np.arange(d)) / suffix
    fits = c * ws <= 1.0
    k = fits.argmax(-1)[:, None]  # the first k that fits (0 when none does)
    xs = np.minimum(1.0, c[rows, k] * ws)
    xs[np.arange(d) < k] = 1.0
    xs[~fits.any(-1)] = 1.0  # m == d
    x = np.empty_like(W)
    x[rows, order] = xs
    return x.reshape(w.shape)


def _free_sums(a: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Each row's sum of its entries where `free` holds, with the bits of the
    sum of that row's compacted 1-D array. Below 8 terms numpy adds in order,
    so a zero in place of each other entry changes nothing; from 8 on its
    pairwise sum groups terms by position, so rows are summed in C-contiguous
    blocks of rows with the same count."""
    if a.shape[-1] < 8:
        return np.add.reduce(np.where(free, a, 0.0), -1)
    counts = np.count_nonzero(free, axis=-1)
    sums = np.empty(len(counts))
    for c in np.unique(counts):
        at = counts == c
        sums[at] = a[at][free[at]].reshape(-1, c).sum(-1) if c else 0.0
    return sums


def _bracket(passes: Callable, held: np.ndarray, sign: float, side: str) -> np.ndarray:
    """Each row's first of the points 0, sign, 3 sign, 7 sign, ... (200 at
    most) at which `passes(point)`, taken for every row at once, holds;
    `held` is whether 0 passes."""
    end = np.zeros(len(held))
    open_ = ~held
    at, step = 0.0, 1.0
    for _ in range(199):
        if not np.count_nonzero(open_):
            return end
        at += sign * step
        step *= 2.0
        end[open_] = at
        open_ &= ~passes(at)
    if np.count_nonzero(open_):
        raise ConvergenceError(f"no {side} bracket for the projection dual")
    return end


def project_capped_simplex_potential(w, m: float, psi, tol: float = PROJECTION_TOL,
                                     max_iter: int = MAX_ITER) -> np.ndarray:
    """Bregman projection onto the capped simplex for a coordinate-wise potential.

    Solves sum_i min(1, psi(psi_inv(w_i) - lam)) = m for the single dual
    variable lam by Newton steps safeguarded with a bisection bracket.
    `w` is one point (d,) or one point per row (R, d), every weight > 0.
    Every row keeps its own bracket and dual and stops at its own tolerance
    or bracket width, so it gets the bits it would get alone; the rows still
    running are kept together, and a row leaves them when it stops.

    Each Newton iteration evaluates psi, psi' and the two row sums on the
    running rows' (k, d) array; each row's bracket, dual and stopping rules
    then run on Python floats. Python's float + - * / and comparisons are the
    same correctly rounded IEEE-754 double operations as numpy's float64
    ufuncs, so a row's dual has the bits the array form gives it.
    """
    w = np.asarray(w, dtype=float)
    d = w.shape[-1]
    if m > d:
        raise ValueError("cap total m exceeds the dimension")
    if not (w > 0.0).all():  # written so that nan fails too
        raise ValueError("weights must be strictly positive")
    duals = psi.psi_inv(w.reshape(-1, d))
    out = np.empty_like(duals)
    if not len(duals):
        return out.reshape(w.shape)
    # a coordinate whose dual reaches psi_inv(1) saturates at 1 (psi(cap) is
    # exactly 1); the clamp keeps psi inside its domain u < a when the bracket
    # search steps lam far down
    cap = float(psi.psi_inv(1.0))

    def value(u: np.ndarray) -> np.ndarray:
        return np.minimum(1.0, psi.psi(np.minimum(u, cap)))

    def total(lam) -> np.ndarray:
        return np.add.reduce(value(duals - lam), -1)

    held = total(0.0)  # for both ends
    lo = _bracket(lambda lam: total(lam) >= m, held >= m, -1.0, "lower").tolist()
    hi = _bracket(lambda lam: total(lam) <= m, held <= m, 1.0, "upper").tolist()
    lam = [0.5 * (a + b) for a, b in zip(lo, hi)]
    live, D = np.arange(len(duals)), duals  # the rows still running
    ended = []  # (rows, lam) of rows that stopped on the bracket width
    # psi' may be inf or nan on a saturated coordinate, which no slope reads
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_iter):
            u = D - np.array(lam)[:, None]
            x = value(u)
            sums = np.add.reduce(x, -1).tolist()
            slopes = _free_sums(psi.psi_prime(u), x < 1.0).tolist()
            running = enumerate(zip(sums, slopes, lo, hi, lam))
            # row i's bracket is [a, b] and its dual c; lo, hi and lam are
            # rebuilt from the rows that keep running
            done, narrow, ends, keep, lo, hi, lam = [], [], [], [], [], [], []
            for i, (s, slope, a, b, c) in running:
                err = s - m
                if abs(err) <= tol:  # x is the answer at this lam
                    done.append(i)
                    continue
                if err > 0.0:
                    a = c
                else:
                    b = c
                # a row without slope has lam at one end of its bracket, so the
                # array form's inf or nan step fell outside it: the row bisects
                nxt = c + err / slope if slope else a
                c = nxt if a < nxt < b else 0.5 * (a + b)
                scale = abs(b)  # the width rule is b - a < 1e-16 max(1, |b|)
                if b - a < 1e-16 * (scale if scale > 1.0 else 1.0):
                    narrow.append(i)
                    ends.append(c)
                else:
                    keep.append(i)
                    lo.append(a)
                    hi.append(b)
                    lam.append(c)
            if done:
                out[live[done]] = x[done]
            if narrow:
                ended.append((live[narrow], np.array(ends)[:, None]))
            if not keep:
                break
            if len(keep) < len(live):
                live, D = live[keep], D[keep]
        else:  # rows the iteration budget ran out on
            ended.append((live, np.array(lam)[:, None]))
    for rows, lam in ended:
        x = value(duals[rows] - lam)
        if (np.abs(np.add.reduce(x, -1) - m) > 1e-6).any():
            raise ConvergenceError("projection dual solve did not converge")
        out[rows] = x
    return out.reshape(w.shape)


def _madow_cumulative(x, m: int | None) -> tuple[np.ndarray, int]:
    """Each row's cumulative sums 0, x_1, x_1 + x_2, ..., pinned to end at m
    (by default the rounded sum of the first row: one m for every row)."""
    x = np.asarray(x, dtype=float)
    if (x < -1e-12).any() or (x > 1.0 + 1e-12).any():
        raise ValueError("coordinates must lie in [0, 1]")
    total = np.add.reduce(x, -1)
    if m is None:
        m = int(round(float(total.flat[0])))
    off = ~(np.abs(total - m) <= 1e-6)  # written so that nan is off too
    if off.any():
        raise ValueError(f"coordinates sum to {np.ravel(total)[np.ravel(off)][0]}, "
                         f"expected the integer {m}")
    cum = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
    # the running sums of x clipped to [0, 1]
    np.add.accumulate(np.minimum(np.maximum(x, 0.0), 1.0), axis=-1, out=cum[..., 1:])
    # pin the endpoint and keep the array monotone against rounding drift
    np.minimum(cum, float(m), out=cum)
    cum[..., -1] = m
    return cum, m


def _madow_pick(cum: np.ndarray, m: int, u) -> np.ndarray:
    """The indicator of the items i whose [cum_i, cum_{i+1}) holds one of the
    thresholds u, u + 1, ..., u + m - 1, with one start u per row: those
    where the count of thresholds below the sums steps up."""
    thresholds = np.add.outer(u, np.arange(m))
    below = np.add.reduce(thresholds[..., None, :] < cum[..., None], -1)
    return (below[..., 1:] > below[..., :-1]).astype(float)


def madow_sample(x, rng, m: int | None = None) -> np.ndarray:
    """Systematic sampling of an m-subset with inclusion probabilities exactly x.

    A single uniform start u spawns thresholds u, u+1, ..., u+m-1; item i is
    selected when a threshold lands in [cum_{i-1}, cum_i). Requires x in [0,1]^d
    with integer coordinate sum m. With an (R, d) `x` and lockstep draws
    (`ReplicaDraws`), row r starts at the r-th double.
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
