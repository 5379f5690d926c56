"""Convex-geometric primitives: sphere sampling, ball projection, D-optimal
design, capped-simplex Bregman projections, and systematic m-subset sampling."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
# The LAPACK gufunc behind numpy's public solve function. On the 3 x 3
# systems of Exp2 that function's array checks, type promotion and errstate
# block cost as much as the solve again; the gufunc gives the same bits
# (pinned by the tests and by the `lapack-solve-agreement` selftest), and
# this is the one place the package names it.
from numpy.linalg._umath_linalg import solve as _lapack_solve
# The C einsum that numpy's public einsum forwards to when it is not asked
# to optimize: the same call without the wrapper's dispatch and argument
# checks, which cost about as much again as a design iteration's small einsum.
from numpy._core.multiarray import c_einsum as _einsum

from .env import INF, UNIT, ZERO, constant, largest, smallest, within

DESIGN_TOL = 1e-7
PROJECTION_TOL = 1e-10
MAX_ITER = 10**5


class ConvergenceError(RuntimeError):
    pass


def norm(x: np.ndarray) -> float:
    """The Euclidean norm of a real 1-D array: sqrt(x . x), the formula
    np.linalg.norm uses for it, without that function's wrapper."""
    return math.sqrt(x.dot(x))


def _singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def singular_raises() -> np.errstate:
    """A block in which the invalid flag a singular system raises in `solve`
    becomes a LinAlgError, as in numpy's public solve; one block serves every
    `solve` inside it. The gufunc clears every other flag it meets, so the
    caller's handling of overflow, division by zero and underflow holds for
    the code around the solves, and an invalid operation anywhere in the
    block reads as a singular system."""
    return np.errstate(call=_singular, invalid="call")


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b for float a (..., d, d) and b (..., d, k), with the bits of
    numpy's public solve; a singular a raises LinAlgError inside
    `singular_raises()`."""
    return _lapack_solve(a, b, signature="dd->d")


def sample_sphere(d: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the unit sphere (normalized Gaussian)."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    while True:
        g = rng.standard_normal(d)
        length = norm(g)
        if length > 0.0:
            return g / length


def project_ball(x: np.ndarray, radius: float) -> np.ndarray:
    """x inside the centered ball of `radius`, else x scaled radially onto its sphere."""
    length = norm(x)
    return x if length <= radius else x * (radius / length)


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
        with singular_raises():
            sol = solve(self.design_matrix, points.T)
        return _einsum("ij,ji->i", points, sol)


def doptimal_design(points, tol: float = DESIGN_TOL, max_iter: int = MAX_ITER) -> DesignWeights:
    """Log-det maximizing weights via Frank-Wolfe with away steps.

    Stops once max_x x^T P^{-1} x <= d (1 + tol), the equalized-leverage
    certificate of optimality; raises if the budget runs out first. Each
    iteration is one gemm, one solve, one C einsum and the argmax and argmin
    of the leverages (each the first index among ties); the step sizes run
    on Python floats, which round as numpy's float64 scalars do. The whole
    loop runs in one `singular_raises()` block, so an overflow or division
    by zero in it still warns, and an invalid operation anywhere in it
    raises LinAlgError("Singular matrix").
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
    pts_t = pts.T
    with singular_raises():
        for _ in range(max_iter):
            P = pts_t @ (w[:, None] * pts)
            lev = _einsum("ij,ji->i", pts, solve(P, pts_t))
            j_fw = lev.argmax()
            g_fw = lev.item(j_fw)
            if g_fw <= cap:
                return DesignWeights(w, P)
            j_aw = np.where(w > ZERO, lev, INF).argmin()  # least leverage in the support
            g_aw = lev.item(j_aw)
            if g_fw - d >= d - g_aw:
                # toward step: exact line search for log det
                s = (g_fw - d) / (g_fw * (d - 1.0))
                lam = s / (1.0 + s)
                w = (1.0 - lam) * w
                w[j_fw] += lam
            else:
                # away step; a zero point (no leverage) leaves the support at once
                drop = w.item(j_aw)
                s = min((d - g_aw) / (g_aw * (d - 1.0)), drop) if g_aw else drop
                w = w.copy()
                w[j_aw] -= s
                w /= 1.0 - s
    raise ConvergenceError("design iteration did not reach its certificate")


_SUM_SAFE = float(np.finfo(float).max) / 2  # d weights, each below this over d, sum to a finite total


def _suffix_sums(ws: np.ndarray) -> np.ndarray:
    """Each row's sums of its last k entries, for k = d, ..., 1."""
    return np.add.accumulate(ws[:, ::-1], axis=-1)[:, ::-1]


@functools.lru_cache(maxsize=32)
def _arange(n: int) -> np.ndarray:
    """np.arange(n), built once and read-only."""
    return constant(np.arange(n))


def _checked_weights(w, m: float) -> np.ndarray:
    """`w` as a float array, with m at most its dimension and every weight > 0."""
    w = np.asarray(w, dtype=float)
    if m > w.shape[-1]:
        raise ValueError("cap total m exceeds the dimension")
    if w.size and not smallest(w) > 0.0:  # written so that nan fails too
        raise ValueError("weights must be strictly positive")
    return w


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
    w = _checked_weights(w, m)
    d = w.shape[-1]
    W = w.reshape(-1, d)
    rows = _arange(len(W))[:, None]
    order = (-W).argsort(-1)
    ws = W[rows, order]  # each row sorted descending
    if len(W) and largest(ws[:, 0]) > _SUM_SAFE / d:  # some row's sum may overflow
        with np.errstate(over="ignore"):
            huge = _suffix_sums(ws)[:, 0] == np.inf
        if not (ws[huge, 0] < np.inf).all():
            raise ValueError("weights must be finite")
        ws[huge] /= ws[huge, :1]
    c = (m - _arange(d)) / _suffix_sums(ws)
    fits = c * ws <= UNIT
    k = fits.argmax(-1)[:, None]  # the first k that fits (0 when none does)
    xs = np.minimum(UNIT, c[rows, k] * ws)
    xs[_arange(d) < k] = 1.0
    xs[~np.logical_or.reduce(fits, -1)] = 1.0  # m == d
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
        return np.add.reduce(np.where(free, a, ZERO), -1)
    counts = np.count_nonzero(free, axis=-1)
    sums = np.empty(len(counts))
    for c in np.unique(counts):
        at = counts == c
        sums[at] = a[at][free[at]].reshape(-1, c).sum(-1) if c else 0.0
    return sums


_LOOP_ENTRIES = 32


def _newton_sums(x: np.ndarray, slopes: np.ndarray, rows: list) -> tuple[list, list]:
    """Each row's sum of x and its sum of `slopes` where x < 1 (its free
    coordinates), as lists of Python floats with the bits of `np.add.reduce`
    of the row and of the sum of its compacted free slopes; only the rows in
    `rows` are read. Below 8 terms numpy adds in order, and so does the loop
    here (the builtin `sum` does not from Python 3.12 on), which serves while
    those rows hold at most _LOOP_ENTRIES entries; past that numpy's fixed
    cost per call is the smaller."""
    d = x.shape[-1]
    if d >= 8 or len(rows) * d > _LOOP_ENTRIES:
        return np.add.reduce(x, -1).tolist(), _free_sums(slopes, x < UNIT).tolist()
    xs, ps = x.tolist(), slopes.tolist()
    sums, free = [0.0] * len(xs), [0.0] * len(xs)
    for i in rows:
        s = f = 0.0
        for v, p in zip(xs[i], ps[i]):
            s += v
            if v < 1.0:
                f += p
        sums[i], free[i] = s, f
    return sums, free


def _brackets(total: Callable, held: list, m: float) -> tuple[list, list]:
    """Each row's bracket [lo, hi] for its dual. A row whose total `held` at 0
    is below m takes as lo the first of -1, -3, -7, ... (199 at most) at
    which its total reaches m; a row above m takes as hi the first of 1, 3,
    7, ... at which its total is at most m; each other end is 0.
    `total(lams)` sums every row at its dual in `lams`, once per doubling
    while some row is searching."""
    lo, hi = [0.0] * len(held), [0.0] * len(held)
    down = [i for i, s in enumerate(held) if not s >= m]  # written so that nan searches too
    up = [i for i, s in enumerate(held) if s > m]
    at, step = 0.0, 1.0
    for _ in range(199):
        if not down and not up:
            return lo, hi
        at += step
        step *= 2.0
        for i in down:
            lo[i] = -at
        for i in up:
            hi[i] = at
        # one end of each bracket is 0, so a + b is the other one: a
        # searching row's probe, and any other row at its end or at 0
        sums = total([a + b for a, b in zip(lo, hi)])
        down = [i for i in down if not sums[i] >= m]
        up = [i for i in up if not sums[i] <= m]
    if down:
        raise ConvergenceError("no lower bracket for the projection dual")
    if up:
        raise ConvergenceError("no upper bracket for the projection dual")
    return lo, hi


def project_capped_simplex_potential(w, m: float, psi, tol: float = PROJECTION_TOL,
                                     max_iter: int = MAX_ITER) -> np.ndarray:
    """Bregman projection onto the capped simplex for a coordinate-wise potential.

    Solves sum_i min(1, psi(psi_inv(w_i) - lam)) = m for the single dual
    variable lam by Newton steps safeguarded with a bisection bracket.
    `w` is one point (d,) or one point per row (R, d), every weight > 0.
    Every row keeps its own bracket and dual and stops at its own tolerance
    or bracket width, so it gets the bits it would get alone.

    Each Newton iteration evaluates psi and psi' on the (R, d) array in
    numpy, a stopped row at the dual it stopped at, and takes the running
    rows' sums as Python floats (`_newton_sums`); each row's bracket, dual
    and stopping rules then run on Python floats. Python's float + - * /
    and comparisons are the same correctly rounded IEEE-754 double
    operations as numpy's float64 ufuncs, so a row's dual has the bits the
    array form gives it.
    """
    w = _checked_weights(w, m)
    d = w.shape[-1]
    duals = psi.psi_inv(w.reshape(-1, d))
    out = np.empty_like(duals)
    if not len(duals):
        return out.reshape(w.shape)
    # a coordinate whose dual reaches psi_inv(1) saturates at 1 (psi(cap) is
    # exactly 1); the clamp keeps psi inside its domain u < a when the bracket
    # search steps lam far down
    cap = np.array(float(psi.psi_inv(1.0)))

    def value(u: np.ndarray) -> np.ndarray:
        return np.minimum(UNIT, psi.psi(np.minimum(u, cap)))

    def total(lams: list) -> list:
        return np.add.reduce(value(duals - np.array(lams)[:, None]), -1).tolist()

    lo, hi = _brackets(total, np.add.reduce(value(duals), -1).tolist(), m)
    lam = [0.5 * (a + b) for a, b in zip(lo, hi)]
    running = list(range(len(duals)))
    ended = []  # rows that stopped on the bracket width or ran out of iterations
    for _ in range(max_iter):
        # psi' at the clamped dual is psi' at the dual on every free
        # coordinate (x < 1 only below the cap), and finite on the others
        u = np.minimum(duals - np.array(lam)[:, None], cap)
        x = np.minimum(UNIT, psi.psi(u))
        sums, slopes = _newton_sums(x, psi.psi_prime(u), running)
        still = []
        for i in running:
            err = sums[i] - m
            if abs(err) <= tol:  # x is the answer at this lam
                out[i] = x[i]
                continue
            # row i's bracket is [a, b] and its dual c
            a, b, c = lo[i], hi[i], lam[i]
            if err > 0.0:
                a = c
            else:
                b = c
            # a row without slope has lam at one end of its bracket, so the
            # array form's inf or nan step fell outside it: the row bisects
            slope = slopes[i]
            nxt = c + err / slope if slope else a
            c = nxt if a < nxt < b else 0.5 * (a + b)
            lo[i], hi[i], lam[i] = a, b, c
            scale = abs(b)  # the width rule is b - a < 1e-16 max(1, |b|)
            if b - a < 1e-16 * (scale if scale > 1.0 else 1.0):
                ended.append(i)
            else:
                still.append(i)
        running = still
        if not running:
            break
    else:  # rows the iteration budget ran out on
        ended += running
    if ended:
        x = value(duals[ended] - np.array([lam[i] for i in ended])[:, None])
        if (np.abs(np.add.reduce(x, -1) - m) > 1e-6).any():
            raise ConvergenceError("projection dual solve did not converge")
        out[ended] = x
    return out.reshape(w.shape)


def _madow_cumulative(x, m: int | None) -> tuple[np.ndarray, int]:
    """Each row's cumulative sums 0, x_1, x_1 + x_2, ..., pinned to end at m
    (by default the rounded sum of the first row: one m for every row)."""
    x = np.asarray(x, dtype=float)
    # entries within 1e-12 of [0, 1] pass, and so does nan; entries in
    # [0, 1] take one min and one max, and need no clipping
    inside = within(x, 0.0, 1.0)
    if not inside and ((x < -1e-12).any() or (x > 1.0 + 1e-12).any()):
        raise ValueError("coordinates must lie in [0, 1]")
    total = np.add.reduce(x, -1)
    if m is None:
        m = int(round(float(total.flat[0])))
    err = np.abs(total - m)
    if err.size and not largest(err) <= 1e-6:  # written so that nan fails too
        off = ~(err <= 1e-6)
        raise ValueError(f"coordinates sum to {np.ravel(total)[np.ravel(off)][0]}, "
                         f"expected the integer {m}")
    cum = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
    # the running sums of x clipped to [0, 1]
    np.add.accumulate(x if inside else np.minimum(np.maximum(x, 0.0), 1.0), axis=-1,
                      out=cum[..., 1:])
    # pin the endpoint and keep the array monotone against rounding drift
    np.minimum(cum, float(m), out=cum)
    cum[..., -1] = m
    return cum, m


def _madow_pick(cum: np.ndarray, m: int, u) -> np.ndarray:
    """The indicator of the items i whose [cum_i, cum_{i+1}) holds one of the
    thresholds u, u + 1, ..., u + m - 1, with one start u per row: those
    where the count of thresholds below the sums steps up."""
    thresholds = np.add.outer(u, _arange(m))
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
