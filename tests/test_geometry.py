import dataclasses
import warnings

import numpy as np
import pytest

from banditlab import geometry, harness, selftest
from banditlab.env import derive_stream
from banditlab.geometry import (
    DESIGN_TOL,
    MAX_ITER,
    DesignWeights,
    doptimal_design,
    madow_inclusion_probabilities,
    madow_sample,
    norm,
    project_ball,
    project_capped_simplex_negent,
    project_capped_simplex_potential,
    sample_sphere,
)
from banditlab.mirror import exp_potential, power_potential


def test_sample_sphere_unit_norm():
    rng = derive_stream(1, 0)
    for d in (1, 2, 5):
        for _ in range(100):
            v = sample_sphere(d, rng)
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


def test_sample_sphere_one_dimensional_signs():
    rng = derive_stream(2, 0)
    draws = np.array([sample_sphere(1, rng)[0] for _ in range(500)])
    assert set(np.unique(draws)) == {-1.0, 1.0}
    assert 0.3 < np.mean(draws > 0) < 0.7


def test_sample_sphere_symmetry():
    rng = derive_stream(3, 0)
    total = np.zeros(3)
    n = 10**5
    for _ in range(n):
        total += sample_sphere(3, rng)
    assert np.abs(total / n).max() < 0.02


def _mvee(points, **kw):
    """The minimal-volume origin-centered ellipsoid of the symmetric hull of
    `points`, {y : y^T E^{-1} y <= 1}: E = d times the D-optimal design matrix
    (Kiefer-Wolfowitz), with the design's support weights."""
    design = doptimal_design(points, **kw)
    return np.shape(points)[1] * design.design_matrix, design.weights


def test_mvee_cross_polytope_is_unit_ball():
    pts = np.vstack([np.eye(3), -np.eye(3)])
    E, weights = _mvee(pts, tol=1e-7)
    assert np.allclose(E, np.eye(3), atol=1e-5)
    assert weights.sum() == pytest.approx(1.0)
    lev = np.einsum("ij,ji->i", pts, np.linalg.solve(E, pts.T))
    assert (lev <= 1.0 + 1e-6).all()


def test_mvee_square_corners_is_circle_radius_sqrt2():
    pts = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    E, _ = _mvee(pts, tol=1e-9)
    # brute force over centered ellipses x^T diag(a,b)^-1 x <= 1 says the
    # optimum is the circle of radius sqrt(2): E = 2 I
    assert np.allclose(E, 2.0 * np.eye(2), atol=1e-6)


def test_mvee_sign_flip_invariance():
    rng = derive_stream(4, 0)
    pts = rng.standard_normal((8, 3))
    E1, _ = _mvee(pts)
    E2, _ = _mvee(-pts)
    assert np.allclose(E1, E2, atol=1e-8)


def test_mvee_rank_deficient_rejected():
    pts = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(ValueError):
        doptimal_design(pts)


def test_design_canonical_basis():
    design = doptimal_design(np.eye(4), tol=1e-9)
    assert np.allclose(design.weights, 0.25, atol=1e-6)
    assert np.allclose(design.design_matrix, np.eye(4) / 4, atol=1e-6)
    lev = design.leverage(np.eye(4))
    assert np.allclose(lev, 4.0, atol=1e-5)


def _frozen_design(pts, tol=DESIGN_TOL, max_iter=MAX_ITER):
    """Reference copy of doptimal_design's Frank-Wolfe loop for d > 1, with
    the support as an index array and the certificate rebuilt each step."""
    N, d = pts.shape
    w = np.full(N, 1.0 / N)
    for _ in range(max_iter):
        P = pts.T @ (w[:, None] * pts)
        lev = np.einsum("ij,ji->i", pts, np.linalg.solve(P, pts.T))
        j_fw = int(lev.argmax())
        g_fw = lev[j_fw]
        if g_fw <= d * (1.0 + tol):
            return w, P
        support = np.flatnonzero(w > 0)
        j_aw = int(support[lev[support].argmin()])
        g_aw = lev[j_aw]
        if g_fw - d >= d - g_aw:
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
    raise AssertionError("the frozen loop ran out of iterations")


def test_design_keeps_the_bits_of_the_frozen_loop():
    # the point sets of 50 linear-points environments (d = 3, 20 points),
    # drawn from stream ENV_STREAM_ID of seeds 0-49
    for seed in range(50):
        pts = harness.build_environment("linear-points", {"d": "3", "n_points": "20"},
                                        1, seed)["points"]
        design = doptimal_design(pts)
        w, P = _frozen_design(pts)
        assert np.array_equal(design.weights, w)
        assert np.array_equal(design.design_matrix, P)


def _design_sets():
    """Point sets beyond the benchmark's: d = 2, 4 and 5 with N = d + 1, ...,
    3d + 3; sets with duplicated rows, whose leverages tie; and a set with
    one short point, which the away step drops from the support."""
    rng = derive_stream(8, 0)
    for d in (2, 4, 5):
        for N in range(d + 1, 3 * d + 4):
            yield f"d={d} N={N}", rng.standard_normal((N, d))
    for d in (2, 3, 4):
        pts = rng.standard_normal((2 * d, d))
        yield f"d={d} duplicated", pts[[0, 0, 1, 2, 2, 2] + list(range(3, 2 * d)) + [1]]
    pts = rng.standard_normal((12, 3))
    pts[4] *= 1e-3
    yield "short point", pts


def test_design_keeps_the_frozen_loops_bits_beyond_the_benchmark_sets():
    for name, pts in _design_sets():
        design = doptimal_design(pts)
        w, P = _frozen_design(pts)
        assert np.array_equal(design.weights, w), name
        assert np.array_equal(design.design_matrix, P), name
        if name == "short point":
            assert design.weights[4] == 0.0  # an away step dropped it


def test_design_drops_a_zero_point_from_its_support():
    # the frozen loop's away step divides by the zero point's leverage,
    # which numpy takes to inf; the design drops the point without a warning
    pts = derive_stream(11, 0).standard_normal((12, 3))
    pts[4] = 0.0
    design = doptimal_design(pts)
    with np.errstate(divide="ignore"):
        w, P = _frozen_design(pts)
    assert np.array_equal(design.weights, w)
    assert np.array_equal(design.design_matrix, P)
    assert design.weights[4] == 0.0


def test_leverage_of_a_singular_design_matrix_raises():
    pts = np.eye(3)
    for matrix in (np.zeros((3, 3)), np.outer(pts[0], pts[0])):
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            DesignWeights(np.full(3, 1.0 / 3.0), matrix).leverage(pts)


def test_a_regular_design_raises_no_warning():
    pts = derive_stream(12, 0).standard_normal((20, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        design = doptimal_design(pts)
        design.leverage(pts)


def test_the_singular_block_leaves_other_faults_to_the_caller():
    # only the invalid flag becomes a LinAlgError; an overflow or a division
    # by zero around the solves still warns, as it would outside the block
    with warnings.catch_warnings(), geometry.singular_raises():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="overflow"):
            np.array([1e308]) * 10.0
        with pytest.raises(RuntimeWarning, match="divide by zero"):
            np.array([1.0]) / 0.0
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            np.array([np.inf]) - np.inf


def test_solve_selftest_fails_when_one_last_bit_moves(monkeypatch):
    assert selftest.check_lapack_solve_agreement()[0]
    solve = geometry.solve

    def nudged(a, b):
        x = solve(a, b)
        x.flat[-1] = np.nextafter(x.flat[-1], np.inf)
        return x

    monkeypatch.setattr(geometry, "solve", nudged)
    passed, detail = selftest.check_lapack_solve_agreement()
    assert not passed
    assert detail.startswith("60 of 60 solves")


def test_solve_selftest_fails_when_a_singular_system_does_not_raise(monkeypatch):
    monkeypatch.setattr(geometry, "singular_raises", lambda: np.errstate(invalid="ignore"))
    passed, detail = selftest.check_lapack_solve_agreement()
    assert not passed
    assert detail.endswith("0 of 2 singular systems raised LinAlgError")


def test_norm_is_the_linalg_norm_of_a_vector():
    rng = derive_stream(13, 0)
    for d in (1, 2, 3, 7, 64):
        for scale in (1e-200, 1.0, 1e150):
            x = scale * rng.standard_normal(d)
            assert norm(x) == np.linalg.norm(x)
    assert norm(np.zeros(3)) == 0.0


def test_design_one_dimensional():
    design = doptimal_design(np.array([[1.0], [2.0]]))
    assert np.allclose(design.weights, [0.0, 1.0])


def test_design_duplicates_do_not_change_matrix():
    rng = derive_stream(5, 0)
    pts = rng.standard_normal((6, 2))
    d1 = doptimal_design(pts, tol=1e-8)
    d2 = doptimal_design(np.vstack([pts, pts]), tol=1e-8)
    assert np.allclose(d1.design_matrix, d2.design_matrix, atol=1e-5)


def test_design_certificate_two_sided():
    rng = derive_stream(6, 0)
    for _ in range(5):
        d = int(rng.integers(2, 5))
        pts = rng.standard_normal((3 * d, d))
        design = doptimal_design(pts, tol=1e-7)
        lev = design.leverage(pts)
        assert lev.max() <= d * (1 + 1e-7) + 1e-12
        assert lev.max() >= d - 1e-9


def test_capped_projection_negent_hand_values():
    assert np.allclose(project_capped_simplex_negent(np.array([0.2, 0.6]), 1.0),
                       [0.25, 0.75])
    assert np.allclose(project_capped_simplex_negent(np.array([4.0, 1.0, 1.0]), 2.0),
                       [1.0, 0.5, 0.5])
    feasible = np.array([0.9, 0.6, 0.5])
    assert np.allclose(project_capped_simplex_negent(feasible, 2.0), feasible)
    with pytest.raises(ValueError):
        project_capped_simplex_negent(np.array([0.5, 0.5]), 3.0)


def test_capped_projection_potential_symmetric():
    psi = power_potential(2.0)
    x = project_capped_simplex_potential(np.array([0.4, 0.4]), 1.0, psi)
    assert np.allclose(x, 0.5, atol=1e-9)


def test_capped_projection_potential_brackets_past_the_domain_end():
    # the dual search steps past psi's domain u < 0; such coordinates saturate
    psi = power_potential(2.0)
    small = project_capped_simplex_potential(np.array([3e-4, 5.7e-3, 1.38e-2]), 1.0, psi)
    assert abs(small.sum() - 1.0) <= 1e-10 and (small > 0).all()
    # the root lies past the pole of the first coordinate, which stays at 1
    x = project_capped_simplex_potential(np.array([1.0, 1e-4, 1e-4]), 2.0, psi)
    assert np.allclose(x, [1.0, 0.5, 0.5], atol=1e-9)


def test_capped_projection_potential_returns_an_empty_batch_at_once():
    calls = []
    psi = power_potential(2.0)

    def counted(u):
        calls.append(u.shape)
        return psi.psi(u)

    spec = dataclasses.replace(psi, psi=counted)
    x = project_capped_simplex_potential(np.empty((0, 4)), 2.0, spec)
    assert x.shape == (0, 4)
    assert calls == []  # not one per Newton iteration of the budget


BAD_WEIGHTS = [[0.5, np.nan, 0.5], [0.5, -0.1, 0.6], [0.5, 0.0, 0.5], [-np.inf, 0.5, 0.5]]


@pytest.mark.parametrize("project", [
    project_capped_simplex_negent,
    lambda w, m: project_capped_simplex_potential(w, m, power_potential(2.0)),
    lambda w, m: project_capped_simplex_potential(w, m, exp_potential()),
], ids=["negent", "power-2", "exp"])
@pytest.mark.parametrize("bad", BAD_WEIGHTS, ids=["nan", "negative", "zero", "-inf"])
def test_capped_projections_refuse_a_weight_that_is_not_positive(project, bad):
    with pytest.raises(ValueError, match="weights must be strictly positive"):
        project(np.array(bad), 1.0)
    batch = np.full((4, 3), 0.4)
    batch[2] = bad  # one bad row fails the batch
    with pytest.raises(ValueError, match="weights must be strictly positive"):
        project(batch, 1.0)
    batch[2] = 0.4
    assert np.allclose(project(batch, 1.0), 1.0 / 3.0)


def test_capped_projection_exp_matches_negent():
    rng = derive_stream(7, 0)
    psi = exp_potential()
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 9))
        m = float(rng.integers(1, d + 1))
        w = rng.random(d) * 4 + 1e-3
        a = project_capped_simplex_negent(w, m)
        b = project_capped_simplex_potential(w, m, psi)
        worst = max(worst, float(np.abs(a - b).max()))
    assert worst <= 1e-8


def test_capped_projection_optimality_certificate():
    # the projection beats 1000 random feasible points in Bregman divergence;
    # for the power-2 potential: F(x) = -2 sum sqrt(x_i), grad F = -1/sqrt(x)
    rng = derive_stream(8, 0)
    psi = power_potential(2.0)
    d, m = 5, 2.0
    w = rng.random(d) * 2 + 0.05

    def divergence(a, b):
        Fa = float((-2.0 * np.sqrt(a)).sum())
        Fb = float((-2.0 * np.sqrt(b)).sum())
        return Fa - Fb - float((-1.0 / np.sqrt(b)) @ (a - b))

    z = project_capped_simplex_potential(w, m, psi)
    dz = divergence(z, w)
    checked = 0
    for _ in range(1000):
        y = rng.random(d)
        y *= m / y.sum()
        if y.max() > 1.0:
            continue
        checked += 1
        assert dz <= divergence(y, w) + 1e-9
    assert checked > 500


def test_negent_projection_optimality_certificate():
    # the entropy projection also beats 1000 random feasible points
    rng = derive_stream(13, 0)
    d, m = 5, 2.0
    w = rng.random(d) * 3 + 0.05

    def divergence(a, b):
        terms = np.where(a > 0, a * np.log(a / b), 0.0) - a + b
        return float(terms.sum())

    z = project_capped_simplex_negent(w, m)
    dz = divergence(z, w)
    checked = 0
    for _ in range(1000):
        y = rng.random(d)
        y *= m / y.sum()
        if y.max() > 1.0:
            continue
        checked += 1
        assert dz <= divergence(y, w) + 1e-9
    assert checked > 500


def test_madow_binary_point_is_deterministic():
    rng = derive_stream(9, 0)
    x = np.array([1.0, 0.0, 1.0, 0.0])
    for _ in range(10):
        assert np.array_equal(madow_sample(x, rng), x)


def test_madow_always_m_ones():
    rng = derive_stream(10, 0)
    for _ in range(200):
        d = int(rng.integers(2, 9))
        m = int(rng.integers(1, d + 1))
        x = rng.random(d)
        x *= m / x.sum()
        x = np.minimum(x, 1.0)
        x[x.argmax()] += m - x.sum()  # re-balance; may exceed 1 -> clamp and retry
        if x.max() > 1.0 or x.min() < 0.0:
            continue
        v = madow_sample(x, rng)
        assert v.sum() == m
        assert set(np.unique(v)).issubset({0.0, 1.0})


def test_madow_half_inclusion_exact():
    x = np.full(4, 0.5)
    probs = madow_inclusion_probabilities(x)
    assert np.allclose(probs, 0.5, atol=1e-15)


def test_madow_inclusion_exact_small_d():
    rng = derive_stream(11, 0)
    for _ in range(30):
        d = int(rng.integers(2, 7))
        m = int(rng.integers(1, d))
        x = rng.dirichlet(np.ones(d)) * m
        if x.max() > 1.0:
            continue
        probs = madow_inclusion_probabilities(x)
        assert np.allclose(probs, x, atol=1e-12)


def test_madow_rejects_bad_input():
    rng = derive_stream(12, 0)
    with pytest.raises(ValueError):
        madow_sample(np.array([1.5, 0.5]), rng)
    with pytest.raises(ValueError):
        madow_sample(np.array([0.4, 0.4]), rng, m=2)


def test_project_ball_is_radial_scaling():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = rng.standard_normal(int(rng.integers(1, 6))) * rng.uniform(0.1, 3.0)
        radius = float(rng.uniform(0.5, 2.0))
        y = project_ball(x, radius)
        norm = np.linalg.norm(x)
        if norm <= radius:
            assert y is x
        else:
            assert np.array_equal(y, x * (radius / norm))
            assert np.linalg.norm(y) == pytest.approx(radius)
