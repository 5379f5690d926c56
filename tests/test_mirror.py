import math
import warnings

import numpy as np
import pytest

from banditlab import mirror, selftest
from banditlab.adversarial import Exp3State
from banditlab.env import ReplicaDraws, derive_stream
from banditlab.geometry import doptimal_design, madow_start_intervals
from banditlab.mirror import (
    Exp2State,
    OsmdBall,
    OsmdMsets,
    ball_bound,
    ball_grad,
    ball_grad_star,
    ball_schedule,
    exp2_bound,
    exp2_schedule,
    log_barrier_ball,
    negentropy_capped_simplex,
    negentropy_simplex,
    omd_step,
    osmd_negent_bound,
    osmd_negent_eta,
    osmd_potential_bound,
    osmd_potential_eta,
    potential_capped_simplex,
    power_potential,
    semibandit_estimate,
)


def test_ball_grad_maps():
    assert np.allclose(ball_grad(np.zeros(3)), 0.0)
    assert np.allclose(ball_grad_star(np.zeros(3)), 0.0)
    out = ball_grad_star(np.array([3.0, 4.0]))
    assert np.allclose(out, [0.5, 4.0 / 6.0])
    rng = derive_stream(1, 0)
    for _ in range(50):
        x = rng.standard_normal(4)
        x *= 0.95 * rng.random() / np.linalg.norm(x)
        assert np.allclose(ball_grad_star(ball_grad(x)), x, atol=1e-12)
    with pytest.raises(ValueError):
        ball_grad(np.array([1.0, 0.0]))


def test_omd_step_negentropy_hand_value():
    spec = negentropy_simplex()
    x = omd_step(np.array([0.5, 0.5]), np.array([1.0, 0.0]), math.log(2), spec)
    assert np.allclose(x, [1 / 3, 2 / 3])


def test_omd_step_zero_gradient_fixed_point():
    for spec, x in ((negentropy_simplex(), np.array([0.4, 0.6])),
                    (log_barrier_ball(0.9), np.array([0.2, -0.1]))):
        out = omd_step(x, np.zeros(2), 0.5, spec)
        assert np.allclose(out, x, atol=1e-12)


def test_generic_omd_path_tracks_exponential_weights():
    # the explicit primal-dual dance drifts only by float noise
    rng = derive_stream(3, 0)
    K = 3
    eta = 0.15
    spec = negentropy_simplex()
    x = np.full(K, 1.0 / K)
    cum = np.zeros(K)
    for _ in range(100):
        g = rng.random(K)
        x = omd_step(x, g, eta, spec)
        cum += g
        from banditlab.adversarial import exp3_probs
        assert np.allclose(x, exp3_probs(cum, eta), atol=1e-12)


@pytest.mark.parametrize("side", ["exp3", "omd", "nan"])
def test_exp3_omd_selftest_fails_when_one_side_moves(monkeypatch, side):
    passed, detail = selftest.check_exp3_omd_agreement()
    assert passed and float(detail.split()[3]) < 1e-13
    if side == "exp3":  # Exp3's rate grows by one part in 1e9
        current_eta = Exp3State.current_eta
        monkeypatch.setattr(Exp3State, "current_eta", lambda self: current_eta(self) * (1 + 1e-9))
    elif side == "omd":  # so does mirror descent's
        monkeypatch.setattr(mirror, "omd_step",
                            lambda x, g, eta, spec: omd_step(x, g, eta * (1 + 1e-9), spec))
    else:
        monkeypatch.setattr(mirror, "omd_step", lambda x, g, eta, spec: x * math.nan)
    passed, detail = selftest.check_exp3_omd_agreement()
    assert not passed
    gap = float(detail.split()[3])
    assert math.isnan(gap) if side == "nan" else 1e-10 < gap < 1e-7


def test_zero_potential_curvature_bound():
    # D_{F*}(u, v) <= 1/2 sum psi'(v_i) (u_i - v_i)^2 whenever u <= v
    rng = derive_stream(4, 0)
    for q in (1.5, 2.0, 3.0):
        psi = power_potential(q)

        def dual_div(u, v):
            # antiderivative of psi for the power family: (-s)^(1-q) / (q-1)
            anti = (-np.asarray(u)) ** (1.0 - q) / (q - 1.0) \
                - (-np.asarray(v)) ** (1.0 - q) / (q - 1.0)
            return float((anti - (u - v) * psi.psi(v)).sum())

        for _ in range(200):
            v = -rng.random(4) * 3 - 0.1
            u = v - rng.random(4)
            lhs = dual_div(u, v)
            rhs = 0.5 * float((psi.psi_prime(v) * (u - v) ** 2).sum())
            assert lhs <= rhs + 1e-9


def test_exp2_probs_at_zero_eta():
    pts = np.vstack([np.eye(3), -np.eye(3)])
    design = doptimal_design(pts)
    state = Exp2State(pts, design, eta=1e-300, gamma=0.3)
    p = state.probs()
    expected = 0.7 / 6 + 0.3 * design.weights
    assert np.allclose(p, expected, atol=1e-9)


def test_exp2_estimate_canonical_basis():
    pts = np.eye(3)
    state = Exp2State(pts, doptimal_design(pts), eta=0.1, gamma=0.5)
    uniform = np.full(3, 1.0 / 3.0)
    est = state.estimate(pts[1], 0.6, p=uniform)
    assert np.allclose(est, 3 * 0.6 * pts[1])


def test_exp2_estimate_exactly_unbiased():
    rng = derive_stream(5, 0)
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]])
    state = Exp2State(pts, doptimal_design(pts), eta=0.2, gamma=0.2)
    ell = np.array([0.3, -0.5])
    p = state.probs()
    mean = np.zeros(2)
    for idx in range(3):
        mean += p[idx] * state.estimate(pts[idx], float(pts[idx] @ ell), p=p)
    assert np.allclose(mean, ell, atol=1e-10)
    with pytest.raises(ValueError):
        state.estimate(pts[0], 1.5)


def test_exp2_rows_match_one_row_states():
    # each row's probs, plays, scalar losses and estimates carry the bits a
    # one-row state computes for the same stream
    R, n = 4, 300
    for seed in range(4):
        rng = derive_stream(40 + seed, 0)
        pts = rng.standard_normal((12, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        pts *= rng.random((12, 1)) ** (1.0 / 3.0)
        losses = rng.standard_normal((n, 3))
        losses /= np.linalg.norm(losses, axis=1, keepdims=True)
        design = doptimal_design(pts)
        batch = Exp2State(pts, design, n=n, replicas=R)
        draws = ReplicaDraws(seed, range(R), n)
        rows = [Exp2State(pts, design, n=n) for _ in range(R)]
        streams = [derive_stream(seed, r) for r in range(R)]
        for loss in losses:
            assert np.array_equal(batch.probs(), [row.probs() for row in rows])
            idx, paid = batch.round(loss, draws)
            played = [row.round(loss, stream) for row, stream in zip(rows, streams)]
            assert np.array_equal(idx, [i for i, _ in played])
            assert np.array_equal(paid, [s for _, s in played])
            assert np.array_equal(batch.cum_estimate, [row.cum_estimate for row in rows])


def test_exp2_scalar_loss_range_holds_per_row():
    pts = np.vstack([np.eye(3), -np.eye(3)])
    state = Exp2State(pts, doptimal_design(pts), eta=0.1, gamma=0.3, replicas=3)
    played = np.array([0, 4, 2])
    for bad in (np.nan, 1.5):
        with pytest.raises(ValueError, match="scalar loss"):
            state.estimate(pts[played], np.array([0.2, bad, -0.4]))
        with pytest.raises(ValueError, match="scalar loss"):
            state.update(pts[played], np.array([bad, 0.0, 0.0]))
    assert np.array_equal(state.cum_estimate, np.zeros((3, 3)))


def test_exp2_estimate_on_a_rank_one_sampling_matrix_raises():
    # all of p on one point makes P(p) = x x^T, which has rank one
    pts = np.vstack([np.eye(3), -np.eye(3)])
    state = Exp2State(pts, doptimal_design(pts), eta=0.1, gamma=0.3, replicas=2)
    one_point = np.eye(6)[[2, 2]]
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        state.estimate(pts[[2, 2]], np.array([0.5, -0.5]), p=one_point)
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        one_row = Exp2State(pts, doptimal_design(pts), eta=0.1, gamma=0.3)
        one_row.estimate(pts[2], 0.5, p=one_point[0])


def test_an_exp2_run_raises_no_warning():
    rng = derive_stream(14, 0)
    pts = rng.standard_normal((20, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    state = Exp2State(pts, doptimal_design(pts), n=300, replicas=4)
    draws = ReplicaDraws(14, range(4), 300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for loss in rng.uniform(-1.0, 1.0, (300, 3)) / np.sqrt(3.0):
            state.round(loss, draws)


def test_exp2_schedule():
    eta, gamma = exp2_schedule(4000, 3, 20)
    assert eta == pytest.approx(math.sqrt(math.log(20) / (3 * 4000 * 3)))
    assert gamma == pytest.approx(eta * 3)


@pytest.mark.parametrize("gamma", [0.0, -0.5, 1.5, math.nan])
def test_exp2_refuses_a_gamma_outside_its_interval(gamma):
    # above 1 the softmax's share 1 - gamma is negative, and so is the
    # probability of a point the design leaves out
    rng = derive_stream(15, 0)
    pts = rng.standard_normal((8, 3))
    design = doptimal_design(pts)
    with pytest.raises(ValueError, match=r"gamma must lie in \(0, 1\]"):
        Exp2State(pts, design, eta=0.1, gamma=gamma)
    assert (Exp2State(pts, design, eta=0.1, gamma=1.0).probs() >= 0.0).all()


@pytest.mark.parametrize("eta", [-1.0, 0.0, -0.0, math.nan])
def test_exp2_refuses_a_rate_at_or_below_zero(eta):
    # at nan every probability was nan; the eta key's range is (0, inf)
    rng = derive_stream(15, 1)
    pts = rng.standard_normal((8, 3))
    design = doptimal_design(pts)
    with pytest.raises(ValueError, match="eta must be positive"):
        Exp2State(pts, design, eta=eta, gamma=0.3)
    assert Exp2State(pts, design, eta=1e-300, gamma=0.3).probs().sum() == pytest.approx(1.0)


def test_semibandit_estimate():
    x = np.array([0.25, 0.5, 0.25])
    v = np.array([1.0, 0.0, 1.0])
    ell = np.array([0.5, 0.9, 0.1])
    est = semibandit_estimate(x, v, ell)
    assert np.allclose(est, [2.0, 0.0, 0.4])
    assert est[1] == 0.0
    with pytest.raises(ZeroDivisionError):
        semibandit_estimate(np.array([1e-15, 1.0]), np.array([1.0, 1.0]),
                            np.array([0.5, 0.5]))


def test_semibandit_estimate_unbiased_under_madow():
    rng = derive_stream(6, 0)
    for _ in range(10):
        d, m = 4, 2
        x = rng.dirichlet(np.ones(d)) * m
        if x.max() > 1.0:
            continue
        ell = rng.random(d)
        mean = np.zeros(d)
        for length, v in madow_start_intervals(x, m):
            mean += length * semibandit_estimate(x, v, ell)
        assert np.allclose(mean, ell, atol=1e-12)


def test_osmd_eta_schedules():
    assert osmd_negent_eta(5000, 6, 2) == pytest.approx(
        math.sqrt(2 * 2 / (5000 * 6) * math.log(3)))
    # the q = 2 factor in front of 1/sqrt(n) is sqrt(2) for any m = d ratio power 0
    assert osmd_potential_eta(5000, 6, 2, q=2.0) == pytest.approx(math.sqrt(2.0 / 5000))
    assert osmd_negent_eta(100, 4, 4) == 0.0


def test_osmd_msets_plays_feasible_sets():
    rng = derive_stream(7, 0)
    for variant in ("negent", "potential"):
        policy = OsmdMsets(6, 2, n=300, variant=variant)
        for _ in range(300):
            losses = rng.random(6)
            v, incurred = policy.round(losses, rng)
            assert v.sum() == 2 and set(np.unique(v)).issubset({0.0, 1.0})
            assert incurred == pytest.approx(float(v @ losses))
            assert policy.x.sum() == pytest.approx(2.0, abs=1e-6)
            assert (policy.x >= 0.0).all() and (policy.x <= 1.0 + 1e-9).all()


def test_osmd_msets_full_set_degenerate():
    rng = derive_stream(8, 0)
    policy = OsmdMsets(3, 3, n=50, variant="negent")
    for _ in range(20):
        v, _ = policy.round(rng.random(3), rng)
        assert np.array_equal(v, np.ones(3))
    assert np.allclose(policy.x, 1.0)


@pytest.mark.parametrize("variant", ["negent", "potential"])
@pytest.mark.parametrize("eta", [-0.1, -math.inf, math.nan])
def test_osmd_msets_refuses_a_rate_below_zero(eta, variant):
    # these never learned, x staying at m/d with no error; the eta key's
    # range is [0, inf), and eta = 0, the learning-off control, stays
    with pytest.raises(ValueError, match="eta must be at least 0"):
        OsmdMsets(6, 2, variant=variant, eta=eta)
    policy = OsmdMsets(6, 2, variant=variant, eta=0.0)
    policy.update(np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0]), np.full(6, 0.5))
    assert (policy.x == 2 / 6).all()


def test_ball_schedule_and_condition():
    gamma, eta = ball_schedule(4000, 3)
    assert gamma == pytest.approx(1 / math.sqrt(4000))
    assert eta == pytest.approx(math.sqrt(math.log(4000) / (2 * 4000 * 3)))
    with pytest.raises(ValueError, match="eta"):
        OsmdBall(10, gamma=0.1, eta=0.1)


@pytest.mark.parametrize("gamma", [0.0, -0.5, 1.0, 1.5, math.nan])
def test_ball_refuses_a_gamma_outside_its_interval(gamma):
    # the iterate lives in the ball of radius 1 - gamma, which must be a ball
    with pytest.raises(ValueError, match=r"gamma must lie in \(0, 1\)"):
        OsmdBall(3, gamma=gamma, eta=0.01)
    project = OsmdBall(3, gamma=0.5, eta=0.01).spec.bregman_project
    assert np.allclose(project(np.array([0.9, 0.0, 0.0])), [0.5, 0.0, 0.0])


@pytest.mark.parametrize("eta", [-0.1, 0.0, math.nan])
def test_ball_refuses_a_rate_at_or_below_zero(eta):
    # the eta key's range is (0, 0.5]; eta * d <= 1/2 alone let these through
    with pytest.raises(ValueError, match="eta must be positive"):
        OsmdBall(3, gamma=0.1, eta=eta)
    assert OsmdBall(3, gamma=0.1, eta=0.5 / 3).eta == 0.5 / 3


def test_ball_estimate_hand_values():
    policy = OsmdBall(2, gamma=0.1, eta=0.01)
    # xi = 1 kills the estimate
    assert np.allclose(policy.loss_estimate(np.array([1.0, 0.0]), 1, 0.7), 0.0)
    # at x = 0 the estimate doubles the observed coordinate loss
    est = policy.loss_estimate(np.array([1.0, 0.0]), 0, 0.3)
    assert np.allclose(est, [0.6, 0.0])


def test_ball_plays_inside_unit_ball():
    rng = derive_stream(9, 0)
    policy = OsmdBall(3, n=500)
    gamma, _ = ball_schedule(500, 3)
    ell = np.array([0.5, -0.3, 0.2])
    for _ in range(500):
        played, _ = policy.round(ell, rng)
        assert np.linalg.norm(played) <= 1.0 + 1e-12
        assert np.linalg.norm(policy.x) <= 1.0 - gamma + 1e-12


def test_ball_perturbation_and_estimate_unbiased():
    rng = derive_stream(10, 0)
    policy = OsmdBall(2, gamma=0.1, eta=0.01)
    x = np.array([0.3, -0.2])
    policy.x = x
    ell = np.array([0.4, 0.1])
    norm = np.linalg.norm(x)
    mean_play = norm * x / norm
    mean_est = np.zeros(2)
    for coord in range(2):
        for sign in (-1.0, 1.0):
            played = np.zeros(2)
            played[coord] = sign
            w = (1.0 - norm) / 4.0
            mean_play = mean_play + w * played
            mean_est = mean_est + w * policy.loss_estimate(played, 0, float(played @ ell))
    assert np.allclose(mean_play, x, atol=1e-12)
    assert np.allclose(mean_est, ell, atol=1e-12)


def test_ball_radial_projection_is_bregman_optimal():
    # compare against a dense search along random rays and random feasible points
    rng = derive_stream(11, 0)
    spec = log_barrier_ball(0.6)
    for _ in range(20):
        w = rng.standard_normal(3)
        w *= (0.65 + 0.3 * rng.random()) / np.linalg.norm(w)
        z = spec.bregman_project(w)
        assert np.linalg.norm(z) <= 0.6 + 1e-12
        dz = spec.divergence(z, w)
        for _ in range(200):
            y = rng.standard_normal(3)
            y *= 0.6 * rng.random() ** (1 / 3) / np.linalg.norm(y)
            assert dz <= spec.divergence(y, w) + 1e-9
        for s in np.linspace(0.01, 0.6, 50):
            y = s * w / np.linalg.norm(w)
            assert dz <= spec.divergence(y, w) + 1e-12


def test_pythagorean_inequality_both_geometries():
    rng = derive_stream(12, 0)
    capped = negentropy_capped_simplex(2.0)
    ball = log_barrier_ball(0.7)
    for _ in range(300):
        w = rng.random(4) * 3 + 1e-3
        z = capped.bregman_project(w)
        y = rng.dirichlet(np.ones(4)) * 2.0
        if y.max() > 1.0:
            continue
        assert capped.divergence(y, w) >= capped.divergence(y, z) \
            + capped.divergence(z, w) - 1e-9
    for _ in range(300):
        w = rng.standard_normal(3)
        w *= 0.95 * rng.random() / np.linalg.norm(w)
        z = ball.bregman_project(w)
        y = rng.standard_normal(3)
        y *= 0.7 * rng.random() / np.linalg.norm(y)
        assert ball.divergence(y, w) >= ball.divergence(y, z) \
            + ball.divergence(z, w) - 1e-9


@pytest.mark.parametrize("potential", ["power", "exp"])
def test_pythagorean_selftest_fails_under_a_wrong_potential_projection(monkeypatch, potential):
    # the q = 3 power potential's projection, a feasible point that is not
    # the Bregman projection, swapped in for one geometry's own
    assert selftest.check_pythagorean()[0]
    project, wrong = mirror.project_capped_simplex_potential, mirror.power_potential(3.0)

    def swapped(w, m, psi):
        return project(w, m, wrong if (psi.psi is np.exp) == (potential == "exp") else psi)

    monkeypatch.setattr(mirror, "project_capped_simplex_potential", swapped)
    passed, detail = selftest.check_pythagorean()
    assert not passed, detail


def test_potential_projection_in_osmd_keeps_duals_consistent():
    # consistency requires the dual image to stay below the potential's ceiling
    spec = potential_capped_simplex(power_potential(2.0), 2.0)
    x = np.full(4, 0.5)
    out = omd_step(x, np.array([1.0, 0.0, 0.0, 2.0]), 0.1, spec)
    assert out.sum() == pytest.approx(2.0, abs=1e-8)


def test_ch5_bound_values():
    assert osmd_potential_bound(5000, 6, 2, q=2.0) == pytest.approx(692.82, abs=0.01)
    assert osmd_negent_bound(5000, 6, 2) == pytest.approx(363.09, abs=0.01)
    assert osmd_negent_bound(5000, 6, 6) == 0.0
    assert ball_bound(4000, 3) == pytest.approx(946.44, abs=0.01)
    assert exp2_bound(4000, 3, 20) == pytest.approx(656.80, abs=0.01)
