import math
from functools import partial

import numpy as np
import pytest

from banditlab.convex import (
    FAMILIES,
    PHI,
    OsgdState,
    SgsState,
    one_point_estimate,
    osgd_one_point_bound,
    osgd_one_point_schedule,
    osgd_two_point_bound,
    osgd_two_point_schedule,
    run_sgs,
    sgs_bound,
    sgs_eliminate,
    sgs_next_query,
    sgs_stage_plan,
    two_point_estimate,
)
from banditlab.env import derive_stream
from banditlab.geometry import sample_sphere


def test_osgd_ball_is_its_radius():
    # the iterate lives on the ball shrunk by (1 - delta / R), with the
    # shrunk radius computed as that product
    state = OsgdState(FAMILIES["linear"], 3, 2.0, "two-point", eta=0.1, delta=0.3)
    assert (state.dim, state.radius) == (3, 2.0)
    assert state.play_radius == (1.0 - 0.3 / 2.0) * 2.0
    for delta in (0.0, 2.0, 2.5):
        with pytest.raises(ValueError):
            OsgdState(FAMILIES["linear"], 3, 2.0, "two-point", eta=0.1, delta=delta)
    with pytest.raises(ValueError):
        OsgdState(FAMILIES["linear"], 3, 2.0, "three-point", eta=0.1, delta=0.3)


def test_loss_families():
    c = np.array([0.6, 0.8])
    linear, absvalue, quadratic = FAMILIES["linear"], FAMILIES["absvalue"], FAMILIES["quadratic"]
    assert linear.loss(np.array([1.0, 0.0]), c) == pytest.approx(0.6)
    assert absvalue.loss(np.array([-1.0, 0.0]), c) == pytest.approx(0.6)
    # |c . x| reaches R on the ball of radius R, and its slope is |c| = 1
    for family in (linear, absvalue):
        assert (family.G(4.0), family.L(4.0)) == (1.0, 4.0)
        assert family.L(4.0) == pytest.approx(abs(family.loss(4.0 * c, c)))
    assert quadratic.loss(np.array([0.5, 0.0]), np.zeros(2)) == pytest.approx(0.25)
    # ||x - c||^2 reaches (R + 1)^2 at x = -R c, where its gradient has norm 2(R + 1)
    assert (quadratic.G(1.0), quadratic.L(1.0)) == (4.0, 4.0)
    assert quadratic.L(3.0) == pytest.approx(quadratic.loss(-3.0 * c, c))


def test_two_point_estimate():
    S = np.array([1.0, 0.0])
    assert np.allclose(two_point_estimate(0.7, 0.7, S, 2, 0.1), 0.0)
    assert np.allclose(two_point_estimate(1.0, 0.0, S, 2, 0.5), [2.0, 0.0])
    with pytest.raises(ValueError):
        two_point_estimate(1.0, 0.0, S, 2, 0.0)


def test_one_point_estimate():
    S = np.array([0.0, 1.0])
    assert np.allclose(one_point_estimate(0.0, S, 2, 0.5), 0.0)
    assert np.allclose(one_point_estimate(1.0, S, 2, 0.5), [0.0, 4.0])
    with pytest.raises(ValueError):
        one_point_estimate(1.0, S, 2, -0.1)


def test_two_point_norm_cap():
    rng = derive_stream(2, 0)
    c = rng.standard_normal(3)
    c /= np.linalg.norm(c)
    absvalue = FAMILIES["absvalue"]
    x = np.zeros(3)
    for _ in range(200):
        S = sample_sphere(3, rng)
        delta = 0.01
        g = two_point_estimate(absvalue.loss(x + delta * S, c), absvalue.loss(x - delta * S, c),
                               S, 3, delta)
        assert np.linalg.norm(g) <= absvalue.G(1.0) * 3 + 1e-9


def test_two_point_quadrature_unbiased_linear():
    # angular quadrature of the sphere average recovers the gradient exactly
    c = np.array([0.3, -0.7])
    x = np.array([0.1, 0.2])
    delta = 0.05
    thetas = np.linspace(0.0, 2 * math.pi, 20001)[:-1]
    total = np.zeros(2)
    for th in thetas:
        S = np.array([math.cos(th), math.sin(th)])
        total += (2.0 / delta) * float(c @ (x + delta * S)) * S
    avg = total / len(thetas)
    assert np.allclose(avg, c, atol=1e-6)


def test_two_point_quadrature_matches_finite_difference_quadratic():
    centre = np.array([0.3, -0.1])
    loss = partial(FAMILIES["quadratic"].loss, c=centre)
    x = np.array([0.2, 0.4])
    delta = 1e-3
    thetas = np.linspace(0.0, 2 * math.pi, 4001)[:-1]
    total = np.zeros(2)
    for th in thetas:
        S = np.array([math.cos(th), math.sin(th)])
        total += (2.0 / (2 * delta)) * (loss(x + delta * S)
                                        - loss(x - delta * S)) * S
    avg = total / len(thetas)
    h = 1e-6
    fd = np.array([
        (loss(x + np.array([h, 0.0])) - loss(x - np.array([h, 0.0]))) / (2 * h),
        (loss(x + np.array([0.0, h])) - loss(x - np.array([0.0, h]))) / (2 * h),
    ])
    assert np.allclose(avg, fd, atol=1e-3)


def test_osgd_schedules():
    eta, delta = osgd_two_point_schedule(2500, 3, 1.0, 1.0, 1.0)
    assert eta == pytest.approx(1.0 / (3 * 50))
    assert delta == pytest.approx(min(0.5, 1 / 2500))
    delta1, eta1 = osgd_one_point_schedule(2500, 3, 1.0, 1.0, 1.0, 1.0)
    assert delta1 == pytest.approx((2 * 2500) ** -0.25 * math.sqrt(3.0 / 4.0))
    assert eta1 == pytest.approx((2 * 2500) ** -0.75 * math.sqrt(1.0 / 12.0))


def test_osgd_round_queries_stay_inside():
    rng = derive_stream(3, 0)
    state = OsgdState(FAMILIES["absvalue"], 3, 1.0, "two-point", eta=0.01, delta=0.05)
    c = np.array([1.0, 0.0, 0.0])
    for _ in range(300):
        played, incurred = state.round(c, rng)
        assert np.linalg.norm(played) <= 1.0 + 1e-9
        assert incurred == abs(c @ played)
        assert np.linalg.norm(state.x) <= state.play_radius + 1e-9


def test_osgd_one_point_round():
    rng = derive_stream(4, 0)
    state = OsgdState(FAMILIES["linear"], 2, 1.0, "one-point", eta=0.005, delta=0.1)
    c = np.array([0.5, 0.5])
    for _ in range(100):
        played, incurred = state.round(c, rng)
        assert np.linalg.norm(played) <= 1.0 + 1e-9
        assert incurred == c @ played


def test_osgd_bounds():
    assert osgd_two_point_bound(2500, 3, 1.0, 1.0, 1e-3, 1.0) == pytest.approx(310.0)
    assert osgd_one_point_bound(2500, 3, 1.0, 1.0, 1.0, 1.0) == pytest.approx(
        4 * 2500**0.75 * math.sqrt(12.0))


def test_sgs_next_query_initial():
    x = sgs_next_query(0.0, 1.0 / PHI**2, 1.0)
    assert x == pytest.approx(1.0 / PHI, abs=1e-12)
    assert 0.0 < x < 1.0


def test_sgs_next_query_branches():
    # left gap strictly larger probes the left interval
    left = sgs_next_query(0.0, 0.7, 1.0)
    assert left == pytest.approx(0.7 - 0.7 / PHI**2)
    # equal gaps take the otherwise branch
    mid = sgs_next_query(0.0, 0.5, 1.0)
    assert mid == pytest.approx(0.5 + 0.5 / PHI**2)
    with pytest.raises(ValueError):
        sgs_next_query(0.2, 0.2, 0.4)


def test_sgs_stage_plan():
    eps, plays = sgs_stage_plan(1, 1.0, 100)
    assert eps == pytest.approx(PHI**-4, abs=1e-12)
    # ceil(2/eps^2 * ln 600) = ceil(601.04...) = 602 by direct evaluation
    assert plays == 602
    eps2, _ = sgs_stage_plan(2, 1.0, 100)
    assert eps2 / eps == pytest.approx(1 / PHI, abs=1e-12)


def test_sgs_eliminate():
    pts = (0.0, 1.0 / PHI**2, 1.0 / PHI, 1.0)
    a, b, c = sgs_eliminate(pts, [0.1, 0.2, 0.3, 0.4])
    assert (a, b, c) == (0.0, 1.0 / PHI**2, 1.0 / PHI)
    a, b, c = sgs_eliminate(pts, [0.4, 0.3, 0.2, 0.1])
    assert (a, b, c) == (1.0 / PHI**2, 1.0 / PHI, 1.0)
    # tie goes to the leftmost point
    a, b, c = sgs_eliminate(pts, [0.2, 0.2, 0.2, 0.2])
    assert (a, b, c) == (0.0, 1.0 / PHI**2, 1.0 / PHI)
    length = pts[3] - pts[0]
    assert (c - a) / length == pytest.approx(1 / PHI, abs=1e-12)


def test_sgs_bracket_follows_powers_of_phi():
    rng = derive_stream(5, 0)
    state = SgsState(n=10**6)
    for s in range(1, 11):
        pts = state.stage_points()
        state.finish_stage(pts, rng.random(4))
        length = state.bracket[2] - state.bracket[0]
        assert length == pytest.approx(PHI**-s, abs=1e-11)
        assert any(state.bracket[0] <= p <= state.bracket[2] for p in pts)


def test_run_sgs_budget_and_bracket():
    rng = derive_stream(6, 0)

    def mu(x):
        return min(1.0, 0.3 + abs(x - 0.3))

    def sample_losses(x, count, stream):
        return (stream.random(count) < mu(x)).astype(float)

    played, bracket = run_sgs(sample_losses, 30_000, 1.0, rng)
    assert played.shape == (30_000,)
    assert bracket[0] <= 0.3 <= bracket[1]
    assert bracket[1] - bracket[0] < 1.0


def test_run_sgs_cuts_a_long_stage_at_the_budget():
    # C_L = 0.0011 asks for about 4e8 plays of each point in the first stage
    played, _ = run_sgs(lambda x, count, stream: np.zeros(count), 30, 0.0011, derive_stream(6, 0))
    assert np.array_equal(played, np.resize(SgsState(30, 0.0011).stage_points(), 30))


def test_sgs_bound_value():
    assert sgs_bound(10**5, 1.0, 1.0) == pytest.approx(3435793.4, rel=1e-6)
