"""Property suites runnable from the CLI: estimator unbiasedness by exact
enumeration, mirror-map identities, projection optimality, design certificates,
inclusion probabilities, Exp3 as negative-entropy mirror descent on the
simplex, and cross-implementation agreement."""
from __future__ import annotations

import math
from functools import partial

import numpy as np
# numpy's public solve, the reference `check_lapack_solve_agreement` holds
# `geometry.solve` to; nothing else in the package calls it
from numpy.linalg import solve as reference_solve

from . import adversarial, contextual, convex, geometry, mirror, stochastic
from .env import (
    ENV_STREAM_ID,
    KERNEL_MAX_DOUBLES,
    NonObliviousAdversary,
    ReplicaDraws,
    StochasticEnv,
    derive_stream,
    philox_doubles,
)

SELFTEST_SEED = 20240601


def check_estimator_unbiasedness(seed: int = SELFTEST_SEED):
    """Closed-form enumeration over the sampling outcome for every estimator."""
    rng = derive_stream(seed, 1)
    worst = 0.0
    for _ in range(20):
        K = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(K))
        losses = rng.random(K)
        # arm-loss estimate: expectation over the drawn arm recovers each loss
        mean_est = sum(p[j] * adversarial.importance_loss_estimate(p, j, losses[j])
                       for j in range(K))
        worst = max(worst, float(np.abs(mean_est - losses).max()))
        # biased gain estimate: expectation is gain_i + beta / p_i
        beta = float(rng.random())
        gains = rng.random(K)
        mean_gain = sum(p[j] * adversarial.exp3p_gain_estimate(p, j, gains[j], beta)
                        for j in range(K))
        worst = max(worst, float(np.abs(mean_gain - (gains + beta / p)).max()))
        # expert estimates inherit unbiasedness through the advice mixture
        N = int(rng.integers(1, 5))
        advice = rng.dirichlet(np.ones(K), size=N)
        q = rng.dirichlet(np.ones(N))
        arm_probs = contextual.exp4_arm_probs(q, advice, gamma=0.2)
        mean_expert = sum(
            arm_probs[j] * contextual.expert_loss_estimates(
                advice, adversarial.importance_loss_estimate(arm_probs, j, losses[j]))
            for j in range(K))
        worst = max(worst, float(np.abs(mean_expert - advice @ losses).max()))
    # semi-bandit estimate under systematic sampling, by start-interval integration
    for _ in range(10):
        d = int(rng.integers(3, 6))
        m = int(rng.integers(1, d))
        x = _random_capped_point(d, m, rng)
        ell = rng.random(d)
        mean_est = np.zeros(d)
        for length, v in geometry.madow_start_intervals(x, m):
            mean_est += length * mirror.semibandit_estimate(x, v, ell)
        worst = max(worst, float(np.abs(mean_est - ell).max()))
    # ball estimate: enumerate the Bernoulli switch, the coordinate, and the sign
    for _ in range(10):
        d = 2
        x = rng.random(d) * 0.4
        ell = rng.uniform(-1.0, 1.0, d)
        ell /= max(1.0, geometry.norm(ell))
        norm = geometry.norm(x)
        policy = mirror.OsmdBall(d, gamma=0.1, eta=0.01)
        policy.x = x
        mean_est = norm * policy.loss_estimate(x / norm, 1, float(x / norm @ ell))
        mean_play = norm * (x / norm)
        for coord in range(d):
            for sign in (-1.0, 1.0):
                played = np.zeros(d)
                played[coord] = sign
                w = (1.0 - norm) / (2.0 * d)
                mean_est = mean_est + w * policy.loss_estimate(played, 0, float(played @ ell))
                mean_play = mean_play + w * played
        worst = max(worst, float(np.abs(mean_est - ell).max()))
        worst = max(worst, float(np.abs(mean_play - x).max()))
    return worst <= 1e-9, f"max estimator bias {worst:.2e}"


def check_mirror_map_roundtrip(seed: int = SELFTEST_SEED):
    """grad_F_star o grad_F is the identity on interior points."""
    rng = derive_stream(seed, 2)
    worst = 0.0
    specs = [
        mirror.negentropy_simplex(),
        mirror.negentropy_capped_simplex(2.0),
        mirror.potential_capped_simplex(mirror.power_potential(1.5), 2.0),
        mirror.potential_capped_simplex(mirror.power_potential(2.0), 2.0),
        mirror.potential_capped_simplex(mirror.power_potential(3.0), 2.0),
    ]
    for spec in specs:
        for _ in range(200):
            x = rng.random(5) * 0.9 + 0.05
            back = spec.grad_F_star(spec.grad_F(x))
            worst = max(worst, float(np.abs(back - x).max()))
    ball = mirror.log_barrier_ball(0.9)
    for _ in range(200):
        x = rng.standard_normal(4)
        x *= 0.9 * rng.random() / geometry.norm(x)
        back = ball.grad_F_star(ball.grad_F(x))
        worst = max(worst, float(np.abs(back - x).max()))
    return worst <= 1e-9, f"max roundtrip error {worst:.2e}"


def check_pythagorean(seed: int = SELFTEST_SEED, instances: int = 500):
    """D(y, w) >= D(y, z) + D(z, w) for the projection z of w and feasible y,
    on `instances` draws in each geometry: the capped simplex (d = 4, m = 2)
    under the negative entropy and under the power (q = 2) and exp
    potentials, whose projections the OSMD potential variant takes, and the
    log-barrier ball."""
    rng = derive_stream(seed, 3)
    d, m = 4, 2
    capped = [mirror.negentropy_capped_simplex(m),
              mirror.potential_capped_simplex(mirror.power_potential(2.0), m),
              mirror.potential_capped_simplex(mirror.exp_potential(), m)]
    ball = mirror.log_barrier_ball(0.7)
    worst = 0.0
    for _ in range(instances):
        cases = []
        for spec in capped:
            y = np.maximum(_random_capped_point(d, m, rng), 1e-9)
            y *= m / y.sum()
            cases.append((spec, rng.random(d) * 3.0 + 1e-3, y))
        w = rng.standard_normal(3)
        w *= 0.95 * rng.random() / geometry.norm(w)
        y = rng.standard_normal(3)
        y *= 0.7 * rng.random() / geometry.norm(y)
        cases.append((ball, w, y))
        for spec, w, y in cases:
            z = spec.bregman_project(w)
            lhs = spec.divergence(y, w)
            rhs = spec.divergence(y, z) + spec.divergence(z, w)
            worst = max(worst, rhs - lhs)
    return worst <= 1e-7, f"max Pythagorean violation {worst:.2e}"


def check_design_certificate(seed: int = SELFTEST_SEED, tol: float = 1e-3):
    """d <= max leverage <= d (1 + tol) at the returned design."""
    rng = derive_stream(seed, 4)
    ok = True
    detail = []
    for _ in range(10):
        d = int(rng.integers(2, 5))
        N = int(rng.integers(d + 1, 3 * d + 4))
        pts = rng.standard_normal((N, d))
        design = geometry.doptimal_design(pts, tol=tol)
        lev = design.leverage(pts)
        ok &= lev.max() <= d * (1.0 + tol) + 1e-12 and lev.max() >= d - 1e-9
        detail.append(f"{lev.max() / d:.6f}")
    return ok, "max leverage / d: " + ", ".join(detail)


def check_madow_inclusion(seed: int = SELFTEST_SEED):
    """Analytic inclusion probabilities equal the target point for d <= 6."""
    rng = derive_stream(seed, 5)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 7))
        m = int(rng.integers(1, d + 1))
        x = _random_capped_point(d, m, rng)
        probs = geometry.madow_inclusion_probabilities(x)
        worst = max(worst, float(np.abs(probs - x).max()))
    return worst <= 1e-12, f"max inclusion gap {worst:.2e}"


def check_exp3_omd_agreement(seed: int = SELFTEST_SEED):
    """Exp3 is mirror descent with the negative entropy on the simplex: a
    one-row Exp3State, played only through select and update, stays within
    1e-12 relative of the iterate of `mirror.omd_step`, the step the OSMD
    strategies take, fed the same importance-weighted estimates. Written so
    that nan fails too."""
    rng = derive_stream(seed, 6)
    K, n = 5, 300
    eta = math.sqrt(2.0 * math.log(K) / (n * K))
    exp3 = adversarial.Exp3State(K, eta=eta)
    spec = mirror.negentropy_simplex()
    x = np.full(K, 1.0 / K)
    gaps = []
    for _ in range(n):
        p = exp3.probs()
        gaps.append(np.max(np.abs(p - x) / p))
        arm = exp3.select(rng)
        loss = float(rng.random())
        exp3.update(arm, loss)
        x = mirror.omd_step(x, adversarial.importance_loss_estimate(p, arm, loss), eta, spec)
    worst = float(np.max(gaps))
    return worst <= 1e-12, f"max relative gap {worst:.2e} over {n} rounds"


def check_sgs_bracket_identities(seed: int = SELFTEST_SEED):
    """Golden-ratio spacings and the 1/phi shrink hold to 1e-12 every stage."""
    rng = derive_stream(seed, 7)
    phi = convex.PHI
    worst = 0.0
    state = convex.SgsState(n=1000)
    # 15 stages cover any realistic horizon; beyond that the bracket is so
    # short that float noise relative to its length passes 1e-12
    for _ in range(15):
        a, b, c = state.bracket
        pts = state.stage_points()
        length = pts[3] - pts[0]
        gaps = np.diff(pts) / length
        worst = max(worst, float(np.abs(gaps - [phi**-2, phi**-3, phi**-2]).max()))
        totals = rng.random(4)
        state.finish_stage(pts, totals)
        new_len = state.bracket[2] - state.bracket[0]
        worst = max(worst, abs(new_len / length - 1.0 / phi))
    return worst <= 1e-12, f"max golden-ratio deviation {worst:.2e}"


def check_philox_kernel_agreement(seed: int = SELFTEST_SEED):
    """The vectorized Philox kernel returns the doubles of numpy's Philox
    streams bit for bit, so a numpy whose Philox or `random()` conversion
    differs fails here instead of silently changing reports."""
    rng = derive_stream(seed, 8)
    ids = [0, 1, ENV_STREAM_ID, 2**64 - 1] + rng.integers(0, 2**64, 28, dtype=np.uint64).tolist()
    keys = (seed, ENV_STREAM_ID, 2**64 - 1)
    differ = sum(not np.array_equal(row, derive_stream(key, i).random(KERNEL_MAX_DOUBLES))
                 for key in keys
                 for row, i in zip(philox_doubles(key, ids, KERNEL_MAX_DOUBLES), ids))
    return differ == 0, (f"{differ} of {len(keys) * len(ids)} streams differ "
                         f"in their first {KERNEL_MAX_DOUBLES} doubles")


def check_projection_rows_agreement(seed: int = SELFTEST_SEED):
    """Each row of a batched capped-simplex projection equals the projection
    of that row alone, bit for bit, so a numpy whose ufunc loops give
    different bits for different array lengths fails here instead of
    silently changing lockstep reports."""
    rng = derive_stream(seed, 9)
    projections = [geometry.project_capped_simplex_negent]
    projections += [lambda w, m, psi=psi: geometry.project_capped_simplex_potential(w, m, psi)
                    for psi in (mirror.power_potential(2.0), mirror.exp_potential())]
    differ = rows = 0
    for d in (2, 6, 11):
        for m in sorted({1, d // 2, d}):
            w = np.exp(rng.normal(-1.0, 1.5, size=(20, d)))
            for project in projections:
                batch = project(w, m)
                differ += sum(not np.array_equal(row, project(w[r], m))
                              for r, row in enumerate(batch))
                rows += len(w)
    return differ == 0, f"{differ} of {rows} projected rows differ from their one-row projections"


def check_lapack_solve_agreement(seed: int = SELFTEST_SEED):
    """`geometry.solve`, numpy's LAPACK gufunc called without its public
    wrapper, gives the wrapper's bits on seeded systems of the two shapes
    the package solves: the design's (d, d) matrix against its N points as
    columns, and Exp2's (R, d, d) estimate systems against (R, d, 1) points;
    and a singular system raises LinAlgError. So a numpy whose private
    gufunc behaves differently fails here instead of silently changing
    reports."""
    rng = derive_stream(seed, 10)
    differ = solves = systems = 0
    for d in (2, 3, 5):
        for _ in range(10):
            N, R = int(rng.integers(d + 1, 3 * d + 4)), int(rng.integers(1, 9))
            pts = rng.standard_normal((N, d))
            P = pts.T @ (rng.dirichlet(np.ones(N))[:, None] * pts)
            Ps = np.matmul(pts.T, rng.dirichlet(np.ones(N), R)[..., None] * pts)
            b = pts[rng.integers(N, size=R)][..., None]
            with geometry.singular_raises():
                differ += not np.array_equal(geometry.solve(P, pts.T), reference_solve(P, pts.T))
                differ += not np.array_equal(geometry.solve(Ps, b), reference_solve(Ps, b))
            solves, systems = solves + 2, systems + 1 + R
    raised = 0
    for a, b in ((np.ones((3, 3)), np.eye(3)), (np.zeros((2, 3, 3)), np.ones((2, 3, 1)))):
        try:
            with geometry.singular_raises():
                geometry.solve(a, b)
        except np.linalg.LinAlgError:
            raised += 1
    return differ == 0 and raised == 2, (
        f"{differ} of {solves} solves ({systems} systems) differ from numpy's public solve; "
        f"{raised} of 2 singular systems raised LinAlgError")


def check_exp_lane_agreement(seed: int = SELFTEST_SEED):
    """`np.exp` of one Python float gives the bits of that double's entry in
    a whole-row call, on seeded rows of every length from 1 to 33 whose
    entries lie in [-40, 0], as a one-row Exp3State's shifted scores do. Its
    cached weights rest on this: an update recomputes the played arm's
    weight alone, a select all K in one call. So a numpy whose SIMD `exp`
    rounds a lone double differently from a lane of a row fails here
    instead of silently changing reports."""
    rng = derive_stream(seed, 11)
    differ = rows = 0
    for length in range(1, 34):
        for _ in range(100):
            row = (-40.0 * rng.random(length)).tolist()
            differ += np.exp(row).tolist() != [float(np.exp(x)) for x in row]
            rows += 1
    return differ == 0, f"{differ} of {rows} rows differ from np.exp of each double alone"


def finite_rows_mismatch(make, kind: str, K: int, n: int, R: int, seed: int):
    """Play `make(R)`, a finite-arm state with one row per replica, in
    lockstep on `ReplicaDraws` beside R one-row states `make(None)`, each on
    its own `derive_stream(seed, r)`, for n rounds on a `kind` environment
    ("stochastic", "oblivious" or "nonoblivious") with K arms. Returns the
    first (round, attribute) at which some row's arm or state differs from
    its one-row state's, or None when every row keeps its bits every round.
    """
    rng = derive_stream(seed, ENV_STREAM_ID)
    env = StochasticEnv(rng.random(K))
    matrix = rng.random((n, K))
    batch = make(R)
    per_round = batch.draws_per_round + (kind == "stochastic")
    # each player: a state, its source of doubles and its grudge adversary
    players = [(batch, ReplicaDraws(seed, range(R), per_round * n), NonObliviousAdversary(K, R))]
    players += [(make(None), derive_stream(seed, r), NonObliviousAdversary(K)) for r in range(R)]
    gain = batch.feedback == "gain"

    def feedback(arm, rows, adversary, t):
        if kind == "stochastic":
            reward = env.sample_reward(arm, rows)
            return reward if gain else 1.0 - reward
        if kind == "oblivious":
            loss = matrix[t][arm]
        else:
            loss = adversary.play(arm)[0]
        return 1.0 - loss if gain else loss

    for t in range(n):
        arms = [state.select(rows) for state, rows, _ in players]
        if arms[0].tolist() != arms[1:]:
            return t, "arm"
        for (state, rows, adversary), arm in zip(players, arms):
            state.update(arm, feedback(arm, rows, adversary, t))
        for name, value in vars(batch).items():
            for r, (single, _, _) in enumerate(players[1:]):
                theirs = vars(single)[name]
                if not (np.array_equal(value[r], theirs) if isinstance(value, np.ndarray)
                        else value == theirs):
                    return t, name
    return None


def check_finite_rows_agreement(seed: int = SELFTEST_SEED):
    """Each row of a lockstep ucb, exp3 and exp3p run keeps the arms and
    state arrays of a one-row run on its own stream, bit for bit, every
    round, so a numpy whose small-array ufunc loops round differently fails
    here instead of silently changing lockstep reports. K = 10 puts numpy's
    row sums past 8 terms, where they add pairwise."""
    n, R = 200, 4
    makes = {"ucb": lambda K, r: stochastic.UcbState(K, replicas=r),
             "exp3": lambda K, r: adversarial.Exp3State(K, n=n, replicas=r),
             "exp3p": lambda K, r: adversarial.Exp3PState(
                 K, *adversarial.exp3p_params(n, K, 0.1), replicas=r)}
    kinds = ("stochastic", "oblivious", "nonoblivious")
    sizes = (5, 10)
    differ = [f"{name} on {kind} at round {at[0]} ({at[1]}), K = {K}"
              for K in sizes for name, make in makes.items() for kind in kinds
              if (at := finite_rows_mismatch(partial(make, K), kind, K, n, R, seed)) is not None]
    return not differ, "; ".join(differ) or (
        f"{len(makes) * len(kinds) * len(sizes)} runs of {R} rows match one-row runs "
        f"for {n} rounds")


def _random_capped_point(d: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Random point of [0,1]^d with coordinate sum exactly m."""
    if m >= d:
        return np.ones(d)
    x = rng.random(d)
    x *= m / x.sum()
    for _ in range(100):
        excess = x - 1.0
        over = excess > 0
        if not over.any():
            break
        spill = excess[over].sum()
        x[over] = 1.0
        room = ~over
        headroom = 1.0 - x[room]
        x[room] += spill * headroom / headroom.sum()
    return x


CHECKS = [
    ("estimator-unbiasedness", check_estimator_unbiasedness),
    ("mirror-map-roundtrip", check_mirror_map_roundtrip),
    ("pythagorean-inequality", check_pythagorean),
    ("design-certificate", check_design_certificate),
    ("madow-inclusion", check_madow_inclusion),
    ("exp3-omd-agreement", check_exp3_omd_agreement),
    ("sgs-bracket-identities", check_sgs_bracket_identities),
    ("philox-kernel-agreement", check_philox_kernel_agreement),
    ("projection-rows-agreement", check_projection_rows_agreement),
    ("finite-rows-agreement", check_finite_rows_agreement),
    ("lapack-solve-agreement", check_lapack_solve_agreement),
    ("exp-lane-agreement", check_exp_lane_agreement),
]


def run_selftest(seed: int = SELFTEST_SEED):
    """Run every property suite; returns a list of (name, passed, detail)."""
    results = []
    for name, fn in CHECKS:
        passed, detail = fn(seed)
        results.append((name, passed, detail))
    return results
