"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines. The whole module takes about 31 s on a 2-core Xeon. Criterion 6
(OSMD on m-sets, 2 x 50 replicas x 5000 rounds, all replicas in lockstep)
takes 3.8-4.4 s there, against 67-70 s when it ran one replica at a time;
criteria 3-5 together take under 10 s.
"""
import math

import numpy as np
import pytest

from banditlab import adversarial, contextual, convex, harness, selftest
from banditlab.adversarial import Exp3State, exact_expectation_oracle
from banditlab.env import ENV_STREAM_ID, derive_stream

SEED = 20240817


def _config(policy, env_kind, env_params, n, replicas, policy_params=None,
            overlays=(), seed=SEED):
    return {
        "policy": policy, "horizon": n, "replicas": replicas, "seed": seed,
        "policy_params": policy_params or {}, "env_kind": env_kind,
        "env_params": env_params, "overlays": list(overlays),
        "output": {"dir": ".", "format": "csv", "basename": "report"},
    }


def _report(*args, **kwargs):
    return harness.run_experiment(_config(*args, **kwargs))


def _passline(num, text):
    print(f"[PASS] criterion {num:2d}: {text}")


def test_criterion_01_ucb_bound():
    n, replicas = 10**4, 100
    report = _report("ucb", "stochastic", {"means": "0.9,0.6"}, n, replicas,
                     policy_params={"alpha": "2.5"}, overlays=["ucb"])
    cap = report.mean_terminal + 2 * report.sem_terminal
    assert report.overlays["ucb"] == pytest.approx(158.5, abs=0.1)
    assert cap <= report.overlays["ucb"]
    assert report.mean_terminal / n <= 0.05
    _passline(1, f"ucb mean+2sem {cap:.2f} <= 158.5 and regret/n "
                 f"{report.mean_terminal / n:.5f} <= 0.05")


def test_criterion_02_kl_lower_bound_constant():
    value = harness.bound("kl-lower", means=[0.9, 0.6])
    assert value == pytest.approx(0.9639, abs=1e-3)
    report = _report("ucb", "stochastic", {"means": "0.9,0.6"}, 200, 2,
                     overlays=["kl-lower"])
    assert "kl-lower" in report.overlays  # plotted, no inequality asserted
    _passline(2, f"kl lower-bound constant {value:.6f} within 1e-3 of 0.9639")


def test_criterion_03_exp3_exact_oracle():
    rng = derive_stream(SEED, ENV_STREAM_ID)
    replicas = 10**4
    checked = 0
    for n in range(2, 9):
        for _ in range(5):
            losses = rng.random((n, 2))
            exact_loss, exact_regret = exact_expectation_oracle(
                lambda: Exp3State(2, n=n), losses)
            assert exact_regret <= math.sqrt(2 * n * 2 * math.log(2)) + 1e-9
            totals = harness.exp3_cumulative_losses(
                losses, SEED, range(checked * replicas + 1, (checked + 1) * replicas + 1))
            sem = totals.std(ddof=1) / math.sqrt(replicas)
            assert abs(totals.mean() - exact_loss) <= 3 * sem
            checked += 1
    _passline(3, f"{checked} instances matched the exact oracle within 3 SEM "
                 f"and stayed under sqrt(2nK ln K)")


def test_criterion_04_exp3p_high_probability():
    n, K, delta, replicas = 1000, 3, 0.1, 300
    # the loss matrix is drawn from derive_stream(SEED, ENV_STREAM_ID), and
    # replica r reads derive_stream(SEED, r)
    report = _report("exp3p", "oblivious", {"k": str(K)}, n, replicas,
                     policy_params={"delta": str(delta)})
    cap = adversarial.exp3p_bound(n, K, delta)
    violations = int((report.terminal_values > cap).sum())
    fraction = violations / replicas
    assert fraction <= 0.16
    _passline(4, f"exp3p violation fraction {fraction:.3f} <= 0.16 "
                 f"(bound {cap:.1f})")


def test_criterion_05_minimax_lower_bound_construction():
    n, K, replicas = 400, 2, 2000
    eps = 0.25 * math.sqrt(K / n)
    target = adversarial.minimax_lower(n, K)
    values = np.empty(replicas)
    for best in range(K):
        # replica r plays the construction whose best arm is r % K; its
        # terminal value is the pseudo-regret, the sum of gap(I_t)
        params = {"k": K, "eps": eps, "best": best}
        cfg = harness.check_config(_config("exp3", "lower-bound", params, n, replicas))
        env = harness.build_environment("lower-bound", params, n, SEED)
        curves = harness.run_replica(cfg, env, SEED, range(best, replicas, K))
        values[best::K] = curves[:, -1]
    mean = values.mean()
    sem = values.std(ddof=1) / math.sqrt(replicas)
    assert mean >= target - 3 * sem
    _passline(5, f"mean pseudo-regret {mean:.3f} >= sqrt(nK)/20 = {target:.3f} "
                 f"- 3 SEM ({sem:.3f})")


def test_criterion_06_semibandit_osmd():
    n, replicas = 5000, 50
    q2 = _report("osmd-msets", "semibandit", {"d": "6", "m": "2"}, n, replicas,
                 policy_params={"variant": "potential", "q": "2.0"},
                 overlays=["osmd-potential"])
    cap_q2 = q2.mean_terminal + 2 * q2.sem_terminal
    assert q2.overlays["osmd-potential"] == pytest.approx(692.8, abs=0.1)
    assert cap_q2 <= q2.overlays["osmd-potential"]
    negent = _report("osmd-msets", "semibandit", {"d": "6", "m": "2"}, n, replicas,
                     policy_params={"variant": "negent"}, overlays=["osmd-negent"])
    cap_ne = negent.mean_terminal + 2 * negent.sem_terminal
    assert cap_ne <= negent.overlays["osmd-negent"]
    _passline(6, f"q=2 potential {cap_q2:.1f} <= 692.8; negentropy {cap_ne:.1f} "
                 f"<= {negent.overlays['osmd-negent']:.1f}")


def test_criterion_07_euclidean_ball_osmd():
    n, replicas = 4000, 50
    report = _report("osmd-ball", "linear-ball", {"d": "3"}, n, replicas,
                     overlays=["osmd-ball"])
    cap = report.mean_terminal + 2 * report.sem_terminal
    assert report.overlays["osmd-ball"] == pytest.approx(946.4, abs=0.5)
    assert cap <= report.overlays["osmd-ball"]
    _passline(7, f"ball strategy mean+2sem {cap:.1f} <= "
                 f"{report.overlays['osmd-ball']:.1f}")


def test_criterion_08_exp2_design_exploration():
    n, replicas = 4000, 50
    report = _report("exp2-john", "linear-points", {"d": "3", "n_points": "20"},
                     n, replicas, overlays=["exp2-john"])
    cap = report.mean_terminal + 2 * report.sem_terminal
    expected = 2 * math.sqrt(3 * n * 3 * math.log(20))
    assert report.overlays["exp2-john"] == pytest.approx(expected, rel=1e-12)
    assert cap <= report.overlays["exp2-john"]
    _passline(8, f"exp2 mean+2sem {cap:.1f} <= {expected:.1f}")


def test_criterion_09_two_point_osgd():
    n, replicas = 2500, 50
    report = _report("osgd-2pt", "convex", {"family": "absvalue", "d": "3"},
                     n, replicas, policy_params={"delta": "0.001"},
                     overlays=["osgd-2pt"])
    cap = report.mean_terminal + 2 * report.sem_terminal
    assert report.overlays["osgd-2pt"] == pytest.approx(310.0, abs=1e-9)
    assert cap <= 310.0
    _passline(9, f"two-point osgd mean+2sem {cap:.2f} <= 310.0")


def test_criterion_10_one_point_osgd():
    n, replicas = 2500, 50
    report = _report("osgd-1pt", "convex", {"family": "absvalue", "d": "3"},
                     n, replicas, overlays=["osgd-1pt"])
    cap = report.mean_terminal + 2 * report.sem_terminal
    expected = 4 * n**0.75 * math.sqrt(1 * 3 * 1 * 4 * 1)
    assert report.overlays["osgd-1pt"] == pytest.approx(expected, rel=1e-12)
    assert cap <= expected
    _passline(10, f"one-point osgd mean+2sem {cap:.1f} <= {expected:.1f}")


def test_criterion_11_sgs():
    n, replicas = 10**5, 20
    xstar = 0.3

    def mu(x):
        return min(1.0, max(0.0, 0.3 + abs(x - xstar)))

    hits = 0
    regrets = np.empty(replicas)
    for r in range(replicas):
        stream = derive_stream(SEED, r)

        def sample_losses(x, count, rng):
            return (rng.random(count) < mu(x)).astype(float)

        played, bracket = convex.run_sgs(sample_losses, n, 1.0, stream)
        hits += bracket[0] <= xstar <= bracket[1]
        regrets[r] = sum(mu(x) - mu(xstar) for x in played)
    cap = harness.bound("sgs", n=n, C_L=1.0, C_H=1.0)
    assert hits >= 17
    assert regrets.mean() <= cap
    _passline(11, f"sgs bracket hit {hits}/20 >= 17, mean regret "
                  f"{regrets.mean():.1f} <= {cap:.0f}")


def test_criterion_12_banditron():
    n, K, d = 10**5, 9, 20
    report = _report("banditron", "multiclass", {"k": str(K), "d": str(d)}, n, 1)
    mistakes = report.mean_terminal
    U_norm = math.sqrt(K)
    cap = (1 + math.sqrt(2) * U_norm) * K ** (1 / 3) * n ** (2 / 3) \
        + 2 * U_norm**2 * K ** (2 / 3) * n ** (1 / 3) \
        + math.sqrt(2) * U_norm * K ** (1 / 6) * n ** (1 / 3)
    assert mistakes <= cap
    gamma = contextual.banditron_gamma(K, n)
    tail = (report.mean_curve[-1] - report.mean_curve[-10**4 - 1]) / 10**4
    assert tail <= 2 * gamma
    _passline(12, f"banditron mistakes {mistakes:.0f} <= {cap:.0f}, tail rate "
                  f"{tail:.4f} <= {2 * gamma:.4f}")


def test_criterion_13_property_suites():
    results = selftest.run_selftest()
    for name, passed, detail in results:
        assert passed, f"{name}: {detail}"
    _passline(13, f"all {len(results)} property suites passed")
