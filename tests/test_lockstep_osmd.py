"""osmd-msets in lockstep: the batched capped-simplex projections, Madow
sampling and estimate act on each row as the one-row forms act on that row
alone, and their checks hold per row."""
import dataclasses
import re

import numpy as np
import pytest

from banditlab import geometry, selftest
from banditlab.adversarial import exp_weights
from banditlab.env import ReplicaDraws, derive_stream, sample_categorical
from banditlab.geometry import (
    ConvergenceError,
    madow_sample,
    project_capped_simplex_negent,
    project_capped_simplex_potential,
)
from banditlab.mirror import (
    DomainError,
    Exp2State,
    OsmdMsets,
    PotentialSpec,
    X_FLOOR,
    exp2_schedule,
    exp_potential,
    omd_step,
    potential_capped_simplex,
    power_potential,
    semibandit_estimate,
)


# frozen one-row projections: the reference every batched row must match bit for bit


def _reference_negent(w, m):
    w = np.asarray(w, dtype=float)
    d = w.shape[0]
    order = np.argsort(-w)
    ws = w[order]
    suffix = np.cumsum(ws[::-1])[::-1]
    for k in range(d):
        c = (m - k) / suffix[k]
        if c * ws[k] <= 1.0:
            x = np.minimum(1.0, c * w)
            x[order[:k]] = 1.0
            return x
    return np.ones(d)


def _reference_potential(w, m, psi, tol=1e-10, max_iter=10**5):
    w = np.asarray(w, dtype=float)
    duals = psi.psi_inv(w)
    cap = float(psi.psi_inv(1.0))

    def value(lam):
        return psi.psi(np.minimum(duals - lam, cap))

    def total(lam):
        return float(np.minimum(1.0, value(lam)).sum())

    lo, hi = 0.0, 0.0
    step = 1.0
    for _ in range(200):
        if total(lo) >= m:
            break
        lo -= step
        step *= 2.0
    else:
        raise ConvergenceError("no lower bracket")
    step = 1.0
    for _ in range(200):
        if total(hi) <= m:
            break
        hi += step
        step *= 2.0
    else:
        raise ConvergenceError("no upper bracket")
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
        raise ConvergenceError("did not converge")
    return np.minimum(1.0, value(lam))


def _reference_madow(x, u, m):
    cum = np.concatenate(([0.0], np.cumsum(np.clip(x, 0.0, 1.0))))
    cum = np.minimum(cum, float(m))
    cum[-1] = m
    v = np.zeros(len(x))
    v[np.searchsorted(cum, u + np.arange(m), side="right") - 1] = 1.0
    return v


def _weights(rng, R, d):
    """Positive weights over several orders of magnitude, some above 1."""
    return np.exp(rng.normal(-1.0, 1.5, size=(R, d)))


def _masses(d):
    return sorted({1, max(1, d // 2), d - 1, d} - {0})


# each potential by its test id
POTENTIALS = {"power-1.5": power_potential(1.5), "power-2": power_potential(2.0),
              "power-3": power_potential(3.0), "exp": exp_potential()}


@pytest.mark.parametrize("psi", POTENTIALS.values(), ids=list(POTENTIALS))
def test_potential_rows_match_the_one_row_projection(psi):
    rng = derive_stream(91, 0)
    for d in range(2, 12):
        for m in _masses(d):
            w = _weights(rng, 40, d)
            rows = project_capped_simplex_potential(w, m, psi)
            assert np.array_equal(rows, [_reference_potential(row, m, psi) for row in w])
            assert np.array_equal(project_capped_simplex_potential(w[0], m, psi), rows[0])


@pytest.mark.parametrize("psi", POTENTIALS.values(), ids=list(POTENTIALS))
def test_potential_rows_match_past_the_tolerance(psi):
    # with tol = 0 rows stop on the bracket-width rule or run out of iterations,
    # and take the final check at the dual they reached
    rng = derive_stream(94, 0)
    for d in range(2, 12):
        for m in _masses(d):
            w = _weights(rng, 10, d)
            rows = project_capped_simplex_potential(w, m, psi, tol=0.0, max_iter=300)
            assert np.array_equal(rows, [_reference_potential(row, m, psi, tol=0.0, max_iter=300)
                                         for row in w])


# d = 4 rows that take each branch of the batched solve: one already on the
# capped simplex, rows that search for a lower or an upper bracket, rows of
# 1e-8 weights whose Newton steps leave the bracket (some with no free
# coordinate, so no slope), and rows with m = d
MIXED = {
    2: [[0.5, 0.5, 0.5, 0.5], [0.1, 0.05, 0.2, 0.02], [3.0, 5.0, 0.7, 2.0],
        [1e-3, 40.0, 0.2, 0.9], [1e-8, 1e-8, 1e-8, 1e-8], [1e-8, 2e-8, 5e-9, 1e-8]],
    4: [[0.3, 0.01, 2.0, 0.5], [1e-8, 1e-8, 1e-8, 1e-8]],
}


@pytest.mark.parametrize("psi", POTENTIALS.values(), ids=list(POTENTIALS))
@pytest.mark.parametrize("m", sorted(MIXED))
def test_potential_mixed_rows_match_alone_and_in_any_batch(psi, m):
    mixed = np.array(MIXED[m])
    refs = np.array([_reference_potential(row, m, psi) for row in mixed])
    assert np.array_equal(project_capped_simplex_potential(mixed, m, psi), refs)
    wide = _weights(derive_stream(95, m), 50, 4)
    at = np.arange(len(mixed)) * 7 + 3  # spread through the batch
    wide[at] = mixed
    assert np.array_equal(project_capped_simplex_potential(wide, m, psi)[at], refs)
    for row, ref in zip(mixed, refs):
        assert np.array_equal(project_capped_simplex_potential(row[None], m, psi), ref[None])
        assert np.array_equal(project_capped_simplex_potential(row, m, psi), ref)


@pytest.mark.parametrize("psi", [POTENTIALS["power-1.5"], POTENTIALS["exp"]],
                         ids=["power-1.5", "exp"])
def test_potential_row_on_the_capped_simplex_stops_at_once(psi):
    # psi(psi_inv(0.5)) is 0.5 here, so the row sums to m at lam = 0: no
    # bracket search, and it stops in the first Newton iteration
    calls = []

    def counted(u):
        calls.append(u.shape)
        return psi.psi(u)

    x = project_capped_simplex_potential(np.full(4, 0.5), 2, dataclasses.replace(psi, psi=counted))
    assert np.array_equal(x, np.full(4, 0.5))
    assert calls == [(1, 4), (1, 4)]  # the sum at lam = 0, then the first iteration


def test_negent_rows_match_the_one_row_projection():
    rng = derive_stream(92, 0)
    for d in range(2, 12):
        for m in _masses(d):
            w = _weights(rng, 40, d)
            # ties: weights from a few values, some of them straddling the saturation point
            tied = rng.integers(1, 4, size=(40, d)) / rng.integers(1, 4, size=(40, 1))
            for batch in (w, tied):
                rows = project_capped_simplex_negent(batch, m)
                assert np.array_equal(rows, [_reference_negent(row, m) for row in batch])


def test_negent_rescales_only_the_rows_whose_sums_overflow():
    # 1e308 + 1e308 is past the largest double; the projection does not change
    # when a row is scaled, so the row projects as its weights over 1e308 do
    alone = project_capped_simplex_negent([1e308, 1e308, 1.0], 1)
    assert np.array_equal(alone, project_capped_simplex_negent([1.0, 1.0, 1.0 / 1e308], 1))
    assert alone.sum() == 1.0
    batch = _weights(derive_stream(94, 0), 6, 3)
    batch[2] = [1e308, 1e308, 1.0]
    batch[4] = [1e308, 1.0, 1.0]  # near the largest double, but its sum is finite
    rows = project_capped_simplex_negent(batch, 1)
    assert np.array_equal(rows[2], alone)
    for r in (0, 1, 3, 4, 5):
        assert np.array_equal(rows[r], _reference_negent(batch[r], 1))
    with pytest.raises(ValueError, match="weights must be finite"):
        project_capped_simplex_negent([1.0, np.inf, 1.0], 1)


def test_madow_rows_match_one_row_draws():
    rng = derive_stream(93, 0)
    R, d, m = 7, 6, 2
    x = np.vstack([project_capped_simplex_negent(_weights(rng, 1, d)[0], m) for _ in range(R)])
    x[0] = [1.0, 1.0, 0.0, 0.0, 0.0, 0.0]  # a binary row picks itself
    draws = ReplicaDraws(5, range(R), 1)
    rows = madow_sample(x, draws, m)
    singles = [madow_sample(x[r], derive_stream(5, r), m) for r in range(R)]
    assert np.array_equal(rows, singles)
    assert np.array_equal(rows[0], x[0])
    assert (rows.sum(-1) == m).all()


class _Starts:
    """Lockstep draws that hand out fixed starts."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self):
        return self.u


def test_madow_thresholds_on_the_sums_pick_the_later_item():
    # a threshold equal to a cumulative sum selects the item that starts
    # there, past any item of zero width
    x = np.array([[0.5, 0.5, 0.5, 0.5], [0.5, 0.0, 0.5, 1.0], [0.25, 0.25, 0.5, 1.0]])
    for u in ([0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [0.25, 0.5, 0.75]):
        rows = madow_sample(x, _Starts(u), 2)
        assert np.array_equal(rows, [_reference_madow(x[r], u[r], 2) for r in range(3)])


@pytest.mark.parametrize("variant", ["potential", "negent"])
def test_osmd_rows_match_one_row_states(variant):
    R, d, m, n = 4, 7, 3, 300
    batch = OsmdMsets(d, m, n=n, variant=variant, replicas=R)
    draws = ReplicaDraws(6, range(R), (d + 1) * n)
    rows = [OsmdMsets(d, m, n=n, variant=variant) for _ in range(R)]
    streams = [derive_stream(6, r) for r in range(R)]
    for _ in range(n):
        v, paid = batch.round(draws.random(d), draws)
        played = [row.round(stream.random(d), stream) for row, stream in zip(rows, streams)]
        assert np.array_equal(v, [p[0] for p in played])
        assert np.array_equal(paid, [p[1] for p in played])
        assert np.array_equal(batch.x, [row.x for row in rows])


def test_replica_draws_read_blocks_of_k_across_block_ends():
    R, k, reads = 3, 7, 1200  # 8400 doubles: two block ends of 4096, neither at a read's end
    draws = ReplicaDraws(4, range(R), k * reads)
    got = [draws.random(k) for _ in range(reads)]
    assert all(block.shape == (R, k) and block.flags.c_contiguous for block in got)
    for r in range(R):
        stream = derive_stream(4, r)
        for block in got:
            assert np.array_equal(block[r], stream.random(k))
    with pytest.raises(RuntimeError):
        draws.random(1)


def test_estimate_floor_holds_per_row():
    x = np.full((3, 4), 0.5)
    v = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
    losses = np.full((3, 4), 0.25)
    assert np.array_equal(semibandit_estimate(x, v, losses), 0.5 * v)
    x[1, 2] = X_FLOOR / 2  # active in row 1 only
    with pytest.raises(ZeroDivisionError):
        semibandit_estimate(x, v, losses)
    x[1, 2], x[2, 0] = 0.5, X_FLOOR / 2  # below the floor, but inactive
    assert np.array_equal(semibandit_estimate(x, v, losses)[2], 0.5 * v[2])


def test_madow_sum_check_holds_per_row():
    x = np.array([[0.5, 0.5, 0.5, 0.5], [0.5, 0.5, 0.5, 0.5], [0.5, 0.5, 0.5, 0.4]])
    draws = ReplicaDraws(2, range(3), 2)
    with pytest.raises(ValueError, match="expected the integer 2"):
        madow_sample(x, draws, 2)
    x[2, 3] = np.nan
    with pytest.raises(ValueError):
        madow_sample(x, draws, 2)


def test_dual_domain_check_holds_per_row():
    spec = potential_capped_simplex(power_potential(2.0), 2)
    x = np.full((3, 4), 0.5)
    gradient = np.zeros((3, 4))
    gradient[1, 0] = -1e3  # row 1's dual step crosses psi's domain end u < 0
    with pytest.raises(DomainError):
        omd_step(x, gradient, 0.1, spec)
    gradient[1, 0] = 0.0
    assert np.allclose(omd_step(x, gradient, 0.1, spec), 0.5)


@pytest.mark.parametrize("name, moved", [("project_capped_simplex_negent", 160),
                                         ("project_capped_simplex_potential", 320)])
def test_projection_selftest_fails_when_a_batched_row_moves(monkeypatch, name, moved):
    assert selftest.check_projection_rows_agreement()[0]
    project = getattr(geometry, name)

    def off_in_batches(w, *args):
        x = project(w, *args)
        return np.nextafter(x, 2.0) if x.ndim == 2 else x  # one ulp, batches only

    monkeypatch.setattr(geometry, name, off_in_batches)
    passed, detail = selftest.check_projection_rows_agreement()
    assert not passed and detail.startswith(f"{moved} of 480 ")


def test_madow_range_rule_at_its_edges():
    draws = _Starts([0.3])
    for row in ([-1e-12, 1.0, 0.5, 0.5], [1.0 + 1e-12, 0.0, 0.5, 0.5]):
        assert madow_sample(np.array([row]), draws, 2).sum() == 2
    for row in ([-2e-12, 1.0, 0.5, 0.5], [1.0 + 2e-12, 0.0, 0.5, 0.5]):
        with pytest.raises(ValueError, match=re.escape("coordinates must lie in [0, 1]")):
            madow_sample(np.array([row]), draws, 2)
    # a nan passes the range rule and fails the sum, unless another entry
    # breaks the range rule first
    nan_row = [np.nan, 0.5, 0.5, 1.0]
    with pytest.raises(ValueError, match="coordinates sum to nan, expected the integer 2"):
        madow_sample(np.array([nan_row, [0.5] * 4]), _Starts([0.3, 0.3]), 2)
    with pytest.raises(ValueError, match=re.escape("coordinates must lie in [0, 1]")):
        madow_sample(np.array([nan_row, [-2e-12, 1.0, 0.5, 0.5]]), _Starts([0.3, 0.3]), 2)


# Frozen copies of the osmd-msets and exp2-john rounds as they were before
# their numpy calls were cut: the projections, Madow sampling, the estimate,
# the dual step and the power potential's maps, with Python scalar constants.
# The live round must give the same bits every round.


def _frozen_power(q):
    return PotentialSpec(
        psi=lambda u: (-u) ** (-q), psi_prime=lambda u: q * (-u) ** (-q - 1.0),
        psi_inv=lambda s: -(s ** (-1.0 / q)), F_term=None, a=0.0)


def _frozen_free_sums(a, free):
    if a.shape[-1] < 8:
        return np.add.reduce(np.where(free, a, 0.0), -1)
    counts = np.count_nonzero(free, axis=-1)
    sums = np.empty(len(counts))
    for c in np.unique(counts):
        at = counts == c
        sums[at] = a[at][free[at]].reshape(-1, c).sum(-1) if c else 0.0
    return sums


def _frozen_bracket(passes, held, sign, side):
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


def _frozen_potential(w, m, psi, tol=1e-10, max_iter=10**5):
    w = np.asarray(w, dtype=float)
    d = w.shape[-1]
    duals = psi.psi_inv(w.reshape(-1, d))
    out = np.empty_like(duals)
    cap = float(psi.psi_inv(1.0))

    def value(u):
        return np.minimum(1.0, psi.psi(np.minimum(u, cap)))

    def total(lam):
        return np.add.reduce(value(duals - lam), -1)

    held = total(0.0)
    lo = _frozen_bracket(lambda lam: total(lam) >= m, held >= m, -1.0, "lower").tolist()
    hi = _frozen_bracket(lambda lam: total(lam) <= m, held <= m, 1.0, "upper").tolist()
    lam = [0.5 * (a + b) for a, b in zip(lo, hi)]
    live, D = np.arange(len(duals)), duals
    ended = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_iter):
            u = D - np.array(lam)[:, None]
            x = value(u)
            sums = np.add.reduce(x, -1).tolist()
            slopes = _frozen_free_sums(psi.psi_prime(u), x < 1.0).tolist()
            done, narrow, ends, keep, lo_, hi_, lam_ = [], [], [], [], [], [], []
            for i, (s, slope, a, b, c) in enumerate(zip(sums, slopes, lo, hi, lam)):
                err = s - m
                if abs(err) <= tol:
                    done.append(i)
                    continue
                if err > 0.0:
                    a = c
                else:
                    b = c
                nxt = c + err / slope if slope else a
                c = nxt if a < nxt < b else 0.5 * (a + b)
                if b - a < 1e-16 * max(1.0, abs(b)):
                    narrow.append(i)
                    ends.append(c)
                else:
                    keep.append(i)
                    lo_.append(a)
                    hi_.append(b)
                    lam_.append(c)
            lo, hi, lam = lo_, hi_, lam_
            if done:
                out[live[done]] = x[done]
            if narrow:
                ended.append((live[narrow], np.array(ends)[:, None]))
            if not keep:
                break
            if len(keep) < len(live):
                live, D = live[keep], D[keep]
        else:
            ended.append((live, np.array(lam)[:, None]))
    for rows, lam in ended:
        x = value(duals[rows] - lam)
        if (np.abs(np.add.reduce(x, -1) - m) > 1e-6).any():
            raise ConvergenceError("projection dual solve did not converge")
        out[rows] = x
    return out.reshape(w.shape)


def _frozen_negent(w, m):
    w = np.asarray(w, dtype=float)
    d = w.shape[-1]
    W = w.reshape(-1, d)
    rows = np.arange(len(W))[:, None]
    order = np.argsort(-W, axis=-1)
    ws = W[rows, order]
    suffix = np.add.accumulate(ws[:, ::-1], axis=-1)[:, ::-1]
    c = (m - np.arange(d)) / suffix
    fits = c * ws <= 1.0
    k = fits.argmax(-1)[:, None]
    xs = np.minimum(1.0, c[rows, k] * ws)
    xs[np.arange(d) < k] = 1.0
    xs[~fits.any(-1)] = 1.0
    x = np.empty_like(W)
    x[rows, order] = xs
    return x.reshape(w.shape)


def _frozen_madow(x, rng, m):
    x = np.asarray(x, dtype=float)
    if (x < -1e-12).any() or (x > 1.0 + 1e-12).any():
        raise ValueError("coordinates must lie in [0, 1]")
    total = np.add.reduce(x, -1)
    if (~(np.abs(total - m) <= 1e-6)).any():
        raise ValueError("coordinates do not sum to m")
    cum = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
    np.add.accumulate(np.minimum(np.maximum(x, 0.0), 1.0), axis=-1, out=cum[..., 1:])
    np.minimum(cum, float(m), out=cum)
    cum[..., -1] = m
    thresholds = np.add.outer(rng.random(), np.arange(m))
    below = np.add.reduce(thresholds[..., None, :] < cum[..., None], -1)
    return (below[..., 1:] > below[..., :-1]).astype(float)


def _frozen_estimate(x, v, losses):
    active = v > 0.0
    if (x[active] < X_FLOOR).any():
        raise ZeroDivisionError("active coordinate fell below the importance floor")
    return np.divide(losses, x, out=np.zeros(x.shape), where=active)


def _frozen_step(x, gradient, eta, maps, project, a):
    grad_F, grad_F_star = maps
    u = grad_F(x) - eta * gradient
    if not (u < a).all():
        raise DomainError("dual step left the gradient image")
    return project(grad_F_star(u))


class _FrozenOsmd:
    def __init__(self, live: OsmdMsets, variant, q):
        self.x, self.m, self.eta = live.x.copy(), live.m, live.eta
        if variant == "negent":
            self.maps, self.a = (np.log, np.exp), np.inf
            self.project = lambda w: _frozen_negent(w, self.m)
        else:
            psi = _frozen_power(q)
            self.maps, self.a = (psi.psi_inv, psi.psi), 0.0
            self.project = lambda w: _frozen_potential(w, self.m, psi)

    def round(self, losses, rng):
        v = _frozen_madow(self.x, rng, self.m)
        incurred = np.matmul(v[..., None, :], losses[..., :, None])[..., 0, 0]
        est = _frozen_estimate(self.x, v, losses)
        if self.eta > 0.0:
            x = _frozen_step(self.x, est, self.eta, self.maps, self.project, self.a)
            self.x = np.maximum(x, X_FLOOR)
        return v, incurred


_PIN_ROUNDS = 300
_PIN_SHAPES = [(R, d, m) for R in (1, 3, 8) for d in (2, 6, 9) for m in sorted({1, d // 2, d - 1})]


@pytest.mark.parametrize("variant, q", [("negent", 2.0), ("potential", 1.5),
                                        ("potential", 2.0), ("potential", 3.0)])
def test_osmd_round_keeps_the_frozen_rounds_bits(variant, q):
    for seed, (R, d, m) in enumerate(_PIN_SHAPES):
        live = OsmdMsets(d, m, n=_PIN_ROUNDS, variant=variant, q=q, replicas=R)
        frozen = _FrozenOsmd(live, variant, q)
        draws = [ReplicaDraws(seed, range(R), (d + 1) * _PIN_ROUNDS) for _ in range(2)]
        for t in range(_PIN_ROUNDS):
            v, paid = live.round(draws[0].random(d), draws[0])
            v_frozen, paid_frozen = frozen.round(draws[1].random(d), draws[1])
            where = f"R={R} d={d} m={m} round {t}"
            assert np.array_equal(v, v_frozen), where
            assert np.array_equal(paid, paid_frozen), where
            assert np.array_equal(live.x, frozen.x), where


class _FrozenExp2(Exp2State):
    """Exp2State's round with its probabilities and estimate as they were."""

    def __init__(self, points, design, n, replicas):
        super().__init__(points, design, n=n, replicas=replicas)
        self.design = design
        self.eta, self.gamma = exp2_schedule(n, self.d, self.N)

    def probs(self):
        scores = np.matmul(self.points, self.cum_estimate[..., None])[..., 0]
        soft = exp_weights(-self.eta * scores)
        return (1.0 - self.gamma) * soft + self.gamma * self.design.weights

    def estimate(self, played, scalar_loss, p=None):
        scalar_loss = np.asarray(scalar_loss, dtype=float)
        if (~((-1.0 <= scalar_loss) & (scalar_loss <= 1.0))).any():
            raise ValueError("scalar loss must lie in [-1, 1]")
        P = np.matmul(self.points.T, p[..., None] * self.points)
        return scalar_loss[..., None] * np.linalg.solve(P, self.points[played][..., None])[..., 0]

    def round(self, loss_vector, rng):
        p = self.probs()
        idx = sample_categorical(p, rng)
        played = self.points[idx]
        scalar = np.matmul(played[..., None, :], loss_vector[:, None])[..., 0, 0]
        self.cum_estimate += self.estimate(idx, scalar, p)
        return idx, scalar


@pytest.mark.parametrize("R", [1, 3, 8])
def test_exp2_round_keeps_the_frozen_rounds_bits(R):
    rng = derive_stream(97, R)
    d = 3
    points = np.array([geometry.sample_sphere(d, rng) for _ in range(20)])
    design = geometry.doptimal_design(points)
    live = Exp2State(points, design, n=_PIN_ROUNDS, replicas=R)
    frozen = _FrozenExp2(points, design, n=_PIN_ROUNDS, replicas=R)
    draws = [ReplicaDraws(R, range(R), _PIN_ROUNDS) for _ in range(2)]
    for t in range(_PIN_ROUNDS):
        loss = (2.0 * rng.random(d) - 1.0) / np.sqrt(d)
        idx, paid = live.round(loss, draws[0])
        idx_frozen, paid_frozen = frozen.round(loss, draws[1])
        assert np.array_equal(idx, idx_frozen), t
        assert np.array_equal(paid, paid_frozen), t
        assert np.array_equal(live.cum_estimate, frozen.cum_estimate), t
