"""osmd-msets in lockstep: the batched capped-simplex projections, Madow
sampling and estimate act on each row as the one-row forms act on that row
alone, and their checks hold per row."""
import dataclasses

import numpy as np
import pytest

from banditlab import geometry, selftest
from banditlab.env import ReplicaDraws, derive_stream
from banditlab.geometry import (
    ConvergenceError,
    madow_sample,
    project_capped_simplex_negent,
    project_capped_simplex_potential,
)
from banditlab.mirror import (
    DomainError,
    OsmdMsets,
    X_FLOOR,
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


POTENTIALS = [power_potential(1.5), power_potential(2.0), power_potential(3.0),
              exp_potential()]


@pytest.mark.parametrize("psi", POTENTIALS, ids=lambda psi: psi.name)
def test_potential_rows_match_the_one_row_projection(psi):
    rng = derive_stream(91, 0)
    for d in range(2, 12):
        for m in _masses(d):
            w = _weights(rng, 40, d)
            rows = project_capped_simplex_potential(w, m, psi)
            assert np.array_equal(rows, [_reference_potential(row, m, psi) for row in w])
            assert np.array_equal(project_capped_simplex_potential(w[0], m, psi), rows[0])


@pytest.mark.parametrize("psi", POTENTIALS, ids=lambda psi: psi.name)
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


@pytest.mark.parametrize("psi", POTENTIALS, ids=lambda psi: psi.name)
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


@pytest.mark.parametrize("psi", [power_potential(1.5), exp_potential()], ids=lambda psi: psi.name)
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
