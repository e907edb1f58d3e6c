"""The batched rectangle search against a scalar reference.

The reference is the search as first written: a dict of image cells probed
sample by sample in grid order, and one damped least-squares solve per seed.
It gathers every seed of the dict first and refines them nearest first: by
image distance, ties by sample index (i, j). The batched search keeps its
seeds, seed order, solver arithmetic and acceptance rule, so one level of it
must return the same witness as the reference on that grid bit for bit.
find_rectangle searches the levels 16, 32, 64, ... up to grid_n, so it must
return the reference witness of the coarsest level that has one.
"""

import numpy as np
import pytest

from loopsurf.curves import load_polyline, make_preset, mod1
from loopsurf.inscribed import (
    NotFound,
    RectangleWitness,
    _images,
    _make_witness,
    _norms,
    _pair_separation,
    _refine,
    _residual_many as _residual_rows,
    _row_separation,
    _search_level,
    _seeds,
    _solve,
    find_rectangle,
)
from loopsurf.inscribed import _REFINE_BATCH, _REFINE_BATCH_CAP

_REFINE_MAX_ITER = 200
_REFINE_FD_STEP = 1e-7


def _residual_many(curve, thetas):
    pts = curve.eval(thetas)                 # (B, 4, 2)
    mid = 0.5 * (pts[:, 0] + pts[:, 1]) - 0.5 * (pts[:, 2] + pts[:, 3])
    diag = (np.linalg.norm(pts[:, 0] - pts[:, 1], axis=-1)
            - np.linalg.norm(pts[:, 2] - pts[:, 3], axis=-1))
    return np.concatenate([mid, diag[:, None]], axis=-1)


def _refine_scalar(curve, theta0, target, min_separation):
    theta = np.asarray(theta0, dtype=float)
    res = _residual_many(curve, theta[None])[0]
    cost = float(np.linalg.norm(res))
    lam = 1e-6
    h = _REFINE_FD_STEP
    eye = np.eye(3)
    steps = np.zeros((8, 4))
    for k in range(4):
        steps[2 * k, k] = h
        steps[2 * k + 1, k] = -h
    for _ in range(_REFINE_MAX_ITER):
        if cost <= target:
            break
        if _pair_separation((theta[0], theta[1]), (theta[2], theta[3])) \
                < 0.25 * min_separation:
            break
        r8 = _residual_many(curve, theta[None] + steps)
        jac = ((r8[0::2] - r8[1::2]) / (2.0 * h)).T
        improved = False
        for _ in range(12):
            # the LM step in residual space: jac.T @ (jac jac.T + lam)^-1 (-res)
            lhs = jac @ jac.T + lam * eye
            try:
                delta = jac.T @ np.linalg.solve(lhs, -res)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = theta + delta
            trial_res = _residual_many(curve, trial[None])[0]
            trial_cost = float(np.linalg.norm(trial_res))
            if trial_cost < cost:
                theta, res, cost = trial, trial_res, trial_cost
                lam = max(lam / 3.0, 1e-12)
                improved = True
                break
            lam *= 10.0
        if not improved:
            break
    return theta, cost


def find_rectangle_reference(curve, grid_n=64, tol=1e-7, min_separation=1e-3):
    scale = curve.total_length / np.pi
    cell = 4.0 * scale / grid_n
    capture = cell
    mi, dj = np.meshgrid(np.arange(grid_n) / grid_n,
                         0.25 * (np.arange(grid_n) + 1.0) / grid_n, indexing="ij")
    t1 = mod1(mi.ravel() - dj.ravel())
    t2 = mod1(mi.ravel() + dj.ravel())
    images = _images(curve, t1, t2)
    keys = np.floor(images / cell).astype(np.int64)
    grid_hash = {}
    best = np.inf
    target = 0.02 * tol
    seed_gate = max(min_separation, 4.0 / grid_n)
    seeds = []                  # (image distance, i, j) of every seed
    for idx in range(len(images)):
        kx, ky, kz = (int(keys[idx, 0]), int(keys[idx, 1]), int(keys[idx, 2]))
        candidates = []
        for ox in (-1, 0, 1):
            for oy in (-1, 0, 1):
                for oz in (-1, 0, 1):
                    candidates.extend(grid_hash.get((kx + ox, ky + oy, kz + oz), ()))
        if candidates:
            candidates = np.asarray(candidates, dtype=np.int64)
            sep = _pair_separation((t1[candidates], t2[candidates]), (t1[idx], t2[idx]))
            raw = np.linalg.norm(images[candidates] - images[idx], axis=1)
            seed = (sep >= seed_gate) & (raw <= capture)
            seeds.extend(zip(raw[seed].tolist(), [idx] * int(seed.sum()),
                             candidates[seed].tolist()))
        grid_hash.setdefault((kx, ky, kz), []).append(idx)
    for _, idx, j in sorted(seeds):
        theta0 = np.array([t1[j], t2[j], t1[idx], t2[idx]])
        theta, cost = _refine_scalar(curve, theta0, target, min_separation)
        ta = mod1(theta[:2])
        tb = mod1(theta[2:])
        if _pair_separation((ta[0], ta[1]), (tb[0], tb[1])) < min_separation:
            continue        # collapsed onto one chord: neither witness nor miss
        best = min(best, cost)
        if cost <= tol:
            return _make_witness(curve, theta)
    return NotFound(best_residual=float(best) if np.isfinite(best) else None)


def _levels(grid_n):
    """find_rectangle's grids: 16, 32, 64, ... below grid_n, then grid_n."""
    return [g for g in (16, 32, 64, 128, 256, 512) if g < grid_n] + [grid_n]


def coarse_to_fine_reference(curve, grid_n, tol, min_separation=1e-3):
    """The reference witness of the coarsest level that has one; else the
    least best residual of all levels, None when no level has one."""
    misses = []
    for g in _levels(grid_n):
        out = find_rectangle_reference(curve, g, tol, min_separation)
        if isinstance(out, RectangleWitness):
            return out
        if out.best_residual is not None:
            misses.append(out.best_residual)
    return NotFound(best_residual=min(misses, default=None))


def _level_witness(curve, grid_n, tol, min_separation=1e-3):
    """The single-grid search of find_rectangle at grid_n."""
    t1, t2, images, _ = _search_grid(curve, grid_n)
    return _search_level(curve, t1, t2, images, grid_n, tol, min_separation)[0]


def _assert_same_witness(got, want):
    assert isinstance(want, RectangleWitness) and isinstance(got, RectangleWitness)
    assert got.pairs == want.pairs
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert (got.midpoint_residual, got.length_residual) == \
        (want.midpoint_residual, want.length_residual)


TRIANGLE = [(0.0, 0.0), (4.0, 0.0), (1.0, 3.0)]
QUAD = [(0.0, 0.0), (4.0, 0.0), (5.0, 2.0), (1.0, 3.0)]

# ellipse 20:1 drove some 4 x 4 damped normal matrices singular (the 3 x 3
# residual-space ones stay regular)
WITNESS_CASES = [
    ("circle", lambda: make_preset("circle", [1.0]), dict(grid_n=32, tol=1e-9)),
    ("ellipse-2x1", lambda: make_preset("ellipse", [2.0, 1.0]), dict(grid_n=64, tol=1e-8)),
    ("triangle", lambda: load_polyline(TRIANGLE), dict(grid_n=64, tol=1e-7)),
    ("quad", lambda: load_polyline(QUAD), dict(grid_n=48, tol=1e-7)),
    ("ellipse-20x1", lambda: make_preset("ellipse", [20.0, 1.0]), dict(grid_n=32, tol=1e-8)),
]


@pytest.mark.parametrize("name,make,kwargs", WITNESS_CASES, ids=[c[0] for c in WITNESS_CASES])
def test_batched_search_returns_reference_witness(name, make, kwargs):
    # one level at grid_n against the single-grid reference; find_rectangle
    # against the coarsest level with a witness
    curve = make()
    want = find_rectangle_reference(curve, **kwargs)
    _assert_same_witness(_level_witness(curve, **kwargs), want)
    want = coarse_to_fine_reference(curve, **kwargs)
    _assert_same_witness(find_rectangle(curve, **kwargs), want)


@pytest.mark.parametrize("make,kwargs", [
    # every pair too far apart on the band: no seed, the residual is None
    (lambda: make_preset("circle", [1.0]), dict(grid_n=16, tol=1e-12, min_separation=0.69)),
    # seeds converge but onto chords closer than min_separation: no refined
    # row stays apart, so the residual is None as well
    (lambda: load_polyline(TRIANGLE), dict(grid_n=16, tol=1e-12, min_separation=0.4)),
    # over levels 16, 32 and 64, and on the grid 64 level alone
    (lambda: make_preset("circle", [1.0]), dict(grid_n=64, tol=1e-12, min_separation=0.69)),
    (lambda: load_polyline(TRIANGLE), dict(grid_n=64, tol=1e-12, min_separation=0.4)),
    # separated rows that miss: the least of their final costs, above tol
    (lambda: make_preset("ellipse", [10.0, 1.0]),
     dict(grid_n=16, tol=1e-12, min_separation=0.4)),
], ids=["no-separated-pair", "collapsed-seeds", "no-separated-pair-g64", "collapsed-seeds-g64",
        "separated-miss"])
def test_batched_search_returns_reference_best_residual(make, kwargs):
    curve = make()
    want = coarse_to_fine_reference(curve, **kwargs)
    got = find_rectangle(curve, **kwargs)
    assert isinstance(want, NotFound) and isinstance(got, NotFound)
    assert got.best_residual == want.best_residual
    if kwargs["grid_n"] == 16:
        assert want == find_rectangle_reference(curve, **kwargs)
    if kwargs["min_separation"] == 0.69:
        assert got == find_rectangle_reference(curve, **kwargs)


def _seed_rows(t1, t2, j, i):
    """Seed rows (t1[j], t2[j], t1[i], t2[i]) of sample-index arrays j, i."""
    return np.stack([t1[j], t2[j], t1[i], t2[i]], axis=1)


def _grid_order_seeds(curve, g):
    """The seed rows of grid g in sample order (i, j), as first refined."""
    t1, t2, images, cell = _search_grid(curve, g)
    j, i = _seeds(t1, t2, images, cell, 4.0 / g)
    by_index = np.lexsort((j, i))
    return _seed_rows(t1, t2, j[by_index], i[by_index])


def test_batched_refine_matches_scalar_refine_per_seed():
    # seeds 32..63 in sample order of ellipse 20:1 at grid 32, one batch; the
    # 4 x 4 damped normal matrix of seeds 38, 51, 53 and 54 turned singular
    curve = make_preset("ellipse", [20.0, 1.0])
    g, tol, min_sep = 32, 1e-8, 1e-3
    seeds = _grid_order_seeds(curve, g)[32:64]
    thetas, costs, _ = _refine(curve, seeds, 0.02 * tol, min_sep)
    for seed, theta, cost in zip(seeds, thetas, costs):
        want_theta, want_cost = _refine_scalar(curve, seed, 0.02 * tol, min_sep)
        assert theta.tobytes() == want_theta.tobytes()
        assert cost == want_cost


def _refine_32_point(curve, theta0, target, min_separation):
    """The batched refine with its first Jacobian: every row of every ±h
    step re-evaluates all four points, 8 x 4 = 32 curve points per row."""
    theta = np.array(theta0, dtype=float)
    res = _residual_rows(curve, theta)
    cost = _norms(res)
    lam = np.full(len(theta), 1e-6)
    steps = _REFINE_FD_STEP * np.kron(np.eye(4), [[1.0], [-1.0]])
    live = np.arange(len(theta))
    for _ in range(_REFINE_MAX_ITER):
        live = live[cost[live] > target]
        th = theta[live]
        live = live[_pair_separation((th[:, 0], th[:, 1]), (th[:, 2], th[:, 3]))
                    >= 0.25 * min_separation]
        if not live.size:
            break
        r8 = _residual_rows(curve, theta[live][:, None, :] + steps)
        jac_t = (r8[:, 0::2] - r8[:, 1::2]) / (2.0 * _REFINE_FD_STEP)
        gram = jac_t.transpose(0, 2, 1) @ jac_t
        rhs = -res[live][:, :, None]
        trying = np.arange(len(live))
        for _ in range(12):
            if not trying.size:
                break
            rows = live[trying]
            y = _solve(gram[trying] + lam[rows][:, None, None] * np.eye(3), rhs[trying])
            trial = theta[rows] + (jac_t[trying] @ y[:, :, None])[:, :, 0]
            trial_res = _residual_rows(curve, trial)
            trial_cost = _norms(trial_res)
            better = trial_cost < cost[rows]
            won = rows[better]
            theta[won], res[won], cost[won] = trial[better], trial_res[better], trial_cost[better]
            lam[won] = np.maximum(lam[won] / 3.0, 1e-12)
            lam[rows[~better]] *= 10.0
            trying = trying[~better]
        live = np.delete(live, trying)
    return theta, cost


RECT_FIRST_CURVES = {
    "circle": lambda: make_preset("circle", [1.0]),
    "ellipse-2x1": lambda: make_preset("ellipse", [2.0, 1.0]),
    "superellipse-2x1p4": lambda: make_preset("superellipse", [2.0, 1.0, 4.0]),
    "triangle": lambda: load_polyline(TRIANGLE),
    "l-hexagon": lambda: load_polyline([(0.0, 0.0), (3.0, 0.0), (3.0, 1.0), (1.0, 1.0),
                                        (1.0, 3.0), (0.0, 3.0)]),
}


@pytest.mark.parametrize("name", sorted(RECT_FIRST_CURVES))
def test_refine_matches_32_point_jacobian_on_random_seeds(name):
    curve = RECT_FIRST_CURVES[name]()
    seeds = np.random.default_rng(17).random((2000, 4))
    theta, cost, _ = _refine(curve, seeds, 0.02 * 1e-7, 1e-3)
    want_theta, want_cost = _refine_32_point(curve, seeds, 0.02 * 1e-7, 1e-3)
    assert theta.tobytes() == want_theta.tobytes()
    assert cost.tobytes() == want_cost.tobytes()


@pytest.mark.parametrize("cap", [_REFINE_MAX_ITER, 3])
@pytest.mark.parametrize("accept", [None, 1e-7])
@pytest.mark.parametrize("name", sorted(RECT_FIRST_CURVES))
def test_refine_returns_the_band_distance_of_its_rows(name, accept, cap, monkeypatch):
    # every stop reads sep, and the search takes its witnesses' separation
    # from it: it must be that of the returned rows, bit for bit, also for
    # the rows still live when the iteration cap ends the loop
    monkeypatch.setattr("loopsurf.inscribed._REFINE_MAX_ITER", cap)
    curve = RECT_FIRST_CURVES[name]()
    seeds = np.random.default_rng(17).random((2000, 4))
    theta, _, sep = _refine(curve, seeds, 0.02 * 1e-7, 1e-3, accept=accept)
    assert sep.tobytes() == _row_separation(theta).tobytes()


def test_refine_matches_32_point_jacobian_on_singular_rows():
    # the batch of test_batched_refine_matches_scalar_refine_per_seed
    curve = make_preset("ellipse", [20.0, 1.0])
    g, tol, min_sep = 32, 1e-8, 1e-3
    seeds = _grid_order_seeds(curve, g)[32:64]
    theta, cost, _ = _refine(curve, seeds, 0.02 * tol, min_sep)
    want_theta, want_cost = _refine_32_point(curve, seeds, 0.02 * tol, min_sep)
    assert theta.tobytes() == want_theta.tobytes()
    assert cost.tobytes() == want_cost.tobytes()


def test_stacked_solve_isolates_a_singular_matrix():
    rng = np.random.default_rng(3)
    lhs = rng.standard_normal((5, 4, 4))
    lhs[2] = 0.0
    rhs = rng.standard_normal((5, 4, 1))
    out = _solve(lhs, rhs)
    assert np.all(np.isnan(out[2]))
    for k in (0, 1, 3, 4):
        assert out[k].tobytes() == np.linalg.solve(lhs[k], rhs[k, :, 0]).tobytes()


def _pairs_sort_first(t1, t2, images):
    """Every pair j < i of the grid from a full distance matrix, sorted by
    (image distance, i, j) before any filter: j, i, distance, separation."""
    i, j = np.tril_indices(len(images), -1)
    dist = np.linalg.norm(images[i] - images[j], axis=1)
    order = np.lexsort((j, i, dist))
    i, j, dist = i[order], j[order], dist[order]
    return j, i, dist, _pair_separation((t1[j], t2[j]), (t1[i], t2[i]))


def _search_grid(curve, g):
    """find_rectangle's samples, images and cell (= capture) at grid g."""
    m, d = np.meshgrid(np.arange(g) / g, 0.25 * (np.arange(g) + 1.0) / g, indexing="ij")
    t1, t2 = mod1(m - d).ravel(), mod1(m + d).ravel()
    return t1, t2, _images(curve, t1, t2), 4.0 * (curve.total_length / np.pi) / g


def _assert_seeds_match(curve, g, min_seps, monkeypatch):
    """_seeds at each min_separation against the all-pairs reference, whose
    pairs are made once for all of them; with the default sample blocks and
    with blocks of 7 samples cut at 1,000 pairs."""
    t1, t2, images, cell = _search_grid(curve, g)
    j, i, dist, sep = _pairs_sort_first(t1, t2, images)
    for block in (None, (7, 1000)):
        if block is not None:
            monkeypatch.setattr("loopsurf.inscribed._SAMPLE_BLOCK", block[0])
            monkeypatch.setattr("loopsurf.inscribed._PAIR_BUDGET", block[1])
        for min_sep in min_seps:
            gate = max(min_sep, 4.0 / g)
            seed = (dist <= cell) & (sep >= gate)
            got_j, got_i = _seeds(t1, t2, images, cell, gate)
            assert got_j.tobytes() == j[seed].tobytes()
            assert got_i.tobytes() == i[seed].tobytes()


# a full distance matrix: grids of at most 32 x 32 samples
SEED_CURVES = [(name, RECT_FIRST_CURVES[name], g) for name, g in (
    ("circle", 32), ("ellipse-2x1", 32), ("superellipse-2x1p4", 16),
    ("triangle", 32), ("l-hexagon", 16))] + [
    ("ellipse-10x1", lambda: make_preset("ellipse", [10.0, 1.0]), 32),
    ("ellipse-20x1", lambda: make_preset("ellipse", [20.0, 1.0]), 32),
    ("superellipse-1x1p0.5", lambda: make_preset("superellipse", [1.0, 1.0, 0.5]), 32),
]


@pytest.mark.parametrize("name,make,g", SEED_CURVES, ids=[c[0] for c in SEED_CURVES])
def test_filter_first_seed_blocks_match_sort_first(name, make, g, monkeypatch):
    _assert_seeds_match(make(), g, (1e-3, 0.01, 0.69), monkeypatch)


def _winning_batch(curve, g, tol, min_sep, by_index=False):
    """The refine batch the search at grid g accepts its witness from, with
    the uncut results and the index of the first accepted row; None if the
    grid has no witness. by_index: seeds in sample order (i, j) instead."""
    batch = _REFINE_BATCH
    t1, t2, images, cell = _search_grid(curve, g)
    j, i = _seeds(t1, t2, images, cell, max(min_sep, 4.0 / g))
    if by_index:
        order = np.lexsort((j, i))
        j, i = j[order], i[order]
    while len(j):
        rows = _seed_rows(t1, t2, j[:batch], i[:batch])
        theta, cost, _ = _refine(curve, rows, 0.02 * tol, min_sep)
        j, i, batch = j[batch:], i[batch:], min(2 * batch, _REFINE_BATCH_CAP)
        ok = np.flatnonzero((cost <= tol) & (_row_separation(mod1(theta)) >= min_sep))
        if ok.size:
            return rows, theta, cost, ok[0]
    return None


# circle at grid 32, seeds in sample order: two rows before the winner
# converge onto one chord (pairs too close), so a cut at the first converged
# row is wrong; nearest first, every case here accepts its first row
CUT_CASES = [
    ("circle", lambda: make_preset("circle", [1.0]), 32),
    ("ellipse-2x1", lambda: make_preset("ellipse", [2.0, 1.0]), 64),
    ("superellipse-2x1p4", RECT_FIRST_CURVES["superellipse-2x1p4"], 64),
    ("quad", lambda: load_polyline(QUAD), 48),
]


@pytest.mark.parametrize("name,make,g", CUT_CASES, ids=[c[0] for c in CUT_CASES])
def test_refine_cut_off_keeps_rows_up_to_the_first_accepted(name, make, g):
    curve, tol, min_sep = make(), 1e-8, 1e-3
    for by_index in (True, False):
        seeds, want_theta, want_cost, k = _winning_batch(curve, g, tol, min_sep, by_index)
        theta, cost, _ = _refine(curve, seeds, 0.02 * tol, min_sep, accept=tol)
        assert theta[:k + 1].tobytes() == want_theta[:k + 1].tobytes()
        assert cost[:k + 1].tobytes() == want_cost[:k + 1].tobytes()
        if by_index and name == "circle":
            assert np.any(want_cost[:k] <= 0.02 * tol)
    _assert_same_witness(_level_witness(curve, g, tol, min_sep), _make_witness(curve, theta[k]))
    # find_rectangle: the uncut winner of the coarsest level with a witness
    _, level_theta, _, level_k = next(filter(None, (_winning_batch(curve, level, tol, min_sep)
                                                    for level in _levels(g))))
    _assert_same_witness(find_rectangle(curve, grid_n=g, tol=tol, min_separation=min_sep),
                         _make_witness(curve, level_theta[level_k]))


RECT_FIRST_GRIDS = {"circle": 256, "ellipse-2x1": 256, "superellipse-2x1p4": 128,
                    "triangle": 256, "l-hexagon": 128}


@pytest.mark.parametrize("name", sorted(RECT_FIRST_CURVES))
def test_grid_n_is_a_ceiling_on_rect_first_curves(name):
    # every rect-first curve has a witness at grid 16, so its search at the
    # rect-first grid returns that witness, a rectangle far from a sliver
    curve = RECT_FIRST_CURVES[name]()
    got = find_rectangle(curve, grid_n=RECT_FIRST_GRIDS[name], tol=1e-8)
    _assert_same_witness(got, find_rectangle_reference(curve, grid_n=16, tol=1e-8))
    v = got.vertices
    sides = np.linalg.norm(v[1] - v[0]), np.linalg.norm(v[2] - v[1])
    assert min(sides) / max(sides) >= 0.3
