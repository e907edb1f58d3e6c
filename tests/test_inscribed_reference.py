"""The batched rectangle search against a scalar reference.

The reference is the search as first written: a dict of image cells probed
sample by sample in grid order, and one damped least-squares solve per seed.
The batched search keeps its seeds, seed order, solver arithmetic and
acceptance rule, so the two must return the same witness bit for bit.
"""
import numpy as np
import pytest

from loopsurf.curves import load_polyline, make_preset, mod1
from loopsurf.inscribed import (
    NotFound,
    RectangleWitness,
    _aspect_ratio,
    _images,
    _make_witness,
    _norms,
    _pair_separation,
    _refine,
    _residual_many as _residual_rows,
    _seed_blocks,
    _solve,
    find_rectangle,
)

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
    eye = np.eye(4)
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
            lhs = jac.T @ jac + lam * eye
            try:
                delta = np.linalg.solve(lhs, -jac.T @ res)
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


def find_rectangle_reference(curve, grid_n=64, tol=1e-7, min_separation=1e-3, aspect=None):
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
    best_witness = None
    best_ratio_gap = np.inf
    for idx in range(len(images)):
        kx, ky, kz = (int(keys[idx, 0]), int(keys[idx, 1]), int(keys[idx, 2]))
        candidates = []
        for ox in (-1, 0, 1):
            for oy in (-1, 0, 1):
                for oz in (-1, 0, 1):
                    candidates.extend(grid_hash.get((kx + ox, ky + oy, kz + oz), ()))
        if candidates:
            candidates = np.sort(np.asarray(candidates, dtype=np.int64))
            sep = _pair_separation((t1[candidates], t2[candidates]), (t1[idx], t2[idx]))
            raw = np.linalg.norm(images[candidates] - images[idx], axis=1)
            tracked = raw[sep >= min_separation]
            if tracked.size:
                best = min(best, float(np.min(tracked)))
            for j in candidates[(sep >= seed_gate) & (raw <= capture)]:
                theta0 = np.array([t1[j], t2[j], t1[idx], t2[idx]])
                theta, cost = _refine_scalar(curve, theta0, target, min_separation)
                best = min(best, cost)
                if cost <= tol:
                    ta = mod1(theta[:2])
                    tb = mod1(theta[2:])
                    if _pair_separation((ta[0], ta[1]), (tb[0], tb[1])) >= min_separation:
                        witness = _make_witness(curve, theta)
                        if aspect is None:
                            return witness
                        ratio = _aspect_ratio(witness)
                        if ratio > 0.0 and max(ratio / aspect, aspect / ratio) <= 1.5:
                            return witness
                        if abs(ratio - aspect) < best_ratio_gap:
                            best_witness, best_ratio_gap = witness, abs(ratio - aspect)
        grid_hash.setdefault((kx, ky, kz), []).append(idx)
    if best_witness is not None:
        return best_witness
    if not np.isfinite(best):
        stride = max(1, len(images) // 1024)
        sub = np.arange(0, len(images), stride)
        ii, jj = np.triu_indices(len(sub), k=1)
        a, b = sub[ii], sub[jj]
        ok = _pair_separation((t1[a], t2[a]), (t1[b], t2[b])) >= min_separation
        if not np.any(ok):
            return NotFound(best_residual=None)
        best = float(np.min(np.linalg.norm(images[a[ok]] - images[b[ok]], axis=1)))
    return NotFound(best_residual=float(best))


TRIANGLE = [(0.0, 0.0), (4.0, 0.0), (1.0, 3.0)]
QUAD = [(0.0, 0.0), (4.0, 0.0), (5.0, 2.0), (1.0, 3.0)]

# ellipse 20:1 drives some damped normal matrices singular, so it covers the
# per-seed fallback of the stacked solve; aspect=0.5 forces the full scan
WITNESS_CASES = [
    ("circle", lambda: make_preset("circle", [1.0]), dict(grid_n=32, tol=1e-9)),
    ("ellipse-2x1", lambda: make_preset("ellipse", [2.0, 1.0]), dict(grid_n=64, tol=1e-8)),
    ("triangle", lambda: load_polyline(TRIANGLE), dict(grid_n=64, tol=1e-7)),
    ("quad", lambda: load_polyline(QUAD), dict(grid_n=48, tol=1e-7)),
    ("ellipse-20x1", lambda: make_preset("ellipse", [20.0, 1.0]), dict(grid_n=32, tol=1e-8)),
    ("triangle-aspect", lambda: load_polyline(TRIANGLE),
     dict(grid_n=48, tol=1e-7, aspect=0.5)),
]


@pytest.mark.parametrize("name,make,kwargs", WITNESS_CASES, ids=[c[0] for c in WITNESS_CASES])
def test_batched_search_returns_reference_witness(name, make, kwargs):
    curve = make()
    want = find_rectangle_reference(curve, **kwargs)
    got = find_rectangle(curve, **kwargs)
    assert isinstance(want, RectangleWitness) and isinstance(got, RectangleWitness)
    assert got.pairs == want.pairs
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert (got.midpoint_residual, got.length_residual) == \
        (want.midpoint_residual, want.length_residual)


@pytest.mark.parametrize("make,kwargs", [
    # every pair too far apart on the band: the residual is None
    (lambda: make_preset("circle", [1.0]), dict(grid_n=16, tol=1e-12, min_separation=0.69)),
    # seeds converge but onto chords closer than min_separation: the best
    # residual is a refine cost
    (lambda: load_polyline(TRIANGLE), dict(grid_n=16, tol=1e-12, min_separation=0.4)),
], ids=["no-separated-pair", "collapsed-seeds"])
def test_batched_search_returns_reference_best_residual(make, kwargs):
    curve = make()
    want = find_rectangle_reference(curve, **kwargs)
    got = find_rectangle(curve, **kwargs)
    assert isinstance(want, NotFound) and isinstance(got, NotFound)
    assert got.best_residual == want.best_residual


def test_batched_refine_matches_scalar_refine_per_seed():
    # seeds 32..63 of ellipse 20:1 at grid 32, one batch; the damped normal
    # matrix of seeds 38, 51, 53 and 54 turns singular at some step
    curve = make_preset("ellipse", [20.0, 1.0])
    g, tol, min_sep = 32, 1e-8, 1e-3
    cell = 4.0 * (curve.total_length / np.pi) / g
    m, d = np.meshgrid(np.arange(g) / g, 0.25 * (np.arange(g) + 1.0) / g, indexing="ij")
    t1, t2 = mod1(m - d).ravel(), mod1(m + d).ravel()
    blocks = _seed_blocks(t1, t2, _images(curve, t1, t2), cell, cell, 4.0 / g, min_sep)
    seeds = next(blocks)[0][32:64]
    thetas, costs = _refine(curve, seeds, 0.02 * tol, min_sep)
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
        gram = jac_t @ jac_t.transpose(0, 2, 1)
        rhs = -jac_t @ res[live][:, :, None]
        trying = np.arange(len(live))
        for _ in range(12):
            if not trying.size:
                break
            rows = live[trying]
            trial = theta[rows] + _solve(gram[trying] + lam[rows][:, None, None] * np.eye(4),
                                         rhs[trying])
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
    theta, cost = _refine(curve, seeds, 0.02 * 1e-7, 1e-3)
    want_theta, want_cost = _refine_32_point(curve, seeds, 0.02 * 1e-7, 1e-3)
    assert theta.tobytes() == want_theta.tobytes()
    assert cost.tobytes() == want_cost.tobytes()


def test_refine_matches_32_point_jacobian_on_singular_rows():
    # the batch of test_batched_refine_matches_scalar_refine_per_seed
    curve = make_preset("ellipse", [20.0, 1.0])
    g, tol, min_sep = 32, 1e-8, 1e-3
    cell = 4.0 * (curve.total_length / np.pi) / g
    m, d = np.meshgrid(np.arange(g) / g, 0.25 * (np.arange(g) + 1.0) / g, indexing="ij")
    t1, t2 = mod1(m - d).ravel(), mod1(m + d).ravel()
    blocks = _seed_blocks(t1, t2, _images(curve, t1, t2), cell, cell, 4.0 / g, min_sep)
    seeds = next(blocks)[0][32:64]
    theta, cost = _refine(curve, seeds, 0.02 * tol, min_sep)
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
