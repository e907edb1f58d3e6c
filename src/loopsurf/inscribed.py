"""Inscribed rectangles in closed curves via the unordered-pair chord map.

An unordered pair of loop positions maps to (chord midpoint, chord
length); ``_images`` is this chord map, on arrays of pairs. The map
factors through the unordered-pair band, so a self-intersection of its
image -- two distinct pairs with equal midpoint and equal length --
certifies four concyclic-on-the-curve points whose diagonals bisect each
other and have equal length: a rectangle.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .curves import _lengths, mod1
from .pairspace import Scheme, quotient_distance

_REFINE_MAX_ITER = 200
_REFINE_FD_STEP = 1e-7
# look-ups by blocks cut at a pair budget; refine batches double from small (early finds stay cheap)
_SAMPLE_BLOCK = 1024
_PAIR_BUDGET = 1 << 18
_REFINE_BATCH = 32
_REFINE_BATCH_CAP = 4096
# verify_rectangle: band distance at which two pairs are one, chart points before its
# zoom, and the zoom's brackets per vertex, points per bracket, rounds (each 16x)
_VERIFY_MIN_SEPARATION, _VERIFY_RESAMPLE_N = 1e-9, 1024
_ZOOM_K, _ZOOM_S, _ZOOM_ROUNDS = 4, 33, 14


@dataclass(frozen=True, eq=False)
class RectangleWitness:
    """Two unordered parameter pairs whose chords agree in midpoint and
    length, plus the four vertices they span. Witnesses compare and hash by
    identity, as their vertex array has no single truth value.

    ``vertices`` interleaves the two chords, so consecutive vertices are
    rectangle sides and ``vertices[0] - vertices[2]`` / ``vertices[1] -
    vertices[3]`` are the diagonals. The residuals are the midpoint and
    length parts of the chord-image difference the search accepted at the
    pairs (_residual_many); the JSON form carries ``"found": True``.
    """

    pairs: tuple
    vertices: np.ndarray
    midpoint_residual: float
    length_residual: float

    def to_json(self):
        return {"pairs": [list(p) for p in self.pairs],
                "vertices": [list(v) for v in self.vertices],
                "midpoint_residual": self.midpoint_residual,
                "length_residual": self.length_residual, "found": True}


@dataclass(frozen=True)
class NotFound:
    """Search outcome without a witness: ``best_residual`` is the least final
    cost, over all grids, of a refined seed whose pairs stayed min_separation
    apart, so above tol; None if no refined seed stayed apart."""

    best_residual: float | None

    def to_json(self):
        return {"found": False, "best_residual": self.best_residual}


@dataclass(frozen=True)
class RectangleReport:
    vertex_curve_distances: tuple
    midpoint_residual: float
    length_residual: float
    side_lengths: tuple
    diagonal_angle: float
    passes: bool


def _chords(p1, p2):
    """(mid_x, mid_y, length) of chords p1 p2 (..., 2); the same for (p2, p1)."""
    mid = 0.5 * (p1 + p2)
    return np.concatenate([mid, _lengths(p1 - p2)[..., None]], axis=-1)


def _images(curve, t1, t2):
    """The chord map: vectorized (mid_x, mid_y, diagonal_length) image of
    pairs (t1, t2), equal for (t2, t1)."""
    return _chords(curve.eval(np.asarray(t1, float)), curve.eval(np.asarray(t2, float)))


def _pair_separation(pa, pb):
    """Unordered-pair quotient distance between two parameter pairs."""
    return quotient_distance(Scheme.MOBIUS_UNORDERED, pa, pb)


def _row_separation(theta):
    """Band distance between the two pairs of each row of theta (B, 4)."""
    return _pair_separation((theta[:, 0], theta[:, 1]), (theta[:, 2], theta[:, 3]))


def _residual_many(curve, thetas):
    """Image difference of the two chords per row of thetas (..., 4)."""
    return (_images(curve, thetas[..., 0], thetas[..., 1])
            - _images(curve, thetas[..., 2], thetas[..., 3]))


def _norms(res):
    """Norm of each row of res (B, 4) as a BLAS dot, like np.linalg.norm of
    one vector, so a seed's cost does not depend on its batch."""
    return np.sqrt((res[:, None, :] @ res[:, :, None])[:, 0, 0])


def _solve(lhs, rhs):
    """Solve the stacked systems lhs (B, k, k) x = rhs (B, k, 1) for x (B, k).
    A stacked solve raises if any matrix is singular; slogdet flags those by
    the same LU pivots. A singular system gives NaN, whose trial never lowers
    the cost (one try)."""
    try:
        return np.linalg.solve(lhs, rhs)[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape[:2], np.nan)
        ok = np.linalg.slogdet(lhs)[0] != 0.0
        out[ok] = np.linalg.solve(lhs[ok], rhs[ok])[..., 0]
        return out


def _refine(curve, theta0, target, min_separation, accept=None):
    """Damped least-squares on the four parameters of each seed row (B, 4),
    rows in lockstep with a damping factor each, finite-difference Jacobian
    (the curve may be a polyline with corners) from 12 curve points per row:
    the four at theta, and each moved by ±h. Returns (theta, cost, sep) per row:
    sep, the band distance (_row_separation) at theta, is kept current and every
    stop reads it. A row stops early when its chords drift into coincidence.

    The LM step is J^T y with (J J^T + lam) y = -r, solved in the residual
    space, not through J^T J: that has rank 3, and a tiny lam fills its null
    direction (along the rectangle family) with amplified rounding.

    With ``accept``, the first-witness cut-off: once a row stops with cost
    <= accept and its pairs min_separation apart (find_rectangle's
    acceptance test), every later row stops where it is. Earlier rows run
    as without it, so the first accepted row is the same, but later rows'
    results are partial; None, for per-seed checks, runs every row to its stop."""
    theta = np.array(theta0, dtype=float)
    res = _residual_many(curve, theta)
    cost = _norms(res)
    lam = np.full(len(theta), 1e-6)
    steps = np.array([0.0, _REFINE_FD_STEP, -_REFINE_FD_STEP])
    live, sep = np.arange(len(theta)), _row_separation(theta)
    for _ in range(_REFINE_MAX_ITER):
        live = live[(cost[live] > target) & (sep[live] >= 0.25 * min_separation)]
        if accept is not None:
            hit = (cost <= accept) & (sep >= min_separation)
            hit[live] = False                       # stopped rows only
            live = live[live < np.argmax(np.append(hit, True))]
        if not live.size:
            break
        pts = curve.eval(theta[live][:, :, None] + steps)       # (L, param, 0/+h/-h, 2)
        base = pts[:, :, 0]
        moved = _chords(pts[:, :, 1:], base[:, [1, 0, 3, 2], None])  # with the partner point
        fixed = _chords(base[:, 0::2], base[:, 1::2])[:, :, None, None]  # chords (0, 1), (2, 3)
        r8 = np.concatenate([moved[:, :2] - fixed[:, 1], fixed[:, 0] - moved[:, 2:]], axis=1)
        jac_t = (r8[:, :, 0] - r8[:, :, 1]) / (2.0 * _REFINE_FD_STEP)   # (L, param, residual)
        gram = jac_t.transpose(0, 2, 1) @ jac_t
        rhs = -res[live][:, :, None]
        trying = np.arange(len(live))           # rows of live not yet improved
        for _ in range(12):
            if not trying.size:
                break
            rows = live[trying]
            y = _solve(gram[trying] + lam[rows][:, None, None] * np.eye(3), rhs[trying])
            trial = theta[rows] + (jac_t[trying] @ y[:, :, None])[:, :, 0]
            trial_res = _residual_many(curve, trial)
            trial_cost = _norms(trial_res)
            better = trial_cost < cost[rows]
            won = rows[better]
            theta[won], res[won], cost[won] = trial[better], trial_res[better], trial_cost[better]
            lam[won] = np.maximum(lam[won] / 3.0, 1e-12)
            lam[rows[~better]] *= 10.0
            trying = trying[~better]
        live = np.delete(live, trying)
        sep[live] = _row_separation(theta[live])     # stalled rows have not moved
    return theta, cost, sep


def _seeds(t1, t2, images, cell, seed_gate):
    """Collision seeds (j, i), sample-index arrays sorted by (image distance,
    i, j): pairs j < i in neighbouring image cells, image distance <= cell,
    separation >= seed_gate. Seeds alone: a best residual is a refined seed's
    cost (None if none stays apart), never a raw image distance.

    Samples are looked up in blocks cut at _PAIR_BUDGET pairs, each sized by
    the last one's pairs per sample; blocks bound temporaries, not the order."""
    n = len(images)
    keys = np.floor(images / cell).astype(np.int64)
    keys -= keys.min(axis=0) - 1               # >= 1: neighbour cells stay >= 0
    dims = keys.max(axis=0) + 2
    radix = np.array([dims[1] * dims[2], dims[2], 1])
    code = keys @ radix
    shifts = (np.indices((3, 3, 3)).reshape(3, -1).T - 1) @ radix
    # sorted by (cell, sample), the samples j < i of a cell are one range;
    # each axis spans under grid_n / 2 cells, so code * n fits int64
    order = np.argsort(code, kind="stable")
    packed = code[order] * n + order
    pair_codes, dists = [], []
    start, size = 0, _SAMPLE_BLOCK
    while start < n:
        i = np.arange(start, min(start + size, n))
        first = (code[i][:, None] + shifts) * n
        lo = np.searchsorted(packed, first)
        counts = np.searchsorted(packed, first + i[:, None]) - lo
        pairs = np.cumsum(counts.sum(axis=1))
        cut = max(1, np.searchsorted(pairs, _PAIR_BUDGET, side="right"))
        i, lo, counts = i[:cut], lo[:cut].ravel(), counts[:cut].ravel()
        start, size = i[-1] + 1, min(2 * cut, max(1, _PAIR_BUDGET * cut // max(pairs[cut - 1], 1)))
        ends = np.cumsum(counts)
        j = order[np.repeat(lo - ends + counts, counts) + np.arange(ends[-1])]
        ii = np.repeat(np.repeat(i, len(shifts)), counts)
        dist = _lengths(images[j] - images[ii])
        near = np.flatnonzero(dist <= cell)
        j, ii, dist = j[near], ii[near], dist[near]
        keep = _pair_separation((t1[j], t2[j]), (t1[ii], t2[ii])) >= seed_gate
        pair_codes.append(ii[keep] * n + j[keep])
        dists.append(dist[keep])
    pair_codes, dists = np.concatenate(pair_codes), np.concatenate(dists)   # the whole level
    pair_codes = pair_codes[np.lexsort((pair_codes, dists))]
    return pair_codes % n, pair_codes // n


def _make_witness(curve, theta):
    t = [float(x) for x in mod1(theta)]
    pair_a, pair_b = sorted([tuple(sorted(t[:2])), tuple(sorted(t[2:]))])
    pa, pb = curve.eval(np.asarray(pair_a)), curve.eval(np.asarray(pair_b))
    # _residual_many's row at theta up to sign: eval(mod1(t)) is eval(t), _chords is symmetric
    res = _chords(pa[0], pa[1]) - _chords(pb[0], pb[1])
    return RectangleWitness(pairs=(pair_a, pair_b), vertices=np.stack([pa[0], pb[0], pa[1], pb[1]]),
                            midpoint_residual=float(_lengths(res[:2])),
                            length_residual=float(abs(res[2])))


def _check_tol(tol):
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def _search_level(curve, t1, t2, images, grid_n, tol, min_separation):
    """find_rectangle on the grid_n x grid_n samples (t1, t2) with their
    images alone: the witness (or None) and the least final cost of a
    refined row whose pairs stayed min_separation apart (inf if none did).
    Seeds are refined in doubling batches, nearest first: by image distance,
    ties by sample index; blocks do not change the order."""
    # rotation-invariant length scale so candidate generation (a pure
    # image-distance criterion) commutes with rigid motions of the curve
    cell = 4.0 * (curve.total_length / np.pi) / grid_n
    best = np.inf
    target = 0.02 * tol
    seed_gate = max(min_separation, 4.0 / grid_n)
    batch = _REFINE_BATCH

    j, i = _seeds(t1, t2, images, cell, seed_gate)
    while len(j):
        seeds = np.stack([t1[j[:batch]], t2[j[:batch]], t1[i[:batch]], t2[i[:batch]]], axis=1)
        thetas, costs, seps = _refine(curve, seeds, target, min_separation, tol)
        j, i, batch = j[batch:], i[batch:], min(2 * batch, _REFINE_BATCH_CAP)
        apart = seps >= min_separation
        best = min(best, float(np.min(costs[apart], initial=np.inf)))
        ok = np.flatnonzero(apart & (costs <= tol))
        if ok.size:
            return _make_witness(curve, thetas[ok[0]]), best
    return None, best


def find_rectangle(curve, grid_n=64, tol=1e-7, min_separation=1e-3):
    """Search for an inscribed rectangle.

    Samples the canonical unordered-pair domain (m, d) on g x g grids, g =
    16, 32, 64, ... and last grid_n itself, and returns the first witness of
    the coarsest grid that has one. A grid seeds a refinement at every pair
    of samples whose chord images share a neighbourhood. Seeds are refined
    in batches, nearest first: by image distance, ties by sample index;
    blocks do not change the order. The first whose combined residual
    ||(mid difference, diagonal-length difference)|| drops to ``tol``, with
    its pairs still ``min_separation`` apart on the band, wins; else
    NotFound carries the least final cost of a refined seed that stayed
    apart, over all grids (None if none did). Seed pairs must also be
    max(min_separation, 4/g) apart: closer ones are resolution artifacts of
    one image sheet, and chasing them makes the search quadratic in grid
    density. So a coarse grid finds a fatter rectangle sooner, and one whose
    diagonals are that close is left to a finer grid.
    """
    if not isinstance(grid_n, numbers.Integral) or grid_n < 16:
        raise ValueError(f"grid_n must be an integer >= 16, got {grid_n!r}")
    _check_tol(tol)
    if not 0.0 < min_separation < np.inf:
        raise ValueError(f"min_separation must be positive and finite, got {min_separation!r}")

    coarse = [16 << k for k in range(int(grid_n).bit_length()) if 16 << k < grid_n]
    best = np.inf
    for g in coarse + [grid_n]:
        m, d = np.meshgrid(np.arange(g) / g, 0.25 * (np.arange(g) + 1.0) / g, indexing="ij")
        t1, t2 = mod1(m - d).ravel(), mod1(m + d).ravel()
        images = _images(curve, t1, t2)
        witness, g_best = _search_level(curve, t1, t2, images, g, tol, min_separation)
        if witness is not None:
            return witness
        best = min(best, g_best)
    return NotFound(best_residual=float(best) if np.isfinite(best) else None)


def _chart_distances(curve, v, n):
    """Least distance from each vertex of v (4, 2) to the chart points evaluated: n
    arc-uniform samples, then brackets of +-1 spacing around its _ZOOM_K nearest, each
    round sampled at _ZOOM_S points and narrowed to +-1 of their spacing about its
    nearest. A bracket keeps its centre, so the last round holds the least distance."""
    d = _lengths(curve.sample(n) - v[:, None])                  # (4, n)
    center = np.argpartition(d, min(_ZOOM_K, n) - 1, axis=1)[:, :_ZOOM_K] / n
    half, grid = 1.0 / n, np.linspace(-1.0, 1.0, _ZOOM_S)
    for _ in range(_ZOOM_ROUNDS):
        ts = center[..., None] + half * grid
        d = _lengths(curve.eval(ts) - v[:, None, None])          # (4, K, S)
        center = np.take_along_axis(ts, d.argmin(axis=-1)[..., None], -1)[..., 0]
        half *= 2.0 / (_ZOOM_S - 1)
    return d.min(axis=(1, 2))


def verify_rectangle(curve, witness, tol):
    """Independent audit of a witness: vertex-to-curve distances, midpoint
    and diagonal-length residuals, side lengths and the angle between the
    diagonals. Passes iff every residual is <= tol and every side is longer
    than tol: a shorter side puts two vertices on one point, spanning no area.

    A polygon is measured against its exact segments. Any other curve is
    measured on its own chart: _VERIFY_RESAMPLE_N arc-uniform points set the
    starting grid, then brackets zoom onto each vertex's nearest points past
    float resolution in t. A distance is the least to a chart point evaluated:
    attained, so an upper bound on the true distance; a vertex farther than
    tol from the curve cannot pass.

    ``tol`` must be positive and finite, as in find_rectangle: an infinite
    tol would pass any witness, and NaN or a non-positive tol none.
    """
    _check_tol(tol)
    (a1, a2), (b1, b2) = witness.pairs
    if _pair_separation((a1, a2), (b1, b2)) <= _VERIFY_MIN_SEPARATION:
        raise ValueError("pairs not distinct")
    v = np.asarray(witness.vertices, dtype=float)
    if v.shape != (4, 2):
        raise ValueError(f"witness must carry 4 planar vertices, got shape {v.shape}")
    if curve.kind == "polyline":
        poly = curve.vertices
        ab = np.roll(poly, -1, axis=0) - poly
        ap = v[:, None, :] - poly                           # (4, M, 2)
        s = np.clip(np.einsum("kmi,mi->km", ap, ab) / np.einsum("mi,mi->m", ab, ab), 0.0, 1.0)
        dists = np.min(np.linalg.norm(v[:, None, :] - (poly + s[..., None] * ab), axis=-1), axis=1)
    else:
        dists = _chart_distances(curve, v, _VERIFY_RESAMPLE_N)
    diag1, diag2 = v[2] - v[0], v[3] - v[1]
    mid_res = float(np.linalg.norm(0.5 * (v[0] + v[2]) - 0.5 * (v[1] + v[3])))
    len_res = float(abs(np.linalg.norm(diag1) - np.linalg.norm(diag2)))
    sides = tuple(float(np.linalg.norm(v[(i + 1) % 4] - v[i])) for i in range(4))
    cosang = np.dot(diag1, diag2) / (np.linalg.norm(diag1) * np.linalg.norm(diag2))
    angle = float(np.arccos(np.clip(cosang, -1.0, 1.0)))
    passes = bool(np.max(dists) <= tol and mid_res <= tol and len_res <= tol
                  and min(sides) > tol)
    return RectangleReport(tuple(float(x) for x in dists), mid_res, len_res, sides, angle,
                           passes)
