"""Inscribed rectangles in closed curves via the unordered-pair chord map.

An unordered pair of loop positions maps to (chord midpoint, chord
length); ``_images`` is this chord map, on arrays of pairs. The map
factors through the unordered-pair band, so a self-intersection of its
image -- two distinct pairs with equal midpoint and equal length --
certifies four concyclic-on-the-curve points whose diagonals bisect each
other and have equal length: a rectangle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import mod1
from .pairspace import Scheme, quotient_distance

_REFINE_MAX_ITER = 200
_REFINE_FD_STEP = 1e-7
# ordered work blocks start small (an early find stays cheap) and double to a cap
_SAMPLE_BLOCK = 1024
_PAIR_BUDGET = 1 << 18
_REFINE_BATCH = 32
_REFINE_BATCH_CAP = 4096


@dataclass(frozen=True)
class RectangleWitness:
    """Two unordered parameter pairs whose chords agree in midpoint and
    length, plus the four vertices they span.

    ``vertices`` interleaves the two chords, so consecutive vertices are
    rectangle sides and ``vertices[0] - vertices[2]`` / ``vertices[1] -
    vertices[3]`` are the diagonals. ``length_residual`` is the full
    diagonal-length difference.
    """

    pairs: tuple
    vertices: np.ndarray
    midpoint_residual: float
    length_residual: float

    def to_json(self):
        return {"pairs": [list(p) for p in self.pairs],
                "vertices": [list(v) for v in self.vertices],
                "midpoint_residual": self.midpoint_residual,
                "length_residual": self.length_residual}


@dataclass(frozen=True)
class NotFound:
    """Search outcome when no collision refined below tolerance; carries the
    best combined residual seen (None only when not a single pair satisfied
    the separation requirement, e.g. an oversized min_separation)."""

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
    diag = np.linalg.norm(p1 - p2, axis=-1)
    return np.concatenate([mid, diag[..., None]], axis=-1)


def _images(curve, t1, t2):
    """The chord map: vectorized (mid_x, mid_y, diagonal_length) image of
    pairs (t1, t2), equal for (t2, t1)."""
    return _chords(curve.eval(np.asarray(t1, float)), curve.eval(np.asarray(t2, float)))


def _pair_separation(pa, pb):
    """Unordered-pair quotient distance between two parameter pairs."""
    return quotient_distance(Scheme.MOBIUS_UNORDERED, pa, pb)


def _residual_many(curve, thetas):
    """Image difference of the two chords per row of thetas (..., 4)."""
    return (_images(curve, thetas[..., 0], thetas[..., 1])
            - _images(curve, thetas[..., 2], thetas[..., 3]))


def _norms(res):
    """Norm of each row of res (B, 4) as a BLAS dot, like np.linalg.norm of
    one vector, so a seed's cost does not depend on its batch."""
    return np.sqrt((res[:, None, :] @ res[:, :, None])[:, 0, 0])


def _solve(lhs, rhs):
    """Solve the stacked systems lhs (B, 4, 4) x = rhs (B, 4, 1) for x (B, 4).
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


def _refine(curve, theta0, target, min_separation):
    """Damped least-squares on the four parameters of each seed row (B, 4),
    rows in lockstep with a damping factor each, finite-difference Jacobian
    (the curve may be a polyline with corners) from 12 curve points per row:
    the four at theta, and each moved by ±h. A row stops early when its two
    chords drift into coincidence. Returns parameters and final costs."""
    theta = np.array(theta0, dtype=float)
    res = _residual_many(curve, theta)
    cost = _norms(res)
    lam = np.full(len(theta), 1e-6)
    steps = np.array([0.0, _REFINE_FD_STEP, -_REFINE_FD_STEP])
    live = np.arange(len(theta))
    for _ in range(_REFINE_MAX_ITER):
        live = live[cost[live] > target]
        th = theta[live]
        live = live[_pair_separation((th[:, 0], th[:, 1]), (th[:, 2], th[:, 3]))
                    >= 0.25 * min_separation]   # else collapsing onto one chord
        if not live.size:
            break
        pts = curve.eval(theta[live][:, :, None] + steps)       # (L, param, 0/+h/-h, 2)
        base = pts[:, :, 0]
        moved = _chords(pts[:, :, 1:], base[:, [1, 0, 3, 2], None])  # with the partner point
        fixed = _chords(base[:, 0::2], base[:, 1::2])[:, :, None, None]  # chords (0, 1), (2, 3)
        r8 = np.concatenate([moved[:, :2] - fixed[:, 1], fixed[:, 0] - moved[:, 2:]], axis=1)
        jac_t = (r8[:, :, 0] - r8[:, :, 1]) / (2.0 * _REFINE_FD_STEP)   # (L, param, residual)
        gram = jac_t @ jac_t.transpose(0, 2, 1)
        rhs = -jac_t @ res[live][:, :, None]
        trying = np.arange(len(live))           # rows of live not yet improved
        for _ in range(12):
            if not trying.size:
                break
            rows = live[trying]
            trial = theta[rows] + _solve(gram[trying] + lam[rows][:, None, None] * np.eye(4),
                                         rhs[trying])
            trial_res = _residual_many(curve, trial)
            trial_cost = _norms(trial_res)
            better = trial_cost < cost[rows]
            won = rows[better]
            theta[won], res[won], cost[won] = trial[better], trial_res[better], trial_cost[better]
            lam[won] = np.maximum(lam[won] / 3.0, 1e-12)
            lam[rows[~better]] *= 10.0
            trying = trying[~better]
        live = np.delete(live, trying)
    return theta, cost


def _seed_blocks(t1, t2, images, cell, capture, seed_gate, min_separation):
    """Collision seeds (t1[j], t2[j], t1[i], t2[i]) in (i, j) order, by blocks
    of samples i, each twice the last but cut at _PAIR_BUDGET pairs: pairs j
    < i in neighbouring image cells, image distance <= capture, separation >=
    seed_gate; with the least image distance of pairs min_separation apart."""
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
    start, size = 0, _SAMPLE_BLOCK
    while start < n:
        i = np.arange(start, min(start + size, n))
        first = (code[i][:, None] + shifts) * n
        lo = np.searchsorted(packed, first)
        counts = np.searchsorted(packed, first + i[:, None]) - lo
        cut = max(1, np.searchsorted(np.cumsum(counts.sum(axis=1)), _PAIR_BUDGET, side="right"))
        i, lo, counts = i[:cut], lo[:cut].ravel(), counts[:cut].ravel()
        start, size = i[-1] + 1, 2 * cut
        ends = np.cumsum(counts)
        j = order[np.repeat(lo - ends + counts, counts) + np.arange(ends[-1])]
        ii = np.repeat(np.repeat(i, len(shifts)), counts)
        by_pair = np.argsort(ii * n + j)
        j, ii = j[by_pair], ii[by_pair]
        sep = _pair_separation((t1[j], t2[j]), (t1[ii], t2[ii]))
        raw = np.linalg.norm(images[j] - images[ii], axis=1)
        tracked = float(np.min(raw[sep >= min_separation], initial=np.inf))
        seed = (sep >= seed_gate) & (raw <= capture)
        j, ii = j[seed], ii[seed]
        yield np.stack([t1[j], t2[j], t1[ii], t2[ii]], axis=1), tracked


def _make_witness(curve, theta):
    # residuals written out: the batched norm of _residual_many rounds the
    # diagonal lengths differently and can move length_residual by an ulp
    t = [float(x) for x in mod1(theta)]
    pair_a, pair_b = sorted([tuple(sorted(t[:2])), tuple(sorted(t[2:]))])
    pa, pb = curve.eval(np.asarray(pair_a)), curve.eval(np.asarray(pair_b))
    vertices = np.stack([pa[0], pb[0], pa[1], pb[1]])
    mid_res = float(np.linalg.norm(0.5 * (pa[0] + pa[1]) - 0.5 * (pb[0] + pb[1])))
    len_res = float(abs(np.linalg.norm(pa[0] - pa[1]) - np.linalg.norm(pb[0] - pb[1])))
    return RectangleWitness(pairs=(pair_a, pair_b), vertices=vertices,
                            midpoint_residual=mid_res, length_residual=len_res)


def _aspect_ratio(witness):
    v = witness.vertices
    s1, s2 = np.linalg.norm(v[1] - v[0]), np.linalg.norm(v[2] - v[1])
    return min(s1, s2) / max(s1, s2) if min(s1, s2) > 0.0 else 0.0


def find_rectangle(curve, grid_n=64, tol=1e-7, min_separation=1e-3, aspect=None):
    """Search for an inscribed rectangle.

    Samples the canonical unordered-pair domain (m, d) on a grid_n x grid_n
    grid and seeds a refinement at every pair of samples whose chord images
    share a neighbourhood. Seeds are refined in ordered batches, and the
    first in grid order whose combined residual ||(mid difference,
    diagonal-length difference)|| drops to ``tol``, with its pairs still
    ``min_separation`` apart on the band, wins; else NotFound carries the
    best residual seen. Seed pairs must also be max(min_separation,
    4/grid_n) apart: closer ones are resolution artifacts of one image
    sheet, and chasing them makes the search quadratic in grid density. A
    rectangle whose diagonals are that close is found at a larger grid_n.

    ``aspect``, when given, is a best-effort preference for the short/long
    side ratio: an accepted witness within a factor 1.5 returns at once,
    otherwise the whole grid is scanned and the closest ratio wins.
    """
    if grid_n < 16:
        raise ValueError(f"grid_n must be >= 16, got {grid_n}")
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if not min_separation > 0.0:
        raise ValueError(f"min_separation must be positive, got {min_separation!r}")
    if aspect is not None and not 0.0 < aspect <= 1.0:
        raise ValueError(f"aspect must lie in (0, 1], got {aspect!r}")

    # rotation-invariant length scale so candidate generation (a pure
    # image-distance criterion) commutes with rigid motions of the curve
    scale = curve.total_length / np.pi
    cell = 4.0 * scale / grid_n
    capture = cell

    m, d = np.meshgrid(np.arange(grid_n) / grid_n,
                       0.25 * (np.arange(grid_n) + 1.0) / grid_n, indexing="ij")
    t1, t2 = mod1(m - d).ravel(), mod1(m + d).ravel()
    images = _images(curve, t1, t2)

    best = np.inf
    target = 0.02 * tol
    seed_gate = max(min_separation, 4.0 / grid_n)
    best_witness, best_ratio_gap = None, np.inf
    batch = _REFINE_BATCH

    for seeds, tracked in _seed_blocks(t1, t2, images, cell, capture, seed_gate,
                                       min_separation):
        best = min(best, tracked)
        while len(seeds):
            thetas, costs = _refine(curve, seeds[:batch], target, min_separation)
            seeds, batch = seeds[batch:], min(2 * batch, _REFINE_BATCH_CAP)
            best = min(best, float(np.min(costs)))
            for theta in thetas[costs <= tol]:
                t = mod1(theta)
                if _pair_separation((t[0], t[1]), (t[2], t[3])) >= min_separation:
                    witness = _make_witness(curve, theta)
                    if aspect is None:
                        return witness
                    ratio = _aspect_ratio(witness)
                    if ratio > 0.0 and max(ratio / aspect, aspect / ratio) <= 1.5:
                        return witness
                    if abs(ratio - aspect) < best_ratio_gap:
                        best_witness, best_ratio_gap = witness, abs(ratio - aspect)

    if best_witness is not None:
        return best_witness

    if not np.isfinite(best):
        # nothing landed in a shared neighborhood: report the honest best
        # over a deterministic subsample of separated pairs
        sub = np.arange(0, len(images), max(1, len(images) // 1024))
        a, b = (sub[k] for k in np.triu_indices(len(sub), k=1))
        ok = _pair_separation((t1[a], t2[a]), (t1[b], t2[b])) >= min_separation
        if not np.any(ok):
            return NotFound(best_residual=None)
        best = np.min(np.linalg.norm(images[a[ok]] - images[b[ok]], axis=1))
    return NotFound(best_residual=float(best))


def verify_rectangle(curve, witness, tol, min_separation=1e-9, resample_n=65536):
    """Independent audit of a witness: vertex-to-curve distances, midpoint
    and diagonal-length residuals, side lengths and the angle between the
    diagonals. Passes iff every residual is <= tol.

    A polygon is measured against its exact segments. Any other curve is
    measured against a dense resample, which undershoots a convex curve by
    the chord sagitta (about 1.2e-9 of the radius at the default density),
    which bounds how small a measurable vertex distance can get.
    """
    (a1, a2), (b1, b2) = witness.pairs
    if _pair_separation((a1, a2), (b1, b2)) <= min_separation:
        raise ValueError("pairs not distinct")
    v = np.asarray(witness.vertices, dtype=float)
    if v.shape != (4, 2):
        raise ValueError(f"witness must carry 4 planar vertices, got shape {v.shape}")
    poly = curve.vertices if curve.kind == "polyline" else curve.sample(resample_n)
    ab = np.roll(poly, -1, axis=0) - poly
    ap = v[:, None, :] - poly                           # (4, M, 2)
    s = np.clip(np.einsum("kmi,mi->km", ap, ab) / np.einsum("mi,mi->m", ab, ab), 0.0, 1.0)
    dists = np.min(np.linalg.norm(v[:, None, :] - (poly + s[..., None] * ab), axis=-1), axis=1)
    diag1, diag2 = v[2] - v[0], v[3] - v[1]
    mid_res = float(np.linalg.norm(0.5 * (v[0] + v[2]) - 0.5 * (v[1] + v[3])))
    len_res = float(abs(np.linalg.norm(diag1) - np.linalg.norm(diag2)))
    sides = tuple(float(np.linalg.norm(v[(i + 1) % 4] - v[i])) for i in range(4))
    cosang = np.dot(diag1, diag2) / (np.linalg.norm(diag1) * np.linalg.norm(diag2))
    angle = float(np.arccos(np.clip(cosang, -1.0, 1.0)))
    passes = bool(np.max(dists) <= tol and mid_res <= tol and len_res <= tol)
    return RectangleReport(tuple(float(x) for x in dists), mid_res, len_res, sides, angle,
                           passes)
