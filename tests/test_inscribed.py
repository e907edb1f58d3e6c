import itertools
import tracemalloc

import numpy as np
import pytest

from loopsurf.curves import _lengths, load_polyline, make_preset, mod1
from loopsurf import inscribed
from loopsurf.inscribed import (
    NotFound,
    RectangleWitness,
    _images,
    _search_level,
    _seeds,
    find_rectangle,
    verify_rectangle,
)
from loopsurf.pairspace import Scheme, quotient_distance


# ------------------------------------------------------------------ chord map
# _images(curve, t1, t2) is the chord map: (midpoint x, midpoint y, length)

def test_circle_diameter_image():
    c = make_preset("circle", [1.0])
    img = _images(c, 0.0, 0.5)
    assert np.linalg.norm(img[:2]) < 1e-12
    assert img[2] == pytest.approx(2.0, abs=2e-12)


def test_degenerate_pair_image():
    c = make_preset("circle", [1.0])
    img = _images(c, 0.1, 0.1)
    assert img[2] == 0.0


def test_ellipse_major_axis_chord():
    c = make_preset("ellipse", [2.0, 1.0])
    # t = 0 sits at (2, 0); the centrally opposite point is half the
    # perimeter away, so {0, 0.5} spans the major axis
    img = _images(c, 0.0, 0.5)
    assert np.linalg.norm(img[:2]) < 1e-9
    assert img[2] == pytest.approx(4.0, abs=2e-9)


def test_swap_invariance_exact():
    c = make_preset("ellipse", [2.0, 1.0])
    rng = np.random.default_rng(41)
    a, b = rng.random((2, 100))
    assert np.array_equal(_images(c, a, b), _images(c, b, a))
    for x, y in zip(a, b):
        assert np.array_equal(_images(c, x, y), _images(c, y, x))


def test_factors_through_unordered_quotient():
    c = make_preset("ellipse", [2.0, 1.0])
    rng = np.random.default_rng(42)
    for _ in range(100):
        a, b = rng.random(2)
        base = _images(c, a, b)
        for a2, b2 in ((b, a), (a + 1.0, b), (b - 1.0, a)):
            assert quotient_distance(Scheme.MOBIUS_UNORDERED, (a, b), (a2, b2)) < 1e-15
            other = _images(c, a2, b2)
            assert np.linalg.norm(other[:2] - base[:2]) < 1e-12
            assert abs(other[2] - base[2]) < 2e-12


# ------------------------------------------------------------- find_rectangle

def test_option_validation():
    c = make_preset("circle", [1.0])
    with pytest.raises(ValueError, match="grid_n"):
        find_rectangle(c, grid_n=8)
    with pytest.raises(ValueError, match="tol"):
        find_rectangle(c, grid_n=32, tol=0.0)
    with pytest.raises(ValueError, match="min_separation"):
        find_rectangle(c, grid_n=32, tol=1e-6, min_separation=-1.0)


@pytest.mark.parametrize("tol", [np.inf, np.nan])
def test_non_finite_tol_rejected(tol):
    # an infinite tolerance would accept the first seed, however far off
    c = make_preset("circle", [1.0])
    with pytest.raises(ValueError, match=f"tol must be positive and finite, got {tol!r}"):
        find_rectangle(c, grid_n=16, tol=tol)


@pytest.mark.parametrize("kwargs,message", [
    (dict(min_separation=np.inf), "min_separation must be positive and finite, got inf"),
    (dict(min_separation=np.nan), "min_separation must be positive and finite, got nan"),
    (dict(grid_n=64.5), "grid_n must be an integer >= 16, got 64.5"),
    (dict(grid_n=64.0), "grid_n must be an integer >= 16, got 64.0"),
])
def test_non_finite_separation_and_non_integer_grid_rejected(kwargs, message):
    # an infinite min_separation returned NotFound(None); grid_n=64.5 built
    # a 65-column grid spaced 1/64.5
    c = make_preset("circle", [1.0])
    with pytest.raises(ValueError, match=message):
        find_rectangle(c, **{"grid_n": 32, "tol": 1e-7, **kwargs})


def test_numpy_integer_grid_accepted():
    c = make_preset("circle", [1.0])
    assert find_rectangle(c, grid_n=np.int64(32), tol=1e-9).pairs == \
        find_rectangle(c, grid_n=32, tol=1e-9).pairs


def test_circle_yields_diameter_rectangle():
    c = make_preset("circle", [1.0])
    w = find_rectangle(c, grid_n=32, tol=1e-9)
    assert isinstance(w, RectangleWitness)
    (a1, a2), (b1, b2) = w.pairs
    for t1, t2 in w.pairs:
        mid = 0.5 * (c.eval(t1) + c.eval(t2))
        assert np.linalg.norm(mid) < 1e-8
    diag = np.linalg.norm(w.vertices[2] - w.vertices[0])
    assert diag == pytest.approx(2.0, abs=1e-8)


def test_ellipse_rectangle_vertices_on_curve():
    c = make_preset("ellipse", [2.0, 1.0])
    w = find_rectangle(c, grid_n=64, tol=1e-8)
    assert isinstance(w, RectangleWitness)
    assert np.sqrt(w.midpoint_residual**2 + w.length_residual**2) <= 1e-8
    for x, y in w.vertices:
        assert abs((x / 2.0) ** 2 + y**2 - 1.0) < 1e-6


def test_triangle_rectangle_with_brute_force_confirmation():
    scipy_spatial = pytest.importorskip("scipy.spatial")
    tri = load_polyline([(0.0, 0.0), (4.0, 0.0), (1.0, 3.0)])
    w = find_rectangle(tri, grid_n=64, tol=1e-7)
    assert isinstance(w, RectangleWitness)
    assert np.sqrt(w.midpoint_residual**2 + w.length_residual**2) <= 1e-7
    report = verify_rectangle(tri, w, tol=1e-6)
    assert report.passes

    # independent confirmation by brute-force sampling at grid 512: some
    # separated pair of samples comes close in image space
    g = 512
    mi, dj = np.meshgrid(np.arange(g) / g, 0.25 * (np.arange(g) + 1.0) / g,
                         indexing="ij")
    t1 = (mi - dj).ravel() % 1.0
    t2 = (mi + dj).ravel() % 1.0
    images = _images(tri, t1, t2)
    r = 4.0 * (tri.total_length / np.pi) / g
    tree = scipy_spatial.cKDTree(images)
    close = tree.query_pairs(r=r, output_type="ndarray")
    sep = quotient_distance(Scheme.MOBIUS_UNORDERED,
                            (t1[close[:, 0]], t2[close[:, 0]]),
                            (t1[close[:, 1]], t2[close[:, 1]]))
    hits = close[sep >= 1e-3]
    assert len(hits) > 0
    gaps = np.linalg.norm(images[hits[:, 0]] - images[hits[:, 1]], axis=1)
    assert np.min(gaps) <= r


def test_not_found_is_data_with_best_residual():
    c = make_preset("circle", [1.0])
    # an oversized separation requirement suppresses every candidate
    res = find_rectangle(c, grid_n=16, tol=1e-12, min_separation=0.69)
    assert isinstance(res, NotFound)
    assert res.best_residual is None or 1e-12 < res.best_residual < np.inf


NOT_FOUND_CASES = [
    # ellipse 10:1 read 0.0 and the triangle 5.0e-16 while rows collapsed onto
    # one chord and unrefined grid distances counted as residuals
    ("ellipse-10x1", lambda: make_preset("ellipse", [10.0, 1.0]), 16, 0.4),
    ("triangle", lambda: load_polyline([(0.0, 0.0), (4.0, 0.0), (1.0, 3.0)]), 16, 0.4),
    ("circle", lambda: make_preset("circle", [1.0]), 32, 0.5),
    ("superellipse-1x1p0.5", lambda: make_preset("superellipse", [1.0, 1.0, 0.5]), 16, 0.4),
    ("superellipse-2x1p4", lambda: make_preset("superellipse", [2.0, 1.0, 4.0]), 32, 0.4),
]


@pytest.mark.parametrize("name,make,g,min_sep", NOT_FOUND_CASES,
                         ids=[c[0] for c in NOT_FOUND_CASES])
def test_not_found_residual_is_a_separated_miss(name, make, g, min_sep):
    # a refined row min_sep apart with cost <= tol is a witness, so a search
    # without one reports a residual above tol, or None when no row stayed apart
    res = find_rectangle(make(), grid_n=g, tol=1e-12, min_separation=min_sep)
    assert isinstance(res, NotFound)
    assert res.best_residual is None or 1e-12 < res.best_residual < np.inf


def test_soundness_witness_passes_at_10x_tol():
    # at tol 1e-12 on the ellipse the chord resample put the vertices 8.3e-10
    # off the curve, so the search's own witness failed its audit
    for curve, tol in ((make_preset("circle", [1.0]), 1e-9),
                       (make_preset("ellipse", [2.0, 1.0]), 1e-8),
                       (make_preset("ellipse", [2.0, 1.0]), 1e-12),
                       (load_polyline([(0, 0), (4, 0), (1, 3)]), 1e-7)):
        w = find_rectangle(curve, grid_n=64, tol=tol)
        assert isinstance(w, RectangleWitness)
        assert verify_rectangle(curve, w, tol=10 * tol).passes


def _assert_rigid_motion_equivariance(search):
    quad = np.array([(0.0, 0.0), (4.0, 0.0), (5.0, 2.0), (1.0, 3.0)])
    base = search(load_polyline(quad))
    assert isinstance(base, RectangleWitness)
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = quad @ rot.T + np.array([3.0, -2.0])
    out = search(load_polyline(moved))
    assert isinstance(out, RectangleWitness)
    for (p, q) in zip(np.ravel(base.pairs), np.ravel(out.pairs)):
        assert abs(p - q) < 1e-9
    want = base.vertices @ rot.T + np.array([3.0, -2.0])
    assert np.max(np.abs(want - out.vertices)) < 1e-9


def test_rigid_motion_equivariance():
    _assert_rigid_motion_equivariance(lambda c: find_rectangle(c, grid_n=48, tol=1e-7))


@pytest.mark.parametrize("grid_n", [16, 32, 48, 64])
def test_rigid_motion_equivariance_on_every_level(grid_n):
    # the search at each grid alone, and find_rectangle with grid_n as its
    # finest level; an LM step solved through the rank-3 normal matrix
    # J^T J slid the witness along its rectangle family by up to 2.5e-9
    def level(curve):
        m, d = np.meshgrid(np.arange(grid_n) / grid_n,
                           0.25 * (np.arange(grid_n) + 1.0) / grid_n, indexing="ij")
        t1, t2 = mod1(m - d).ravel(), mod1(m + d).ravel()
        return _search_level(curve, t1, t2, _images(curve, t1, t2), grid_n, 1e-7, 1e-3)[0]

    _assert_rigid_motion_equivariance(level)
    _assert_rigid_motion_equivariance(lambda c: find_rectangle(c, grid_n=grid_n, tol=1e-7))


# ------------------------------------------------------ seed order and blocks

L_HEXAGON = [(0.0, 0.0), (3.0, 0.0), (3.0, 1.0), (1.0, 1.0), (1.0, 3.0), (0.0, 3.0)]
# an asymmetric polyline on which the search in sample order took 0.23 s
STAR7 = [(0.255, 0.3), (-0.564, 0.34), (-0.814, 0.393), (-0.42, 0.002), (-0.303, -0.054),
         (-0.258, -0.233), (0.372, -0.498)]


def _outcome(res):
    return res.pairs if isinstance(res, RectangleWitness) else res.best_residual


@pytest.mark.parametrize("grid_n,tol,min_sep", [(64, 1e-9, 0.05), (32, 1e-12, 0.45)])
def test_sample_blocks_do_not_change_the_search(grid_n, tol, min_sep, monkeypatch):
    # blocks bound the look-up temporaries only: one sort orders a level's seeds;
    # at min_sep 0.45 ellipse 10:1 reports a separated miss, the others None
    curves = [make_preset("ellipse", [2.0, 1.0]), load_polyline([(0, 0), (4, 0), (1, 3)]),
              load_polyline(L_HEXAGON), make_preset("circle", [1.0]),
              make_preset("ellipse", [10.0, 1.0])]
    want = [_outcome(find_rectangle(c, grid_n, tol, min_sep)) for c in curves]
    if min_sep == 0.45:
        assert want == [None, None, None, None, 0.9949748425680712]
    for block, budget in ((1, 50), (7, 1000), (64, 5000)):
        monkeypatch.setattr(inscribed, "_SAMPLE_BLOCK", block)
        monkeypatch.setattr(inscribed, "_PAIR_BUDGET", budget)
        assert [_outcome(find_rectangle(c, grid_n, tol, min_sep)) for c in curves] == want


def _census_curves():
    rng = np.random.default_rng(11)
    stars = []
    for _ in range(12):
        k = rng.integers(7, 14)
        angle, radius = np.sort(rng.uniform(0.0, 2.0 * np.pi, k)), rng.uniform(0.3, 1.0, k)
        stars.append(load_polyline(np.stack([radius * np.cos(angle),
                                             radius * np.sin(angle)], axis=1)))
    t = 2.0 * np.pi * np.arange(400) / 400
    eggs = [load_polyline(np.stack([a * np.cos(t), b * np.sin(t) * (1.0 + e * np.cos(t))], axis=1))
            for a, b, e in ((1.0, 0.7, 0.2), (1.0, 0.8, 0.3), (1.5, 1.0, 0.25), (1.0, 0.6, 0.15))]
    presets = [("ellipse", [r, 1.0]) for r in (2.0, 10.0, 20.0, 100.0)] + [
        ("superellipse", p) for p in ([1.0, 1.0, 0.5], [1.0, 1.0, 6.0], [2.0, 1.0, 4.0])] + [
        ("circle", [1.0])]
    polygons = [load_polyline(v) for v in ([(0, 0), (4, 0), (1, 3)], L_HEXAGON, STAR7)]
    return stars + eggs + [make_preset(kind, p) for kind, p in presets] + polygons


def test_census_witnesses_pass_verification():
    # 27 curves, 12 of them random stars, at grids 32 and 64
    for curve in _census_curves():
        for grid_n in (32, 64):
            w = find_rectangle(curve, grid_n=grid_n, tol=1e-7)
            assert isinstance(w, RectangleWitness)
            assert verify_rectangle(curve, w, tol=1e-6).passes


def test_census_witnesses_report_the_residuals_the_search_accepted():
    # the midpoint and length parts of the search's image difference at the
    # witness's pairs, to the bit
    for curve in _census_curves():
        for grid_n, tol in itertools.product((32, 64), (1e-7, 1e-12)):
            w = find_rectangle(curve, grid_n=grid_n, tol=tol)
            assert isinstance(w, RectangleWitness) and w.to_json()["found"] is True
            res = inscribed._residual_many(curve, np.array(w.pairs[0] + w.pairs[1]))
            assert (w.midpoint_residual, w.length_residual) == \
                (float(_lengths(res[:2])), float(abs(res[2])))


@pytest.mark.parametrize("curve", [make_preset("ellipse", [100.0, 1.0]), load_polyline(STAR7)],
                         ids=["ellipse-100x1", "star7"])
def test_nearest_seeds_find_the_witness_in_one_refine_call(curve, monkeypatch):
    # in sample order both refined their g16 level for 0.2-0.6 s
    calls = []
    refine = inscribed._refine

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return refine(*args, **kwargs)

    monkeypatch.setattr(inscribed, "_refine", counted)
    assert isinstance(find_rectangle(curve, grid_n=64, tol=1e-7), RectangleWitness)
    assert calls == [inscribed._REFINE_BATCH]


def test_seeds_peak_memory():
    # a level's seeds are held at once: 16 bytes each (pair code and distance),
    # 1,661,184 seeds for the circle at grid 256
    g = 256
    c = make_preset("circle", [1.0])
    m, d = np.meshgrid(np.arange(g) / g, 0.25 * (np.arange(g) + 1.0) / g, indexing="ij")
    t1, t2 = mod1(m - d).ravel(), mod1(m + d).ravel()
    images = _images(c, t1, t2)
    tracemalloc.start()
    try:
        j, _ = _seeds(t1, t2, images, 4.0 * (c.total_length / np.pi) / g, 4.0 / g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(j) == 1_661_184
    assert peak <= 64 << 20


# ----------------------------------------------------------- verify_rectangle

def test_verify_exact_circle_square():
    c = make_preset("circle", [1.0])
    pairs = ((0.0, 0.5), (0.25, 0.75))
    verts = np.stack([c.eval(0.0), c.eval(0.25), c.eval(0.5), c.eval(0.75)])
    w = RectangleWitness(pairs=pairs, vertices=verts,
                         midpoint_residual=0.0, length_residual=0.0)
    report = verify_rectangle(c, w, tol=1e-8)
    assert report.passes
    # midpoint and diagonal-length residuals vanish by symmetry; the vertices
    # are chart points, which the chart zoom evaluates again
    assert report.midpoint_residual < 1e-12
    assert report.length_residual < 1e-12
    assert max(report.vertex_curve_distances) < 1e-15
    assert report.diagonal_angle == pytest.approx(np.pi / 2, abs=1e-9)
    assert all(s == pytest.approx(np.sqrt(2.0), abs=1e-12) for s in report.side_lengths)


def test_verify_detects_perturbation():
    c = make_preset("circle", [1.0])
    t = 0.25 + 1e-3
    verts = np.stack([c.eval(0.0), c.eval(t), c.eval(0.5), c.eval(0.75)])
    w = RectangleWitness(pairs=((0.0, 0.5), (t, 0.75)), vertices=verts,
                         midpoint_residual=0.0, length_residual=0.0)
    report = verify_rectangle(c, w, tol=1e-6)
    assert not report.passes
    # induced chord error is ~ half the moved endpoint displacement
    moved = np.linalg.norm(c.eval(t) - c.eval(0.25))
    assert report.midpoint_residual == pytest.approx(moved / 2, rel=1e-6)


@pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1.0])
def test_verify_rejects_non_positive_or_non_finite_tol(tol):
    # with tol=inf these vertices, nowhere near the unit circle, passed
    c = make_preset("circle", [1.0])
    w = RectangleWitness(pairs=((0.0, 0.5), (0.25, 0.75)),
                         vertices=np.array([(5.0, 5.0), (6.0, 6.0), (7.0, 7.0), (8.0, 9.0)]),
                         midpoint_residual=0.0, length_residual=0.0)
    with pytest.raises(ValueError, match=f"tol must be positive and finite, got {tol!r}"):
        verify_rectangle(c, w, tol=tol)


def test_verify_rejects_coincident_pairs():
    c = make_preset("circle", [1.0])
    verts = np.stack([c.eval(0.0), c.eval(0.0), c.eval(0.5), c.eval(0.5)])
    w = RectangleWitness(pairs=((0.0, 0.5), (0.0, 0.5)), vertices=verts,
                         midpoint_residual=0.0, length_residual=0.0)
    with pytest.raises(ValueError, match="pairs not distinct"):
        verify_rectangle(c, w, tol=1e-6)


def test_verify_rejects_a_witness_without_four_planar_vertices():
    c = make_preset("circle", [1.0])
    w = RectangleWitness(pairs=((0.0, 0.5), (0.25, 0.75)),
                         vertices=c.eval(np.array([0.0, 0.25, 0.5])),
                         midpoint_residual=0.0, length_residual=0.0)
    with pytest.raises(ValueError, match=r"^witness must carry 4 planar vertices, got shape \(3, "):
        verify_rectangle(c, w, tol=1e-6)


def test_verify_measures_polygon_vertices_on_exact_segments():
    # a witness on the L-shaped hexagon with a vertex at (3, 0.99999996),
    # next to the (3, 1) corner that a uniform resample cuts by ~5e-5
    hexagon = load_polyline([(0.0, 0.0), (3.0, 0.0), (3.0, 1.0), (1.0, 1.0),
                             (1.0, 3.0), (0.0, 3.0)])
    pairs = ((0.3304877755613983, 0.9166666701755486),
             (0.33333332982445063, 0.9195122244386009))
    pa, pb = hexagon.eval(np.asarray(pairs[0])), hexagon.eval(np.asarray(pairs[1]))
    verts = np.stack([pa[0], pb[0], pa[1], pb[1]])
    w = RectangleWitness(pairs=pairs, vertices=verts,
                         midpoint_residual=0.0, length_residual=0.0)
    tol = 1e-8
    report = verify_rectangle(hexagon, w, tol=10 * tol)
    assert report.passes
    assert max(report.vertex_curve_distances) < 1e-12

    moved = verts.copy()
    assert moved[1, 0] == 3.0 and 1.0 - moved[1, 1] < 1e-7
    moved[1, 0] += 1e-6                      # off the x = 3 edge, outward
    report = verify_rectangle(hexagon, RectangleWitness(pairs, moved, 0.0, 0.0), tol=10 * tol)
    assert report.vertex_curve_distances[1] == moved[1, 0] - 3.0
    assert not report.passes


def test_witnesses_compare_and_hash_by_identity():
    # the vertex array has no single truth value: the generated __eq__ raised
    # ValueError on two equal witnesses, and the generated __hash__ TypeError
    c = make_preset("circle", (1,))
    w = find_rectangle(c, grid_n=16)
    assert isinstance(w, RectangleWitness)
    assert w == w
    assert (w == find_rectangle(c, grid_n=16)) is False
    assert {w: 1}[w] == 1


_S = 2.0 * np.pi * np.arange(400) / 400
FIGURE_EIGHT = np.stack([np.sin(_S), np.sin(_S) * np.cos(_S)], axis=1)


@pytest.mark.parametrize("vertices", [[(0, 0), (1, 1), (1, 0), (0, 1)], FIGURE_EIGHT],
                         ids=["bow-tie", "figure-eight"])
def test_verify_refuses_a_zero_area_witness_through_a_self_crossing(vertices):
    # on a self-crossing polygon the search returns two vertices at the
    # crossing (bow-tie sides 5.7e-12 and 1.2e-12, figure eight 0 and 2e-15);
    # every residual is within tol, so only the side check refuses them
    curve = load_polyline(vertices)
    w = find_rectangle(curve, grid_n=32, tol=1e-7)
    assert isinstance(w, RectangleWitness)
    report = verify_rectangle(curve, w, tol=1e-9)
    assert max(report.vertex_curve_distances + (report.midpoint_residual,
                                                report.length_residual)) <= 1e-9
    assert min(report.side_lengths) <= 1e-9
    assert not report.passes


def test_verify_side_check_boundary_on_the_circle():
    # a thin inscribed rectangle with short sides 6.3e-4: longer than 1e-6,
    # shorter than 1e-3, and every residual within both
    c = make_preset("circle", [1.0])
    pairs = ((0.1, 0.6), (0.1 + 1e-4, 0.6 + 1e-4))
    verts = np.stack([c.eval(0.1), c.eval(0.1 + 1e-4), c.eval(0.6), c.eval(0.6 + 1e-4)])
    w = RectangleWitness(pairs, verts, 0.0, 0.0)
    fine, coarse = verify_rectangle(c, w, tol=1e-6), verify_rectangle(c, w, tol=1e-3)
    assert fine.passes and not coarse.passes
    assert 1e-6 < min(coarse.side_lengths) < 1e-3
    assert max(coarse.vertex_curve_distances + (coarse.midpoint_residual,
                                                coarse.length_residual)) <= 1e-6


# ---------------------------------------- verify_rectangle against closed forms

def _vertex_distances(curve, verts):
    w = RectangleWitness(pairs=((0.0, 0.5), (0.25, 0.75)), vertices=np.asarray(verts),
                         midpoint_residual=0.0, length_residual=0.0)
    return np.array(verify_rectangle(curve, w, tol=1.0).vertex_curve_distances)


def _ellipse_normals(points, a, b):
    n = points / np.array([a * a, b * b])       # the gradient of x^2/a^2 + y^2/b^2
    return n / np.linalg.norm(n, axis=1)[:, None]


_OFFSET_TS = np.array([0.0, 0.03, 0.11, 0.2, 0.25, 0.37, 0.49, 0.52, 0.66, 0.8, 0.93, 0.999])


@pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("params", [(2.0, 1.0), (100.0, 1.0)])
def test_verify_reads_ellipse_normal_offsets(params, eps):
    # a chart point moved eps along the analytic normal, outward and inward,
    # lies eps from the ellipse; the chord resample read 8e-10 at eps = 1e-12
    c = make_preset("ellipse", params)
    p = c.eval(_OFFSET_TS)
    n = _ellipse_normals(p, *params)
    for sign in (1.0, -1.0):
        v = p + sign * eps * n
        d = np.concatenate([_vertex_distances(c, v[k:k + 4]) for k in range(0, len(v), 4)])
        assert np.max(np.abs(d - eps)) <= 2 * np.spacing(max(params))


@pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("params, ts", [
    ((2.0, 1.0, 4.0), _OFFSET_TS),
    # the flanks of (1, 1, 0.5) are concave; its tips (t = 0, 1/4, ...) are cusps
    ((1.0, 1.0, 0.5), np.array([0.07, 0.1, 0.125, 0.15, 0.18, 0.32,
                                0.375, 0.43, 0.6, 0.625, 0.85, 0.9])),
])
def test_verify_reads_superellipse_normal_offsets(params, ts, eps):
    c = make_preset("superellipse", params)
    p = c.eval(ts)
    tangent = c.eval(ts + 1e-6) - c.eval(ts - 1e-6)
    n = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1)
    n /= np.linalg.norm(n, axis=1)[:, None]
    for sign in (1.0, -1.0):
        v = p + sign * eps * n
        d = np.concatenate([_vertex_distances(c, v[k:k + 4]) for k in range(0, len(v), 4)])
        assert np.max(np.abs(d - eps)) <= 2 * np.spacing(max(params[:2]))


def test_verify_circle_distances_bound_the_exact_distance_from_above():
    # every distance is attained by a chart point, so it never reads below the
    # exact distance | |v| - r | by more than the chart's own rounding; a chord
    # resample undershot inside points by up to its sagitta (1.2e-9)
    c = make_preset("circle", [1.0])
    rng = np.random.default_rng(7)
    for _ in range(50):
        offset = 10.0 ** rng.uniform(-12.0, -1.0, 4) * rng.choice([-1.0, 1.0], 4)
        phase = rng.uniform(0.0, 2.0 * np.pi, 4)
        v = (1.0 + offset)[:, None] * np.stack([np.cos(phase), np.sin(phase)], axis=1)
        exact = np.abs(np.hypot(v[:, 0], v[:, 1]) - 1.0)
        d = _vertex_distances(c, v)
        assert np.all(d >= exact - 2 * np.spacing(1.0))
        assert np.all(d <= exact + 2 * np.spacing(1.0))


def test_verify_rejects_a_vertex_1e12_off_the_curve():
    c = make_preset("ellipse", [2.0, 1.0])
    w = find_rectangle(c, grid_n=64, tol=1e-12)
    assert verify_rectangle(c, w, tol=1e-13).passes
    moved = w.vertices.copy()
    moved[0] += 1e-12 * _ellipse_normals(moved[:1], 2.0, 1.0)[0]
    report = verify_rectangle(c, RectangleWitness(w.pairs, moved, 0.0, 0.0), tol=1e-13)
    assert not report.passes
    assert report.vertex_curve_distances[0] == pytest.approx(1e-12, abs=2 * np.spacing(2.0))


def test_verify_preset_peak_memory():
    # the chord resample built (4, 65536, 2) arrays: 20 MiB per call
    c = make_preset("ellipse", [2.0, 1.0])
    w = find_rectangle(c, grid_n=64, tol=1e-9)
    verify_rectangle(c, w, tol=1e-8)
    tracemalloc.start()
    try:
        verify_rectangle(c, w, tol=1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
