import numpy as np
import pytest

from loopsurf.curves import load_polyline, make_preset
from loopsurf.inscribed import (
    NotFound,
    RectangleWitness,
    _images,
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


def test_aspect_preference_best_effort():
    c = make_preset("circle", [1.0])
    w = find_rectangle(c, grid_n=48, tol=1e-9, aspect=1.0)
    assert isinstance(w, RectangleWitness)
    s1 = np.linalg.norm(w.vertices[1] - w.vertices[0])
    s2 = np.linalg.norm(w.vertices[2] - w.vertices[1])
    assert min(s1, s2) / max(s1, s2) > 0.6
    with pytest.raises(ValueError, match="aspect"):
        find_rectangle(c, grid_n=32, tol=1e-6, aspect=2.0)


def test_aspect_preference_deterministic():
    tri = load_polyline([(0.0, 0.0), (4.0, 0.0), (1.0, 3.0)])
    w1 = find_rectangle(tri, grid_n=48, tol=1e-7, aspect=0.5)
    w2 = find_rectangle(tri, grid_n=48, tol=1e-7, aspect=0.5)
    assert isinstance(w1, RectangleWitness)
    assert w1.pairs == w2.pairs


def test_not_found_is_data_with_best_residual():
    c = make_preset("circle", [1.0])
    # an oversized separation requirement suppresses every candidate
    res = find_rectangle(c, grid_n=16, tol=1e-12, min_separation=0.69)
    assert isinstance(res, NotFound)
    assert res.best_residual is None or np.isfinite(res.best_residual)


def test_soundness_witness_passes_at_10x_tol():
    for curve, tol in ((make_preset("circle", [1.0]), 1e-9),
                       (make_preset("ellipse", [2.0, 1.0]), 1e-8),
                       (load_polyline([(0, 0), (4, 0), (1, 3)]), 1e-7)):
        w = find_rectangle(curve, grid_n=64, tol=tol)
        assert isinstance(w, RectangleWitness)
        assert verify_rectangle(curve, w, tol=10 * tol).passes


def test_rigid_motion_equivariance():
    quad = np.array([(0.0, 0.0), (4.0, 0.0), (5.0, 2.0), (1.0, 3.0)])
    base = find_rectangle(load_polyline(quad), grid_n=48, tol=1e-7)
    assert isinstance(base, RectangleWitness)
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = quad @ rot.T + np.array([3.0, -2.0])
    out = find_rectangle(load_polyline(moved), grid_n=48, tol=1e-7)
    assert isinstance(out, RectangleWitness)
    for (p, q) in zip(np.ravel(base.pairs), np.ravel(out.pairs)):
        assert abs(p - q) < 1e-9
    want = base.vertices @ rot.T + np.array([3.0, -2.0])
    assert np.max(np.abs(want - out.vertices)) < 1e-9


# ----------------------------------------------------------- verify_rectangle

def test_verify_exact_circle_square():
    c = make_preset("circle", [1.0])
    pairs = ((0.0, 0.5), (0.25, 0.75))
    verts = np.stack([c.eval(0.0), c.eval(0.25), c.eval(0.5), c.eval(0.75)])
    w = RectangleWitness(pairs=pairs, vertices=verts,
                         midpoint_residual=0.0, length_residual=0.0)
    report = verify_rectangle(c, w, tol=1e-8)
    assert report.passes
    # midpoint and diagonal-length residuals vanish by symmetry; the vertex
    # distance bottoms out at the resampling sagitta
    assert report.midpoint_residual < 1e-12
    assert report.length_residual < 1e-12
    assert max(report.vertex_curve_distances) < 5e-9
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


def test_verify_rejects_coincident_pairs():
    c = make_preset("circle", [1.0])
    verts = np.stack([c.eval(0.0), c.eval(0.0), c.eval(0.5), c.eval(0.5)])
    w = RectangleWitness(pairs=((0.0, 0.5), (0.0, 0.5)), vertices=verts,
                         midpoint_residual=0.0, length_residual=0.0)
    with pytest.raises(ValueError, match="pairs not distinct"):
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
