import io

import numpy as np
import pytest
from scipy.special import ellipe, ellipeinc

from loopsurf.curves import ClosedCurve, from_spec, load_polyline, load_polyline_csv, make_preset

# Independent oracle (adaptive quadrature of the ellipse speed integrand,
# cross-checked against 4*a*E(1 - b^2/a^2)):
ELLIPSE_2_1_PERIMETER = 9.688448220547675


def test_circle_start_convention():
    c = make_preset("circle", [1.0])
    assert np.allclose(c.eval(0.0), [1.0, 0.0], atol=0.0)


def test_circle_quarter_arc():
    c = make_preset("circle", [1.0])
    assert np.linalg.norm(c.eval(0.25) - np.array([0.0, 1.0])) < 1e-12


def test_circle_half_arc():
    c = make_preset("circle", [2.0])
    assert np.linalg.norm(c.eval(0.5) - np.array([-2.0, 0.0])) < 1e-12


def test_ellipse_total_length_matches_quadrature_oracle():
    c = make_preset("ellipse", [2.0, 1.0])
    assert abs(c.total_length - ELLIPSE_2_1_PERIMETER) < 1e-9 * ELLIPSE_2_1_PERIMETER


def test_ellipse_quarter_point_near_minor_axis():
    # by symmetry the quarter-perimeter point is (0, 1); the arc-length table
    # inversion is the piece under test
    c = make_preset("ellipse", [2.0, 1.0])
    p = c.eval(0.25)
    assert abs(p[0]) < 1e-6
    assert abs(p[1] - 1.0) < 1e-6


def test_unit_square_perimeter():
    sq = load_polyline([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert sq.total_length == 4.0


def test_unit_square_first_side_midpoint():
    sq = load_polyline([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert np.array_equal(sq.eval(0.125), np.array([0.5, 0.0]))


def test_polyline_periodic_continuity():
    sq = load_polyline([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert np.linalg.norm(sq.eval(0.999) - np.array([0.0, 0.0])) < 0.01
    assert np.linalg.norm(sq.eval(0.001) - np.array([0.0, 0.0])) < 0.01


def test_polyline_too_few_vertices():
    with pytest.raises(ValueError, match="degenerate polygon"):
        load_polyline([(0, 0), (1, 0)])


def test_polyline_records_and_sample_count():
    with pytest.raises(ValueError, match=r"^expected \(k, 2\) vertex records, got shape \(3, 3\)$"):
        load_polyline(np.eye(3))
    tri = load_polyline([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(ValueError, match="^sample count must be >= 1$"):
        tri.sample(0)
    with pytest.raises(ValueError, match=r"^sample count must be an integer, got 2\.5$"):
        tri.sample(2.5)
    assert tri.sample(np.int64(3)).shape == (3, 2)


def test_polyline_duplicate_vertex():
    with pytest.raises(ValueError, match="zero-length segment"):
        load_polyline([(0, 0), (0, 0), (1, 1)])


def test_polyline_closing_duplicate():
    with pytest.raises(ValueError, match="zero-length segment"):
        load_polyline([(0, 0), (1, 0), (1, 1), (0, 0)])


def test_polyline_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        load_polyline([(0, 0), (np.nan, 1), (1, 1)])


@pytest.mark.parametrize("build", [
    lambda: make_preset("ellipse", (1e300, 1)),
    lambda: make_preset("ellipse", (1e200, 1e200)),
    lambda: load_polyline([(0, 0), (1e300, 0), (0, 1e300)]),
], ids=["ellipse-1e300x1", "ellipse-1e200x1e200", "polyline-1e300"])
def test_overflowing_perimeter_rejected(build):
    # each chord length squares past the float64 range, so the arc table
    # would end in inf and eval would give NaN
    with pytest.raises(ValueError, match="perimeter is not finite"):
        build()


def test_unknown_preset():
    with pytest.raises(ValueError, match="unknown preset"):
        make_preset("astroid", [1.0])
    # a hand-built curve of a kind no preset has reaches the chart's own check
    spiral = ClosedCurve("spiral", (1.0,), None, np.array([0.0, 1.0]), 1.0)
    with pytest.raises(ValueError, match="^unknown curve kind 'spiral'$"):
        spiral.eval(0.3)


def test_non_positive_parameter():
    with pytest.raises(ValueError, match="positive"):
        make_preset("ellipse", [2.0, -1.0])


def test_wrong_arity():
    with pytest.raises(ValueError, match="parameter"):
        make_preset("circle", [1.0, 2.0])


def test_superellipse_reduces_to_ellipse_at_p2():
    se = make_preset("superellipse", [2.0, 1.0, 2.0])
    el = make_preset("ellipse", [2.0, 1.0])
    for t in (0.0, 0.1, 0.37, 0.5, 0.9):
        assert np.linalg.norm(se.eval(t) - el.eval(t)) < 1e-9


def test_periodicity_exact_on_representable_translates():
    # dyadic samples so that t+1 and t-1 are exactly representable
    rng = np.random.default_rng(7)
    t = rng.integers(0, 1 << 32, size=500) / float(1 << 32)
    for curve in (make_preset("circle", [1.5]),
                  make_preset("ellipse", [2.0, 1.0]),
                  load_polyline([(0, 0), (3, 0), (2, 2)])):
        a = curve.eval(t)
        assert np.array_equal(a, curve.eval(t + 1.0))
        assert np.array_equal(a, curve.eval(t - 1.0))


TABLE_PRESETS = {"ellipse-2x1": ("ellipse", (2.0, 1.0)),
                 "ellipse-1x3": ("ellipse", (1.0, 3.0)),
                 "ellipse-100x1": ("ellipse", (100.0, 1.0)),
                 "superellipse-2x1p4": ("superellipse", (2.0, 1.0, 4.0)),
                 "superellipse-1x1p0.5": ("superellipse", (1.0, 1.0, 0.5)),
                 "superellipse-3x2p20": ("superellipse", (3.0, 2.0, 20.0))}


@pytest.mark.parametrize("kind, params", list(TABLE_PRESETS.values()), ids=list(TABLE_PRESETS))
def test_preset_quarter_points_are_its_axis_crossings(kind, params):
    # the quarter table ends exactly on its corners; cos(pi / 2) = 6e-17
    # would put the superellipse (2, 1, 4) corner at x = 1.6e-8
    a, b = params[:2]
    got = make_preset(kind, params).eval(np.array([0.0, 0.25, 0.5, 0.75]))
    assert np.array_equal(got, [[a, 0.0], [0.0, b], [-a, 0.0], [0.0, -b]])


@pytest.mark.parametrize("kind, params", list(TABLE_PRESETS.values()), ids=list(TABLE_PRESETS))
def test_preset_reflections_exact_on_dyadic_t(kind, params):
    # the four quadrants are one table's reflections: the half turn is
    # central symmetry, and t -> 1/2 - t mirrors x (zeros may change sign)
    curve = make_preset(kind, params)
    t = np.random.default_rng(19).integers(0, 1 << 32, size=2000) / float(1 << 32)
    p = curve.eval(t)
    assert np.array_equal(curve.eval(t + 0.5), -p)
    assert np.array_equal(curve.eval(0.5 - t), p * [-1.0, 1.0])


def _ellipse_arc(a, b, theta):
    """Arc length of (a cos u, b sin u) for u from 0 to theta in [0, pi/2], and
    the perimeter, through the complete and incomplete elliptic integrals."""
    if a >= b:
        m = 1.0 - (b / a) ** 2
        return a * (ellipe(m) - ellipeinc(np.pi / 2.0 - theta, m)), 4.0 * a * ellipe(m)
    m = 1.0 - (a / b) ** 2
    return b * ellipeinc(theta, m), 4.0 * b * ellipe(m)


@pytest.mark.parametrize("a, b", [(2.0, 1.0), (1.0, 3.0), (1.2, 1.0), (10.0, 1.0), (100.0, 1.0)])
def test_ellipse_quarter_table_matches_elliptic_integrals(a, b):
    # the table is an inscribed chord polygon: never longer than the arc
    # (measured: 1.5e-12 of the perimeter short, entries at most 3.8e-13)
    curve = make_preset("ellipse", (a, b))
    n = len(curve.arc_table) - 1
    want, perimeter = _ellipse_arc(a, b, 2.0 * np.pi * (np.arange(n + 1) / (4.0 * n)))
    assert perimeter - 1e-10 * perimeter <= curve.total_length <= perimeter
    assert np.all(np.abs(curve.arc_table - want) <= 1e-12 * perimeter)
    assert np.all(curve.arc_table <= want + 1e-16 * perimeter)


@pytest.mark.parametrize("spec", ["circle:1.5", "ellipse:2,1", "superellipse:2,1,4"])
def test_arc_length_proportionality(spec):
    # Dense chord sums with Richardson extrapolation as the length oracle:
    # the arc between t1 and t2 must be (t2-t1) * total_length.
    curve = from_spec(spec)
    rng = np.random.default_rng(3)
    for _ in range(5):
        t1, t2 = np.sort(rng.random(2))
        k = 4096
        def chord_sum(m):
            ts = np.linspace(t1, t2, m + 1)
            pts = curve.eval(ts)
            return np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1))
        s1, s2 = chord_sum(k), chord_sum(2 * k)
        arc = (4.0 * s2 - s1) / 3.0
        assert abs(arc - (t2 - t1) * curve.total_length) < 1e-9 * curve.total_length


def test_circle_radius_invariant():
    c = make_preset("circle", [1.7])
    t = np.random.default_rng(0).random(1000)
    assert np.all(np.abs(np.linalg.norm(c.eval(t), axis=1) - 1.7) < 1e-12)


def test_arc_table_monotone():
    for curve in (make_preset("ellipse", [2.0, 1.0]),
                  make_preset("superellipse", [1.0, 1.0, 4.0]),
                  load_polyline([(0, 0), (1, 0), (0, 1)])):
        assert np.all(np.diff(curve.arc_table) > 0)
        assert curve.total_length > 0


def test_curves_compare_and_hash_by_identity():
    # array fields have no single truth value, so equality is identity
    for build in (lambda: make_preset("circle", (1,)),
                  lambda: load_polyline([(0, 0), (1, 0), (0, 1)])):
        c = build()
        assert c == c
        assert (c == build()) is False
        assert {c: 1}[c] == 1


def test_csv_roundtrip_with_header():
    text = "x,y\n0,0\n4,0\n1,3\n"
    curve = load_polyline_csv(io.StringIO(text))
    assert curve.vertices.shape == (3, 2)
    assert curve.total_length == pytest.approx(4 + np.sqrt(18) + np.sqrt(10))


def test_csv_without_header():
    curve = load_polyline_csv(io.StringIO("0,0\n2,0\n2,2\n0,2\n"))
    assert curve.total_length == 8.0


def test_csv_bad_line():
    with pytest.raises(ValueError, match="line 2"):
        load_polyline_csv(io.StringIO("0,0\n1;2\n3,4\n"))
    # a blank line is skipped, but counted
    with pytest.raises(ValueError, match="^line 3: non-numeric coordinate in '1,a'$"):
        load_polyline_csv(io.StringIO("0,0\n\n1,a\n3,4\n"))


def test_csv_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        load_polyline_csv(io.StringIO("0,0\ninf,2\n3,4\n"))


def test_from_spec_errors():
    with pytest.raises(ValueError, match="malformed curve spec"):
        from_spec("circle")
    with pytest.raises(ValueError, match="unknown curve spec kind"):
        from_spec("square:1")
    with pytest.raises(ValueError, match="malformed parameters"):
        from_spec("ellipse:2,a")


def test_eval_vectorized_matches_scalar():
    c = make_preset("ellipse", [2.0, 1.0])
    ts = np.array([0.0, 0.2, 0.5, 0.77])
    batch = c.eval(ts)
    for i, t in enumerate(ts):
        assert np.array_equal(batch[i], c.eval(t))
