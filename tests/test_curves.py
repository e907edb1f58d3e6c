import io

import numpy as np
import pytest

from loopsurf.curves import from_spec, load_polyline, load_polyline_csv, make_preset

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
