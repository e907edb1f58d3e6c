"""Curve evaluation against the binary-search reference.

The reference is evaluation as first written: ``np.mod`` for the reduction
to [0, 1) and ``searchsorted`` over the arc table for the inversion and the
polyline segment search. The bucket lookup and ``t - floor(t)`` must return
the same index and the same bits on every input.
"""
import numpy as np
import pytest

from loopsurf.curves import (_locate, _raw_point, _segment_lengths, load_polyline, make_preset,
                             mod1)


def _mod1_reference(t):
    r = np.mod(t, 1.0)
    return np.where(r >= 1.0, 0.0, r)


def _locate_reference(table, target):
    idx = np.clip(np.searchsorted(table, target, side="right") - 1, 0, len(table) - 2)
    return idx, (target - table[idx]) / (table[idx + 1] - table[idx])


def _eval_reference(curve, t):
    t = _mod1_reference(np.asarray(t, dtype=float))
    if curve.kind == "polyline":
        total = curve.arc_table[-1]
        idx, frac = _locate_reference(curve.arc_table, np.clip(t * total, 0.0, total))
        closed = np.vstack([curve.vertices, curve.vertices[:1]])
        return closed[idx] + frac[..., None] * (closed[idx + 1] - closed[idx])
    s = t
    if not curve.uniform_speed:
        idx, frac = _locate_reference(curve.arc_table, t * curve.total_length)
        s = curve.raw_knots[idx] + frac * (curve.raw_knots[idx + 1] - curve.raw_knots[idx])
    return _raw_point(curve.kind, curve.params, s)


CURVES = {
    "ellipse-2x1": lambda: make_preset("ellipse", (2.0, 1.0)),
    "ellipse-100x1": lambda: make_preset("ellipse", (100.0, 1.0)),
    "superellipse-2x1p4": lambda: make_preset("superellipse", (2.0, 1.0, 4.0)),
    "superellipse-1x1p0.5": lambda: make_preset("superellipse", (1.0, 1.0, 0.5)),
    "triangle": lambda: load_polyline([(0.0, 0.0), (4.0, 0.0), (1.0, 3.0)]),
    "l-hexagon": lambda: load_polyline([(0.0, 0.0), (3.0, 0.0), (3.0, 1.0), (1.0, 1.0),
                                        (1.0, 3.0), (0.0, 3.0)]),
}


@pytest.fixture(scope="module", params=sorted(CURVES))
def curve(request):
    return CURVES[request.param]()


def test_locate_matches_binary_search(curve):
    table, total = curve.arc_table, curve.total_length
    rng = np.random.default_rng(7)
    targets = np.concatenate([
        rng.uniform(0.0, total, 1 << 18),
        table, np.nextafter(table, -np.inf), np.nextafter(table, np.inf),
        [0.0, -0.0, np.nextafter(total, 0.0), -1.0, 2.0 * total, np.inf, -np.inf, np.nan],
    ])
    idx, frac = _locate(table, curve._index, targets)
    want_idx, want_frac = _locate_reference(table, targets)
    assert np.array_equal(idx, want_idx)
    assert frac.tobytes() == want_frac.tobytes()
    # the bucket index takes at most 4 MB per 1M-entry table
    assert curve._index[0].nbytes <= 4e6 * len(table) / 2 ** 20


def test_eval_matches_reference(curve):
    special = [0.0, -0.0, -1e-17, 1.0 - 1e-16, 1.0, 0.5, np.nan, np.inf, -np.inf]
    t = np.concatenate([np.random.default_rng(11).uniform(-2.0, 3.0, 1 << 16), special])
    with np.errstate(invalid="ignore"):          # inf has no fractional part
        assert curve.eval(t).tobytes() == _eval_reference(curve, t).tobytes()
        for x in special:
            assert curve.eval(x).tobytes() == _eval_reference(curve, x).tobytes()


def test_segment_lengths_match_norm(curve):
    # the arc tables are built from these lengths, so they keep norm's bits
    if curve.vertices is None:
        pts = _raw_point(curve.kind, curve.params, curve.raw_knots)
    else:
        pts = np.vstack([curve.vertices, curve.vertices[:1]])
    want = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    assert _segment_lengths(pts).tobytes() == want.tobytes()


def test_segment_lengths_match_norm_across_scales():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((4096, 2)) * 10.0 ** rng.uniform(-150.0, 150.0, (4096, 1))
    want = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    assert _segment_lengths(pts).tobytes() == want.tobytes()


def test_circle_eval_matches_reference():
    circle = make_preset("circle", (1.5,))
    t = np.random.default_rng(5).uniform(-2.0, 3.0, 1 << 12)
    assert circle.eval(t).tobytes() == _eval_reference(circle, t).tobytes()


def test_mod1_matches_np_mod():
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-17, -1e-17, 1.0 + 1e-16, 1.0 - 1e-16,
                        -1.0 + 1e-16, -1.0 - 1e-16, 1e300, -1e300, 2.0 ** 53, -2.0 ** 53])
    rng = np.random.default_rng(13)
    scaled = rng.standard_normal(10 ** 6) * 10.0 ** rng.uniform(-20.0, 20.0, 10 ** 6)
    for t in (special, scaled):
        assert mod1(t).tobytes() == _mod1_reference(t).tobytes()
    for x in special:
        assert mod1(float(x)).tobytes() == _mod1_reference(float(x)).tobytes()
