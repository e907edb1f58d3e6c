"""Curve construction and evaluation against full-array references.

The evaluation reference is evaluation written out plainly: ``np.mod`` for
the reduction to [0, 1), ``searchsorted`` for a preset's quadrant, the
distance to the nearest even integer for the fold onto its first quadrant,
``searchsorted`` over the arc table for the inversion and the polyline
segment search, and a preset's raw parameter interpolated between
``np.linspace`` knots. ``t - floor(t)``, the quadrant tables and the knots
derived from the segment index must give the same bits on every input.

The construction reference builds each arc-table level of the first quadrant
from whole arrays (``np.linspace`` knots on [0, 1/4], one ``np.cumsum``) and
multiplies its length by 4. The streamed builders must return the same table,
perimeter and refinement level, byte for byte.
"""
import dataclasses
import tracemalloc

import numpy as np
import pytest

from loopsurf import curves
from loopsurf.curves import (_lengths, _locate, _raw_point, _segment_lengths,
                             load_polyline, make_preset, mod1)


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
    if curve.kind == "circle":
        return _raw_point(curve.kind, curve.params, t)
    # quadrant q mirrors the first: x in quadrants 1 and 2, y in 2 and 3. The
    # arc fraction along the first is 4t's distance to the nearest even
    # integer, so odd quadrants run from its far end
    q = np.searchsorted([0.25, 0.5, 0.75], t, side="right")
    f = np.abs(4.0 * t - 2.0 * np.round(2.0 * t))
    knots = np.linspace(0.0, 0.25, len(curve.arc_table))
    idx, frac = _locate_reference(curve.arc_table, f * (curve.total_length / 4.0))
    s = knots[idx] + frac * (knots[idx + 1] - knots[idx])
    sx = np.where((q == 1) | (q == 2), -1.0, 1.0)
    sy = np.where(q >= 2, -1.0, 1.0)
    return _raw_point(curve.kind, curve.params, s) * np.stack([sx, sy], axis=-1)


def _table_at_reference(kind, params, n):
    knots = np.linspace(0.0, 0.25, n + 1)
    table = np.concatenate([[0.0], np.cumsum(_segment_lengths(_raw_point(kind, params, knots)))])
    return table, curves._perimeter(table)


def _build_arc_table_reference(kind, params):
    n = curves._TABLE_START
    prev = None
    while True:
        table, total = _table_at_reference(kind, params, n)
        if prev is not None and abs(total - prev) < curves._TABLE_RTOL * total:
            break
        if n >= curves._TABLE_CAP:
            break
        prev = total
        n *= 2
    if n * 4 <= curves._TABLE_CAP:
        table, total = _table_at_reference(kind, params, n * 4)
    if np.any(np.diff(table) <= 0.0):
        raise ValueError("degenerate curve: arc table is not strictly increasing")
    return table, 4.0 * total


def _assert_same_bytes(got, want):
    # equal table shapes are the same refinement level
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


ARC_TABLE_PRESETS = {
    "ellipse-2x1": ("ellipse", (2.0, 1.0)),
    "ellipse-10x1": ("ellipse", (10.0, 1.0)),
    "ellipse-100x1": ("ellipse", (100.0, 1.0)),
    "superellipse-2x1p4": ("superellipse", (2.0, 1.0, 4.0)),
    "superellipse-1x1p0.5": ("superellipse", (1.0, 1.0, 0.5)),     # 524,289 entries
    "superellipse-1x1p20": ("superellipse", (1.0, 1.0, 20.0)),
    "ellipse-2x1-scale1e-150": ("ellipse", (2e-150, 1e-150)),
    "ellipse-2x1-scale1e150": ("ellipse", (2e150, 1e150)),
}


@pytest.mark.parametrize("kind, params", list(ARC_TABLE_PRESETS.values()),
                         ids=list(ARC_TABLE_PRESETS))
def test_streamed_arc_table_matches_full_array(kind, params):
    want = _build_arc_table_reference(kind, params)
    curve = make_preset(kind, params)
    _assert_same_bytes((curve.arc_table, curve.total_length), want)
    # eval derives knot i as i / (4n) exactly, which needs n a power of two
    n = len(curve.arc_table) - 1
    assert n & (n - 1) == 0


@pytest.mark.parametrize("cap", [1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 19])
@pytest.mark.parametrize("chunk", [1 << 15, 1000])
@pytest.mark.parametrize("kind, params", [("ellipse", (10.0, 1.0)),
                                          ("superellipse", (1.0, 1.0, 0.5))],
                         ids=["ellipse-10x1", "superellipse-1x1p0.5"])
def test_capped_arc_table_matches_full_array(monkeypatch, kind, params, cap, chunk):
    # cap counts the knots of the whole period, four per quarter knot. Up to
    # 2^13 the cap stops the refinement before it converges; at 2^19 both
    # curves converge with 4n past the cap and keep the converged level.
    # Chunks of 1000 knots end off every power-of-two boundary
    monkeypatch.setattr(curves, "_TABLE_CAP", cap // 4)
    monkeypatch.setattr(curves, "_CHUNK", chunk)
    want = _build_arc_table_reference(kind, params)
    assert len(want[0]) - 1 <= cap // 4
    _assert_same_bytes(curves._build_arc_table(kind, params), want)
    curve = make_preset(kind, params)
    t = np.concatenate([np.random.default_rng(17).uniform(0.0, 1.0, 1 << 14),
                        ((want[0] / want[1])[:, None] + np.arange(4) / 4.0).ravel(),
                        0.5 - want[0] / want[1]])
    assert curve.eval(t).tobytes() == _eval_reference(curve, t).tobytes()


@pytest.mark.parametrize("kind, params, match", [
    ("ellipse", (1e200, 1e200), "perimeter is not finite"),
    ("ellipse", (1e300, 1.0), "perimeter is not finite"),
    ("superellipse", (1.0, 1.0, 0.01), "degenerate curve"),
], ids=["ellipse-1e200", "ellipse-1e300x1", "superellipse-1x1p0.01"])
def test_arc_table_errors_match_full_array(kind, params, match):
    with pytest.raises(ValueError, match=match) as want:
        _build_arc_table_reference(kind, params)
    with pytest.raises(ValueError, match=match) as got:
        curves._build_arc_table(kind, params)
    assert str(got.value) == str(want.value)


def test_build_and_index_peak_memory():
    # numpy reports its buffers to tracemalloc: the build holds little more
    # than the table it keeps, and the table is all a preset keeps: for
    # this, the largest preset table, 524,289 entries over one quadrant
    tracemalloc.start()
    try:
        curve = make_preset("superellipse", (1.0, 1.0, 0.5))
        build_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert build_peak <= 1.25 * curve.arc_table.nbytes
    assert curve.arc_table.nbytes <= 4.2e6
    arrays = [f.name for f in dataclasses.fields(curve)
              if isinstance(getattr(curve, f.name), np.ndarray)]
    assert arrays == ["arc_table"]


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
    idx, frac = _locate(table, targets)
    want_idx, want_frac = _locate_reference(table, targets)
    assert np.array_equal(idx, want_idx)
    assert frac.tobytes() == want_frac.tobytes()


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
        pts = _raw_point(curve.kind, curve.params, np.linspace(0.0, 0.25, len(curve.arc_table)))
    else:
        pts = np.vstack([curve.vertices, curve.vertices[:1]])
    want = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    assert _segment_lengths(pts).tobytes() == want.tobytes()


def test_segment_lengths_match_norm_across_scales():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((4096, 2)) * 10.0 ** rng.uniform(-150.0, 150.0, (4096, 1))
    want = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    assert _segment_lengths(pts).tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(4096, 2), (4096, 3), (64, 4, 2, 2)])
def test_lengths_match_norm(shape):
    # the chord lengths of the rectangle search (k = 2) and the distances of
    # its chord images (k = 3), across magnitudes
    rng = np.random.default_rng(11)
    v = rng.standard_normal(shape) * 10.0 ** rng.uniform(-150.0, 150.0, shape[:-1] + (1,))
    assert _lengths(v).tobytes() == np.linalg.norm(v, axis=-1).tobytes()


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
