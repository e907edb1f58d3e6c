"""Closed planar curves with normalized arc-length parameterization.

A curve is evaluated at t in [0,1), where t is the fraction of total
perimeter travelled from the start point. Presets (circle, ellipse,
superellipse) start on the positive horizontal axis of their own frame;
polylines start at their first vertex.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

PRESET_NAMES = ("circle", "ellipse", "superellipse")

# arc-table refinement in quarter knots: start size, relative convergence target, cap, chunk
_TABLE_START = 256
_TABLE_RTOL = 1e-10
_TABLE_CAP = 1 << 20
_CHUNK = 1 << 13
# quadrant q of u = 4t, past these starts, mirrors a preset's first-quadrant table by these
# signs, running it from the even integer nearest u
_QUADRANT_STARTS = np.array([1.0, 2.0, 3.0])
_QUADRANT_FOLDS = np.array([0.0, 2.0, 2.0, 4.0])
_QUADRANT_SIGNS = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


def mod1(t):
    """Reduce to [0, 1). Works on scalars and arrays; -1e-17 maps to 0, not 1.
    ``t - floor(t)`` rounds the exact fraction once, so it has np.mod's bits."""
    r = t - np.floor(t)
    return np.where(r >= 1.0, 0.0, r)


def _locate(table, target):
    """Segment index into the increasing table holding each target, and the
    target's linear fraction along that segment. The index is the number of
    entries after the first that the target reaches (NaN reaches all, as it
    sorts last), capped at the last segment."""
    idx = np.minimum(np.maximum(table.searchsorted(target, "right") - 1, 0), len(table) - 2)
    return idx, (target - table[idx]) / (table[idx + 1] - table[idx])


def _raw_point(kind, params, s):
    """A preset's underlying chart at raw parameter s: the circle's in [0, 1], the others' first
    quadrant in [0, 1/4], with cos(2 pi s) as sin(2 pi (1/4 - s)): cos(pi / 2) is 6e-17, not 0."""
    s = np.asarray(s, dtype=float)
    if kind == "circle":
        (r,) = params
        th = 2.0 * np.pi * s
        return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
    c, sn = np.sin(2.0 * np.pi * (0.25 - s)), np.sin(2.0 * np.pi * s)
    if kind == "ellipse":
        a, b = params
        return np.stack([a * c, b * sn], axis=-1)
    if kind == "superellipse":
        a, b, p = params
        return np.stack([a * c ** (2.0 / p), b * sn ** (2.0 / p)], axis=-1)
    raise ValueError(f"unknown curve kind {kind!r}")


@dataclass(frozen=True, eq=False)
class ClosedCurve:
    """A closed planar curve, immutable after construction. Curves compare
    and hash by identity, as their array fields have no single truth value.

    Attributes
    ----------
    kind : str
        One of ``circle``, ``ellipse``, ``superellipse``, ``polyline``.
    params : tuple
        Preset shape parameters; empty for polylines.
    vertices : np.ndarray or None
        Polyline vertices (k, 2), closing segment implicit; None for presets.
    arc_table : np.ndarray
        Strictly increasing cumulative lengths: of a polyline at its vertices;
        of an ellipse or superellipse over its chart's first quadrant, which both
        axes mirror, at the knots i / (4n), i = 0..n, n a power of two; the
        circle keeps [0, perimeter] only.
    total_length : float
        Curve perimeter, same units as the coordinates.

    The knots are not kept: with n a power of two, knot i is exactly
    ``i * (1 / (4n))``, and so is the gap to the next knot. A preset keeps 8
    bytes per table entry (4.2 MB at 2^19 entries, the largest preset table).
    """

    kind: str
    params: tuple
    vertices: np.ndarray | None
    arc_table: np.ndarray
    total_length: float

    def eval(self, t):
        """Point on the curve at normalized arc length ``t`` (1-periodic).

        Accepts a scalar or an array; returns shape (..., 2).
        """
        t = mod1(np.asarray(t, dtype=float))
        if self.kind == "circle":          # the angle fraction is the arc fraction
            return _raw_point(self.kind, self.params, t)
        if self.vertices is not None:                        # polyline: along the segment
            idx, frac = _locate(self.arc_table, t * self.total_length)
            lo = self.vertices[idx]
            return lo + frac[..., None] * (self.vertices.take(idx + 1, axis=0, mode="wrap") - lo)
        # fold onto the first quadrant: odd quadrants run it backwards (NaN lands in the last)
        u = 4.0 * t
        q = _QUADRANT_STARTS.searchsorted(u, "right")
        f = np.abs(u - _QUADRANT_FOLDS.take(q))            # exact, 1 - (u - q) when q is odd
        idx, frac = _locate(self.arc_table, f * self.arc_table[-1])
        s = (idx + frac) * (0.25 / (len(self.arc_table) - 1))      # knot spacing, a power of two
        return _raw_point(self.kind, self.params, s) * _QUADRANT_SIGNS.take(q, axis=0)

    def sample(self, n):
        """n points at t = 0, 1/n, ..., (n-1)/n."""
        if not isinstance(n, numbers.Integral):
            raise ValueError(f"sample count must be an integer, got {n!r}")
        if n < 1:
            raise ValueError("sample count must be >= 1")
        return self.eval(np.arange(n) / float(n))


def _perimeter(table):
    """Last entry of an arc table, the length it spans; ValueError when a
    length overflowed to inf."""
    total = float(table[-1])
    if not np.isfinite(total):
        raise ValueError(f"perimeter is not finite, got {total}: the curve is too large")
    return total


def _lengths(v):
    """Lengths of the vectors v (..., k) for small k: the squares summed in
    np.linalg.norm(axis=-1)'s order, so with its bits, without its strided
    reduction."""
    sq = v[..., 0] * v[..., 0]
    for k in range(1, v.shape[-1]):
        sq += v[..., k] * v[..., k]
    return np.sqrt(sq)


def _segment_lengths(points):
    """Lengths of the segments between points (k, 2); inf past the float64 range."""
    with np.errstate(over="ignore"):
        return _lengths(np.diff(points, axis=0))


def _table_at(kind, params, n, keep=False):
    """The chord polygon's cumulative lengths over the chart's first quadrant, at the knots
    i / (4n), i = 0..n, and the perimeter, four times their last, streamed _CHUNK knots at a
    time; the table is None without keep. Knot i is i * (0.25 / n), exact (np.linspace's) for
    n a power of two. Each chunk diffs from the point before it and starts its cumsum at the
    running total, so the additions are one np.cumsum's, in its order."""
    table = np.empty(n + 1) if keep else None
    total, pts, rising = 0.0, np.empty((0, 2)), True
    for a in range(0, n + 1, _CHUNK):
        b = min(a + _CHUNK, n + 1)
        pts = np.concatenate([pts[-1:], _raw_point(kind, params, np.arange(a, b) * (0.25 / n))])
        sums = np.cumsum(np.concatenate([[total], _segment_lengths(pts)]))
        total = _perimeter(sums)
        if keep:
            table[b - len(sums):b] = sums
            rising = rising and not np.any(np.diff(sums) <= 0.0)
    if not rising:
        raise ValueError("degenerate curve: arc table is not strictly increasing")
    return table, 4.0 * total


def _build_arc_table(kind, params):
    """Chord-length table over the chart's first quadrant, and the perimeter, refined until
    the perimeter converges to _TABLE_RTOL relative (doubling from _TABLE_START). The table
    has n + 1 entries at the knots i / (4n), with n a power of two.

    The convergence test is global, so the table kept is two levels finer, for local
    inversion accuracy where curvature concentrates (sharp superellipse flanks): 4x the
    converged level's knots, most of the build time and all of the memory kept. The
    converged level alone puts superellipse (2, 1, 4) 4.8e-9 of its perimeter off
    proportional arc length, where the tests allow 1e-9."""
    n = _TABLE_START
    prev = None
    while True:
        total = _table_at(kind, params, n)[1]
        if prev is not None and abs(total - prev) < _TABLE_RTOL * total:
            break
        if n >= _TABLE_CAP:
            break
        prev = total
        n *= 2
    return _table_at(kind, params, n * 4 if n * 4 <= _TABLE_CAP else n, keep=True)


def make_preset(name, params):
    """Build an arc-length parameterized preset curve.

    Parameters
    ----------
    name : str
        ``circle`` (r), ``ellipse`` (a, b) or ``superellipse`` (a, b, p).
    params : sequence of float
        Positive shape parameters, count fixed per preset.
    """
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    params = tuple(float(p) for p in params)
    arity = {"circle": 1, "ellipse": 2, "superellipse": 3}[name]
    if len(params) != arity:
        raise ValueError(f"{name} takes {arity} parameter(s), got {len(params)}")
    if not all(np.isfinite(p) and p > 0.0 for p in params):
        raise ValueError(f"{name} parameters must be positive and finite, got {params}")

    if name == "circle":
        # the angle fraction is already the arc fraction: no table inversion
        (r,) = params
        table = np.array([0.0, 2.0 * np.pi * r])
        total = _perimeter(table)
        return ClosedCurve("circle", params, None, table, total)

    return ClosedCurve(name, params, None, *_build_arc_table(name, params))


def load_polyline(records):
    """Closed polygonal curve through the given (x, y) vertices.

    The closing segment back to the first vertex is implicit; do not repeat
    the first vertex at the end.
    """
    verts = np.asarray(records, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 2:
        raise ValueError(f"expected (k, 2) vertex records, got shape {verts.shape}")
    if verts.shape[0] < 3:
        raise ValueError(f"degenerate polygon: needs >= 3 vertices, got {verts.shape[0]}")
    if not np.all(np.isfinite(verts)):
        raise ValueError("non-finite vertex coordinate")
    closed = np.vstack([verts, verts[:1]])
    seg = _segment_lengths(closed)
    if np.any(seg == 0.0):
        i = int(np.argmax(seg == 0.0))
        if i == len(seg) - 1:
            raise ValueError("zero-length segment: last vertex repeats the first "
                             "(the closing segment is implicit; drop the final vertex)")
        raise ValueError(f"zero-length segment between vertices {i} and {i + 1}")
    table = np.concatenate([[0.0], np.cumsum(seg)])
    total = _perimeter(table)
    return ClosedCurve("polyline", (), verts, table, total)


def load_polyline_csv(source):
    """Read a polyline from CSV text: one "x,y" pair per line, optional
    header line "x,y". ``source`` is a path or an open text stream."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    rows = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        if lineno == 1 and text.replace(" ", "").lower() == "x,y":
            continue
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'x,y', got {line!r}")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric coordinate in {line!r}") from None
        if not (np.isfinite(x) and np.isfinite(y)):
            raise ValueError(f"line {lineno}: non-finite coordinate in {line!r}")
        rows.append((x, y))
    return load_polyline(rows)


def from_spec(spec):
    """Curve from a spec string: "circle:r", "ellipse:a,b",
    "superellipse:a,b,p" or "file:PATH.csv"."""
    head, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"malformed curve spec {spec!r}: expected 'kind:params'")
    if head == "file":
        return load_polyline_csv(rest)
    if head not in PRESET_NAMES:
        raise ValueError(f"unknown curve spec kind {head!r}")
    try:
        params = [float(p) for p in rest.split(",")] if rest else []
    except ValueError:
        raise ValueError(f"malformed parameters in curve spec {spec!r}") from None
    return make_preset(head, params)
