"""Closed planar curves with normalized arc-length parameterization.

A curve is evaluated at t in [0,1), where t is the fraction of total
perimeter travelled from the start point. Presets (circle, ellipse,
superellipse) start on the positive horizontal axis of their own frame;
polylines start at their first vertex.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

PRESET_NAMES = ("circle", "ellipse", "superellipse")

# arc-table refinement: start size, relative convergence target, hard cap
_TABLE_START = 1024
_TABLE_RTOL = 1e-10
_TABLE_CAP = 1 << 22
# table segments per bucket of the lookup index (int32 per bucket)
_BUCKET_SPAN = 2


def mod1(t):
    """Reduce to [0, 1). Works on scalars and arrays; -1e-17 maps to 0, not 1.
    ``t - floor(t)`` rounds the exact fraction once, so it has np.mod's bits."""
    r = t - np.floor(t)
    return np.where(r >= 1.0, 0.0, r)


def _bucket(target, k, total):
    """Monotone map of targets to k equal buckets of [0, total]; NaN last."""
    return np.fmax(np.fmin(target * (k / total), k - 1), 0.0).astype(np.intp)


def _locate(table, index, target):
    """Segment index into the increasing table holding each target, and the
    target's linear fraction along that segment. The index is the number of
    entries after the first that the target reaches (NaN reaches all, as it
    sorts last), capped at the last segment: clip(searchsorted(table, target,
    "right") - 1, 0, len(table) - 2) in constant time, from the target's
    bucket and a fixed number of bisection steps."""
    starts, steps = index
    idx = starts[_bucket(target, len(starts), table[-1])]
    for p in [1 << k for k in reversed(range(steps))]:
        nxt = idx + p
        idx = np.where(target < table.take(nxt, mode="clip"), idx, nxt)
    idx = np.minimum(idx, len(table) - 2)
    return idx, (target - table[idx]) / (table[idx + 1] - table[idx])


def _raw_point(kind, params, s):
    """Evaluate a preset's underlying chart at raw parameter s in [0, 1]."""
    s = np.asarray(s, dtype=float)
    if kind == "circle":
        (r,) = params
        th = 2.0 * np.pi * s
        return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
    if kind == "ellipse":
        a, b = params
        th = 2.0 * np.pi * s
        return np.stack([a * np.cos(th), b * np.sin(th)], axis=-1)
    if kind == "superellipse":
        a, b, p = params
        th = 2.0 * np.pi * s
        c, sn = np.cos(th), np.sin(th)
        x = a * np.sign(c) * np.abs(c) ** (2.0 / p)
        y = b * np.sign(sn) * np.abs(sn) ** (2.0 / p)
        return np.stack([x, y], axis=-1)
    raise ValueError(f"unknown curve kind {kind!r}")


@dataclass(frozen=True)
class ClosedCurve:
    """A closed planar curve, immutable after construction.

    Attributes
    ----------
    kind : str
        One of ``circle``, ``ellipse``, ``superellipse``, ``polyline``.
    params : tuple
        Preset shape parameters; empty for polylines.
    vertices : np.ndarray or None
        Polyline vertices (k, 2), closing segment implicit; None for presets.
    raw_knots : np.ndarray
        Raw-parameter samples in [0, 1] backing the arc-length table.
    arc_table : np.ndarray
        Strictly increasing cumulative lengths at ``raw_knots``.
    total_length : float
        Curve perimeter, same units as the coordinates.
    uniform_speed : bool
        True when the raw parameter is already proportional to arc length
        (circle, polyline); evaluation then skips the table inversion from arc
        length to raw parameter (a polyline still looks up its segment).

    ``_locate`` looks targets up in ``arc_table`` through ``_index``, a
    bucket index over the table that the curve builds on first use. It is
    not a field: it is derived from ``arc_table`` alone.
    """

    kind: str
    params: tuple
    vertices: np.ndarray | None
    raw_knots: np.ndarray
    arc_table: np.ndarray
    total_length: float
    uniform_speed: bool

    def eval(self, t):
        """Point on the curve at normalized arc length ``t`` (1-periodic).

        Accepts a scalar or an array; returns shape (..., 2).
        """
        t = mod1(np.asarray(t, dtype=float))
        if self.vertices is None and self.uniform_speed:     # circle: no table
            return _raw_point(self.kind, self.params, t)
        idx, frac = _locate(self.arc_table, self._index, t * self.total_length)
        if self.vertices is not None:                        # polyline: along the segment
            lo = self.vertices[idx]
            return lo + frac[..., None] * (self.vertices.take(idx + 1, axis=0, mode="wrap") - lo)
        s = self.raw_knots[idx] + frac * (self.raw_knots[idx + 1] - self.raw_knots[idx])
        return _raw_point(self.kind, self.params, s)

    @cached_property
    def _index(self):
        """(starts, steps) for _locate. [0, perimeter] is cut into equal
        buckets, one per _BUCKET_SPAN table segments; starts holds, per
        bucket, the count of entries after the first in lower buckets (int32),
        and steps is enough bisection for the fullest bucket."""
        k = max(1, (len(self.arc_table) - 1) // _BUCKET_SPAN)
        counts = np.bincount(_bucket(self.arc_table[1:], k, self.arc_table[-1]), minlength=k)
        starts = np.zeros(k, np.int32)
        starts[1:] = np.cumsum(counts[:-1])
        return starts, int(counts.max()).bit_length()

    def sample(self, n):
        """n points at t = 0, 1/n, ..., (n-1)/n."""
        if n < 1:
            raise ValueError("sample count must be >= 1")
        return self.eval(np.arange(n) / float(n))


def _perimeter(table):
    """Last entry of an arc table, the perimeter; ValueError when a length
    overflowed to inf."""
    total = float(table[-1])
    if not np.isfinite(total):
        raise ValueError(f"perimeter is not finite, got {total}: the curve is too large")
    return total


def _segment_lengths(points):
    """Lengths of the segments between points (k, 2): np.linalg.norm's bits,
    without its strided reduction; inf past the float64 range."""
    with np.errstate(over="ignore"):
        d = np.diff(points, axis=0)
        return np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])


def _table_at(kind, params, n):
    knots = np.linspace(0.0, 1.0, n + 1)
    table = np.concatenate([[0.0], np.cumsum(_segment_lengths(_raw_point(kind, params, knots)))])
    return knots, table, _perimeter(table)


def _build_arc_table(kind, params):
    """Chord-length table over the raw parameter, refined until the total
    length converges to _TABLE_RTOL relative (doubling from _TABLE_START).

    The convergence test is global, so two extra refinement levels are added
    at the end: they buy local inversion accuracy where curvature
    concentrates (sharp superellipse flanks) at negligible cost."""
    n = _TABLE_START
    prev = None
    while True:
        knots, table, total = _table_at(kind, params, n)
        if prev is not None and abs(total - prev) < _TABLE_RTOL * total:
            break
        if n >= _TABLE_CAP:
            break
        prev = total
        n *= 2
    if n * 4 <= _TABLE_CAP:
        knots, table, total = _table_at(kind, params, n * 4)
    if np.any(np.diff(table) <= 0.0):
        raise ValueError("degenerate curve: arc table is not strictly increasing")
    return knots, table, total


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
        return ClosedCurve("circle", params, None, np.array([0.0, 1.0]), table, total, True)

    knots, table, total = _build_arc_table(name, params)
    return ClosedCurve(name, params, None, knots, table, total, False)


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
    return ClosedCurve("polyline", (), verts, table / total, table, total, True)


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
