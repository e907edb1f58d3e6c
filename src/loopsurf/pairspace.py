"""The three glued-square identification schemes as computable quotients.

Square coordinates (x, y) always mean a point of the unit square before
gluing. Canonical coordinates depend on the scheme:

* TORUS            -- (u, v) = (x mod 1, y mod 1), both periodic.
* PINCHED_SPHERE   -- x is not periodic; both vertical edges collapse to a
                      single pole class; v = y mod 1.
* MOBIUS_UNORDERED -- (x, y) is the unordered pair {x mod 1, y mod 1} of
                      loop positions; canonical chart is (m, d) with m the
                      midpoint of the shorter arc between the two positions
                      and d in [0, 1/4] the half separation. The antipodal
                      tie d = 1/4 keeps m in [0, 1/2).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .curves import mod1

DEFAULT_TOL = 1e-9

# pinched-sphere first coordinate is not periodic; inputs may overshoot
# [0, 1] by at most this much before being treated as errors
_EDGE_SLACK = 1e-12


class Scheme(enum.Enum):
    """Closed enumeration of the square identification schemes."""

    TORUS = "torus"
    PINCHED_SPHERE = "pinched-sphere"
    MOBIUS_UNORDERED = "mobius"


@dataclass(frozen=True)
class QuotientPoint:
    """Canonical representative of a glued-square point."""

    scheme: Scheme
    u: float
    v: float
    is_pole: bool = False

    def to_json(self):
        return {"scheme": self.scheme.value, "u": self.u, "v": self.v,
                "pole": self.is_pole}


@dataclass(frozen=True)
class PairOnLoop:
    """A pair of loop positions, each reduced mod 1 on construction.

    For unordered pairs, (a, b) and (b, a) denote the same value; the
    identification is enforced by canonicalization, not by storage.
    """

    a: float
    b: float
    ordered: bool = True

    def __post_init__(self):
        object.__setattr__(self, "a", float(mod1(self.a)))
        object.__setattr__(self, "b", float(mod1(self.b)))


@dataclass(frozen=True)
class Orbit:
    """Equivalence class of a square point: either finitely many
    representatives in the closed unit square, or a collapsed edge class."""

    points: tuple
    edges: tuple = ()

    @property
    def is_collapsed(self):
        return len(self.edges) > 0


def _require_finite(*vals):
    for v in vals:
        if not np.all(np.isfinite(v)):
            raise ValueError(f"non-finite coordinate {v!r}")


def _pinched_clamp(x):
    """Clamp the non-periodic coordinate onto [0, 1], rejecting overshoot
    beyond _EDGE_SLACK."""
    x = np.asarray(x, dtype=float)
    if np.any(x < -_EDGE_SLACK) or np.any(x > 1.0 + _EDGE_SLACK):
        raise ValueError(
            "pinched-sphere first coordinate must lie in [0, 1] "
            f"(got {float(np.min(x))!r}..{float(np.max(x))!r})")
    return np.clip(x, 0.0, 1.0)


def mobius_chart(x, y):
    """Vectorized unordered-pair chart: {x mod 1, y mod 1} -> (m, d).

    m is the midpoint of the shorter arc between the two loop positions,
    d = half the shorter-arc separation. Exactly swap-invariant: the pair
    is sorted before any arithmetic.
    """
    x0 = mod1(np.asarray(x, dtype=float))
    y0 = mod1(np.asarray(y, dtype=float))
    a = np.minimum(x0, y0)
    b = np.maximum(x0, y0)
    f = b - a
    short = f <= 0.5
    m = np.where(short, a + 0.5 * f, mod1(b + 0.5 * (1.0 - f)))
    d = np.where(short, 0.5 * f, 0.5 * (1.0 - f))
    m = mod1(m)
    tie = (f == 0.5) & (m >= 0.5)
    m = np.where(tie, m - 0.5, m)
    return m, d


def canonical_chart(scheme, x, y):
    """Canonical chart coordinates (u, v, pole) of the square points (x, y).

    Works on scalars and arrays alike. For MOBIUS_UNORDERED the input is
    the unordered pair of loop positions and (u, v) is the (m, d) chart;
    pole flags the collapsed pinched-sphere edges, whose chart is (0, 0).
    """
    _require_finite(x, y)
    if scheme is Scheme.PINCHED_SPHERE:
        xc = _pinched_clamp(x)
        pole = (xc == 0.0) | (xc == 1.0)
        return np.where(pole, 0.0, xc), np.where(pole, 0.0, mod1(y)), pole
    if scheme is Scheme.TORUS:
        u, v = mod1(x), mod1(y)
    elif scheme is Scheme.MOBIUS_UNORDERED:
        u, v = mobius_chart(x, y)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return u, v, np.zeros(np.broadcast(u, v).shape, dtype=bool)


def canonicalize(scheme, x, y):
    """Canonical representative of the square point (x, y) under the
    scheme's gluings (see canonical_chart)."""
    u, v, pole = canonical_chart(scheme, x, y)
    return QuotientPoint(scheme, float(u), float(v), bool(pole))


def quotient_point(scheme, u, v):
    """Validated QuotientPoint from canonical coordinates (for callers that
    already hold chart values, e.g. decode). Rejects non-canonical input."""
    _require_finite(u, v)
    u, v = float(u), float(v)
    if scheme is Scheme.TORUS:
        if not (0.0 <= u < 1.0 and 0.0 <= v < 1.0):
            raise ValueError(f"torus canonical domain is [0,1)^2, got ({u!r}, {v!r})")
        return QuotientPoint(scheme, u, v)
    if scheme is Scheme.PINCHED_SPHERE:
        if not (0.0 <= u <= 1.0):
            raise ValueError(f"pinched-sphere u must lie in [0, 1], got {u!r}")
        if u == 0.0 or u == 1.0:
            return QuotientPoint(scheme, 0.0, 0.0, is_pole=True)
        if not (0.0 <= v < 1.0):
            raise ValueError(f"pinched-sphere v must lie in [0, 1), got {v!r}")
        return QuotientPoint(scheme, u, v)
    if scheme is Scheme.MOBIUS_UNORDERED:
        if not (0.0 <= u < 1.0 and 0.0 <= v <= 0.25):
            raise ValueError(
                f"mobius canonical domain is m in [0,1), d in [0,1/4], got ({u!r}, {v!r})")
        if v == 0.25 and not u < 0.5:
            raise ValueError(
                f"antipodal representatives (d = 1/4) require m in [0, 1/2), got m = {u!r}")
        return QuotientPoint(scheme, u, v)
    raise ValueError(f"unknown scheme {scheme!r}")


def _circ_diff(a, b):
    d = np.abs(mod1(a) - mod1(b))
    return np.minimum(d, 1.0 - d)


def _torus_dist(x1, y1, x2, y2):
    return np.hypot(_circ_diff(x1, x2), _circ_diff(y1, y2))


def quotient_distance(scheme, p1, p2):
    """Minimum Euclidean distance between representatives of two classes.

    p1 and p2 are (x, y) square coordinates (scalars or broadcastable
    arrays). Symmetric; zero exactly when the classes coincide.
    """
    x1, y1 = np.asarray(p1[0], float), np.asarray(p1[1], float)
    x2, y2 = np.asarray(p2[0], float), np.asarray(p2[1], float)
    _require_finite(x1, y1, x2, y2)
    if scheme is Scheme.TORUS:
        out = _torus_dist(x1, y1, x2, y2)
    elif scheme is Scheme.MOBIUS_UNORDERED:
        out = np.minimum(_torus_dist(x1, y1, x2, y2),
                         _torus_dist(x1, y1, y2, x2))
    elif scheme is Scheme.PINCHED_SPHERE:
        x1c, x2c = _pinched_clamp(x1), _pinched_clamp(x2)
        direct = np.hypot(x1c - x2c, _circ_diff(y1, y2))
        via_pole = np.minimum(x1c, 1.0 - x1c) + np.minimum(x2c, 1.0 - x2c)
        out = np.minimum(direct, via_pole)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return out if out.ndim else float(out)


def equivalent(scheme, p1, p2, tol=DEFAULT_TOL):
    """True iff the two square points denote the same glued point, up to
    quotient distance tol."""
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    return bool(np.all(quotient_distance(scheme, p1, p2) <= tol))


def encode_pair(scheme, pair):
    """Quotient point of a pair of loop positions.

    TORUS and PINCHED_SPHERE take ordered pairs (for the pinched sphere the
    first coordinate rides the non-periodic axis); MOBIUS_UNORDERED takes
    unordered pairs.
    """
    if scheme is Scheme.MOBIUS_UNORDERED:
        if pair.ordered:
            raise ValueError("mobius scheme encodes unordered pairs; got an ordered pair")
    else:
        if not pair.ordered:
            raise ValueError(f"{scheme.value} scheme encodes ordered pairs; got an unordered pair")
    return canonicalize(scheme, pair.a, pair.b)


def decode(q):
    """A representative pair of the quotient point.

    The pinched-sphere pole decodes to the edge representative (0, 0);
    the caller can tell from ``q.is_pole``.
    """
    q = quotient_point(q.scheme, q.u, q.v)  # re-validate canonical domain
    if q.scheme is Scheme.TORUS:
        return PairOnLoop(q.u, q.v, ordered=True)
    if q.scheme is Scheme.PINCHED_SPHERE:
        if q.is_pole:
            return PairOnLoop(0.0, 0.0, ordered=True)
        return PairOnLoop(q.u, q.v, ordered=True)
    return PairOnLoop(float(mod1(q.u - q.v)), float(mod1(q.u + q.v)), ordered=False)


def _edge_partners(c):
    """Representatives of a closed-square coordinate under the mod-1 gluing,
    staying inside [0, 1]. Exact: only 0 and 1 have partners."""
    if c == 0.0:
        return (0.0, 1.0)
    if c == 1.0:
        return (1.0, 0.0)
    return (c,)


def orbit(scheme, x, y):
    """All representatives of the class of (x, y) within the closed unit
    square, or the collapsed-edge descriptor for the pinched-sphere pole."""
    _require_finite(x, y)
    x, y = float(x), float(y)
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ValueError(f"orbit input must lie in the closed unit square, got ({x!r}, {y!r})")
    if scheme is Scheme.PINCHED_SPHERE:
        if x == 0.0 or x == 1.0:
            return Orbit(points=(), edges=("x=0", "x=1"))
        pts = {(x, yy) for yy in _edge_partners(y)}
        return Orbit(points=tuple(sorted(pts)))
    seeds = [(x, y)]
    if scheme is Scheme.MOBIUS_UNORDERED:
        seeds.append((y, x))
    elif scheme is not Scheme.TORUS:
        raise ValueError(f"unknown scheme {scheme!r}")
    pts = set()
    for sx, sy in seeds:
        for xx in _edge_partners(sx):
            for yy in _edge_partners(sy):
                pts.add((xx, yy))
    return Orbit(points=tuple(sorted(pts)))
