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

Python floats (np.float64 included) take a float path built on builtins
and math, and everything else takes numpy; both give the same bits.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from types import SimpleNamespace

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
    """A pair of loop positions, each reduced mod 1 on construction
    (non-finite positions are rejected).

    For unordered pairs, (a, b) and (b, a) denote the same value; the
    identification is enforced by canonicalization, not by storage.
    """

    a: float
    b: float
    ordered: bool = True

    def __post_init__(self):
        ops = _ops(self.a, self.b)
        _require_finite(ops, self.a, self.b)
        object.__setattr__(self, "a", float(ops.mod1(self.a)))
        object.__setattr__(self, "b", float(ops.mod1(self.b)))


@dataclass(frozen=True)
class Orbit:
    """Equivalence class of a square point: either finitely many
    representatives in the closed unit square, or a collapsed edge class."""

    points: tuple
    edges: tuple = ()

    @property
    def is_collapsed(self):
        return len(self.edges) > 0


def _float_mod1(t):
    r = t % 1.0  # float % rounds as np.mod does, sign of zero included
    return 0.0 if r >= 1.0 else r


# The helpers below are written once against one of two operation sets:
# numpy, and builtins for Python floats, where numpy's overhead on 0-d
# arrays dwarfs the arithmetic. The float set gives numpy's bits: minimum
# and maximum pass NaN on and keep numpy's operand on ties (+0.0 vs -0.0),
# and hypot stays numpy's (libm's), because math.hypot rounds differently.
_ARRAY = SimpleNamespace(
    asarray=lambda x: np.asarray(x, dtype=float), mod1=mod1,
    where=np.where, minimum=np.minimum, maximum=np.maximum, clip=np.clip,
    abs=np.abs, hypot=np.hypot, any=np.any, all=np.all,
    isfinite=lambda v: np.all(np.isfinite(v)),
    no_pole=lambda u, v: np.zeros(np.broadcast(u, v).shape, dtype=bool),
    scalar=lambda out: out if out.ndim else float(out))
_FLOAT = SimpleNamespace(
    asarray=float, mod1=_float_mod1,
    where=lambda c, a, b: a if c else b,
    minimum=lambda a, b: a if a < b or a != a else b,
    maximum=lambda a, b: a if a > b or a != a else b,
    clip=lambda x, lo, hi: lo if x < lo else hi if x > hi else x,
    abs=abs, hypot=np.hypot, any=bool, all=bool,
    isfinite=math.isfinite,
    no_pole=lambda u, v: False,
    scalar=float)


def _ops(*vals):
    """The float operations if every value is a Python float, else numpy."""
    for v in vals:
        if not isinstance(v, float):
            return _ARRAY
    return _FLOAT


def _require_finite(ops, *vals):
    for v in vals:
        if not ops.isfinite(v):
            raise ValueError(f"non-finite coordinate {v!r}")


def _pinched_clamp(ops, x):
    """Clamp the non-periodic coordinate onto [0, 1], rejecting overshoot
    beyond _EDGE_SLACK."""
    x = ops.asarray(x)
    if ops.any(x < -_EDGE_SLACK) or ops.any(x > 1.0 + _EDGE_SLACK):
        raise ValueError(
            "pinched-sphere first coordinate must lie in [0, 1] "
            f"(got {float(np.min(x))!r}..{float(np.max(x))!r})")
    return ops.clip(x, 0.0, 1.0)


def mobius_chart(x, y):
    """Vectorized unordered-pair chart: {x mod 1, y mod 1} -> (m, d).

    m is the midpoint of the shorter arc between the two loop positions,
    d = half the shorter-arc separation. Exactly swap-invariant: the pair
    is sorted before any arithmetic.
    """
    ops = _ops(x, y)
    x0 = ops.mod1(ops.asarray(x))
    y0 = ops.mod1(ops.asarray(y))
    a = ops.minimum(x0, y0)
    b = ops.maximum(x0, y0)
    f = b - a
    short = f <= 0.5
    m = ops.where(short, a + 0.5 * f, ops.mod1(b + 0.5 * (1.0 - f)))
    d = ops.where(short, 0.5 * f, 0.5 * (1.0 - f))
    m = ops.mod1(m)
    tie = (f == 0.5) & (m >= 0.5)
    m = ops.where(tie, m - 0.5, m)
    return m, d


def canonical_chart(scheme, x, y):
    """Canonical chart coordinates (u, v, pole) of the square points (x, y).

    Works on scalars and arrays alike: Python floats take the float path,
    and everything else takes numpy. For MOBIUS_UNORDERED the input is
    the unordered pair of loop positions and (u, v) is the (m, d) chart;
    pole flags the collapsed pinched-sphere edges, whose chart is (0, 0).
    """
    ops = _ops(x, y)
    _require_finite(ops, x, y)
    if scheme is Scheme.PINCHED_SPHERE:
        xc = _pinched_clamp(ops, x)
        pole = (xc == 0.0) | (xc == 1.0)
        return ops.where(pole, 0.0, xc), ops.where(pole, 0.0, ops.mod1(y)), pole
    if scheme is Scheme.TORUS:
        u, v = ops.mod1(x), ops.mod1(y)
    elif scheme is Scheme.MOBIUS_UNORDERED:
        u, v = mobius_chart(x, y)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return u, v, ops.no_pole(u, v)


def canonicalize(scheme, x, y):
    """Canonical representative of the square point (x, y) under the
    scheme's gluings (see canonical_chart)."""
    u, v, pole = canonical_chart(scheme, x, y)
    return QuotientPoint(scheme, float(u), float(v), bool(pole))


def quotient_point(scheme, u, v):
    """Validated QuotientPoint from canonical coordinates (for callers that
    already hold chart values, e.g. decode). Rejects non-canonical input."""
    _require_finite(_ops(u, v), u, v)
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


def _circ_diff(ops, a, b):
    d = ops.abs(ops.mod1(a) - ops.mod1(b))
    return ops.minimum(d, 1.0 - d)


def _torus_dist(ops, x1, y1, x2, y2):
    return ops.hypot(_circ_diff(ops, x1, x2), _circ_diff(ops, y1, y2))


def quotient_distance(scheme, p1, p2):
    """Minimum Euclidean distance between representatives of two classes.

    p1 and p2 are (x, y) square coordinates (scalars or broadcastable
    arrays). Symmetric; zero exactly when the classes coincide.
    """
    coords = (p1[0], p1[1], p2[0], p2[1])
    ops = _ops(*coords)
    x1, y1, x2, y2 = map(ops.asarray, coords)
    _require_finite(ops, x1, y1, x2, y2)
    if scheme is Scheme.TORUS:
        out = _torus_dist(ops, x1, y1, x2, y2)
    elif scheme is Scheme.MOBIUS_UNORDERED:
        out = ops.minimum(_torus_dist(ops, x1, y1, x2, y2),
                          _torus_dist(ops, x1, y1, y2, x2))
    elif scheme is Scheme.PINCHED_SPHERE:
        x1c, x2c = _pinched_clamp(ops, x1), _pinched_clamp(ops, x2)
        direct = ops.hypot(x1c - x2c, _circ_diff(ops, y1, y2))
        via_pole = ops.minimum(x1c, 1.0 - x1c) + ops.minimum(x2c, 1.0 - x2c)
        out = ops.minimum(direct, via_pole)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return ops.scalar(out)


def equivalent(scheme, p1, p2, tol=DEFAULT_TOL):
    """True iff the two square points denote the same glued point, up to
    quotient distance tol."""
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    d = quotient_distance(scheme, p1, p2)
    return bool(_ops(d).all(d <= tol))


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
    if q.scheme is Scheme.MOBIUS_UNORDERED:
        return PairOnLoop(q.u - q.v, q.u + q.v, ordered=False)
    return PairOnLoop(q.u, q.v, ordered=True)     # the pole is already (0, 0)


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
    _require_finite(_ops(x, y), x, y)
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
