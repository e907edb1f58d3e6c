import re

import numpy as np
import pytest

from loopsurf.curves import mod1
from loopsurf.pairspace import (
    Orbit,
    PairOnLoop,
    QuotientPoint,
    Scheme,
    canonical_chart,
    canonicalize,
    decode,
    encode_pair,
    equivalent,
    mobius_chart,
    orbit,
    quotient_distance,
    quotient_point,
)

T, P, M = Scheme.TORUS, Scheme.PINCHED_SPHERE, Scheme.MOBIUS_UNORDERED


# ---------------------------------------------------------------- canonicalize

def test_torus_mod_reduction():
    q = canonicalize(T, 1.2, -0.3)
    assert abs(q.u - 0.2) < 1e-12 and abs(q.v - 0.7) < 1e-12


def test_pinched_edges_are_one_pole():
    q1 = canonicalize(P, 0.0, 0.3)
    q2 = canonicalize(P, 1.0, 0.9)
    assert q1.is_pole and q2.is_pole
    assert q1 == q2 == QuotientPoint(P, 0.0, 0.0, is_pole=True)


def test_mobius_basic_chart():
    q = canonicalize(M, 0.1, 0.2)
    assert abs(q.u - 0.15) < 1e-12 and abs(q.v - 0.05) < 1e-12


def test_mobius_antipodal_tiebreak():
    q = canonicalize(M, 0.0, 0.5)
    assert q.u == 0.25 and q.v == 0.25


def test_pinched_out_of_range():
    with pytest.raises(ValueError, match="must lie in"):
        canonicalize(P, 1.1, 0.5)
    # within slack is clamped, not an error
    assert canonicalize(P, 1.0 + 1e-13, 0.5).is_pole


def test_non_finite_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        canonicalize(T, np.nan, 0.5)
    # scalar distances name the coordinate as given, like canonicalize
    for scheme in (T, P, M):
        with pytest.raises(ValueError, match=r"non-finite coordinate inf$"):
            quotient_distance(scheme, (0.5, 0.5), (np.inf, 0.5))
        with pytest.raises(ValueError, match=r"non-finite coordinate nan$"):
            equivalent(scheme, (0.5, np.nan), (0.5, 0.5))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_pair_on_loop_rejects_non_finite(bad):
    # named as given, not turned into nan by the mod-1 reduction
    for a, b in ((bad, 0.2), (0.2, bad)):
        for ordered in (True, False):
            with pytest.raises(ValueError, match=re.escape(f"non-finite coordinate {bad!r}")):
                PairOnLoop(a, b, ordered=ordered)


# ---------------------------------------------------------------- equivalence

def test_torus_left_right_glued():
    assert equivalent(T, (0.0, 0.3), (1.0, 0.3), tol=1e-9)


def test_mobius_swap_identified():
    assert equivalent(M, (0.2, 0.6), (0.6, 0.2), tol=1e-9)


def test_torus_distinct_interior():
    assert not equivalent(T, (0.1, 0.1), (0.1, 0.4), tol=1e-3)


def test_equivalent_requires_positive_tol():
    with pytest.raises(ValueError, match="tol"):
        equivalent(T, (0, 0), (0, 0), tol=0.0)


# ---------------------------------------------------------------- distance

def test_torus_wraparound_distance():
    assert quotient_distance(T, (0.95, 0.5), (0.05, 0.5)) == pytest.approx(0.1, abs=1e-15)


def test_mobius_swap_distance_zero():
    assert quotient_distance(M, (0.3, 0.7), (0.7, 0.3)) == 0.0


def test_pinched_pole_class_distance_zero():
    # independent brute-force oracle: minimize over dense representative sets
    # of the two pole-class inputs
    ys = np.linspace(0.0, 1.0, 101)
    reps1 = [(x, y) for x in (0.0, 1.0) for y in ys]
    reps2 = [(x, y) for x in (0.0, 1.0) for y in ys]
    brute = min(np.hypot(a[0] - b[0], min(abs(a[1] - b[1]), 1 - abs(a[1] - b[1])))
                for a in reps1[:5] for b in reps2[:5])
    assert brute == 0.0
    assert quotient_distance(P, (0.0, 0.1), (1.0, 0.8)) == 0.0


def test_distance_symmetry_exact():
    # and each scalar call (the float path) gives the array's bits
    rng = np.random.default_rng(11)
    edge = np.array([[0.0, 0.3], [-0.0, 0.3], [1.0, 0.3], [1.0 + 1e-13, -0.0],
                     [-1e-13, 1.0], [0.5, 1e-17], [0.25, 0.75], [0.75, 0.25]])
    for scheme in (T, P, M):
        p = np.concatenate([rng.random((100, 2)), edge, edge])
        q = np.concatenate([rng.random((100, 2)), edge, edge[::-1]])
        d1 = quotient_distance(scheme, (p[:, 0], p[:, 1]), (q[:, 0], q[:, 1]))
        d2 = quotient_distance(scheme, (q[:, 0], q[:, 1]), (p[:, 0], p[:, 1]))
        assert np.array_equal(d1, d2)
        for k in range(len(p)):
            d = quotient_distance(scheme, tuple(p[k].tolist()), tuple(q[k].tolist()))
            assert type(d) is float
            assert np.float64(d).tobytes() == d1[k].tobytes()
            assert equivalent(scheme, tuple(p[k].tolist()), tuple(q[k].tolist())) == (d1[k] <= 1e-9)


def test_distance_triangle_inequality():
    rng = np.random.default_rng(12)
    for scheme in (T, P, M):
        a, b, c = rng.random((3, 500, 2))
        dab = quotient_distance(scheme, (a[:, 0], a[:, 1]), (b[:, 0], b[:, 1]))
        dbc = quotient_distance(scheme, (b[:, 0], b[:, 1]), (c[:, 0], c[:, 1]))
        dac = quotient_distance(scheme, (a[:, 0], a[:, 1]), (c[:, 0], c[:, 1]))
        assert np.all(dac <= dab + dbc + 1e-12)


def test_distance_zero_iff_equivalent():
    rng = np.random.default_rng(13)
    pts = rng.random((200, 2))
    for scheme in (T, P, M):
        d = quotient_distance(scheme, (pts[:, 0], pts[:, 1]), (pts[:, 0], pts[:, 1]))
        assert np.all(d == 0.0)


# ---------------------------------------------------------------- encode/decode

def test_encode_torus_interior():
    q = encode_pair(T, PairOnLoop(0.25, 0.75, ordered=True))
    assert (q.u, q.v) == (0.25, 0.75)


def test_encode_mobius_wrap():
    # short arc between 0.9 and 0.1 crosses the wrap point; brute-force
    # separation min(|0.1+k-0.9|) over k in {-1,0,1} is 0.2, midpoint 0.0
    q = encode_pair(M, PairOnLoop(0.9, 0.1, ordered=False))
    assert abs(q.u - 0.0) < 1e-12 and abs(q.v - 0.1) < 1e-12


def test_encode_mobius_degenerate_on_boundary():
    q = encode_pair(M, PairOnLoop(0.4, 0.4, ordered=False))
    assert q.u == 0.4 and q.v == 0.0


def test_encode_ordered_mismatch():
    with pytest.raises(ValueError, match="unordered"):
        encode_pair(M, PairOnLoop(0.1, 0.2, ordered=True))
    with pytest.raises(ValueError, match="ordered"):
        encode_pair(T, PairOnLoop(0.1, 0.2, ordered=False))


def test_decode_mobius_chart_inverse():
    pair = decode(QuotientPoint(M, 0.15, 0.05))
    assert abs(pair.a - 0.1) < 1e-12 and abs(pair.b - 0.2) < 1e-12
    assert not pair.ordered


def test_decode_torus_identity():
    pair = decode(QuotientPoint(T, 0.2, 0.7))
    assert (pair.a, pair.b, pair.ordered) == (0.2, 0.7, True)


def test_decode_mobius_antipodal():
    pair = decode(QuotientPoint(M, 0.25, 0.25))
    assert abs(pair.a - 0.0) < 1e-12 and abs(pair.b - 0.5) < 1e-12


def test_decode_pole_representative():
    pair = decode(QuotientPoint(P, 0.0, 0.0, is_pole=True))
    assert (pair.a, pair.b) == (0.0, 0.0)


def test_quotient_point_validation():
    with pytest.raises(ValueError, match="canonical domain"):
        quotient_point(T, 1.0, 0.5)
    with pytest.raises(ValueError, match="canonical domain"):
        quotient_point(M, 0.1, 0.3)
    with pytest.raises(ValueError, match="antipodal"):
        quotient_point(M, 0.7, 0.25)
    assert quotient_point(P, 1.0, 0.0).is_pole
    with pytest.raises(ValueError, match=r"^pinched-sphere u must lie in \[0, 1\], got 1.5$"):
        quotient_point(P, 1.5, 0.2)
    with pytest.raises(ValueError, match=r"^pinched-sphere v must lie in \[0, 1\), got 1.0$"):
        quotient_point(P, 0.5, 1.0)
    # a scheme's value is no scheme
    for call in (lambda: canonical_chart("torus", 0.1, 0.2),
                 lambda: quotient_point("torus", 0.1, 0.2),
                 lambda: quotient_distance("torus", (0.1, 0.2), (0.3, 0.4)),
                 lambda: orbit("torus", 0.1, 0.2)):
        with pytest.raises(ValueError, match="^unknown scheme 'torus'$"):
            call()


def test_encode_decode_roundtrip_random():
    rng = np.random.default_rng(5)
    for scheme, ordered in ((T, True), (P, True), (M, False)):
        for _ in range(200):
            a, b = rng.random(2)
            pair = PairOnLoop(a, b, ordered=ordered)
            q = encode_pair(scheme, pair)
            back = decode(q)
            d = quotient_distance(scheme, (pair.a, pair.b), (back.a, back.b))
            assert d <= 1e-12


# ---------------------------------------------------------------- orbits

def test_torus_corner_orbit():
    o = orbit(T, 0.0, 0.0)
    assert set(o.points) == {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}


def test_mobius_swap_orbit():
    o = orbit(M, 0.3, 0.8)
    assert set(o.points) == {(0.3, 0.8), (0.8, 0.3)}


def test_pinched_collapsed_edge_orbit():
    o = orbit(P, 1.0, 0.4)
    assert o.is_collapsed
    assert o.edges == ("x=0", "x=1")


def test_orbit_outside_square():
    with pytest.raises(ValueError, match="closed unit square"):
        orbit(T, 1.5, 0.0)


def test_orbit_soundness():
    rng = np.random.default_rng(21)
    samples = list(rng.random((50, 2)))
    samples += [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.0, 0.0), (0.25, 0.25)]
    for scheme in (T, M):
        for x, y in samples:
            base = canonicalize(scheme, x, y)
            for px, py in orbit(scheme, float(x), float(y)).points:
                assert canonicalize(scheme, px, py) == base
    for x, y in samples:
        o = orbit(P, float(x), float(y))
        base = canonicalize(P, x, y)
        if o.is_collapsed:
            assert base.is_pole
        else:
            for px, py in o.points:
                assert canonicalize(P, px, py) == base


def test_orbit_points_duplicate_free():
    for scheme in (T, M):
        o = orbit(scheme, 0.0, 0.0)
        assert len(o.points) == len(set(o.points))


# ---------------------------------------------------------------- properties

def test_idempotence_exact():
    # canonicalize is exactly invariant on the reduced square representative
    # (both coordinates mod 1, the pinched pole at (0, 0), an unordered pair
    # sorted); for torus / pinched sphere it coincides with the (u, v) chart
    rng = np.random.default_rng(31)
    pts = rng.uniform(-2, 3, size=(2000, 2))
    for scheme in (T, P, M):
        for x, y in pts:
            if scheme is P:
                x = abs(x) % 1.0
            rep = (float(mod1(x)), float(mod1(y)))
            if scheme is P and rep[0] == 0.0:
                rep = (0.0, 0.0)
            if scheme is M:
                rep = tuple(sorted(rep))
            q = canonicalize(scheme, x, y)
            assert canonicalize(scheme, *rep) == q
            if scheme is not M:
                assert (q.u, q.v) == rep


def test_canonical_chart_on_arrays_matches_scalar_canonicalize():
    # Python floats and np.float64 (the float path) and 0-d arrays give the
    # bits of the array path, including -0.0, +-1e-17, slack overshoot,
    # pinched poles and the antipodal tie d = 1/4 of the unordered pairs
    rng = np.random.default_rng(35)
    grid = np.arange(9) / 8
    edge = np.array([0.0, -0.0, 1.0, 0.5, -1e-17, 1e-17, 1.0 - 1e-16, -1e-13, 1.0 + 1e-13,
                     1e-13, 1.0 - 1e-13, 0.25, 0.75])
    x = np.concatenate([np.repeat(grid, 9), edge, edge, rng.random(300)])
    y = np.concatenate([np.tile(grid, 9), edge, edge + 0.5, rng.uniform(-2, 3, 300)])
    wide = rng.uniform(-2, 3, (2, 300))
    for scheme in (T, P, M):
        xs, ys = (x, y) if scheme is P else (np.append(x, wide[0]), np.append(y, wide[1]))
        u, v, pole = canonical_chart(scheme, xs, ys)
        for k in range(len(xs)):
            for a, b in ((float(xs[k]), float(ys[k])), (xs[k], ys[k]),
                         (np.array(xs[k]), np.array(ys[k]))):
                q = canonicalize(scheme, a, b)
                assert type(q.u) is float and type(q.v) is float and type(q.is_pole) is bool
                assert np.array([q.u, q.v]).tobytes() == np.array([u[k], v[k]]).tobytes()
                assert q.is_pole == pole[k]
        assert pole.any() == (scheme is P)
        if scheme is M:
            assert np.any(v == 0.25)
        for a, b in ((0, 1), (1, 0), (1, 1), (0, 0)):   # ints take numpy
            assert canonicalize(scheme, a, b) == canonicalize(scheme, float(a), float(b))
        # the same rejections, naming the value as given
        for bad in (np.nan, np.inf, -np.inf):
            for c in (bad, np.float64(bad), np.array(bad)):
                with pytest.raises(ValueError, match=re.escape(f"non-finite coordinate {c!r}")):
                    canonicalize(scheme, 0.25, c)
            with pytest.raises(ValueError, match=re.escape("non-finite coordinate array([0.25, ")):
                canonical_chart(scheme, np.array([0.25, bad]), np.zeros(2))
    for over in (1.0 + 1e-11, -1e-11):
        for c in (over, np.float64(over), np.array(over)):
            with pytest.raises(ValueError, match=re.escape(f"(got {over!r}..{over!r})")):
                canonicalize(P, c, 0.5)
        with pytest.raises(ValueError, match=re.escape(f"(got {min(over, 0.5)!r}..{max(over, 0.5)!r})")):
            canonical_chart(P, np.array([0.5, over]), np.zeros(2))


def test_mobius_swap_invariance_exact():
    rng = np.random.default_rng(32)
    x, y = rng.uniform(-2, 3, size=(2, 100_000))
    m1, d1 = mobius_chart(x, y)
    m2, d2 = mobius_chart(y, x)
    assert np.array_equal(m1, m2) and np.array_equal(d1, d2)


def test_torus_translate_invariance_exact():
    # dyadic samples: x + j is exactly representable, so invariance is exact
    rng = np.random.default_rng(33)
    x = rng.integers(0, 1 << 32, 10_000) / float(1 << 32)
    y = rng.integers(0, 1 << 32, 10_000) / float(1 << 32)
    base = np.stack([mod1(x), mod1(y)])
    for j in (-1.0, 0.0, 1.0):
        for k in (-1.0, 0.0, 1.0):
            got = np.stack([mod1(x + j), mod1(y + k)])
            assert np.array_equal(got, base)


def test_mobius_quotient_count_identity():
    # combinatorial count oracle: distinct canonical points over all grid
    # pairs {i/n, j/n} must equal the number of unordered pairs with
    # repetition, n(n+1)/2
    for n in (4, 8, 16, 32):
        i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        m, d = mobius_chart(i.ravel() / n, j.ravel() / n)
        distinct = {(float(a), float(b)) for a, b in zip(m, d)}
        assert len(distinct) == n * (n + 1) // 2


def test_mobius_boundary_characterization():
    rng = np.random.default_rng(34)
    for _ in range(500):
        t1, t2 = rng.random(2)
        q = canonicalize(M, t1, t2)
        assert (q.v == 0.0) == (mod1(t1) == mod1(t2))
    for t in rng.random(100):
        assert canonicalize(M, t, t).v == 0.0
        assert canonicalize(M, t, t + 1.0).v == pytest.approx(0.0, abs=1e-12)
