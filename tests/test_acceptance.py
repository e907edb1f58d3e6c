"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime (run with -s to see them)."""
import io
import string
import time

import numpy as np
import pytest

from loopsurf.curves import make_preset, mod1
from loopsurf.edgeword import EdgeWord, classify, parse
from loopsurf.embed import (
    build_mesh,
    export_obj,
    mesh_invariants,
    mobius_band_chart,
    parse_obj,
    pinched_sphere_chart,
    torus_chart,
)
from loopsurf.inscribed import RectangleWitness, find_rectangle
from loopsurf.pairspace import (
    PairOnLoop,
    Scheme,
    canonicalize,
    decode,
    encode_pair,
    mobius_chart,
    quotient_distance,
    quotient_point,
)

T, P, M = Scheme.TORUS, Scheme.PINCHED_SPHERE, Scheme.MOBIUS_UNORDERED


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.2f}s / budget {self.seconds}s)")
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its runtime budget: {elapsed:.2f}s")
        else:
            print(f"ACCEPTANCE {self.name}: FAIL ({elapsed:.2f}s)")
        return False


def _dyadic(rng, size):
    return rng.integers(0, 1 << 32, size) / float(1 << 32)


def test_criterion_1_quotient_correctness_brute_force():
    with _Budget("1 quotient correctness", 5.0):
        for n in (4, 8, 16, 32):
            i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
            m, d = mobius_chart(i.ravel() / n, j.ravel() / n)
            distinct = {(float(a), float(b)) for a, b in zip(m, d)}
            assert len(distinct) == n * (n + 1) // 2, f"n={n}"

        rng = np.random.default_rng(101)
        x, y = _dyadic(rng, 100_000), _dyadic(rng, 100_000)
        base_u, base_v = mod1(x), mod1(y)
        for dj in (-1.0, 0.0, 1.0):
            for dk in (-1.0, 0.0, 1.0):
                assert np.array_equal(mod1(x + dj), base_u)
                assert np.array_equal(mod1(y + dk), base_v)
        # same exactness through the scalar public entry point
        for i in range(0, 100_000, 1000):
            base = canonicalize(T, x[i], y[i])
            for dj in (-1.0, 0.0, 1.0):
                for dk in (-1.0, 0.0, 1.0):
                    assert canonicalize(T, x[i] + dj, y[i] + dk) == base


def test_criterion_2_mesh_theory_agreement():
    expected = {T: (0, 0, True), P: (1, 0, True), M: (0, 1, False)}
    with _Budget("2 mesh/theory agreement", 30.0):
        for n in range(3, 65):
            for scheme, want in expected.items():
                if scheme is M and n < 5:     # the least Möbius band build_mesh takes
                    continue
                inv = mesh_invariants(build_mesh(scheme, n))
                got = (inv.euler_char, inv.boundary_loops, inv.orientable)
                assert got == want, f"{scheme.value} n={n}: {got}"


def _random_word(rng, max_labels=6, max_len=10):
    labels = list(string.ascii_lowercase[:max_labels])
    budget = {l: 2 for l in labels}
    out = []
    for _ in range(int(rng.integers(1, max_len + 1))):
        avail = [l for l in labels if budget[l] > 0]
        if not avail:
            break
        l = avail[int(rng.integers(0, len(avail)))]
        budget[l] -= 1
        out.append(l if rng.random() < 0.5 else l.upper())
    return "".join(out)


def test_criterion_3_classifier_catalog():
    with _Budget("3 classifier catalog", 1.0):
        cases = {
            "aA": (2, True, "sphere"),
            "abAB": (0, True, "torus"),
            "abab": (1, False, "projective plane"),
            "abaB": (0, False, "Klein bottle"),
            "abABcdCD": (-2, True, "genus-2 surface"),
        }
        for text, (chi, orientable, name) in cases.items():
            c = classify(parse(text))
            assert (c.euler_char, c.orientable, c.name) == (chi, orientable, name)

        rng = np.random.default_rng(31)
        perm_pool = list(string.ascii_lowercase)
        for _ in range(200):
            text = _random_word(rng)
            word = parse(text)
            base = classify(word)
            k = int(rng.integers(0, len(word.letters)))
            rotated = EdgeWord(word.letters[k:] + word.letters[:k])
            assert classify(rotated) == base
            labels = sorted({l for l, _ in word.letters})
            rng.shuffle(perm_pool)
            mapping = dict(zip(labels, perm_pool))
            relabeled = EdgeWord(tuple((mapping[l], e) for l, e in word.letters))
            assert classify(relabeled) == base


def _embed_square_points(scheme, x, y):
    """Vectorized embedding of raw square coordinates."""
    if scheme is T:
        return torus_chart(mod1(x), mod1(y))
    if scheme is P:
        pts = pinched_sphere_chart(x, mod1(y))
        pole = (x == 0.0) | (x == 1.0)
        pts[pole] = 0.0
        return pts
    m, d = mobius_chart(x, y)
    return mobius_band_chart(m, d)


def test_criterion_4_chart_consistency():
    with _Budget("4 chart consistency", 10.0):
        rng = np.random.default_rng(41)
        n = 100_000
        per = n // 3 + 1
        for scheme in (T, P, M):
            x, y = _dyadic(rng, per), _dyadic(rng, per)
            if scheme is T:
                jx = rng.integers(-1, 2, per).astype(float)
                jy = rng.integers(-1, 2, per).astype(float)
                x2, y2 = x + jx, y + jy
            elif scheme is P:
                x2, y2 = x, y + rng.integers(-1, 2, per).astype(float)
                edge = rng.random(per) < 0.1      # sprinkle pole-class pairs
                x[edge] = np.where(rng.random(edge.sum()) < 0.5, 0.0, 1.0)
                x2 = x2.copy()
                x2[edge] = np.where(rng.random(edge.sum()) < 0.5, 0.0, 1.0)
            else:
                x2, y2 = y + rng.integers(-1, 2, per).astype(float), x
            qd = quotient_distance(scheme, (x, y), (x2, y2))
            assert np.max(qd) == 0.0
            gap = np.linalg.norm(_embed_square_points(scheme, x, y)
                                 - _embed_square_points(scheme, x2, y2), axis=1)
            assert np.max(gap) < 1e-9

        for scheme in (T, P, M):
            x1, y1, x2, y2 = rng.random((4, 10_000))
            qd = quotient_distance(scheme, (x1, y1), (x2, y2))
            mask = qd > 1e-3
            gap = np.linalg.norm(_embed_square_points(scheme, x1[mask], y1[mask])
                                 - _embed_square_points(scheme, x2[mask], y2[mask]),
                                 axis=1)
            assert np.min(gap) > 1e-6

        eps = 1e-8
        for d in (0.0, 0.07, 0.13, 0.22):
            gap_half = np.linalg.norm(mobius_band_chart(0.5 - eps, d)
                                      - mobius_band_chart(0.5 + eps, d))
            gap_wrap = np.linalg.norm(mobius_band_chart(1.0 - eps, d)
                                      - mobius_band_chart(0.0, d))
            assert gap_half < 1e-6 and gap_wrap < 1e-6


def test_criterion_5_inscribed_rectangle():
    with _Budget("5 inscribed rectangle", 60.0):
        ellipse = make_preset("ellipse", [2.0, 1.0])
        w = find_rectangle(ellipse, grid_n=256, tol=1e-8)
        assert isinstance(w, RectangleWitness)
        for x, y in w.vertices:
            assert abs((x / 2.0) ** 2 + y**2 - 1.0) < 1e-6
        assert w.length_residual <= 1e-8

        circle = make_preset("circle", [1.0])
        wc = find_rectangle(circle, grid_n=256, tol=1e-8)
        assert isinstance(wc, RectangleWitness)
        for t1, t2 in wc.pairs:
            mid = 0.5 * (circle.eval(t1) + circle.eval(t2))
            assert np.linalg.norm(mid) < 1e-8


def test_criterion_6_round_trips():
    with _Budget("6 round trips", 60.0):
        rng = np.random.default_rng(61)
        n = 10_000
        for scheme, ordered in ((T, True), (P, True), (M, False)):
            a, b = rng.random((2, n))
            # decode(encode(pair)) stays in the pair's class
            for i in range(n):
                pair = PairOnLoop(a[i], b[i], ordered=ordered)
                q = encode_pair(scheme, pair)
                back = decode(q)
                assert quotient_distance(scheme, (pair.a, pair.b),
                                         (back.a, back.b)) <= 1e-12
        # encode(decode(q)) reproduces the canonical point
        for scheme in (T, P, M):
            u = rng.random(n)
            v = rng.random(n) * (0.25 if scheme is M else 1.0)
            for i in range(n):
                q = quotient_point(scheme, u[i], v[i])
                pair1 = decode(q)
                q2 = encode_pair(scheme, pair1)
                pair2 = decode(q2)
                assert quotient_distance(scheme, (pair1.a, pair1.b),
                                         (pair2.a, pair2.b)) <= 1e-12

        for scheme in (T, P, M):
            mesh = build_mesh(scheme, 8)
            sink = io.BytesIO()
            export_obj(mesh, sink)
            assert mesh_invariants(parse_obj(sink.getvalue())) == mesh_invariants(mesh)


if __name__ == "__main__":
    import sys
    sys.exit(pytest.main([__file__, "-v", "-s"]))
