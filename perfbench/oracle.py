"""Exact output checks for the benchmark, independent of `verify_rectangle`.

Each check returns a list of problems; an empty list means the output is
correct. Rectangle witnesses are checked against the curve's closed form
(or exact point-to-segment distance for polygons), meshes against the
known invariants of each pair space, and edge words against the surface
they were generated from.
"""
from __future__ import annotations

import math

import numpy as np

TOL = 1e-8              # search tolerance
MIN_SEP = 1e-3          # minimum separation of the two pairs
CHECK_TOL = 10 * TOL    # tolerance of every rectangle check
ROUND_TRIP_TOL = 1e-12  # quotient distance of a pair round trip

# (euler characteristic, boundary loops, orientable) of each pair space;
# the pinched sphere is a pinched torus: chi = 1, no boundary
MESH_EXPECTED = {"torus": (0, 0, True), "pinched-sphere": (1, 0, True),
                 "mobius": (0, 1, False)}
# edge words whose surface must agree with the torus and Mobius meshes
WORD_OF_MESH = {"torus": "abAB", "mobius": "aac"}

# closed normal-form words: (word, euler characteristic, orientable)
CLOSED_WORDS = (("aA", 2, True), ("aa", 1, False), ("abAB", 0, True),
                ("aabb", 0, False), ("abAb", 0, False), ("abab", 1, False),
                ("abABcdCD", -2, True), ("aabbcc", -1, False))
# words with free edges: word -> (chi, orientable, boundary, genus, name)
BOUNDED_WORDS = {
    "abc": (1, True, 1, 0, "disk"),
    "aac": (0, False, 1, 1, "Möbius band"),
    "abac": (0, False, 1, 1, "Möbius band"),
    "abAc": (0, True, 2, 0, "annulus"),
    "abABc": (-1, True, 1, 1, "torus with 1 boundary component"),
}


def closed_surface(chi, orientable):
    """(chi, orientable, boundary, genus, name) of a closed surface."""
    if orientable:
        genus = (2 - chi) // 2
        name = {0: "sphere", 1: "torus"}.get(genus, f"genus-{genus} surface")
    else:
        genus = 2 - chi
        name = {1: "projective plane", 2: "Klein bottle"}.get(
            genus, f"{genus}-crosscap surface")
    return (chi, orientable, 0, genus, name)


def surface_tuple(cls):
    return (cls.euler_char, cls.orientable, cls.boundary_count, cls.genus, cls.name)


# ------------------------------------------------------------- rectangles

def segment_distance(points, vertices):
    """Exact distance from each point (k, 2) to a closed polygon (m, 2)."""
    a = np.asarray(vertices, float)
    ab = np.roll(a, -1, axis=0) - a
    ap = np.asarray(points, float)[:, None, :] - a[None]
    s = np.clip(np.einsum("kmi,mi->km", ap, ab) / np.einsum("mi,mi->m", ab, ab), 0.0, 1.0)
    return np.linalg.norm(ap - s[..., None] * ab, axis=-1).min(axis=1)


def curve_residuals(query, points):
    """Closed-form residual of each point against the query's curve:
    |r - |p|| for circles, |(x/a)^2 + (y/b)^2 - 1| for ellipses,
    ||x/a|^p + |y/b|^p - 1| for superellipses, distance for polygons."""
    p = np.asarray(points, float)
    x, y = p[:, 0], p[:, 1]
    if query.kind == "circle":
        (r,) = query.params
        return np.abs(np.hypot(x, y) - r)
    if query.kind == "ellipse":
        a, b = query.params
        return np.abs((x / a) ** 2 + (y / b) ** 2 - 1.0)
    if query.kind == "superellipse":
        a, b, e = query.params
        return np.abs(np.abs(x / a) ** e + np.abs(y / b) ** e - 1.0)
    return segment_distance(p, query.params)


def _circ(a, b):
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def pair_separation(pa, pb):
    """Distance of two unordered pairs of loop positions on the band."""
    (a1, a2), (b1, b2) = pa, pb
    return min(math.hypot(_circ(a1, b1), _circ(a2, b2)),
               math.hypot(_circ(a1, b2), _circ(a2, b1)))


def check_witness(query, witness):
    """Vertices on the curve, diagonals (v0 v2, v1 v3) sharing a midpoint
    and a length, and the two pairs at least MIN_SEP apart."""
    v = np.asarray(witness.vertices, float)
    if v.shape != (4, 2) or not np.all(np.isfinite(v)):
        return [f"witness vertices malformed: shape {v.shape}"]
    problems = []
    off = float(np.max(curve_residuals(query, v)))
    if not off <= CHECK_TOL:
        problems.append(f"vertex off the curve: residual {off:.3g}")
    mid = float(np.linalg.norm(0.5 * (v[0] + v[2]) - 0.5 * (v[1] + v[3])))
    if not mid <= CHECK_TOL:
        problems.append(f"diagonal midpoints differ by {mid:.3g}")
    length = abs(float(np.linalg.norm(v[2] - v[0]) - np.linalg.norm(v[3] - v[1])))
    if not length <= CHECK_TOL:
        problems.append(f"diagonal lengths differ by {length:.3g}")
    sep = pair_separation(*witness.pairs)
    if not sep >= MIN_SEP:
        problems.append(f"pairs only {sep:.3g} apart")
    return problems


# ----------------------------------------------------------------- meshes

def check_mesh(scheme, invariants, parsed_invariants):
    """Known (chi, boundary loops, orientable) and an OBJ round trip that
    keeps every invariant."""
    inv = invariants
    problems = []
    got = (inv.euler_char, inv.boundary_loops, inv.orientable)
    if got != MESH_EXPECTED[scheme]:
        problems.append(f"{scheme} invariants {got} != {MESH_EXPECTED[scheme]}")
    if inv.V - inv.E + inv.F != inv.euler_char:
        problems.append(f"{scheme} chi {inv.euler_char} != V - E + F")
    if parsed_invariants != inv:
        problems.append(f"{scheme} parsed OBJ gives {parsed_invariants}, mesh gives {inv}")
    return problems


def check_word_agrees_with_mesh(scheme, invariants, surface):
    """classify() of the scheme's word matches the mesh on chi, boundary
    and orientability."""
    mesh = (invariants.euler_char, invariants.boundary_loops, invariants.orientable)
    word = (surface.euler_char, surface.boundary_count, surface.orientable)
    if mesh != word:
        return [f"{scheme} mesh {mesh} disagrees with classify({WORD_OF_MESH[scheme]!r}) {word}"]
    return []


# ---------------------------------------------------- pairs, words, cli

def count_bad_round_trips(quotient_distance, scheme, pairs, decoded):
    """Round trips that raised, changed orderedness or left the class."""
    bad = [not hasattr(d, "ordered") or d.ordered != p.ordered
           for p, d in zip(pairs, decoded)]
    ok = [i for i, b in enumerate(bad) if not b]
    if ok:
        x = np.array([pairs[i].a for i in ok])
        y = np.array([pairs[i].b for i in ok])
        bx = np.array([decoded[i].a for i in ok])
        by = np.array([decoded[i].b for i in ok])
        dist = np.asarray(quotient_distance(scheme, (x, y), (bx, by)))
        for i, dd in zip(ok, dist):
            bad[i] = not dd <= ROUND_TRIP_TOL
    return sum(bad)


def count_bad_words(expected, classes):
    return sum(not hasattr(c, "euler_char") or surface_tuple(c) != e
               for e, c in zip(expected, classes))
