"""Fundamental-polygon edge words and their surface classification.

A word lists the edge labels read around a single polygon: lowercase means
the edge is traversed along its arrow, uppercase against it ("abAB" is
a b a^-1 b^-1). Labels occurring twice are glued; labels occurring once are
free boundary edges.

``classify`` names the glued surface from its Euler characteristic,
orientability and boundary circles. It finds the vertices and the boundary
circles with one union-find over the ends of the polygon's sides, whose
components are the links of the vertices.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EdgeWord:
    """Ordered (label, exponent) letters, at least one; each label occurs at
    most twice."""

    letters: tuple

    def __post_init__(self):
        if not self.letters:
            raise ValueError("empty word")
        counts = {}
        for label, _ in self.letters:
            counts[label] = counts.get(label, 0) + 1
        for label, k in counts.items():
            if k > 2:
                raise ValueError(f"label '{label}' appears {k} times")

    def text(self):
        return "".join(l if e > 0 else l.upper() for l, e in self.letters)


@dataclass(frozen=True)
class SurfaceClass:
    """Classification result.

    ``genus`` counts handles for orientable surfaces and crosscaps
    otherwise; for surfaces with boundary it refers to the capped-off
    closed surface.
    """

    euler_char: int
    orientable: bool
    boundary_count: int
    genus: int
    name: str

    def to_json(self):
        return {"euler_char": self.euler_char, "orientable": self.orientable,
                "boundary_count": self.boundary_count, "genus": self.genus,
                "name": self.name}


def parse(text):
    """Parse a word: lowercase = +1, uppercase = -1, whitespace ignored."""
    letters = []
    for ch in text:
        if ch.isspace():
            continue
        if not ("a" <= ch <= "z" or "A" <= ch <= "Z"):
            raise ValueError(f"illegal character {ch!r}")
        letters.append((ch.lower(), 1 if ch.islower() else -1))
    return EdgeWord(letters=tuple(letters))


def classify(word):
    """Surface of the single polygon whose boundary reads the word.

    V and the boundary circles are read off one graph, the vertex links
    of the glued polygon. Node 2k + h is end h of side k (0 = tail at
    corner k, 1 = head at corner k + 1). Corner k joins nodes 2k - 1 and
    2k, and each glued pair of sides joins its label-matched ends. Each
    component is the link of one vertex, so V counts them; E counts the
    labels and F = 1. The link of a boundary vertex is a path whose two
    ends lie on free sides, so once an edge is added across each free
    side, each boundary circle is one component that holds a free side.
    A label glued with equal exponents on both sides kills orientability.
    """
    n = len(word.letters)
    # the corners are joined from the start: tail node 2k begins under
    # head node 2k - 1
    parent = [(i - 1) % (2 * n) if i % 2 == 0 else i for i in range(2 * n)]

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def join(i, j):
        parent[find(i)] = find(j)

    sides = {}
    for k, (label, e) in enumerate(word.letters):
        sides.setdefault(label, []).append((k, e))
    glued = [p for p in sides.values() if len(p) == 2]
    for (k1, e1), (k2, e2) in glued:
        join(2 * k1 + (e1 < 0), 2 * k2 + (e2 < 0))    # label starts
        join(2 * k1 + (e1 > 0), 2 * k2 + (e2 > 0))    # label ends
    v = len({find(2 * k + 1) for k in range(n)})    # one head node per corner
    free = [p[0][0] for p in sides.values() if len(p) == 1]
    for k in free:
        join(2 * k, 2 * k + 1)
    boundary = len({find(2 * k) for k in free})

    chi = v - len(sides) + 1
    orientable = all(e1 != e2 for (_, e1), (_, e2) in glued)
    capped = chi + boundary
    genus = (2 - capped) // 2 if orientable else 2 - capped
    genus = max(genus, 0)
    cls = SurfaceClass(chi, orientable, boundary, genus, "")
    return SurfaceClass(chi, orientable, boundary, genus, canonical_name(cls))


def _closed_name(chi, orientable):
    if orientable:
        if chi == 2:
            return "sphere"
        if chi == 0:
            return "torus"
        if chi < 0 and chi % 2 == 0:
            return f"genus-{(2 - chi) // 2} surface"
    else:
        if chi == 1:
            return "projective plane"
        if chi == 0:
            return "Klein bottle"
        if chi < 0:
            return f"{2 - chi}-crosscap surface"
    return None


def canonical_name(c):
    """Human name of a surface class; falls back to a descriptive string
    for combinations outside the closed naming table."""
    chi, o, b = c.euler_char, c.orientable, c.boundary_count
    fallback = f"surface(chi={chi}, orientable={o}, boundary={b})"
    if b == 0:
        return _closed_name(chi, o) or fallback
    if o and chi == 1 and b == 1:
        return "disk"
    if o and chi == 0 and b == 2:
        return "annulus"
    if not o and chi == 0 and b == 1:
        return "Möbius band"
    base = _closed_name(chi + b, o)
    if base is None:
        return fallback
    suffix = "boundary component" if b == 1 else "boundary components"
    return f"{base} with {b} {suffix}"
