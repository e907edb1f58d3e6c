"""classify on every small word, against a loop reference and a mesh oracle.

The reference is the classifier as first written: corners merged by a
union-find over endpoint matchings, and boundary circles traced by walking
around each vertex from one free side to the next. The oracle triangulates
the word's polygon, welds its glued sides and reads the surface off
mesh_invariants, which shares no code with classify.
"""
import itertools

import numpy as np

from loopsurf.edgeword import EdgeWord, SurfaceClass, canonical_name, classify
from loopsurf.embed import Mesh, _components, mesh_invariants


def _words(max_len):
    """Every word of 1..max_len letters up to renaming its labels: labels
    enter in alphabetical order, each is used at most twice, and each
    letter is taken both ways round."""
    def patterns(prefix, n):
        if len(prefix) == n:
            yield prefix
            return
        for label in range(max(prefix, default=-1) + 2):
            if prefix.count(label) < 2:
                yield from patterns(prefix + [label], n)

    for n in range(1, max_len + 1):
        for pattern in patterns([], n):
            for exps in itertools.product((1, -1), repeat=n):
                yield EdgeWord(tuple((chr(97 + l), e) for l, e in zip(pattern, exps)))


# ------------------------------------------------------------------ reference

def _occurrences(word):
    occ = {}
    for k, (label, e) in enumerate(word.letters):
        occ.setdefault(label, []).append((k, e))
    return occ


def _corner_of_endpoint(side, exp, which, n):
    """Polygon corner carrying the given label endpoint of a side.

    Side k runs from corner k to corner k+1; exponent +1 means the side is
    traversed from the label's start to its end.
    """
    if which == "start":
        return side if exp > 0 else (side + 1) % n
    return (side + 1) % n if exp > 0 else side


def _endpoint_of_corner(side, exp, corner, n):
    if corner == side:  # tail of the side
        return "start" if exp > 0 else "end"
    return "end" if exp > 0 else "start"


def _chain_to_free_side(corner, cross, word, partner, n):
    """Rotate around the vertex at ``corner``, crossing glued sides starting
    with ``cross``, until a free side is reached. Returns (side, end) with
    end 0 at the side's tail corner, 1 at its head."""
    letters = word.letters
    for _ in range(2 * n + 1):
        if partner[cross] is None:
            return (cross, 0 if corner == cross else 1)
        other = partner[cross]
        which = _endpoint_of_corner(cross, letters[cross][1], corner, n)
        corner = _corner_of_endpoint(other, letters[other][1], which, n)
        cross = (corner - 1) % n if other == corner else corner
    raise AssertionError("vertex star walk did not terminate")


def _boundary_count(word, partner, n):
    free = [k for k in range(n) if partner[k] is None]
    if not free:
        return 0
    chain = {}
    for s in free:
        chain[(s, 0)] = _chain_to_free_side(s, (s - 1) % n, word, partner, n)
        chain[(s, 1)] = _chain_to_free_side((s + 1) % n, (s + 1) % n, word, partner, n)
    loops = 0
    visited = set()
    for start in sorted(chain):
        if start in visited:
            continue
        loops += 1
        cur = start
        while cur not in visited:
            visited.add(cur)
            nxt = chain[cur]
            visited.add(nxt)
            cur = (nxt[0], 1 - nxt[1])  # continue along the free side
    return loops


def _classify_reference(word):
    n = len(word.letters)
    occ = _occurrences(word)

    partner = [None] * n
    for pairs in occ.values():
        if len(pairs) == 2:
            (k1, _), (k2, _) = pairs
            partner[k1], partner[k2] = k2, k1

    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    for pairs in occ.values():
        if len(pairs) == 2:
            (k1, e1), (k2, e2) = pairs
            union(_corner_of_endpoint(k1, e1, "start", n),
                  _corner_of_endpoint(k2, e2, "start", n))
            union(_corner_of_endpoint(k1, e1, "end", n),
                  _corner_of_endpoint(k2, e2, "end", n))

    v = len({find(i) for i in range(n)})
    e = len(occ)
    chi = v - e + 1
    orientable = all(not (len(p) == 2 and p[0][1] == p[1][1]) for p in occ.values())
    boundary = _boundary_count(word, partner, n)

    capped = chi + boundary
    genus = (2 - capped) // 2 if orientable else 2 - capped
    genus = max(genus, 0)
    cls = SurfaceClass(chi, orientable, boundary, genus, "")
    return SurfaceClass(chi, orientable, boundary, genus, canonical_name(cls))


def test_classify_matches_reference_on_all_words_to_length_6():
    count = 0
    for word in _words(6):
        assert classify(word) == _classify_reference(word), word.text()
        count += 1
    assert count == 5898


# --------------------------------------------------------------- mesh oracle

def _polygon_mesh(word):
    """The word's polygon as a welded triangle mesh.

    Outer-ring point 3k + t lies t/3 of the way along side k, so no two
    ring neighbours weld together and every edge joins its own pair of
    vertices. Glued sides weld their points at equal fractions of the
    label. An unwelded inner ring keeps the fan at the centre clear of
    the welds.
    """
    m = 3 * len(word.letters)
    sides = {}
    for k, (label, e) in enumerate(word.letters):
        sides.setdefault(label, []).append((k, e))
    welds = [[(3 * k + (s if e > 0 else 3 - s)) % m for k, e in pair]
             for pair in sides.values() if len(pair) == 2 for s in range(4)]
    a, b = np.array(welds, dtype=np.int64).reshape(-1, 2).T
    outer = np.unique(_components(m, a, b), return_inverse=True)[1].ravel()
    inner = outer.max() + 1 + np.arange(m)
    centre = inner[-1] + 1
    tris = np.concatenate([
        np.stack([outer, np.roll(outer, -1), np.roll(inner, -1)], axis=1),
        np.stack([outer, np.roll(inner, -1), inner], axis=1),
        np.stack([inner, np.roll(inner, -1), np.full(m, centre)], axis=1)])
    return Mesh(vertices=np.zeros((centre + 1, 3)), triangles=tris)


def test_classify_matches_polygon_meshes_on_all_words_to_length_5():
    count = 0
    for word in _words(5):
        c, inv = classify(word), mesh_invariants(_polygon_mesh(word))
        assert (c.euler_char, c.orientable, c.boundary_count) \
            == (inv.euler_char, inv.orientable, inv.boundary_loops), word.text()
        count += 1
    assert count == 1034
