import string

import numpy as np
import pytest

from loopsurf.edgeword import EdgeWord, SurfaceClass, canonical_name, classify, parse
from loopsurf.embed import build_mesh, mesh_invariants
from loopsurf.pairspace import Scheme


# ---------------------------------------------------------------------- parse

def test_parse_commutator():
    w = parse("abAB")
    assert w.letters == (("a", 1), ("b", 1), ("a", -1), ("b", -1))
    assert w.text() == "abAB"


def test_parse_whitespace_ignored():
    w = parse("a a b b")
    assert w.letters == (("a", 1), ("a", 1), ("b", 1), ("b", 1))


def test_parse_triple_label():
    with pytest.raises(ValueError, match="label 'a' appears 3 times"):
        parse("aaa")


def test_edge_word_built_directly_rejects_triple_label():
    with pytest.raises(ValueError, match="^label 'a' appears 3 times$"):
        EdgeWord(letters=(("a", 1), ("b", 1), ("a", -1), ("a", 1)))


def test_edge_word_built_directly_rejects_empty_word():
    for letters in ((), []):
        with pytest.raises(ValueError, match="^empty word$"):
            EdgeWord(letters=letters)


def test_parse_illegal_character():
    with pytest.raises(ValueError, match="illegal character '1'"):
        parse("a1b")


def test_parse_empty():
    with pytest.raises(ValueError, match="empty word"):
        parse("   ")


# ------------------------------------------------------------------- catalog

CATALOG = [
    ("aA", 2, True, 0, 0, "sphere"),
    ("abAB", 0, True, 0, 1, "torus"),
    ("abab", 1, False, 0, 1, "projective plane"),
    ("aa", 1, False, 0, 1, "projective plane"),
    ("abaB", 0, False, 0, 2, "Klein bottle"),
    ("abABcdCD", -2, True, 0, 2, "genus-2 surface"),
    ("ab", 1, True, 1, 0, "disk"),
    ("a", 1, True, 1, 0, "disk"),
    ("baca", 0, False, 1, 1, "Möbius band"),
    ("aAbB", 2, True, 0, 0, "sphere"),
]


@pytest.mark.parametrize("text,chi,orientable,boundary,genus,name", CATALOG)
def test_classify_catalog(text, chi, orientable, boundary, genus, name):
    c = classify(parse(text))
    assert c.euler_char == chi
    assert c.orientable == orientable
    assert c.boundary_count == boundary
    assert c.genus == genus
    assert c.name == name


def test_annulus_word():
    # square with left and right edges glued straight, top/bottom free
    c = classify(parse("bacA"))
    assert (c.euler_char, c.orientable, c.boundary_count) == (0, True, 2)
    assert c.name == "annulus"


# ------------------------------------------------- independent brute oracle

def _oracle_vertex_count(word):
    """Exhaustive corner tracing: build the full corner identification
    relation by fixed-point closure over explicit endpoint matchings."""
    n = len(word.letters)
    occ = {}
    for k, (label, e) in enumerate(word.letters):
        occ.setdefault(label, []).append((k, e))

    def corner(side, exp, which):
        if which == "start":
            return side if exp > 0 else (side + 1) % n
        return (side + 1) % n if exp > 0 else side

    related = {i: {i} for i in range(n)}
    pairs = []
    for entries in occ.values():
        if len(entries) == 2:
            (k1, e1), (k2, e2) = entries
            pairs.append((corner(k1, e1, "start"), corner(k2, e2, "start")))
            pairs.append((corner(k1, e1, "end"), corner(k2, e2, "end")))
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            merged = related[a] | related[b]
            for c in merged:
                if related[c] != merged:
                    related[c] = merged
                    changed = True
    return len({frozenset(s) for s in related.values()})


def _random_word(rng, max_labels=6, max_len=10):
    labels = list(string.ascii_lowercase[:max_labels])
    budget = {l: 2 for l in labels}
    length = int(rng.integers(1, max_len + 1))
    out = []
    for _ in range(length):
        avail = [l for l in labels if budget[l] > 0]
        if not avail:
            break
        l = avail[int(rng.integers(0, len(avail)))]
        budget[l] -= 1
        out.append(l if rng.random() < 0.5 else l.upper())
    return "".join(out)


def test_euler_char_matches_brute_oracle():
    rng = np.random.default_rng(17)
    for _ in range(300):
        text = _random_word(rng)
        word = parse(text)
        c = classify(word)
        v = _oracle_vertex_count(word)
        e = len({l for l, _ in word.letters})
        assert c.euler_char == v - e + 1, text


def test_catalog_against_brute_oracle():
    for text, chi, *_ in CATALOG:
        word = parse(text)
        e = len({l for l, _ in word.letters})
        assert _oracle_vertex_count(word) - e + 1 == chi


# ----------------------------------------------------------------- properties

def _rotate(text, k):
    w = parse(text)
    rotated = w.letters[k:] + w.letters[:k]
    return EdgeWord(letters=rotated)


def _invert(text):
    w = parse(text)
    return EdgeWord(letters=tuple((l, -e) for l, e in reversed(w.letters)))


def _relabel(text, rng):
    w = parse(text)
    labels = sorted({l for l, _ in w.letters})
    perm = list(string.ascii_lowercase)
    rng.shuffle(perm)
    mapping = dict(zip(labels, perm))
    return EdgeWord(letters=tuple((mapping[l], e) for l, e in w.letters))


def test_rotation_inversion_relabel_invariance():
    rng = np.random.default_rng(19)
    for _ in range(200):
        text = _random_word(rng)
        base = classify(parse(text))
        n = len(parse(text).letters)
        k = int(rng.integers(0, n))
        assert classify(_rotate(text, k)) == base
        assert classify(_invert(text)) == base
        assert classify(_relabel(text, rng)) == base


def test_closed_orientable_chi_even_and_bounded():
    # fully paired words close the surface; draw until a decent sample of
    # orientable ones has been checked
    rng = np.random.default_rng(23)
    seen = 0
    for _ in range(500):
        k = int(rng.integers(1, 5))
        letters = list(string.ascii_lowercase[:k]) * 2
        rng.shuffle(letters)
        word = "".join(l if rng.random() < 0.5 else l.upper() for l in letters)
        c = classify(parse(word))
        assert c.boundary_count == 0
        if c.orientable:
            assert c.euler_char % 2 == 0 and c.euler_char <= 2
            seen += 1
    assert seen > 10


def test_connected_sum_genus_two():
    c = classify(parse("abABcdCD"))
    assert c.euler_char == -2 and c.genus == 2


def test_agreement_with_meshes():
    torus_word = classify(parse("abAB"))
    torus_mesh = mesh_invariants(build_mesh(Scheme.TORUS, 8))
    assert torus_word.euler_char == torus_mesh.euler_char
    assert torus_word.orientable == torus_mesh.orientable
    assert torus_word.boundary_count == torus_mesh.boundary_loops

    band_word = classify(parse("baca"))
    band_mesh = mesh_invariants(build_mesh(Scheme.MOBIUS_UNORDERED, 8))
    assert band_word.euler_char == band_mesh.euler_char
    assert band_word.orientable == band_mesh.orientable
    assert band_word.boundary_count == band_mesh.boundary_loops


# -------------------------------------------------------------------- naming

def test_canonical_name_table():
    assert canonical_name(SurfaceClass(0, False, 1, 1, "")) == "Möbius band"
    assert canonical_name(SurfaceClass(2, True, 0, 0, "")) == "sphere"
    assert canonical_name(SurfaceClass(-2, True, 0, 2, "")) == "genus-2 surface"
    assert canonical_name(SurfaceClass(-1, False, 0, 3, "")) == "3-crosscap surface"
    assert canonical_name(SurfaceClass(-1, True, 1, 1, "")) == "torus with 1 boundary component"
    assert canonical_name(SurfaceClass(-2, True, 2, 1, "")) == "torus with 2 boundary components"


def test_canonical_name_fallback():
    assert canonical_name(SurfaceClass(1, True, 0, 0, "")) == \
        "surface(chi=1, orientable=True, boundary=0)"
    # bounded: an orientable chi + b = 1 has no closed name to take the boundary
    assert canonical_name(SurfaceClass(0, True, 1, 0, "")) == \
        "surface(chi=0, orientable=True, boundary=1)"
