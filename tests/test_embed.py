import hashlib
import io
import itertools
import tracemalloc

import numpy as np
import pytest

from loopsurf.embed import (
    Mesh,
    NonManifoldEdgeError,
    _first_seen_ids,
    build_mesh,
    embed,
    export_obj,
    mesh_invariants,
    mobius_band_chart,
    parse_obj,
    pinched_sphere_chart,
    torus_chart,
)
from loopsurf.pairspace import (
    QuotientPoint,
    Scheme,
    canonical_chart,
    canonicalize,
    quotient_distance,
)

T, P, M = Scheme.TORUS, Scheme.PINCHED_SPHERE, Scheme.MOBIUS_UNORDERED
LEAST_N = {T: 3, P: 3, M: 5}    # the least grid resolution build_mesh takes


# ---------------------------------------------------------------- point charts

def test_torus_outer_equator():
    p = embed(T, QuotientPoint(T, 0.0, 0.0))
    assert np.allclose(p, [3.0, 0.0, 0.0], atol=1e-15)


def test_pinched_pole_is_origin():
    p = embed(P, QuotientPoint(P, 0.0, 0.0, is_pole=True))
    assert np.array_equal(p, np.zeros(3))


def test_mobius_core_circle_point():
    # (m, d) = (1/4, 1/4): t = pi, width coordinate 0 -> (-R, 0, 0)
    p = embed(M, QuotientPoint(M, 0.25, 0.25))
    assert np.allclose(p, [-2.0, 0.0, 0.0], atol=1e-14)


def test_charts_pin_radii():
    # R = 2, r = 1, w = 0.5: points whose coordinates are exact in floating point
    assert np.array_equal(torus_chart(0, 0), [3.0, 0.0, 0.0])
    assert np.array_equal(torus_chart(0, 0.5)[:2], [1.0, 0.0])
    assert np.array_equal(pinched_sphere_chart(0.5, 0)[:2], [2.0, 0.0])
    assert np.array_equal(mobius_band_chart(0, 0), [2.5, 0.0, 0.0])
    assert np.array_equal(mobius_band_chart(0, 0.25), [2.0, 0.0, 0.0])


def test_mobius_seam_limits():
    eps = 1e-8
    for d in (0.0, 0.1, 0.2):
        a = mobius_band_chart(0.5 - eps, d)
        b = mobius_band_chart(0.5 + eps, d)
        assert np.linalg.norm(a - b) < 1e-6
        c = mobius_band_chart(1.0 - eps, d)
        e = mobius_band_chart(0.0, d)
        assert np.linalg.norm(c - e) < 1e-6


def test_embed_rejects_non_canonical():
    with pytest.raises(ValueError, match="canonical domain"):
        embed(T, QuotientPoint(T, 1.0, 0.5))
    with pytest.raises(ValueError, match="antipodal"):
        embed(M, QuotientPoint(M, 0.9, 0.25))


def test_embed_scheme_mismatch():
    with pytest.raises(ValueError, match="scheme"):
        embed(T, QuotientPoint(M, 0.1, 0.1))


def test_chart_constant_on_classes():
    rng = np.random.default_rng(8)
    for scheme in (T, P, M):
        for _ in range(200):
            x, y = rng.random(2)
            if scheme is T:
                others = [(x + 1.0, y), (x, y - 1.0), (x + 1.0, y - 1.0)]
            elif scheme is P:
                others = [(x, y + 1.0)]
            else:
                others = [(y, x), (y + 1.0, x), (y, x - 1.0)]
            base = embed(scheme, canonicalize(scheme, x, y))
            for ox, oy in others:
                q = canonicalize(scheme, ox, oy)
                assert np.linalg.norm(embed(scheme, q) - base) < 1e-9
    # both collapsed edges are the single pole
    for y1, y2 in ((0.3, 0.9), (0.0, 0.5)):
        a = embed(P, canonicalize(P, 0.0, y1))
        b = embed(P, canonicalize(P, 1.0, y2))
        assert np.array_equal(a, b)


def test_chart_injectivity_sampled():
    rng = np.random.default_rng(9)
    n = 2000
    for scheme in (T, P, M):
        x1, y1, x2, y2 = rng.random((4, n))
        if scheme is M:
            u1, v1 = np.vectorize(lambda a, b: (canonicalize(M, a, b).u,
                                                canonicalize(M, a, b).v))(x1, y1)
        qd = quotient_distance(scheme, (x1, y1), (x2, y2))
        mask = qd > 1e-3
        e1 = np.stack([embed(scheme, canonicalize(scheme, a, b))
                       for a, b in zip(x1[mask], y1[mask])])
        e2 = np.stack([embed(scheme, canonicalize(scheme, a, b))
                       for a, b in zip(x2[mask], y2[mask])])
        dist = np.linalg.norm(e1 - e2, axis=1)
        assert np.all(dist > 1e-6)


# --------------------------------------------------------------------- meshes

def test_torus_mesh_counts_n8():
    inv = mesh_invariants(build_mesh(T, 8))
    assert (inv.V, inv.E, inv.F) == (64, 192, 128)
    assert inv.euler_char == 0 and inv.boundary_loops == 0 and inv.orientable


def test_meshes_compare_and_hash_by_identity():
    # array fields have no single truth value: the generated __eq__ raised
    # ValueError on two equal meshes, and the generated __hash__ TypeError
    mesh = build_mesh(T, 8)
    assert mesh == mesh
    assert (mesh == build_mesh(T, 8)) is False
    assert {mesh: 1}[mesh] == 1


def test_pinched_mesh_counts_n8():
    inv = mesh_invariants(build_mesh(P, 8))
    # sphere counts with the two pole classes merged into one vertex
    assert (inv.V, inv.E, inv.F) == (57, 168, 112)
    assert inv.euler_char == 1 and inv.boundary_loops == 0 and inv.orientable


def test_mobius_mesh_counts_n8():
    inv = mesh_invariants(build_mesh(M, 8))
    assert (inv.V, inv.E, inv.F) == (36, 100, 64)
    assert inv.euler_char == 0 and inv.boundary_loops == 1 and not inv.orientable


@pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 13, 16])
def test_mesh_theory_agreement(n):
    expected = {T: (0, 0, True), P: (1, 0, True), M: (0, 1, False)}
    for scheme, (chi, loops, orientable) in expected.items():
        if n < LEAST_N[scheme]:
            continue
        inv = mesh_invariants(build_mesh(scheme, n))
        assert inv.euler_char == chi
        assert inv.boundary_loops == loops
        assert inv.orientable == orientable


def test_mesh_resolution_precondition():
    with pytest.raises(ValueError, match=">= 3"):
        build_mesh(T, 2)
    for n in (5.0, 4.5, np.float64(5.0)):
        with pytest.raises(ValueError, match=f"^grid resolution must be an integer >= 3, got {n}$"):
            build_mesh(T, n)
    assert np.array_equal(build_mesh(T, np.int64(5)).triangles, build_mesh(T, 5).triangles)


def test_build_mesh_takes_a_scheme_not_its_value():
    with pytest.raises(ValueError, match="^unknown scheme 'torus'$"):
        build_mesh("torus", 8)


def test_weld_map_consistency():
    n = 6
    for scheme in (T, P, M):
        mesh = build_mesh(scheme, n)
        for i in (0, 1, n - 1, n):
            for j in (0, 2, n):
                g = i * (n + 1) + j
                q = canonicalize(scheme, i / n, j / n)
                want = np.zeros(3) if (scheme is P and q.is_pole) else embed(scheme, q)
                assert np.linalg.norm(mesh.vertices[mesh.weld_map[g]] - want) < 1e-9


@pytest.mark.parametrize("scheme", [T, P, M], ids=lambda s: s.value)
def test_vertex_pairs_partition_sides_as_pairspace_glues_midpoints(scheme):
    """Two kept sides join one vertex pair iff pairspace glues their grid
    midpoints. A side at the pinched pole is labelled by its far vertex
    instead: a collapsed sliver glues the two sides that meet there."""
    for n in list(range(LEAST_N[scheme], 17)) + [31, 37, 64]:
        mesh = build_mesh(scheme, n)
        # corners of the 2n^2 grid triangles in creation order: cell (ci, cj)
        # row-major, lower (c, c+di, c+di+dj), then upper (c, c+di+dj, c+dj)
        ci, cj = np.divmod(np.repeat(np.arange(n * n), 2), n)
        upper = np.arange(2 * n * n) % 2
        corner_i = np.stack([ci, ci + 1, ci + 1 - upper], axis=1)
        corner_j = np.stack([cj, cj + upper, cj + 1], axis=1)
        tris = mesh.weld_map[corner_i * (n + 1) + corner_j]
        keep = (tris != tris[:, [1, 2, 0]]).all(axis=1)
        if scheme is M:    # of each swapped pair of faces, the first is kept
            keep &= np.arange(2 * n * n) <= 2 * (cj * n + ci) + 1 - upper
        assert np.array_equal(tris[keep], mesh.triangles)

        pi, pj = corner_i[keep].ravel(), corner_j[keep].ravel()
        qi, qj = corner_i[keep][:, [1, 2, 0]].ravel(), corner_j[keep][:, [1, 2, 0]].ravel()
        u, v, _ = canonical_chart(scheme, (pi + qi) / (2 * n), (pj + qj) / (2 * n))
        p_pole = canonical_chart(scheme, pi / n, pj / n)[2]
        at_pole = p_pole | canonical_chart(scheme, qi / n, qj / n)[2]
        far = mesh.weld_map[np.where(p_pole, qi * (n + 1) + qj, pi * (n + 1) + pj)]
        labels = np.stack([np.where(at_pole, -1.0, u), np.where(at_pole, far, v)], axis=1)
        label_ids = np.unique(labels, axis=0, return_inverse=True)[1].ravel()
        ends = np.sort(np.stack([mesh.triangles, mesh.triangles[:, [1, 2, 0]]], axis=2), axis=2)
        ids = np.unique(ends.reshape(-1, 2), axis=0, return_inverse=True)[1].ravel()
        pairs = np.unique(np.stack([label_ids, ids], axis=1), axis=0)
        assert len(pairs) == label_ids.max() + 1 == ids.max() + 1
        assert at_pole.any() == (scheme is P)


def test_mesh_vertices_all_referenced():
    for n, scheme in itertools.product(range(3, 13), (T, P, M)):
        if n < LEAST_N[scheme]:
            continue
        mesh = build_mesh(scheme, n)
        assert set(np.unique(mesh.triangles)) == set(range(len(mesh.vertices)))


def _orientable_by_exhaustion(mesh):
    """Independent oracle: search all winding assignments for one in which
    every shared edge is traversed oppositely by its two triangles. A side
    runs forwards (+1) when its tail vertex index is below its head's."""
    tris = np.asarray(mesh.triangles)
    nf = len(tris)
    sv = np.stack([tris[:, [0, 1, 2]].ravel(), tris[:, [1, 2, 0]].ravel()], axis=1)
    signs = np.where(sv[:, 0] < sv[:, 1], 1, -1)
    ids = np.unique(np.sort(sv, axis=1), axis=0, return_inverse=True)[1].ravel()
    groups = {}
    for slot, e in enumerate(ids):
        groups.setdefault(int(e), []).append(slot)
    constraints = [(g[0] // 3, int(signs[g[0]]), g[1] // 3, int(signs[g[1]]))
                   for g in groups.values() if len(g) == 2]
    for assign in itertools.product((1, -1), repeat=nf):
        if all(assign[f1] * s1 == -assign[f2] * s2
               for f1, s1, f2, s2 in constraints):
            return True
    return False


def test_orientability_against_exhaustive_oracle():
    # the least Möbius band has 25 faces, 2**25 windings: its exhaustive
    # check runs on face subsets below
    for scheme in (T, P):
        mesh = build_mesh(scheme, 3)
        inv = mesh_invariants(mesh)
        assert inv.orientable == _orientable_by_exhaustion(mesh)


def test_orientability_of_face_subsets_against_exhaustive_oracle():
    rng = np.random.default_rng(12)
    seen = set()
    for scheme, n in ((T, 3), (T, 4), (P, 3), (P, 4), (M, 5), (M, 6)):
        mesh = build_mesh(scheme, n)
        nf = len(mesh.triangles)
        subsets = [np.sort(rng.choice(nf, size=int(rng.integers(1, min(nf, 16) + 1)), replace=False))
                   for _ in range(40)]
        if (scheme, n) == (M, 5):
            # the 15 faces with no corner on the boundary x = y: a Möbius
            # strip about the core, which few random subsets hold
            subsets.append(np.flatnonzero(
                ~np.isin(mesh.triangles, mesh.weld_map[::n + 2]).any(axis=1)))
        for faces in subsets:
            sub = Mesh(vertices=mesh.vertices, triangles=mesh.triangles[faces])
            try:
                inv = mesh_invariants(sub)
            except ValueError:          # open boundary pinched at a vertex
                continue
            assert inv.orientable == _orientable_by_exhaustion(sub)
            seen.add(inv.orientable)
    assert seen == {True, False}


def test_single_triangle_invariants():
    mesh = Mesh(vertices=np.eye(3), triangles=np.array([[0, 1, 2]]))
    inv = mesh_invariants(mesh)
    assert (inv.V, inv.E, inv.F) == (3, 3, 1)
    assert inv.euler_char == 1 and inv.boundary_loops == 1 and inv.orientable


@pytest.mark.parametrize("tris", [np.array([[0, 1, 2.7]]), np.array([[False, True, True]])],
                         ids=["float", "bool"])
def test_mesh_rejects_non_integer_triangles(tris):
    # [[0, 1, 2.7]] counted as one triangle and was written to OBJ as "f 1.0 2.0 3.7"
    with pytest.raises(ValueError, match="triangle indices must be integers"):
        Mesh(vertices=np.eye(3), triangles=tris)


@pytest.mark.parametrize("verts,tris", [(np.eye(3), np.array([0, 1, 2])),
                                        (np.eye(3)[:, :2], np.array([[0, 1, 2]]))],
                         ids=["flat-triangles", "planar-vertices"])
def test_mesh_rejects_misshapen_arrays(verts, tris):
    # a flat index array made mesh_invariants raise IndexError; planar vertices
    # counted as a mesh that export_obj then refused
    with pytest.raises(ValueError, match=r"must have shape \([km], 3\)"):
        Mesh(vertices=verts, triangles=tris)
    # text without v lines parses to empty vertices of shape (0,)
    assert Mesh(vertices=np.empty(0), triangles=np.empty((0, 3), int)).vertices.shape == (0,)


def test_bow_tie_boundary_reported():
    # two triangles sharing vertex 2: it meets four boundary edges
    mesh = Mesh(vertices=np.arange(15.0).reshape(5, 3),
                triangles=np.array([[0, 1, 2], [2, 3, 4]]))
    with pytest.raises(ValueError, match="^boundary does not form closed loops: "
                                         "vertex 2 has 4 boundary edges$"):
        mesh_invariants(mesh)


@pytest.mark.parametrize("scheme", [T, P, M], ids=lambda s: s.value)
def test_invariants_ignore_edge_class_labels(scheme):
    # an edge is keyed by its vertex pair: renumbering the vertices relabels
    # every edge and reorders the sides of each, and changes no invariant
    mesh = build_mesh(scheme, 8)
    perm = np.random.default_rng(5).permutation(len(mesh.vertices))
    renumbered = Mesh(vertices=mesh.vertices[np.argsort(perm)], triangles=perm[mesh.triangles])
    assert np.array_equal(renumbered.vertices[renumbered.triangles], mesh.vertices[mesh.triangles])
    assert mesh_invariants(renumbered) == mesh_invariants(mesh)


def test_non_manifold_edge_reported():
    mesh = Mesh(vertices=np.vstack([np.eye(3), [[1.0, 1.0, 1.0], [0.0, 1.0, 1.0]]]),
                triangles=np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]]))
    with pytest.raises(NonManifoldEdgeError, match=r"non-manifold edge \(0, 1\): 3"):
        mesh_invariants(mesh)


@pytest.mark.parametrize("scheme", [T, P, M], ids=lambda s: s.value)
def test_vertex_pairs_suffice_except_on_the_coarsest_bands(scheme):
    # an OBJ carries vertex pairs only, and they give every built mesh its
    # invariants; the Möbius band at n = 3 and 4, where two quotient edges
    # join one pair of welded vertices, is refused
    for n in [*range(LEAST_N[scheme], 21), 64]:
        mesh = build_mesh(scheme, n)
        sink = io.BytesIO()
        export_obj(mesh, sink)
        assert mesh_invariants(parse_obj(sink.getvalue())) == mesh_invariants(mesh)
    if scheme is M:
        for n in (3, 4):
            with pytest.raises(ValueError, match=(
                    f"^a mobius band needs grid resolution >= 5, got {n}: coarser grids "
                    "join two quotient edges on one vertex pair$")):
                build_mesh(M, n)


def test_refinement_stability():
    for scheme, key in ((T, (0, 0, True)), (P, (1, 0, True)), (M, (0, 1, False))):
        for n in (3, 9, 27) if scheme is not M else (5, 15, 45):
            inv = mesh_invariants(build_mesh(scheme, n))
            assert (inv.euler_char, inv.boundary_loops, inv.orientable) == key


# ------------------------------------------------------------------------ OBJ

def test_obj_single_triangle():
    mesh = Mesh(vertices=np.eye(3), triangles=np.array([[0, 1, 2]]))
    sink = io.BytesIO()
    export_obj(mesh, sink)
    lines = sink.getvalue().decode().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 3
    assert [l for l in lines if l.startswith("f ")] == ["f 1 2 3"]


def test_obj_torus_counts():
    sink = io.BytesIO()
    export_obj(build_mesh(T, 8), sink)
    lines = sink.getvalue().decode().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 64
    assert sum(1 for l in lines if l.startswith("f ")) == 128


def test_obj_empty_mesh():
    with pytest.raises(ValueError, match="empty mesh"):
        export_obj(Mesh(vertices=np.zeros((0, 3)), triangles=np.zeros((0, 3), int)), io.BytesIO())


def test_obj_roundtrip_exact_invariants():
    for scheme in (T, P, M):
        mesh = build_mesh(scheme, 6)
        sink = io.BytesIO()
        export_obj(mesh, sink)
        back = parse_obj(sink.getvalue())
        assert mesh_invariants(back) == mesh_invariants(mesh)
        assert np.array_equal(back.vertices, mesh.vertices)  # 17 sig digits round-trip
        assert np.array_equal(back.triangles, mesh.triangles)


def test_obj_parse_rejects_garbage():
    with pytest.raises(ValueError, match="unsupported OBJ directive"):
        parse_obj("v 0 0 0\nvn 1 0 0\n")


def _obj_per_line(mesh):
    return "".join([f"v {x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in mesh.vertices]
                   + [f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in mesh.triangles]).encode()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_obj_golden_bytes(dtype):
    verts = np.array([[-0.0, 5e-324, 0.1], [1 / 3, 1e22, float(np.float32(0.1))],
                      [2.0, -7.5, 1e-300]], dtype=dtype)
    mesh = Mesh(vertices=verts, triangles=np.array([[0, 1, 2], [2, 1, 0]]))
    sink = io.BytesIO()
    export_obj(mesh, sink)
    assert sink.getvalue() == _obj_per_line(mesh)
    if dtype is np.float64:
        assert sink.getvalue().splitlines()[:2] == [
            b"v -0 4.9406564584124654e-324 0.10000000000000001",
            b"v 0.33333333333333331 1e+22 0.10000000149011612"]


@pytest.mark.parametrize("scheme,first,sha256,size", [
    (T, b"v 3 0 0", "b2391f13736af4349dc9ee2f583461b3c2ab394b519b8ab0e858904ada957b68", 577),
    (P, b"v 0 0 0", "b99372c50538533c8bfe2668ce154f6b2e12c7fc9e8317fc3c4232aa76d5e081", 442),
    (M, b"v 2.5 0 0", "ee9eaf89f92f5a9eac954872836fd027115790eb6d8376dc3150799c47d0be2e", 1017),
], ids=["torus", "pinched-sphere", "mobius"])
def test_least_mesh_golden_bytes(scheme, first, sha256, size):
    # the reference tests call the same charts; these bytes also pin the radii
    sink = io.BytesIO()
    export_obj(build_mesh(scheme, LEAST_N[scheme]), sink)
    data = sink.getvalue()
    assert data.splitlines()[0] == first and len(data) == size
    assert hashlib.sha256(data).hexdigest() == sha256


def test_obj_export_rejects_text_sink():
    mesh = Mesh(vertices=np.eye(3), triangles=np.array([[0, 1, 2]]))
    with pytest.raises(TypeError):
        export_obj(mesh, io.StringIO())


def test_obj_export_matches_per_line_format_on_meshes():
    for scheme in (T, P, M):
        mesh = build_mesh(scheme, 7)
        sink = io.BytesIO()
        export_obj(mesh, sink)
        assert sink.getvalue() == _obj_per_line(mesh)


@pytest.mark.parametrize("text,message", [
    ("v 0 0 0\nv 1 0\n", "line 2: malformed vertex line 'v 1 0'"),
    ("v 0 0 0\n\nf 1 1 1 1\n", "line 3: malformed face line 'f 1 1 1 1'"),
    ("v 0 x 0\nf 1 2 y\n", "could not convert string to float: 'x'"),
    ("f 1 2 y\nv 0 x 0\n", "invalid literal for int() with base 10: 'y'"),
    # structure is checked for every line before any number is converted
    ("v 0 x 0\nf 1 2\n", "line 2: malformed face line 'f 1 2'"),
    # a first token starting with '#' opens a comment in both passes
    ("#v 0 z\nv 0 x 0\nf 1 2 3\n", "could not convert string to float: 'x'"),
    # parsed, then refused by mesh_invariants
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\n", "triangle references an invalid vertex index"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 2\n", "degenerate triangle with repeated vertex"),
    (b"v 0 0 0\nv 1 0 \xc3\xa9\n",
     "'ascii' codec can't decode byte 0xc3 in position 14: ordinal not in range(128)"),
])
def test_obj_parse_errors(text, message):
    with pytest.raises(ValueError) as err:
        mesh_invariants(parse_obj(text))
    assert str(err.value) == message


def test_obj_without_faces_counts_its_vertices():
    assert mesh_invariants(parse_obj("v 0 0 0\nv 1 0 0\n")).to_json() == \
        {"V": 2, "E": 0, "F": 0, "chi": 2, "boundary_loops": 0, "orientable": True}


def test_obj_parse_skips_comments_and_blank_lines():
    mesh = parse_obj("# header\n#header\n\nv 0 0 0\n  \n# v 9 9\n#v 9 9\nv 1 0 0\n"
                     "v 0 1 0\nf 1 2 3\n")
    assert mesh.vertices.tolist() == [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    assert mesh.triangles.dtype == np.int64 and mesh.triangles.tolist() == [[0, 1, 2]]


def test_obj_parse_path_and_stream(tmp_path):
    mesh = build_mesh(M, 5)
    sink = io.BytesIO()
    export_obj(mesh, sink)
    path = tmp_path / "band.obj"
    path.write_bytes(sink.getvalue())
    for source in (str(path), path, io.BytesIO(sink.getvalue()),
                   io.StringIO(sink.getvalue().decode())):
        back = parse_obj(source)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.triangles, mesh.triangles)


def test_obj_write_failure_propagates():
    class Broken:
        def write(self, _):
            raise OSError("sink closed")
    mesh = Mesh(vertices=np.eye(3), triangles=np.array([[0, 1, 2]]))
    with pytest.raises(OSError, match="sink closed"):
        export_obj(mesh, Broken())


# -------------------------------------------------------- chart sanity extras

def test_vectorized_charts_match_embed():
    rng = np.random.default_rng(10)
    u, v = rng.random((2, 50))
    tc = torus_chart(u, v)
    pc = pinched_sphere_chart(u, v)
    for i in range(50):
        assert np.array_equal(tc[i], embed(T, canonicalize(T, u[i], v[i])))
        q = canonicalize(P, u[i], v[i])
        if not q.is_pole:
            assert np.array_equal(pc[i], pinched_sphere_chart(q.u, q.v))


def test_obj_write_failure_leaves_a_prefix_of_whole_lines():
    # n = 128: 16,384 vertex lines and 32,768 face lines, written in blocks
    mesh = build_mesh(T, 128)
    whole = io.BytesIO()
    export_obj(mesh, whole)

    class FailsOnSecondWrite:
        def __init__(self):
            self.data = []

        def write(self, chunk):
            if self.data:
                raise OSError("disk full")
            self.data.append(chunk)
    sink = FailsOnSecondWrite()
    with pytest.raises(OSError, match="disk full"):
        export_obj(mesh, sink)
    (prefix,) = sink.data
    assert whole.getvalue().startswith(prefix) and prefix.endswith(b"\n")
    assert 0 < len(prefix) < len(whole.getvalue())


# ------------------------------------------------------------- bounded memory

MIB = 2**20


def _peak(fn, *args):
    """fn(*args) and the tracemalloc peak of the call; numpy reports its
    buffers to tracemalloc, so the peak holds the result and every
    temporary."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mesh_layers_peak_memory():
    # n = 256 torus: 131,072 faces and a 6.3 MB OBJ. Each bound but the
    # first is half the peak of the whole-array layers these replaced (49.3,
    # 23.2, 60.9 and 59.8 MiB); the block-wise layers measured 13.8, 9.2,
    # 15.9 and 13.8 MiB. Parsing bytes measured 15.9 MiB while it decoded
    # the whole source first, and 9.6 MiB (as much as from str) decoding
    # blocks. build_mesh, with no edge keys of its own, measured 10.4 MiB;
    # its bound is 1.25 times that. It holds on every scheme: with its grid
    # arrays freed before the triangles, the torus, the pinched sphere and
    # the Möbius band measured 9.6, 9.6 and 8.2 MiB.
    for scheme in (P, M):
        assert _peak(build_mesh, scheme, 256)[1] <= 13.0 * MIB
    mesh, build_peak = _peak(build_mesh, T, 256)
    assert build_peak <= 13.0 * MIB
    want, inv_peak = _peak(mesh_invariants, mesh)
    assert inv_peak <= 24.6 * MIB

    def export(m):
        sink = io.BytesIO()
        export_obj(m, sink)
        return sink.getvalue()
    data, export_peak = _peak(export, mesh)
    assert export_peak <= 11.6 * MIB
    back, parse_peak = _peak(parse_obj, data)
    assert parse_peak <= 12.0 * MIB
    got, reparsed_peak = _peak(mesh_invariants, back)
    assert reparsed_peak <= 29.9 * MIB
    assert got == want


def test_parse_with_an_unconvertible_face_index_converts_by_block():
    # 2**63 fails numpy's int64 conversion, so its block converts token by
    # token; the other blocks stay in bulk, within the valid file's bound
    sink = io.BytesIO()
    export_obj(build_mesh(T, 256), sink)
    data = sink.getvalue() + b"f 9223372036854775808 1 2\n"
    back, parse_peak = _peak(parse_obj, data)
    assert parse_peak <= 12.0 * MIB
    assert back.triangles[-1].tolist() == [2**63 - 1, 0, 1]
    assert len(back.triangles) == 2 * 256 * 256 + 1


# ------------------------------------------------------ indices beyond int32

TETRAHEDRON = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])


def test_invariants_with_vertex_indices_beyond_int32():
    # 2**31 + 8 vertices, none allocated; the closed tetrahedron on the last
    # four builds no vertex-sized array, and its indices do not fit int32
    nv = 2**31 + 8
    verts = np.broadcast_to(np.zeros(3), (nv, 3))
    inv = mesh_invariants(Mesh(vertices=verts, triangles=TETRAHEDRON + nv - 4))
    small = mesh_invariants(Mesh(vertices=np.zeros((4, 3)), triangles=TETRAHEDRON))
    assert (small.E, small.F, small.boundary_loops, small.orientable) == (6, 4, 0, True)
    assert (inv.V, inv.E, inv.F, inv.euler_char) == (nv, 6, 4, nv - 2)
    assert (inv.boundary_loops, inv.orientable) == (0, True)


def _class_key_reference(scheme, n, i, j):
    """The gluing rule on the n grid in Python integers, one grid point at a
    time: (i, j) / n and (i', j') / n share a key iff their square
    coordinates are scheme-equivalent."""
    keys = []
    for a, b in zip(i.tolist(), j.tolist()):
        am, bm = a % n, b % n
        if scheme is T:
            keys.append(am * n + bm)
        elif scheme is P:
            keys.append(0 if am == 0 else 1 + (a - 1) * n + bm)
        else:
            keys.append(min(am, bm) * n + max(am, bm))
    return keys


@pytest.mark.parametrize("scheme", [T, P, M], ids=lambda s: s.value)
@pytest.mark.parametrize("n,dtype", [(40_000, np.int64), (32_768, np.int32)])
def test_class_keys_exact_at_large_resolution(scheme, n, dtype):
    # build_mesh takes int32 indices while its largest, the Möbius fold key
    # 2 (ci n + cj) + h < 2 n^2, fits: up to n = 32,768 (2 n^2 = 2**31)
    rng = np.random.default_rng(n)
    edge = [0, 1, 2, n // 2, n - 2, n - 1, n]
    i = np.array(edge * len(edge) + rng.integers(0, n + 1, 200).tolist())
    j = np.array(np.repeat(edge, len(edge)).tolist() + rng.integers(0, n + 1, 200).tolist())
    u, v, _ = canonical_chart(scheme, i.astype(dtype) / n, j.astype(dtype) / n)
    welded, _ = _first_seen_ids(u + 1j * v)
    assert welded.tolist() == _first_seen_ids(_class_key_reference(scheme, n, i, j))[0].tolist()
    # the fold key of build_mesh, on cells (ci, cj) in 0..n-1
    ci, cj = (np.minimum(x, n - 1).astype(dtype)[:, None] for x in (i, j))
    fold = 2 * (ci * n + cj) + [0, 1]
    assert fold.tolist() == [[2 * (a * n + b) + h for h in (0, 1)]
                             for a, b in zip(ci.ravel().tolist(), cj.ravel().tolist())]
