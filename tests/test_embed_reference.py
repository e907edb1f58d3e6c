"""The array mesh layer against a loop reference.

The reference is the mesh code as first written: vertices from a chart
block per scheme, sliver welding through a signed union-find, orientability
by propagating a winding face by face, and boundary loops traced edge by
edge. The array code keeps every output, so meshes, invariants and error
messages must match the reference exactly.

The reference identifies the sides of a grid mesh by their grid edge
orbits and directs each by its grid displacement; the array code
identifies and directs them by vertex pairs. The two must partition the
sides alike, and within an edge the two signs must differ by one common
factor, so both decide orientability alike.
"""
import io

import numpy as np
import pytest

from loopsurf.embed import (
    Mesh,
    NonManifoldEdgeError,
    MeshInvariants,
    build_mesh,
    export_obj,
    mesh_invariants,
    mobius_band_chart,
    parse_obj,
    pinched_sphere_chart,
    torus_chart,
)
from loopsurf.pairspace import Scheme, mobius_chart


def _sizes(scheme):
    """Every resolution build_mesh takes up to 20, and 64."""
    return [*range(5 if scheme is Scheme.MOBIUS_UNORDERED else 3, 21), 64]


# The first grid-welding rules, kept as test-only references: vertices by
# one integer key, edges by a second encoding that directs, wraps and
# swap-minimizes each edge. build_mesh welds on pairspace's canonical chart,
# and its edges are the vertex pairs its triangles join.

def _grid_class_keys(scheme, n):
    """Integer class key per grid vertex (i, j), i, j in 0..n, row-major.

    Welding is decided entirely on indices: two grid vertices are welded
    iff their square coordinates are scheme-equivalent, which on the
    uniform grid is an exact integer condition.
    """
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    im, jm = i % n, j % n
    if scheme is Scheme.TORUS:
        return (im * n + jm).ravel()
    if scheme is Scheme.PINCHED_SPHERE:
        keys = 1 + (i - 1) * n + jm
        return np.where(im == 0, 0, keys).ravel()
    if scheme is Scheme.MOBIUS_UNORDERED:
        a = np.minimum(im, jm)
        b = np.maximum(im, jm)
        return (a * n + b).ravel()
    raise ValueError(f"unknown scheme {scheme!r}")


_SWAPPED_DIR = np.array([1, 0, 2])  # horizontal <-> vertical, diagonal fixed


def _edge_orbit_keys(scheme, n, pi, pj, qi, qj):
    """Canonical orbit key for grid edges p -> q (vectorized).

    An edge is normalized so its displacement is (1,0), (0,1) or (1,1).
    The key wraps the normalized tail by the scheme's translation group
    and, for the unordered-pair scheme, minimizes over the swap image.
    """
    di, dj = qi - pi, qj - pj
    flip = (di < 0) | ((di == 0) & (dj < 0))
    bi = np.where(flip, qi, pi)
    bj = np.where(flip, qj, pj)
    ndi = np.where(flip, -di, di)
    ndj = np.where(flip, -dj, dj)
    d = np.select([(ndi == 1) & (ndj == 0), (ndi == 0) & (ndj == 1)], [0, 1], default=2)

    def pack(i, j, dd):
        return (i * (n + 1) + j) * 3 + dd

    if scheme is Scheme.TORUS:
        key = pack(bi % n, bj % n, d)
    elif scheme is Scheme.PINCHED_SPHERE:
        key = pack(bi, bj % n, d)
    else:
        k1 = pack(bi % n, bj % n, d)
        k2 = pack(bj % n, bi % n, _SWAPPED_DIR[d])
        key = np.minimum(k1, k2)
    return key


class _SignedUnionFind:
    """Union-find over edge-orbit keys carrying a relative direction sign."""

    def __init__(self):
        self.parent = {}
        self.parity = {}

    def find(self, k):
        if k not in self.parent:
            self.parent[k] = k
            self.parity[k] = 1
            return k, 1
        path = []
        while self.parent[k] != k:
            path.append(k)
            k = self.parent[k]
        sign = 1
        for node in reversed(path):
            sign *= self.parity[node]
            self.parent[node] = k
            self.parity[node] = sign
        return k, self.parity[path[0]] if path else 1

    def find_sign(self, k):
        root, _ = self.find(k)
        return root, self.parity[k] if k != root else 1

    def union(self, k1, k2, rel):
        r1, s1 = self.find_sign(k1)
        r2, s2 = self.find_sign(k2)
        if r1 != r2:
            self.parent[r2] = r1
            self.parity[r2] = s1 * rel * s2


def _mesh_reference(scheme, n):
    """Triangles, weld map, edge ids and grid signs of build_mesh, with the
    slivers welded one by one. A side's grid sign is +1 when it runs along
    its class's normalized displacement (1,0), (0,1) or (1,1)."""
    keys = _grid_class_keys(scheme, n)
    _, first_idx, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    weld = rank[inverse.ravel()]

    ci, cj = (g.ravel() for g in np.meshgrid(np.arange(n), np.arange(n), indexing="ij"))
    ci2, cj2 = np.repeat(ci, 2), np.repeat(cj, 2)
    lower = np.arange(2 * n * n) % 2 == 0
    corner_i = np.stack([ci2, ci2 + 1, np.where(lower, ci2 + 1, ci2)], axis=1)
    corner_j = np.stack([cj2, np.where(lower, cj2, cj2 + 1), cj2 + 1], axis=1)
    tris_all = weld[corner_i * (n + 1) + corner_j]
    degenerate = ((tris_all[:, 0] == tris_all[:, 1]) | (tris_all[:, 1] == tris_all[:, 2])
                  | (tris_all[:, 0] == tris_all[:, 2]))
    keep = ~degenerate
    if scheme is Scheme.MOBIUS_UNORDERED:
        t = np.arange(2 * n * n)
        keep &= t <= 2 * (cj2 * n + ci2) + (1 - t % 2)

    pi, pj = corner_i.ravel(), corner_j.ravel()
    qi, qj = corner_i[:, [1, 2, 0]].ravel(), corner_j[:, [1, 2, 0]].ravel()
    ekey = _edge_orbit_keys(scheme, n, pi, pj, qi, qj).reshape(-1, 3)
    di, dj = qi - pi, qj - pj
    esign = np.where((di < 0) | ((di == 0) & (dj < 0)), -1, 1).astype(np.int8).reshape(-1, 3)
    if degenerate.any():
        uf = _SignedUnionFind()
        tail_flat = (np.where(esign.ravel() > 0, pi, qi) * (n + 1)
                     + np.where(esign.ravel() > 0, pj, qj)).reshape(-1, 3)
        for t in np.nonzero(degenerate)[0]:
            wt = tris_all[t]
            slots = [k for k in range(3) if wt[k] != wt[(k + 1) % 3]]
            if len(slots) != 2:
                continue
            k1, k2 = slots
            w_rep = wt[[k for k in range(3) if k not in slots][0]]
            tail1 = weld[tail_flat[t, k1]] == w_rep
            tail2 = weld[tail_flat[t, k2]] == w_rep
            uf.union(int(ekey[t, k1]), int(ekey[t, k2]), 1 if tail1 == tail2 else -1)
        found = [uf.find_sign(int(k)) for k in ekey.ravel()]
        ekey = np.array([r for r, _ in found], dtype=np.int64).reshape(-1, 3)
        esign = esign * np.array([s for _, s in found], dtype=np.int8).reshape(-1, 3)

    ekey, esign = ekey[keep], esign[keep]
    _, first_slot, inv_e = np.unique(ekey.ravel(), return_index=True, return_inverse=True)
    order_e = np.argsort(first_slot, kind="stable")
    rank_e = np.empty(len(order_e), dtype=np.int64)
    rank_e[order_e] = np.arange(len(order_e))
    return tris_all[keep], weld, rank_e[inv_e.ravel()].reshape(-1, 3), esign


def _vertices_reference(scheme, n):
    """Vertices of build_mesh from a chart block per scheme, on the grid
    indices of each welded vertex's first grid occurrence."""
    _, first_idx = np.unique(_grid_class_keys(scheme, n), return_index=True)
    rep = first_idx[np.argsort(first_idx, kind="stable")]
    ri, rj = rep // (n + 1), rep % (n + 1)
    if scheme is Scheme.TORUS:
        verts = torus_chart((ri % n) / n, (rj % n) / n)
    elif scheme is Scheme.PINCHED_SPHERE:
        verts = pinched_sphere_chart(ri / n, (rj % n) / n)
        verts[(ri % n) == 0] = 0.0            # collapsed-edge class -> pole
    else:
        a = np.minimum(ri % n, rj % n) / n
        b = np.maximum(ri % n, rj % n) / n
        m, d = mobius_chart(a, b)
        verts = mobius_band_chart(m, d)
    return verts


def _trace_boundary_loops(boundary_pairs):
    """Number of closed loops formed by the given (a, b) boundary edges."""
    if not len(boundary_pairs):
        return 0
    incident = {}
    for eid, (a, b) in enumerate(boundary_pairs):
        incident.setdefault(int(a), []).append(eid)
        incident.setdefault(int(b), []).append(eid)
    for v, eids in incident.items():
        if len(eids) != 2:
            raise ValueError(
                f"boundary does not form closed loops: vertex {v} has "
                f"{len(eids)} boundary edges")
    loops = 0
    seen = [False] * len(boundary_pairs)
    for start in range(len(boundary_pairs)):
        if seen[start]:
            continue
        loops += 1
        eid = start
        v = int(boundary_pairs[start][0])
        while not seen[eid]:
            seen[eid] = True
            a, b = int(boundary_pairs[eid][0]), int(boundary_pairs[eid][1])
            v = b if v == a else a
            e1, e2 = incident[v]
            eid = e2 if e1 == eid else e1
    return loops


def _windings_consistent(nf, flat_ids, flat_signs):
    """Greedy propagation of triangle winding across 2-incident edges;
    False when the propagation cannot 2-color the faces."""
    slot_tri = np.repeat(np.arange(nf), 3)
    order = np.argsort(flat_ids, kind="stable")
    sorted_ids = flat_ids[order]
    adj = [[] for _ in range(nf)]
    pos = 0
    while pos < len(order):
        end = pos
        while end < len(order) and sorted_ids[end] == sorted_ids[pos]:
            end += 1
        if end - pos == 2:
            s1, s2 = order[pos], order[end - 1]
            f1, f2 = int(slot_tri[s1]), int(slot_tri[s2])
            rel = -int(flat_signs[s1]) * int(flat_signs[s2])
            adj[f1].append((f2, rel))
            adj[f2].append((f1, rel))
        pos = end

    orient = np.zeros(nf, dtype=np.int8)
    for seed in range(nf):
        if orient[seed]:
            continue
        orient[seed] = 1
        stack = [seed]
        while stack:
            f = stack.pop()
            for g, rel in adj[f]:
                want = rel * orient[f]
                if orient[g] == 0:
                    orient[g] = want
                    stack.append(g)
                elif orient[g] != want:
                    return False
    return True


def _invariants_reference(mesh, ids=None, signs=None):
    """Invariants of a mesh whose sides fall into the edge classes ``ids``,
    directed by ``signs``; by default, the vertex pairs that the sides join,
    directed by vertex order."""
    verts = np.asarray(mesh.vertices)
    tris = np.asarray(mesh.triangles, dtype=np.int64)
    nv = len(verts)
    if tris.size:
        if tris.min() < 0 or tris.max() >= nv:
            raise ValueError("triangle references an invalid vertex index")
        if np.any((tris[:, 0] == tris[:, 1]) | (tris[:, 1] == tris[:, 2])
                  | (tris[:, 0] == tris[:, 2])):
            raise ValueError("degenerate triangle with repeated vertex")
    nf = len(tris)
    if nf == 0:
        return MeshInvariants(nv, 0, 0, nv, 0, True)

    slot_verts = np.stack([tris[:, [0, 1, 2]].ravel(), tris[:, [1, 2, 0]].ravel()], axis=1)
    if ids is not None:
        flat_ids = np.asarray(ids, dtype=np.int64).ravel()
        flat_signs = np.asarray(signs, dtype=np.int64).ravel()
        counts = np.bincount(flat_ids)
        ne = len(counts)
    else:
        pairs = np.sort(slot_verts, axis=1)
        _, flat_ids, counts = np.unique(pairs, axis=0, return_inverse=True, return_counts=True)
        flat_ids = flat_ids.ravel()
        flat_signs = np.where(slot_verts[:, 0] < slot_verts[:, 1], 1, -1)
        ne = len(counts)

    bad = np.nonzero(counts > 2)[0]
    if bad.size:
        slot = int(np.nonzero(flat_ids == bad[0])[0][0])
        raise NonManifoldEdgeError(slot_verts[slot], counts[bad[0]])

    first_slot = np.full(len(counts), -1, dtype=np.int64)
    seen_order = np.argsort(flat_ids, kind="stable")
    first_slot[flat_ids[seen_order[::-1]]] = seen_order[::-1]
    boundary_pairs = [slot_verts[first_slot[e]] for e in np.nonzero(counts == 1)[0]]
    loops = _trace_boundary_loops(boundary_pairs)
    orientable = _windings_consistent(nf, flat_ids, flat_signs)
    return MeshInvariants(nv, ne, nf, nv - ne + nf, loops, orientable)


def _outcome(fn, *args):
    try:
        inv = fn(*args)
    except ValueError as e:
        return type(e), str(e)
    return inv, tuple(type(x) for x in vars(inv).values())


def _assert_same_invariants(mesh, ids=None, signs=None):
    assert _outcome(mesh_invariants, mesh) == _outcome(_invariants_reference, mesh, ids, signs)


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_mesh_matches_union_find_welding(scheme):
    for n in _sizes(scheme):
        mesh = build_mesh(scheme, n)
        tris, weld, ids, grid_signs = _mesh_reference(scheme, n)
        for a, b in zip((mesh.triangles, mesh.weld_map), (tris, weld)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        # the vertex pairs, numbered in order of first side, are the reference's edge ids
        pairs = np.sort(np.stack([tris, tris[:, [1, 2, 0]]], axis=2), axis=2).reshape(-1, 2)
        _, first, inverse = np.unique(pairs, axis=0, return_index=True, return_inverse=True)
        assert np.array_equal(np.argsort(np.argsort(first))[inverse.ravel()], ids.ravel())
        order_signs = np.where(tris < tris[:, [1, 2, 0]], 1, -1)
        product = (grid_signs * order_signs).ravel()
        per_class = np.zeros(ids.max() + 1, dtype=product.dtype)
        per_class[ids.ravel()] = product
        assert np.array_equal(per_class[ids.ravel()], product)


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_mesh_vertices_match_chart_block(scheme):
    for n in _sizes(scheme):
        got, want = build_mesh(scheme, n).vertices, _vertices_reference(scheme, n)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_invariants_match_reference_on_built_and_parsed_meshes(scheme):
    for n in _sizes(scheme):
        mesh = build_mesh(scheme, n)
        _assert_same_invariants(mesh, *_mesh_reference(scheme, n)[2:])
        sink = io.BytesIO()
        export_obj(mesh, sink)
        _assert_same_invariants(parse_obj(sink.getvalue()))


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_invariants_match_reference_on_face_subsets(scheme):
    rng = np.random.default_rng(31)
    outcomes = set()
    for n in _sizes(scheme):
        mesh = build_mesh(scheme, n)
        nf = len(mesh.triangles)
        for _ in range(4):
            # contiguous runs of faces keep some subsets free of bow-tie boundaries
            lo = int(rng.integers(nf))
            faces = np.arange(lo, min(nf, lo + int(rng.integers(1, nf + 1))))
            if rng.random() < 0.5:
                faces = np.sort(rng.choice(nf, size=int(rng.integers(1, nf + 1)), replace=False))
            sub = Mesh(vertices=mesh.vertices, triangles=mesh.triangles[faces])
            _assert_same_invariants(sub)
            outcomes.add(_outcome(mesh_invariants, sub)[0] is ValueError)
    assert outcomes == {True, False}
