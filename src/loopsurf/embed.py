"""R^3 realizations of the glued-square schemes.

Vectorized point charts, welded triangle meshes built on an exact integer
grid quotient, mesh invariants (V, E, F, Euler characteristic, boundary
loops, orientability), and Wavefront OBJ export / re-parsing.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .pairspace import Scheme, canonical_chart, quotient_point


class NonManifoldEdgeError(ValueError):
    """An undirected edge with more than two incident triangles."""

    def __init__(self, edge, count):
        self.edge = tuple(int(i) for i in edge)
        self.count = int(count)
        super().__init__(f"non-manifold edge {self.edge}: {self.count} incident triangles")


@dataclass(frozen=True)
class EmbedConfig:
    """Embedding radii: R major, r minor, w half-width of the band.

    Defaults keep all three surfaces embedded without self-intersection.
    Requires 0 < r < R < inf and 0 < w < R, so all three are finite: an
    infinite R would put NaN coordinates into the mesh.
    """

    R: float = 2.0
    r: float = 1.0
    w: float = 0.5

    def __post_init__(self):
        if not (self.r > 0.0):
            raise ValueError(f"minor radius must be positive, got r={self.r!r}")
        if not (self.r < self.R < np.inf):
            raise ValueError(f"need finite R > r for an embedded torus, got R={self.R!r}, "
                             f"r={self.r!r}")
        if not (0.0 < self.w < self.R):
            raise ValueError(f"need 0 < w < R, got w={self.w!r}, R={self.R!r}")


@dataclass(frozen=True, eq=False)
class Mesh:
    """Welded triangle mesh in R^3. Meshes compare and hash by identity, as
    their array fields have no single truth value.

    ``weld_map`` maps the original row-major grid index to the welded
    vertex index (None for meshes not built from a grid).

    ``edge_ids`` (grid meshes only) carries the exact quotient identity
    of each triangle side: slot k of triangle f is the edge from vertex k
    to vertex (k+1)%3, and edge_ids[f, k] is its equivalence class: the
    class of the side's midpoint on the 2n grid, with the two surviving
    sides of each collapsed sliver joined. At coarse resolutions distinct
    quotient edges can join the same pair of welded vertices, so vertex
    pairs alone would under-count E; invariants fall back to vertex pairs
    when the field is absent (e.g. meshes re-parsed from OBJ).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    weld_map: np.ndarray | None = None
    edge_ids: np.ndarray | None = None


@dataclass(frozen=True)
class MeshInvariants:
    V: int
    E: int
    F: int
    euler_char: int
    boundary_loops: int
    orientable: bool

    def to_json(self):
        return {"V": self.V, "E": self.E, "F": self.F, "chi": self.euler_char,
                "boundary_loops": self.boundary_loops, "orientable": self.orientable}


# --------------------------------------------------------------------- charts

def torus_chart(u, v, cfg=EmbedConfig()):
    """Ordered-pair chart: (u, v) in [0,1)^2 onto the torus of radii (R, r)."""
    tu = 2.0 * np.pi * np.asarray(u, float)
    tv = 2.0 * np.pi * np.asarray(v, float)
    ring = cfg.R + cfg.r * np.cos(tv)
    return np.stack([ring * np.cos(tu), ring * np.sin(tu),
                     cfg.r * np.sin(tv)], axis=-1)


def pinched_sphere_chart(u, v, cfg=EmbedConfig()):
    """Horn-torus chart: the hole is pinched shut at u in {0, 1}.

    u rides the non-periodic axis, v the loop direction. The pole itself is
    the limit point (0, 0, 0).
    """
    th = 2.0 * np.pi * np.asarray(u, float) + np.pi
    tv = 2.0 * np.pi * np.asarray(v, float)
    rad = cfg.r * (1.0 + np.cos(th))
    return np.stack([rad * np.cos(tv), rad * np.sin(tv),
                     cfg.r * np.sin(th)], axis=-1)


def mobius_band_chart(m, d, cfg=EmbedConfig()):
    """Unordered-pair chart: canonical (m, d) onto a half-twist band.

    The sign of the width coordinate flips at m = 1/2; the identity
    E(t + 2pi, s) = E(t, -s) of the underlying band makes the chart
    continuous across both seams (m = 1/2 and m -> 1).
    """
    m = np.asarray(m, float)
    t = np.mod(4.0 * np.pi * m, 2.0 * np.pi)
    sigma = np.where(m < 0.5, 1.0, -1.0)
    s = (1.0 - 4.0 * np.asarray(d, float)) * sigma
    ring = cfg.R + s * cfg.w * np.cos(0.5 * t)
    return np.stack([ring * np.cos(t), ring * np.sin(t),
                     s * cfg.w * np.sin(0.5 * t)], axis=-1)


def _chart(scheme, u, v, pole, cfg):
    """The scheme's chart at canonical coordinates (u, v), scalars or
    arrays; points flagged as the pinched-sphere pole map to the origin."""
    if scheme is Scheme.TORUS:
        return torus_chart(u, v, cfg)
    if scheme is Scheme.PINCHED_SPHERE:
        return np.where(np.asarray(pole)[..., None], 0.0, pinched_sphere_chart(u, v, cfg))
    return mobius_band_chart(u, v, cfg)


def embed(scheme, q, cfg=EmbedConfig()):
    """Embed a single canonical quotient point into R^3.

    Rejects points outside the scheme's canonical domain; the
    pinched-sphere pole maps to the origin exactly.
    """
    if q.scheme is not scheme:
        raise ValueError(f"point carries scheme {q.scheme.value!r}, expected {scheme.value!r}")
    q = quotient_point(scheme, q.u, q.v)
    return _chart(scheme, q.u, q.v, q.is_pole, cfg)


# ---------------------------------------------------------------------- meshes

def _class_keys(scheme, n, i, j):
    """Integer class key of the grid points (i, j) / n, i, j in 0..n.

    Two points of the n grid share a key iff their square coordinates are
    scheme-equivalent, which on the uniform grid is an exact integer
    condition. The same rule on the 2n grid keys grid edges by their
    midpoints: an edge's displacement is (1,0), (0,1) or (1,1), so the sum
    of its corners fixes it, and the gluings move edges as they move
    midpoints.
    """
    im, jm = i % n, j % n
    if scheme is Scheme.TORUS:
        return im * n + jm
    if scheme is Scheme.PINCHED_SPHERE:
        return np.where(im == 0, 0, 1 + (i - 1) * n + jm)
    if scheme is Scheme.MOBIUS_UNORDERED:
        return np.minimum(im, jm) * n + np.maximum(im, jm)
    raise ValueError(f"unknown scheme {scheme!r}")


def _first_seen_ids(keys):
    """The id of each key, numbering the distinct keys densely in order of
    first occurrence, and the index at which each id first occurs."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return rank[inverse.ravel()], first[order]


def build_mesh(scheme, n, cfg=EmbedConfig()):
    """Welded triangle mesh realizing the scheme's quotient.

    Triangulates the (n+1) x (n+1) grid on the closed unit square, two
    triangles per cell split along the x = y diagonal direction, and welds
    grid vertices whose square coordinates are scheme-equivalent -- an
    exact integer condition. Triangles that degenerate under welding
    (collapsed-edge slivers) are dropped, with their two surviving sides
    identified; faces duplicated by the unordered-pair fold are removed,
    keeping the first copy in creation order. A grid edge's class is its
    midpoint's class on the 2n grid (see Mesh.edge_ids).
    """
    if not isinstance(n, numbers.Integral) or n < 3:
        raise ValueError(f"grid resolution must be an integer >= 3, got {n}")
    # grid flat index -> welded vertex -> representative grid index
    gi, gj = np.divmod(np.arange((n + 1) ** 2), n + 1)
    weld, rep = _first_seen_ids(_class_keys(scheme, n, gi, gj))
    verts = _chart(scheme, *canonical_chart(scheme, gi[rep] / n, gj[rep] / n), cfg)

    # two triangles per cell, row-major cell order, fixed diagonal direction
    ci, cj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    ci, cj = ci.ravel(), cj.ravel()
    corner_i = np.stack([np.repeat(ci, 2), np.empty(2 * n * n, int), np.empty(2 * n * n, int)], axis=1)
    corner_j = np.stack([np.repeat(cj, 2), np.empty(2 * n * n, int), np.empty(2 * n * n, int)], axis=1)
    corner_i[0::2, 1], corner_j[0::2, 1] = ci + 1, cj          # lower: (c), (c+di), (c+di+dj)
    corner_i[0::2, 2], corner_j[0::2, 2] = ci + 1, cj + 1
    corner_i[1::2, 1], corner_j[1::2, 1] = ci + 1, cj + 1      # upper: (c), (c+di+dj), (c+dj)
    corner_i[1::2, 2], corner_j[1::2, 2] = ci, cj + 1
    grid_flat = corner_i * (n + 1) + corner_j
    tris_all = weld[grid_flat]

    degenerate = ((tris_all[:, 0] == tris_all[:, 1])
                  | (tris_all[:, 1] == tris_all[:, 2])
                  | (tris_all[:, 0] == tris_all[:, 2]))
    keep = ~degenerate
    if scheme is Scheme.MOBIUS_UNORDERED:
        # the swap folds triangle 2*(ci*n+cj)+h onto 2*(cj*n+ci)+(1-h);
        # keep the first copy of each orbit in creation order
        t = np.arange(2 * n * n)
        partner = 2 * ((cj.repeat(2)) * n + ci.repeat(2)) + (1 - t % 2)
        keep &= t <= partner

    # slot k joins corners k and (k+1)%3; its class is its midpoint's
    ekey = _class_keys(scheme, 2 * n, corner_i + corner_i[:, [1, 2, 0]],
                       corner_j + corner_j[:, [1, 2, 0]])

    # a dropped sliver collapses to a segment: its two surviving sides are
    # one and the same quotient edge. Slivers occur only in the pinched
    # columns (upper triangles of cells i = 0, lower ones of i = n - 1).
    # No key is in two slivers, so the second side's key simply maps onto
    # the first's.
    sliver = np.nonzero(degenerate)[0]
    if len(sliver):
        wt = tris_all[sliver]
        k1, k2 = np.nonzero(wt != np.roll(wt, -1, axis=1))[1].reshape(-1, 2).T
        src, dst = ekey[sliver, k2], ekey[sliver, k1]
        by_src = np.argsort(src)
        src, dst = src[by_src], dst[by_src]
        at = np.minimum(np.searchsorted(src, ekey), len(src) - 1)
        ekey = np.where(src[at] == ekey, dst[at], ekey)

    tris = tris_all[keep]
    ekey = ekey[keep]

    # every vertex class is a corner of a kept triangle, so none is unused
    return Mesh(vertices=verts, triangles=tris, weld_map=weld,
                edge_ids=_first_seen_ids(ekey.ravel())[0].reshape(-1, 3))


def _components(n, a, b):
    """Label each of n nodes with the smallest node id of its component
    under the undirected edges a[i] -- b[i].

    Hook and jump: every root whose edges reach a smaller root hooks onto
    the smallest one, then pointer jumping flattens each tree to a star;
    a round with nothing left to hook ends it.
    """
    label = np.arange(n)
    while True:
        la, lb = label[a], label[b]
        split = la != lb
        if not split.any():
            return label
        np.minimum.at(label, np.maximum(la, lb)[split], np.minimum(la, lb)[split])
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


def mesh_invariants(mesh):
    """Count V, E, F, boundary loops and decide orientability.

    Orientability is read off the orientation double cover: each face has
    two sheets, one per winding, and every edge shared by two faces links
    the sheets whose windings agree across it. The mesh is orientable iff
    no face has both sheets in one connected component. Boundary edges
    (one incident face) must meet two at every vertex; the boundary loops
    are their connected components. Edges with more than two incident
    triangles raise NonManifoldEdgeError.

    Edge identity comes from the mesh's exact quotient classes when
    present, otherwise from undirected welded-vertex pairs. Either way
    both sides of an edge must join the same pair of vertices, and their
    directions are compared by vertex order.
    """
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

    slot_verts = np.stack([tris[:, [0, 1, 2]].ravel(),
                           tris[:, [1, 2, 0]].ravel()], axis=1)
    if mesh.edge_ids is not None:
        flat_ids = np.asarray(mesh.edge_ids, dtype=np.int64).ravel()
        if flat_ids.shape != (3 * nf,) or flat_ids.min() < 0:
            raise ValueError("edge classes do not match the triangle list")
        counts = np.bincount(flat_ids)
        ne = int(np.count_nonzero(counts))     # class labels need not be dense
    else:
        lo, hi = slot_verts.min(axis=1), slot_verts.max(axis=1)
        _, flat_ids, counts = np.unique(lo * nv + hi, return_inverse=True,
                                        return_counts=True)
        ne = len(counts)

    # slots grouped by edge id, in slot order within each edge
    by_edge = np.argsort(flat_ids, kind="stable")
    end = np.cumsum(counts)
    first = by_edge[end - counts]
    bad = np.nonzero(counts > 2)[0]
    if bad.size:
        raise NonManifoldEdgeError(slot_verts[first[bad[0]]], counts[bad[0]])
    paired = counts == 2
    s1, s2 = first[paired], by_edge[end[paired] - 1]
    tail, head = slot_verts.T
    t1, h1, t2, h2 = tail[s1], head[s1], tail[s2], head[s2]
    # sides traversed the same way (from the same tail vertex): the two
    # faces agree only with one flipped
    flip = t1 == t2
    if not np.all(np.where(flip, h1 == h2, (t1 == h2) & (h1 == t2))):
        raise ValueError("edge classes do not match the triangle list")

    loops = 0
    ends = slot_verts[first[counts == 1]]
    if len(ends):
        degree = np.bincount(ends.ravel(), minlength=nv)
        odd = degree[ends.ravel()] != 2
        if odd.any():
            v = int(ends.ravel()[odd.argmax()])
            raise ValueError(
                f"boundary does not form closed loops: vertex {v} has "
                f"{int(degree[v])} boundary edges")
        loops = len(np.unique(_components(nv, ends[:, 0], ends[:, 1])[ends]))

    f1, f2 = 2 * (s1 // 3), 2 * (s2 // 3)
    sheets = _components(2 * nf, np.concatenate([f1, f1 + 1]),
                         np.concatenate([f2 + flip, f2 + 1 - flip]))
    orientable = not np.any(sheets[0::2] == sheets[1::2])
    return MeshInvariants(nv, ne, nf, nv - ne + nf, loops, orientable)


# ------------------------------------------------------------------------- OBJ

def export_obj(mesh, sink):
    """Write the mesh as Wavefront OBJ text to a byte sink.

    "v x y z" lines with 17 significant digits in vertex-index order, then
    "f i j k" lines (1-based) in triangle creation order.
    """
    verts = np.asarray(mesh.vertices)
    tris = np.asarray(mesh.triangles)
    if len(verts) == 0 or len(tris) == 0:
        raise ValueError("empty mesh")
    # a row without three entries raises the unpacking error of a per-row writer
    (_, _, _), (_, _, _) = verts[0], tris[0]
    payload = (("v %.17g %.17g %.17g\n" * len(verts)) % tuple(verts.ravel().tolist())
               + ("f %s %s %s\n" * len(tris)) % tuple((tris + 1).ravel().tolist()))
    try:
        sink.write(payload.encode("ascii"))
    except TypeError:
        sink.write(payload)


def parse_obj(source):
    """Re-parse OBJ data into a Mesh.

    ``source`` may be an open stream, OBJ text (str or bytes containing a
    newline), or a filesystem path.

    Every line is checked for its directive and field count before any
    number is converted, so a malformed or unsupported line raises its
    line-numbered ValueError even when an earlier line holds an invalid
    number. Among invalid numbers, the first in line order raises.
    """
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, (str, bytes)) and b"\n" in (
            source if isinstance(source, bytes) else source.encode("ascii", "ignore")):
        text = source
    else:
        with open(source, "r", encoding="ascii") as fh:
            text = fh.read()
    if isinstance(text, bytes):
        text = text.decode("ascii")
    vtok, ftok = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split() or ["#"]       # a blank line reads as a comment
        if parts[0] == "v":
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed vertex line {line!r}")
            vtok += parts[1:]
        elif parts[0] == "f":
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed face line {line!r}")
            ftok += parts[1:]
        elif not parts[0].startswith("#"):
            raise ValueError(f"line {lineno}: unsupported OBJ directive {parts[0]!r}")
    # numpy converts str tokens with Python float() and int()
    try:
        verts = np.array(vtok, dtype=float)
        tris = np.array(ftok, dtype=np.int64)
        if tris.size and tris.min() == np.iinfo(np.int64).min:
            raise OverflowError("face index - 1 leaves int64")
        tris -= 1
    except (ValueError, OverflowError):
        # convert token by token in line order: the first invalid number
        # raises, and a face index whose 1-based shift leaves int64
        # overflows only here
        for parts in map(str.split, text.splitlines()):
            if parts and not parts[0].startswith("#"):
                for p in parts[1:]:
                    (float if parts[0] == "v" else int)(p)
        tris = np.asarray([int(p) - 1 for p in ftok], dtype=np.int64)
    return Mesh(vertices=verts.reshape(-1, 3) if vtok else verts,
                triangles=tris.reshape(-1, 3))
