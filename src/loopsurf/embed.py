"""R^3 realizations of the glued-square schemes.

Vectorized point charts, triangle meshes welded on pairspace's canonical
chart, mesh invariants (V, E, F, Euler characteristic, boundary loops,
orientability), and Wavefront OBJ export / re-parsing.
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


@dataclass(frozen=True, eq=False)
class Mesh:
    """Welded triangle mesh in R^3. Meshes compare and hash by identity, as
    their array fields have no single truth value.

    An edge is an undirected pair of vertices that a triangle joins, so a
    mesh's vertices and triangles are exactly what its OBJ file carries.
    ``weld_map`` is not: it maps the original row-major grid index to the
    welded vertex index, and is None for meshes not built from a grid
    (parse_obj gives None).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    weld_map: np.ndarray | None = None

    def __post_init__(self):
        tris, verts = np.asarray(self.triangles), np.asarray(self.vertices)
        if tris.dtype.kind not in "iu":    # no truncated float index
            raise ValueError("triangle indices must be integers")
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise ValueError(f"triangles must have shape (k, 3), got {tris.shape}")
        if verts.shape != (0,) and (verts.ndim != 2 or verts.shape[1] != 3):   # (0,): no v lines
            raise ValueError(f"vertices must have shape (m, 3), got {verts.shape}")


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

# Embedding radii: R major, r minor, w half-width of the band. With these all
# three surfaces embed without self-intersection; no invariant depends on them.
R, r, w = 2.0, 1.0, 0.5


def torus_chart(u, v):
    """Ordered-pair chart: (u, v) in [0,1)^2 onto the torus of radii (R, r)."""
    tu = 2.0 * np.pi * np.asarray(u, float)
    tv = 2.0 * np.pi * np.asarray(v, float)
    ring = R + r * np.cos(tv)
    return np.stack([ring * np.cos(tu), ring * np.sin(tu),
                     r * np.sin(tv)], axis=-1)


def pinched_sphere_chart(u, v):
    """Horn-torus chart: the hole is pinched shut at u in {0, 1}.

    u rides the non-periodic axis, v the loop direction. The pole itself is
    the limit point (0, 0, 0).
    """
    th = 2.0 * np.pi * np.asarray(u, float) + np.pi
    tv = 2.0 * np.pi * np.asarray(v, float)
    rad = r * (1.0 + np.cos(th))
    return np.stack([rad * np.cos(tv), rad * np.sin(tv),
                     r * np.sin(th)], axis=-1)


def mobius_band_chart(m, d):
    """Unordered-pair chart: canonical (m, d) onto a half-twist band.

    The sign of the width coordinate flips at m = 1/2; the identity
    E(t + 2pi, s) = E(t, -s) of the underlying band makes the chart
    continuous across both seams (m = 1/2 and m -> 1).
    """
    m = np.asarray(m, float)
    t = np.mod(4.0 * np.pi * m, 2.0 * np.pi)
    sigma = np.where(m < 0.5, 1.0, -1.0)
    s = (1.0 - 4.0 * np.asarray(d, float)) * sigma
    ring = R + s * w * np.cos(0.5 * t)
    return np.stack([ring * np.cos(t), ring * np.sin(t),
                     s * w * np.sin(0.5 * t)], axis=-1)


def _chart(scheme, u, v, pole):
    """The scheme's chart at canonical coordinates (u, v), scalars or
    arrays; points flagged as the pinched-sphere pole map to the origin."""
    if scheme is Scheme.TORUS:
        return torus_chart(u, v)
    if scheme is Scheme.PINCHED_SPHERE:
        return np.where(np.asarray(pole)[..., None], 0.0, pinched_sphere_chart(u, v))
    return mobius_band_chart(u, v)


def embed(scheme, q):
    """Embed a single canonical quotient point into R^3.

    Rejects points outside the scheme's canonical domain; the
    pinched-sphere pole maps to the origin exactly.
    """
    if q.scheme is not scheme:
        raise ValueError(f"point carries scheme {q.scheme.value!r}, expected {scheme.value!r}")
    q = quotient_point(scheme, q.u, q.v)
    return _chart(scheme, q.u, q.v, q.is_pole)


# ---------------------------------------------------------------------- meshes

def _first_seen_ids(keys):
    """Dense ids of the 1-D keys in order of first occurrence, and the index
    at which each id first occurs."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse], np.sort(first)


def build_mesh(scheme, n):
    """Welded triangle mesh realizing the scheme's quotient.

    Triangulates the (n+1) x (n+1) grid on the closed unit square, two
    triangles per cell split along the x = y diagonal direction, and welds
    grid vertices whose canonical chart coordinates (pairspace's
    canonical_chart) are equal. Triangles that degenerate under welding
    (collapsed-edge slivers) are dropped: a sliver's two surviving sides
    join one vertex pair, so they are one edge. Faces duplicated by the
    unordered-pair fold are removed, keeping the first copy in creation
    order.

    Each quotient edge joins its own pair of welded vertices from n = 3 on
    the torus and the pinched sphere, and from n = 5 on the Möbius band;
    coarser grids join two quotient edges on one vertex pair, so they are
    rejected.
    """
    if not isinstance(n, numbers.Integral) or n < 3:
        raise ValueError(f"grid resolution must be an integer >= 3, got {n}")
    if scheme is Scheme.MOBIUS_UNORDERED and n < 5:
        raise ValueError(f"a mobius band needs grid resolution >= 5, got {n}: "
                         "coarser grids join two quotient edges on one vertex pair")
    it = np.int32 if 2 * n * n <= 2**31 else np.int64   # largest index: a fold key < 2 n^2
    # grid flat index -> welded vertex -> representative grid index: the chart
    # reduces and sorts before any arithmetic, so equivalent points get equal bits
    gi, gj = np.divmod(np.arange((n + 1) ** 2, dtype=it), n + 1)
    u, v, pole = canonical_chart(scheme, gi / n, gj / n)
    weld, rep = _first_seen_ids(u + 1j * v)
    verts = _chart(scheme, u[rep], v[rep], pole[rep])
    del gi, gj, u, v, pole, rep

    # two triangles per cell c, row-major cell order, fixed diagonal direction:
    # corner offsets of the lower (c, c+di, c+di+dj) and upper (c, c+di+dj, c+dj)
    di, dj = np.array([[[0, 1, 1], [0, 1, 0]], [[0, 0, 1], [0, 1, 1]]], np.int8)
    ci, cj = np.divmod(np.arange(n * n, dtype=it)[:, None, None], n)
    tris = weld[((ci + di) * (n + 1) + cj + dj).reshape(-1, 3)]

    keep = (tris != tris[:, [1, 2, 0]]).all(axis=1)    # no two corners welded
    if scheme is Scheme.MOBIUS_UNORDERED:
        # the swap folds triangle 2*(ci*n+cj)+h onto 2*(cj*n+ci)+(1-h);
        # keep the first copy of each orbit in creation order
        keep &= (2 * (ci * n + cj) + [0, 1] <= 2 * (cj * n + ci) + [1, 0]).ravel()

    # every vertex class is a corner of a kept triangle, so none is unused
    return Mesh(vertices=verts, triangles=tris[keep], weld_map=weld)


def _components(n, a, b):
    """Label each of n nodes with the smallest node id of its component
    under the undirected edges a[i] -- b[i].

    Hook and jump: every root whose edges reach a smaller root hooks onto
    the smallest one, then pointer jumping flattens each tree to a star;
    a round with nothing left to hook ends it.
    """
    label = np.arange(n, dtype=a.dtype)
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

    An edge is an undirected vertex pair, as in an OBJ file; its two sides
    agree in direction when they leave the same vertex.
    """
    tris = np.asarray(mesh.triangles, dtype=np.int64)
    nv, nf = len(np.asarray(mesh.vertices)), len(tris)
    if nf == 0:
        return MeshInvariants(nv, 0, 0, nv, 0, True)
    if tris.min() < 0 or tris.max() >= nv:
        raise ValueError("triangle references an invalid vertex index")
    # slot 3 f + k is the side of face f from its vertex k to vertex (k+1)%3
    tris = tris.astype(np.int32 if max(nv, 3 * nf) < 2**31 else np.int64, copy=False)
    tail, head = tris.ravel(), tris[:, [1, 2, 0]].ravel()
    if np.any(tail == head):
        raise ValueError("degenerate triangle with repeated vertex")
    key = np.minimum(tail, head).astype(np.int64) * nv + np.maximum(tail, head)

    # slots grouped by edge, in slot order within each edge: one stable
    # sort, with each edge's run of slots starting where the key changes
    by_edge = np.argsort(key, kind="stable").astype(tris.dtype, copy=False)
    start = np.flatnonzero(np.r_[True, np.diff(key[by_edge]) != 0])
    del key
    counts = np.diff(start, append=3 * nf)
    ne = len(counts)
    first = by_edge[start]
    bad = np.argmax(counts > 2)
    if counts[bad] > 2:
        raise NonManifoldEdgeError((tail[first[bad]], head[first[bad]]), counts[bad])
    paired = counts == 2
    s1, s2 = first[paired], by_edge[start[paired] + 1]
    del by_edge, start
    f1, f2 = 2 * (s1 // 3), 2 * (s2 // 3)    # the first sheet of each side's face
    # sides traversed the same way (from the same tail vertex): the two
    # faces agree only with one flipped
    flip = tail[s1] == tail[s2]
    del s1, s2

    loops = 0
    b = first[counts == 1]
    if len(b):
        ends = np.stack([tail[b], head[b]], axis=1)
        degree = np.bincount(ends.ravel(), minlength=nv)
        odd = degree[ends.ravel()] != 2
        if odd.any():
            v = int(ends.ravel()[odd.argmax()])
            raise ValueError(
                f"boundary does not form closed loops: vertex {v} has "
                f"{int(degree[v])} boundary edges")
        loops = len(np.unique(_components(nv, ends[:, 0], ends[:, 1])[ends]))

    del tris, tail, head, counts, first
    sheets = _components(2 * nf, np.concatenate([f1, f1 + 1]),
                         np.concatenate([f2 + flip, f2 + 1 - flip]))
    orientable = not np.any(sheets[0::2] == sheets[1::2])
    return MeshInvariants(nv, ne, nf, nv - ne + nf, loops, orientable)


# ------------------------------------------------------------------------- OBJ

_OBJ_ROWS = 1 << 14     # lines per export_obj write
_OBJ_CHARS = 1 << 18    # characters per parse_obj block, cut after a newline


def export_obj(mesh, sink):
    """Write the mesh as Wavefront OBJ text to a byte sink.

    "v x y z" lines with 17 significant digits in vertex-index order, then
    "f i j k" lines (1-based) in triangle creation order. It writes blocks
    of _OBJ_ROWS lines, so a sink that fails part-way may hold a prefix.
    """
    verts = np.asarray(mesh.vertices)
    tris = np.asarray(mesh.triangles)
    if len(verts) == 0 or len(tris) == 0:
        raise ValueError("empty mesh")
    for line, rows in (("v %.17g %.17g %.17g\n", verts), ("f %s %s %s\n", tris)):
        for at in range(0, len(rows), _OBJ_ROWS):
            block = rows[at:at + _OBJ_ROWS]
            block = block if rows is verts else block + 1     # 1-based face indices
            text = (line * len(block)) % tuple(block.ravel().tolist())
            sink.write(text.encode("ascii"))


def _export_shaped(block):
    """The line count and the vertex and face fields of an OBJ block (str or
    bytes) in the shape export_obj writes, or None for any other block.

    That shape is "v" lines, then "f" lines, each a one-byte directive and
    three fields of the bytes 0-9 . e E + - v f, separated by spaces and
    ending in a newline. The fields are bytes tokens, but a block of face
    lines whose fields are digits only has them converted to one int64 array.
    """
    raw = block.encode("ascii", "replace") if isinstance(block, str) else block   # "?": no OBJ byte
    if not raw.endswith(b"\n") or raw.translate(None, b"0123456789.eE+-vf \n"):
        return None
    a = np.frombuffer(raw, np.uint8)
    gap = (a == ord(" ")) | (a == ord("\n"))
    firsts = np.flatnonzero(~gap & np.r_[True, gap[:-1]])      # where each token starts
    starts = np.flatnonzero(np.r_[True, a[:-1] == ord("\n")])  # where each line starts
    count, nv = len(starts), np.count_nonzero(a[starts] == ord("v"))
    # four tokens a line, the first a one-byte directive, v lines first
    if (len(firsts) != 4 * count or (firsts[0::4] != starts).any()
            or a[starts].tobytes() != b"v" * nv + b"f" * (count - nv)
            or (a[starts + 1] != ord(" ")).any()):
        return None
    if raw.translate(None, b"0123456789 \n") == b"f" * count:    # face lines of digits only
        f = np.fromstring(raw.replace(b"f", b" "), np.int64, sep=" ")
        if f.size == 3 * count and f.max() < np.iinfo(np.int64).max:   # strtoll saturates there
            return count, [], f
    fields = raw.split()
    del fields[0::4]
    return count, fields[:3 * nv], fields[3 * nv:]


def parse_obj(source):
    """Re-parse OBJ data into a Mesh.

    ``source`` may be an open stream, OBJ text (str or bytes containing a
    newline), or a filesystem path.

    Every line is checked for its directive and field count before any
    number is converted, so a malformed or unsupported line raises its
    line-numbered ValueError even when an earlier line holds an invalid
    number. Among invalid numbers, the first in line order raises. It reads
    the text in blocks of about _OBJ_CHARS characters, each cut after a
    newline and decoded on its own; this bounds memory and changes nothing above.

    A block in the shape export_obj writes (_export_shaped) is checked and
    converted as a whole; every other block, and a block whose numbers fail
    to convert, takes the per-line check, which raises every error above.
    """
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, (str, bytes)) and (
            b"\n" if isinstance(source, bytes) else "\n") in source:
        text = source
    else:
        with open(source, "r", encoding="ascii") as fh:
            text = fh.read()
    newline, as_str = ("\n", str) if isinstance(text, str) else (b"\n", bytes.decode)
    if isinstance(text, bytes) and not text.isascii():
        text.decode("ascii")                   # raises at the first non-ASCII byte
    blocks = [(np.empty(0), np.empty(0, np.int64))]
    error, lineno, at = None, 0, 0
    while at < len(text):
        cut = text.find(newline, at + _OBJ_CHARS) + 1 or len(text)   # splits no line, no "\r\n"
        block, at = text[at:cut], cut
        shaped = _export_shaped(block)
        if shaped is not None:
            count, vtok, ftok = shaped
            lineno += count
        else:
            vtok, ftok = [], []
            for lineno, line in enumerate(as_str(block).splitlines(), start=lineno + 1):
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
        if isinstance(error, ValueError):
            continue                            # conversion has stopped
        # numpy converts str and bytes tokens with Python float() and int(), until one fails
        try:
            v, f = np.array(vtok, dtype=float), np.asarray(ftok, dtype=np.int64) - 1
            if f.size and f.max() == np.iinfo(np.int64).max:     # wrapped: index int64 min
                raise OverflowError("face index - 1 leaves int64")
        except (ValueError, OverflowError):
            # this block token by token in line order: an invalid number ends conversion,
            # an int64 overflow of a shifted face index yields to a later invalid number
            try:
                tok = {"v": [], "f": []}
                for parts in map(str.split, as_str(block).splitlines()):
                    if parts and not parts[0].startswith("#"):
                        tok[parts[0]] += map(float if parts[0] == "v" else int, parts[1:])
                v = np.array(tok["v"], dtype=float)
                f = np.asarray([i - 1 for i in tok["f"]], dtype=np.int64)
            except (ValueError, OverflowError) as e:
                error = e if error is None or isinstance(e, ValueError) else error
                continue
        blocks.append((v, f))
    if error is not None:
        raise error
    verts, tris = map(np.concatenate, zip(*blocks))
    return Mesh(vertices=verts.reshape(-1, 3) if verts.size else verts,
                triangles=tris.reshape(-1, 3))
