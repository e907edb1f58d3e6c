"""Glued-square quotient spaces for point pairs on closed curves.

Subpackages cover curve ingestion (`curves`), the three square
identification schemes (`pairspace`), their R^3 realizations and welded
meshes (`embed`), fundamental-polygon word classification (`edgeword`),
and the inscribed-rectangle search (`inscribed`).
"""

from .curves import ClosedCurve, from_spec, load_polyline, load_polyline_csv, make_preset
from .pairspace import (
    Orbit,
    PairOnLoop,
    QuotientPoint,
    Scheme,
    canonicalize,
    decode,
    encode_pair,
    equivalent,
    orbit,
    quotient_distance,
    quotient_point,
)
from .embed import (
    Mesh,
    MeshInvariants,
    NonManifoldEdgeError,
    build_mesh,
    embed,
    export_obj,
    mesh_invariants,
    parse_obj,
)
from .edgeword import EdgeWord, SurfaceClass, canonical_name, classify, parse
from .inscribed import (
    NotFound,
    RectangleWitness,
    find_rectangle,
    verify_rectangle,
)

__all__ = [
    "ClosedCurve", "from_spec", "load_polyline", "load_polyline_csv", "make_preset",
    "Scheme", "QuotientPoint", "PairOnLoop", "Orbit",
    "canonicalize", "equivalent", "quotient_distance", "encode_pair", "decode",
    "orbit", "quotient_point",
    "Mesh", "MeshInvariants", "NonManifoldEdgeError",
    "embed", "build_mesh", "mesh_invariants", "export_obj", "parse_obj",
    "EdgeWord", "SurfaceClass", "parse", "classify", "canonical_name",
    "RectangleWitness", "NotFound", "find_rectangle", "verify_rectangle",
]

__version__ = "0.1.0"
