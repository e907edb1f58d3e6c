"""Command-line interface.

JSON results go to stdout, single-line diagnostics ("error: ...") to
stderr; files are written only when --out is given. Exit codes: 0 success
(including a rectangle search that finds nothing), 2 usage error, 3 input
data error, 4 internal invariant violation.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .curves import PRESET_NAMES, from_spec
from .edgeword import classify, parse
from .embed import NonManifoldEdgeError, build_mesh, embed, export_obj, mesh_invariants
from .inscribed import find_rectangle
from .pairspace import Scheme, canonicalize, decode, quotient_point

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


class _UsageError(Exception):
    pass


class _DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):   # options in full: "--r" is no prefix of --resolution
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(message)


def _emit(out, payload):
    out.write(json.dumps(payload) + "\n")


def _scheme_arg(text):
    try:
        return Scheme(text)
    except ValueError:
        names = ", ".join(s.value for s in Scheme)
        raise _UsageError(f"unknown scheme {text!r} (expected one of: {names})") from None


def _load_curve(spec):
    head = spec.partition(":")[0]
    if ":" not in spec or head not in PRESET_NAMES + ("file",):
        raise _UsageError(
            f"bad curve spec {spec!r}: expected circle:r, ellipse:a,b, "
            "superellipse:a,b,p or file:PATH.csv")
    try:
        return from_spec(spec)
    except (ValueError, OSError) as e:
        raise _DataError(str(e)) from None


def _cmd_classify(ns, out):
    try:
        word = parse(ns.word)
    except ValueError as e:
        raise _UsageError(str(e)) from None
    _emit(out, classify(word).to_json())
    return EXIT_OK


def _cmd_mesh(ns, out):
    scheme = _scheme_arg(ns.scheme)
    try:
        mesh = build_mesh(scheme, ns.resolution)
    except ValueError as e:
        raise _UsageError(str(e)) from None
    inv = mesh_invariants(mesh)
    if ns.out:
        fh = None
        try:
            with open(ns.out, "wb") as fh:
                export_obj(mesh, fh)
        except OSError as e:
            if fh is not None and os.path.isfile(ns.out):
                os.remove(ns.out)       # a failed write leaves no truncated OBJ
            raise _DataError(f"cannot write {ns.out}: {e}") from None
    _emit(out, inv.to_json())
    return EXIT_OK


def _cmd_encode(ns, out):
    scheme = _scheme_arg(ns.scheme)
    try:
        q = canonicalize(scheme, ns.x, ns.y)
    except ValueError as e:
        raise _UsageError(str(e)) from None
    payload = q.to_json()
    payload["embedding"] = [float(c) for c in embed(scheme, q)]
    _emit(out, payload)
    return EXIT_OK


def _cmd_decode(ns, out):
    scheme = _scheme_arg(ns.scheme)
    try:
        q = quotient_point(scheme, ns.u, ns.v)
    except ValueError as e:
        raise _UsageError(str(e)) from None
    pair = decode(q)
    _emit(out, {"scheme": scheme.value, "pair": [pair.a, pair.b],
                "ordered": pair.ordered, "pole": q.is_pole})
    return EXIT_OK


def _cmd_rect(ns, out):
    curve = _load_curve(ns.curve)
    try:
        result = find_rectangle(curve, grid_n=ns.grid, tol=ns.tol,
                                min_separation=ns.min_sep)
    except ValueError as e:
        raise _UsageError(str(e)) from None
    _emit(out, result.to_json())
    return EXIT_OK


def _cmd_curve_sample(ns, out):
    curve = _load_curve(ns.curve)
    if ns.n < 1:
        raise _UsageError(f"--n must be >= 1, got {ns.n}")
    pts = curve.sample(ns.n)
    out.write("x,y\n")
    for x, y in pts:
        out.write(f"{float(x)!r},{float(y)!r}\n")
    return EXIT_OK


def _build_parser():
    parser = _Parser(prog="loopsurf",
                     description="Glued-square pair spaces, surface meshes, "
                                 "edge-word classification and inscribed rectangles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a fundamental-polygon edge word")
    p.add_argument("word")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("mesh", help="build a welded mesh, print its invariants")
    p.add_argument("scheme")
    p.add_argument("--resolution", type=int, required=True, help=">= 3; >= 5 for mobius")
    p.add_argument("--out", default=None, help="write Wavefront OBJ here")
    p.set_defaults(func=_cmd_mesh)

    p = sub.add_parser("encode", help="canonicalize square coordinates, with embedding")
    p.add_argument("scheme")
    p.add_argument("x", type=float)
    p.add_argument("y", type=float)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="representative pair of a canonical point")
    p.add_argument("scheme")
    p.add_argument("u", type=float)
    p.add_argument("v", type=float)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("rect", help="search for an inscribed rectangle")
    p.add_argument("--curve", required=True)
    p.add_argument("--grid", type=int, required=True, help="finest search grid (>= 16); "
                   "grids 16, 32, 64, ... below it go first, and the coarsest with a witness wins")
    p.add_argument("--tol", type=float, required=True, help="absolute, in the curve's "
                   "units: bounds the residuals and the vertex distances to the curve")
    p.add_argument("--min-sep", dest="min_sep", type=float, default=1e-3,
                   help="least distance of the two pairs on the unordered-pair band, in "
                        "loop-parameter units (fractions of the perimeter)")
    p.set_defaults(func=_cmd_rect)

    p = sub.add_parser("curve-sample", help="CSV sample of a curve")
    p.add_argument("--curve", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_curve_sample)

    return parser


def run(argv, out=None, err=None):
    """Run one command; returns the process exit code."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        return ns.func(ns, out)
    except _UsageError as e:
        err.write(f"error: {e}\n")
        return EXIT_USAGE
    except _DataError as e:
        err.write(f"error: {e}\n")
        return EXIT_DATA
    except NonManifoldEdgeError as e:
        err.write(f"error: {e}\n")
        return EXIT_INTERNAL
    except Exception as e:  # invariant violations surface as exit 4
        err.write(f"error: internal: {e}\n")
        return EXIT_INTERNAL


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
