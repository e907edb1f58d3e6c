"""
Welded surface meshes and their invariants
==========================================

Builds the torus, pinched sphere and Mobius band as welded triangle
meshes over the glued unit square, prints the topological fingerprint of
each (V, E, F, Euler characteristic, boundary loops, orientability), and
writes OBJ files you can open in any mesh viewer.

Usage: python demos/build_surfaces.py [resolution]   (n >= 5, as the Mobius band needs)
"""
import sys

from loopsurf import Scheme, build_mesh, export_obj, mesh_invariants

n = int(sys.argv[1]) if len(sys.argv) > 1 else 32

print(f"resolution n = {n} (grid of (n+1) x (n+1) vertices before welding)")
print()
print(f"{'scheme':16s} {'V':>6s} {'E':>6s} {'F':>6s} {'chi':>4s} "
      f"{'loops':>6s} {'orientable':>11s}")
for scheme in Scheme:
    mesh = build_mesh(scheme, n)
    inv = mesh_invariants(mesh)
    print(f"{scheme.value:16s} {inv.V:6d} {inv.E:6d} {inv.F:6d} "
          f"{inv.euler_char:4d} {inv.boundary_loops:6d} {str(inv.orientable):>11s}")
    path = f"{scheme.value}_{n}.obj"
    with open(path, "wb") as fh:
        export_obj(mesh, fh)
    print(f"{'':16s} -> wrote {path}")

print()
print("Expected fingerprints, independent of n:")
print("  torus           chi=0, no boundary, orientable")
print("  pinched-sphere  chi=1 (a sphere with two points fused), orientable")
print("  mobius          chi=0, one boundary circle, non-orientable")
