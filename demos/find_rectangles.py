"""
Inscribed rectangles from chord-map self-intersections
======================================================

An unordered pair of loop positions maps to (chord midpoint, chord
length). Two different pairs hitting the same image are two chords that
bisect each other with equal length -- the diagonals of an inscribed
rectangle. The unordered-pair space is a Mobius band, so the search space
is the band's canonical (m, d) chart.

Writes rectangle plots to PNG when matplotlib is available.
"""
import numpy as np

from loopsurf import (
    RectangleWitness,
    find_rectangle,
    from_spec,
    load_polyline,
    verify_rectangle,
)

# the first witness of the coarsest grid (16, 32, ... up to the given grid)
# wins, which is seldom a thin sliver
CASES = [
    ("circle r=1", from_spec("circle:1"), 64, 1e-9),
    ("ellipse 2x1", from_spec("ellipse:2,1"), 128, 1e-8),
    ("triangle", load_polyline([(0, 0), (4, 0), (1, 3)]), 64, 1e-7),
    ("squashed superellipse", from_spec("superellipse:2,1,4"), 96, 1e-8),
]

results = []
for name, curve, grid, tol in CASES:
    res = find_rectangle(curve, grid_n=grid, tol=tol)
    print(f"--- {name} (grid {grid}, tol {tol:g})")
    if not isinstance(res, RectangleWitness):
        print(f"    no witness; best residual {res.best_residual}")
        continue
    (a1, a2), (b1, b2) = res.pairs
    print(f"    diagonal 1 at parameters ({a1:.6f}, {a2:.6f})")
    print(f"    diagonal 2 at parameters ({b1:.6f}, {b2:.6f})")
    print(f"    midpoint residual {res.midpoint_residual:.2e}, "
          f"diagonal-length residual {res.length_residual:.2e}")
    report = verify_rectangle(curve, res, tol=10 * tol)
    print(f"    verified: {report.passes}; sides "
          + " x ".join(f"{s:.4f}" for s in report.side_lengths[:2])
          + f"; diagonal angle {np.degrees(report.diagonal_angle):.2f} deg")
    results.append((name, curve, res))

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not installed; skipping plots")
    raise SystemExit(0)

fig, axes = plt.subplots(1, len(results), figsize=(5 * len(results), 5))
for ax, (name, curve, w) in zip(np.atleast_1d(axes), results):
    loop = curve.sample(512)
    loop = np.vstack([loop, loop[:1]])
    ax.plot(loop[:, 0], loop[:, 1], "-", color="#457B9D", lw=1.5)
    quad = np.vstack([w.vertices, w.vertices[:1]])
    ax.plot(quad[:, 0], quad[:, 1], "-o", color="#E63946", lw=2, ms=5)
    for i in (0, 1):
        ax.plot(quad[[i, i + 2], 0], quad[[i, i + 2], 1], "--",
                color="#F4A261", lw=1)
    ax.set_aspect("equal")
    ax.set_title(name)
fig.tight_layout()
fig.savefig("inscribed_rectangles.png", dpi=130)
print("\nwrote inscribed_rectangles.png")
