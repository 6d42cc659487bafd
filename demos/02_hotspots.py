"""Plant a high-value pocket in a lattice and find it with the local
concentration statistic.
"""

import collections

import numpy as np

from arealstat.hotspot import gi_star
from arealstat.synth import lattice
from arealstat.weights import queen_contiguity

rng = np.random.default_rng(7)

nx = ny = 12
units = lattice(nx, ny)
links = queen_contiguity(units)

# background noise plus a raised 3x3 block in the north-east corner
x = rng.normal(30.0, 2.0, nx * ny)
for r in (1, 2, 3):
    for c in (8, 9, 10):
        x[r * nx + c] += 8.0

result = gi_star(links, x, fdr_alpha=0.05)

counts = collections.Counter(result.classes)
print("class counts:", dict(counts))

hot = [i for i, c in enumerate(result.classes) if c.startswith("hot")]
print("hot units (row, col):", sorted(divmod(i, nx) for i in hot))

peak = int(np.argmax(result.z))
print(
    f"peak z {result.z[peak]:.2f} at unit {units[peak].id}, "
    f"raw p {result.p[peak]:.2e}, adjusted {result.adjusted_p[peak]:.2e}"
)

# the adjustment only ever weakens evidence
print("adjusted >= raw everywhere:", bool(np.all(result.adjusted_p >= result.p)))
