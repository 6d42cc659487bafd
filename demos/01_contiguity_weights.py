"""Build contiguity structure for a small tract lattice and look at the
different weight modes.
"""

import warnings

from arealstat.synth import lattice, detached_square
from arealstat.weights import (
    detect_islands,
    queen_contiguity,
    rook_contiguity,
    to_weights,
    write_weights,
    read_weights,
)

units = lattice(4, 4)

queen = queen_contiguity(units)
rook = rook_contiguity(units)
print(f"{len(units)} units")
print(f"queen links: {queen.degree().sum()}, rook links: {rook.degree().sum()}")

# the corner-to-corner pairs are the difference between the two notions
corner_only = queen.degree().sum() - rook.degree().sum()
print(f"diagonal-only neighbor pairs: {corner_only // 2}")

# row-standardized is what the regression models expect
w = to_weights(queen, "row-standardized")
row0 = w.matrix[0]
print("unit 0 row:", [(int(j), round(float(v), 3)) for j, v in zip(row0.indices, row0.data)])

# binary with a self-link is what the hot spot statistic expects
wg = to_weights(queen, "binary", include_self=True)
print("unit 0 self-inclusive neighborhood size:", wg.matrix[0].nnz)

# a detached polygon shows up as an island and gets an all-zero row
units_with_island = units + [detached_square("900000", 50.0)]
links = queen_contiguity(units_with_island)
print("islands:", [units_with_island[i].id for i in detect_islands(links)])
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    w_island = to_weights(links, "row-standardized")
print("island row sum:", w_island.to_dense()[16].sum())

# the text serialization round-trips exactly
text = write_weights(w)
again = read_weights(text)
print("round trip ok:", (w.matrix != again.matrix).nnz == 0)
print("first lines of the weights file:")
print("\n".join(text.splitlines()[:4]))
