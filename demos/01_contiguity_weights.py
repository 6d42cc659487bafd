"""Build contiguity structure for a small tract lattice and look at the
weightings the statistics derive from it.
"""

from arealstat.synth import lattice, detached_square
from arealstat.weights import (
    detect_islands,
    queen_contiguity,
    rook_contiguity,
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

# the regression models row-standardize the links
w = queen.row_standardized()
row0 = w[0]
print("unit 0 row:", [(int(j), round(float(v), 3)) for j, v in zip(row0.indices, row0.data)])

# the hot spot statistic adds a self-link to each unit's neighbors
print("unit 0 self-inclusive neighborhood size:", queen.degree()[0] + 1)

# a detached polygon shows up as an island and gets an all-zero row
units_with_island = units + [detached_square("900000", 50.0)]
links = queen_contiguity(units_with_island)
print("islands:", [units_with_island[i].id for i in detect_islands(links)])
print("island row sum:", links.row_standardized().toarray()[16].sum())

# the weights file lists each unit's neighbors by id, in id order, and reads
# back as the ids and the same links
ids = [u.id for u in units]
text = write_weights(queen, ids)
again_ids, again = read_weights(text)
print("round trip ok:", again_ids == ids and (queen.matrix != again.matrix).nnz == 0)
print("first lines of the weights file:")
print("\n".join(text.splitlines()[:4]))
