"""
Streamline distances and kernel construction
============================================

Compares the three pairwise distance measures, converts distances to a
positive semi-definite similarity kernel, and shows the landmark-based
low-rank approximation for larger datasets.
"""

import numpy as np

from tractsparse.synth import preset_crossing2
from tractsparse.distances import (
    dist_ep,
    dist_hausdorff,
    dist_mcp,
    pairwise_distances,
)
from tractsparse.kernel import kernel_from_distances, nystrom_kernel

tract, labels = preset_crossing2(seed=0, count_per_bundle=60)
lab = np.asarray(labels.labels)

# Three measures, three sensitivities: mean-closest-point averages over
# the whole body, Hausdorff reacts to the worst point, and the endpoint
# distance only looks at the two tips.
a, b = tract[0], tract[1]
print(f"mcp  = {dist_mcp(a, b):8.3f}")
print(f"haus = {dist_hausdorff(a, b):8.3f}")
print(f"ep   = {dist_ep(a, b):8.3f}")

d = pairwise_distances(tract, "mcp")
within = d.values[np.ix_(lab == 0, lab == 0)]
across = d.values[np.ix_(lab == 0, lab == 1)]
print(f"within-bundle mean {within.mean():.1f}, across {across.mean():.1f}")

# The RBF bandwidth comes from the median pairwise distance unless given
# explicitly; an indefinite kernel is shifted just enough to be PSD.
k = kernel_from_distances(d)
print(f"gamma = {k.gamma:.6f}, spectrum shift = {k.shift:.6f}")

# With p landmarks the kernel is kept as an n-by-r factor G (r <= p) with
# K close to G G'. At p = n the dense kernel is reproduced.
full = nystrom_kernel(tract, "mcp", gamma=k.gamma, p=len(tract), seed=0)
rel = np.linalg.norm(full.dense() - k.dense()) / np.linalg.norm(k.dense())
print(f"p = n reconstruction error: {rel:.2e}")

# With fewer landmarks the factor keeps only the landmark eigenpairs it
# can invert and drops the rest, so whatever the landmarks cannot represent
# is left out rather than amplified. Checking reconstruction on a held-out
# block is cheap insurance.
coarse = nystrom_kernel(tract, "mcp", gamma=k.gamma, p=30, seed=0)
rel = np.linalg.norm(coarse.dense() - k.dense()) / np.linalg.norm(k.dense())
print(f"p = 30 reconstruction error: {rel:.2e} (rank {coarse.factor.shape[1]})")
