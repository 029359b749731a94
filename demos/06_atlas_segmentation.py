"""
Building an atlas and labeling new streamlines
==============================================

Fits a dictionary on one sample of a population, persists it with its
kernel parameters, and uses it to label a fresh sample without
re-clustering.
"""

import numpy as np

from tractsparse.synth import preset_separated5
from tractsparse.model import SolverConfig
from tractsparse.atlas import build_atlas, load_atlas, save_atlas, segment_with_atlas
from tractsparse.metrics import adjusted_rand_index

# Train on one resample of the population.
train, train_truth = preset_separated5(seed=10, total_count=600)
atlas, fit = build_atlas([train], SolverConfig(m=5, seed=0), measure="mcp")
print(
    f"atlas: {len(atlas.training)} training streamlines, "
    f"{atlas.m} atoms, gamma {atlas.gamma:.5f}"
)
print(f"training ARI vs truth: {adjusted_rand_index(fit.labels, train_truth):.3f}")

# The atlas directory stores the training streamlines the atoms use, their
# rows of the dictionary, and the kernel parameters needed to reproduce
# similarities exactly.
save_atlas(atlas, "/tmp/demo.atlas")
atlas = load_atlas("/tmp/demo.atlas")
print(f"stored: {len(atlas.training)} training streamlines (the ones the atoms use)")

# A disjoint resample of the same population gets labeled by sparse
# pursuit against the stored dictionary; no solver runs at test time.
test, test_truth = preset_separated5(seed=11, total_count=400)
seg = segment_with_atlas(atlas, test)
print(f"new-sample ARI vs truth: {adjusted_rand_index(seg.labels, test_truth):.3f}")
print(f"unassigned: {int(seg.unassigned.sum())} of {len(test)}")

# Soft memberships come along for free.
w = seg.assignment.w
print(f"mean atoms per new streamline: {np.count_nonzero(w, axis=0).mean():.2f}")
