"""Score a synthetic verification run: FAR/FRR sweep, EER, AUC, retrieval.

Genuine scores are drawn high, impostor scores low, with enough overlap to
make the threshold choice interesting.
"""

import numpy as np

from cotface.metrics import (
    RankedQuery,
    RankedRetrieval,
    ScoredPairs,
    auc,
    eer,
    far_frr_sweep,
    gap,
    histogram,
    map_at_100,
    pca2,
)

rng = np.random.default_rng(42)
pairs = ScoredPairs(
    genuine=rng.normal(0.70, 0.12, 400),
    impostor=rng.normal(0.35, 0.12, 1600),
)

value, threshold = eer(pairs)
print(f"EER {value:.4f} at threshold {threshold:.4f}")
print(f"AUC {auc(pairs):.4f}")
print()

print("threshold sweep:")
grid = np.linspace(0.2, 0.9, 8)
for t, far, frr in far_frr_sweep(pairs, grid):
    print(f"  t={t:.2f}  FAR {far:.4f}  FRR {frr:.4f}")
print()

counts_g, edges = histogram(pairs.genuine, 10, (0.0, 1.0))
counts_i, _ = histogram(pairs.impostor, 10, (0.0, 1.0))
print("score histogram (g=genuine, i=impostor):")
for i in range(10):
    bar_g = "g" * int(counts_g[i] / 8)
    bar_i = "i" * int(counts_i[i] / 8)
    print(f"  [{edges[i]:.1f},{edges[i+1]:.1f})  {bar_i}{bar_g}")
print()

# retrieval metrics on a handmade ranking
retrieval = RankedRetrieval(
    queries=[
        RankedQuery(rel=[1, 0, 1], num_relevant=2),   # hits at ranks 1 and 3
        RankedQuery(rel=[0, 1], num_relevant=1),      # hit at rank 2
    ],
    confidences=[0.9, 0.8, 0.7, 0.6],
    correct=[1, 0, 1, 1],
    num_in_gallery=4,
)
print(f"mAP@100 {map_at_100(retrieval):.4f}")
print(f"GAP     {gap(retrieval):.4f}")
print()

# 2-D projection of clustered embeddings via eigendecomposition
centers = rng.normal(size=(3, 8)) * 3.0
points = np.concatenate([c + rng.normal(size=(30, 8)) * 0.4 for c in centers])
proj, variances, axes = pca2(points)
print(f"top-2 variances: {variances[0]:.2f} {variances[1]:.2f}")
print(f"projected spread: x [{proj[:, 0].min():.1f}, {proj[:, 0].max():.1f}]"
      f" y [{proj[:, 1].min():.1f}, {proj[:, 1].max():.1f}]")
