"""Pairwise data-space distances on a small synthetic corpus.

Builds a two-class corpus, computes the pairwise matrix under each metric,
prints summary statistics, and demonstrates the binary cache round-trip.
"""
import tempfile

import numpy as np

import tscontrast as tc

corpus = tc.znormalize(tc.make_synthetic(
    n_per_class=5, length=48,
    classes=[{"kind": "sine", "freq": 2.0}, {"kind": "square", "freq": 3.0}],
    noise_std=0.1, seed=0))
print(f"corpus: {corpus.n} series, length {corpus.t_max}, classes {np.unique(corpus.labels)}")

for metric in tc.METRICS:
    matrix = tc.pairwise(corpus, metric, {"radius": 2} if metric == "fastdtw" else None)
    off = matrix.values[~np.eye(matrix.n, dtype=bool)]
    same = matrix.values[(corpus.labels[:, None] == corpus.labels[None, :])
                         & ~np.eye(matrix.n, dtype=bool)]
    cross = matrix.values[corpus.labels[:, None] != corpus.labels[None, :]]
    print(f"{metric:8s}: off-diagonal mean {off.mean():.3f} | "
          f"within-class mean {same.mean():.3f} | cross-class mean {cross.mean():.3f}")

# distances are expensive for DTW-family metrics, so they cache as their upper triangle
matrix = tc.pairwise(corpus, "dtw")
with tempfile.NamedTemporaryFile(suffix=".bin") as tmp:
    tc.save_matrix(matrix, tmp.name)
    back = tc.load_matrix(tmp.name)
    print(f"\ncache round-trip bit-exact: {np.array_equal(back.values, matrix.values)}")

# exact DTW vs its fast approximation
a, b = corpus.series(0), corpus.series(7)
exact = tc.dtw(a, b)
print(f"\nexact DTW = {exact:.4f}")
for radius in (1, 2, 48):
    approx = tc.fastdtw(a, b, radius=radius)
    print(f"fast approximation, radius {radius:2d}: {approx:.4f} "
          f"(rel err {abs(approx - exact) / exact:.2e})")
