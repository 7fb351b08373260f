"""Soft assignment weights for instance pairs and timestamp pairs.

Shows how the instance weights decay with data-space distance under each
kernel, how temporal weights decay with timestamp gap, how the sharpness
scales with pooling depth, and what the extended matrices look like.
"""
import numpy as np

import tscontrast as tc
from tscontrast import assign as asg
from tscontrast.distance import DistanceMatrix

# instance weights as a function of normalized distance, per kernel
grid = np.linspace(0.0, 1.0, 6)
row = DistanceMatrix(values=np.tile(grid, (6, 1)), metric="dtw")
print("instance weight vs normalized distance:")
print("  D:        " + "  ".join(f"{d:5.2f}" for d in grid))
for kernel in asg.INSTANCE_KERNELS:
    cfg = tc.TrainConfig(inst_kernel=kernel, tau_inst=10.0, alpha=0.5)
    w = asg.w_instance(row, cfg)[0]
    print(f"  {kernel:9s}" + "  ".join(f"{v:5.3f}" for v in w))

# temporal weights as a function of gap, per kernel
print("\ntemporal weight vs gap (T = 8, level 0):")
for kernel in asg.TEMPORAL_KERNELS:
    cfg = tc.TrainConfig(temp_kernel=kernel, tau_temp=1.0)
    w = tc.w_temporal(8, 0, cfg)[0]
    print(f"  {kernel:9s}" + "  ".join(f"{v:5.3f}" for v in w))

# hierarchical sharpening: pooling level k uses sharpness pool_m^k * tau_temp
print("\nsigmoid temporal weight at gap 1 per pooling level (m = 2, tau_base = 1):")
cfg = tc.TrainConfig(tau_temp=1.0, pool_m=2)
for k in range(4):
    w = tc.w_temporal(8, k, cfg)
    print(f"  level {k}: effective tau = {asg.effective_tau(cfg, k):4.1f}, "
          f"w(gap=1) = {w[0, 1]:.4f}")

# extended matrix: diagonal 0, cross-view positives 1, soft weights elsewhere
w = np.round(np.random.default_rng(0).uniform(0.1, 0.4, (3, 3)), 2)
w = (w + w.T) / 2
ext = tc.extend_instance(w)
print("\nextended instance assignments (2N x 2N) for N = 3:")
print(np.round(ext, 2))
# each row over its sum Z is the target distribution Q of the scaled-KL form
print(f"partition values Z (row sums): {np.round(ext.sum(axis=1), 3)}")
