"""Walk through the angular margin losses on a tiny two-sample batch.

Two feature vectors, two unit class centers.  Sample 0 sits close to its
class (angle 0.1 rad), sample 1 sits far from its class (1.37 rad), so one
is "easy" and one is "hard".  We derive the angle matrix, score it with each
loss, and look at how the margins move the per-sample penalties around.
"""

import numpy as np

from cotface.angular import AngularBatch, LossConfig, angles_from_features, cot_via_theta
from cotface.losses import ANGULAR_LOSSES, softmax_loss
from cotface.reference import FEATURES, LABELS, LOGITS, WEIGHTS, batch

cfg = LossConfig(s=2.0, log_base="ten")

# angles between the normalized features and the class centers
theta = angles_from_features(FEATURES, WEIGHTS)
print("angle matrix (radians):")
print(np.round(theta, 4))
print("labels:", LABELS)
print()

# the classic ladder: plain softmax on raw logits, then the margin family
print("losses at s=2, base-10 logs:")
print(f"  softmax              {softmax_loss(LOGITS, LABELS, cfg).value:.4f}")
for name, m in (("sphereface", 1.1), ("cosface", 0.05), ("arcface", 0.05), ("lmcot", 0.05)):
    value = ANGULAR_LOSSES[name](batch(), LossConfig(s=2.0, m=m, log_base="ten")).value
    print(f"  {name:<12}m={m:<7}{value:.4f}")
print()

# Per-sample view.  The cotangent form barely charges the easy sample and
# hammers the hard one; arcface spreads the penalty much more evenly.
m = LossConfig(s=2.0, m=0.05, log_base="ten")
af = ANGULAR_LOSSES["arcface"](batch(), m).per_sample
lm = ANGULAR_LOSSES["lmcot"](batch(), m).per_sample
print("per-sample penalties (easy sample first):")
print(f"  arcface  {af[0]:.6f}  {af[1]:.6f}   ratio hard/easy {af[1] / af[0]:8.1f}")
print(f"  lmcot    {lm[0]:.2e}  {lm[1]:.6f}   ratio hard/easy {lm[1] / lm[0]:8.1e}")
print()

# why: cot explodes toward 0 and goes negative past pi/2, cos stays in [-1, 1]
grid = np.array([0.1, 0.5, 1.0, np.pi / 2, 2.0, 3.0])
cot, _ = cot_via_theta(grid)
print("kernel comparison")
print("theta:", "  ".join(f"{t:7.3f}" for t in grid))
print("cos:  ", "  ".join(f"{v:7.3f}" for v in np.cos(grid)))
print("cot:  ", "  ".join(f"{v:7.3f}" for v in cot))
print()

# the registry exposes all twelve angular losses under one signature
rng = np.random.default_rng(0)
big = np.random.default_rng(1)
theta_big = big.uniform(0.1, 2.8, size=(64, 10))
labels_big = big.integers(0, 10, size=64)
b = AngularBatch(theta_big, labels_big)
full_cfg = LossConfig(s=16.0, m=0.2, m1=1.0, m2=0.2, m3=0.1,
                      sigma1=0.05, sigma2=0.05, sigma3=0.05, alpha=0.6, beta=0.4)
print("all registry losses on a random 64x10 batch (s=16):")
for name, fn in ANGULAR_LOSSES.items():
    out = fn(b, full_cfg, rng=rng)
    print(f"  {name:<18} {out.value:8.4f}")
