"""Built-in two-sample reference batch with hand-checked loss values.

A tiny 2-class setup frozen as a regression anchor: two feature vectors, two
unit class centers, the resulting angle matrix (rounded to the precision the
values below were derived at), and the expected base-10 loss values at s = 2.
`refcheck` replays these and fails if any implementation drifts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angular import AngularBatch, LossConfig
from .losses import ANGULAR_LOSSES, softmax_loss

# Raw features, unit class centers, and raw logits <x_i, w_j>.
FEATURES = np.array([[0.1, 0.995], [0.2, 0.9798]])
WEIGHTS = np.array([[0.0, 1.0], [1.0, 0.0]])
LOGITS = np.array([[0.995, 0.1], [0.9798, 0.2]])
LABELS = np.array([0, 1])
# Angles arccos(<x_i/|x_i|, w_j>), rounded to the precision of the frozen values.
THETA = np.array([[0.1, 1.47], [0.2, 1.37]])
SCALE = 2.0

DEFAULT_TOLERANCE = 1e-3


def _config(**kwargs) -> LossConfig:
    return LossConfig(s=SCALE, log_base="ten", **kwargs)


def batch() -> AngularBatch:
    return AngularBatch(theta=THETA.copy(), labels=LABELS.copy())


# (name, expected value, callable computing it)
_CHECKS = (
    ("softmax", 0.3257, lambda: softmax_loss(LOGITS, LABELS, _config()).value),
    ("sphereface", 0.4638, lambda: ANGULAR_LOSSES["sphereface"](batch(), _config(m=1.1)).value),
    ("cosface", 0.4353, lambda: ANGULAR_LOSSES["cosface"](batch(), _config(m=0.05)).value),
    ("arcface", 0.4322, lambda: ANGULAR_LOSSES["arcface"](batch(), _config(m=0.05)).value),
    ("lmcot", 2.0765, lambda: ANGULAR_LOSSES["lmcot"](batch(), _config(m=0.05)).value),
)


@dataclass(frozen=True)
class ReferenceResult:
    name: str
    expected: float
    computed: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.computed - self.expected) <= self.tolerance


def run_reference_checks(tolerance: float = DEFAULT_TOLERANCE) -> list[ReferenceResult]:
    """Recompute the five frozen losses on the reference batch."""
    return [
        ReferenceResult(name, expected, float(fn()), tolerance)
        for name, expected, fn in _CHECKS
    ]
