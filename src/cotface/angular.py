"""Angle geometry shared by every margin loss.

Features and class-center weights are compared on the unit hypersphere: both
are L2-normalized, so the logit between sample i and class j is a pure
function of the angle theta_ji = arccos(<x_i, w_j>).  This module provides the
normalization, the feature-to-angle map, the cotangent (floored for
competitor classes, pole-checked for margin-shifted angles) with the paper's
two kernels, and the Gaussian margin sampler used by the elastic losses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_EPS = 1e-7

_LOG_BASES = ("natural", "ten")


class ZeroVectorError(ValueError):
    """Raised when a vector with norm below eps is normalized."""


class SingularityError(ValueError):
    """Raised when a cotangent is requested at an angle where it diverges."""


@dataclass(frozen=True)
class LossConfig:
    """Hyper-parameters shared by the margin losses.

    s scales logits; m is the single margin; (m1, m2, m3) are the
    multiplicative, angle-additive and subtractive margins of the combined
    form; (sigma1, sigma2, sigma3) are the matching elastic std-devs; alpha
    and beta weight the cot/cos branches of the dual loss.  log_base selects
    natural or base-10 cross-entropy.
    """

    s: float = 64.0
    m: float = 0.5
    m1: float = 1.0
    m2: float = 0.0
    m3: float = 0.0
    sigma1: float = 0.0
    sigma2: float = 0.0
    sigma3: float = 0.0
    alpha: float = 1.0
    beta: float = 1.0
    eps: float = DEFAULT_EPS
    log_base: str = "natural"

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.s < 0.0:
            raise ValueError(f"scale s must be >= 0, got {self.s}")
        for name in ("sigma1", "sigma2", "sigma3"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.log_base not in _LOG_BASES:
            raise ValueError(f"log_base must be one of {_LOG_BASES}")

    @property
    def log_divisor(self) -> float:
        """ln(b) for the configured base: losses are natural-log values / this."""
        return 1.0 if self.log_base == "natural" else float(np.log(10.0))


@dataclass
class AngularBatch:
    """A batch of sample-to-class angles with integer labels.

    theta has shape (N, n_classes), radians in [0, pi); labels has shape (N,)
    with values in [0, n_classes).
    """

    theta: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.theta.ndim != 2:
            raise ValueError("theta must be 2-D (N, n_classes)")
        if self.labels.shape != (self.theta.shape[0],):
            raise ValueError("labels must have shape (N,)")
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise ValueError("labels must be integers")
        if not np.isfinite(self.theta).all():
            raise ValueError("theta contains non-finite values")
        if (self.theta < 0.0).any() or (self.theta >= np.pi).any():
            raise ValueError("angles must lie in [0, pi)")
        n = self.theta.shape[1]
        if (self.labels < 0).any() or (self.labels >= n).any():
            raise ValueError("labels out of range")

    @property
    def n_samples(self) -> int:
        return self.theta.shape[0]

    @property
    def n_classes(self) -> int:
        return self.theta.shape[1]


def l2_normalize(v, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Return v / ||v||, raising ZeroVectorError when ||v|| < eps."""
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm < eps:
        raise ZeroVectorError(f"cannot normalize vector with norm {norm!r}")
    return v / norm


def l2_normalize_rows(m, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Row-wise l2_normalize for a 2-D array."""
    return _unit_rows(m, eps)[0]


def _unit_rows(m, eps: float):
    """(m with unit rows, the (N, 1) row norms); ZeroVectorError below eps."""
    m = np.asarray(m, dtype=np.float64)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    if (norms < eps).any():
        raise ZeroVectorError("matrix has a row with norm below eps")
    return m / norms, norms


def angles_from_features(features, weights, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Angles between normalized feature rows and normalized weight rows.

    features: (N, d) raw feature vectors; weights: (n_classes, d) class
    centers.  Cosines are clamped to [-1 + eps, 1 - eps] before arccos so the
    result stays differentiable.  Returns (N, n_classes) radians.
    """
    features = np.asarray(features, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if not np.isfinite(features).all() or not np.isfinite(weights).all():
        raise ValueError("non-finite input")
    fn = l2_normalize_rows(features, eps)
    wn = l2_normalize_rows(weights, eps)
    cos = np.clip(fn @ wn.T, -1.0 + eps, 1.0 - eps)
    return np.arccos(cos)


def floored_cot(theta, eps: float = DEFAULT_EPS):
    """cot(theta) and its slope, with |tan| floored at eps (sign kept).

    The floor makes cot saturate at +-1/eps near the poles instead of
    overflowing; where it engages the kernel is flat, so the slope is 0 there
    and -(1 + cot^2) elsewhere.
    """
    t = np.tan(theta, out=np.empty(np.shape(theta)))  # buffers, also for a scalar theta
    abs_t = np.abs(t, out=np.empty_like(t))
    cot = np.maximum(abs_t, eps, out=np.empty_like(t))
    # copysign handles tan = +-0.0: the floor keeps the pole's sign
    np.copysign(cot, t, out=cot)
    np.divide(1.0, cot, out=cot)
    slope = np.multiply(cot, cot, out=t)
    slope += 1.0
    np.negative(slope, out=slope)
    slope[abs_t < eps] = 0.0
    return cot[()], slope[()]  # [()] turns 0-d buffers back into scalars


def margin_cot(angle, eps: float = DEFAULT_EPS):
    """cot(angle) and its slope for margin-shifted angles, pole-checked.

    Raises SingularityError when any angle falls within eps of a multiple of
    pi; past that check floored_cot's floor does not engage.
    """
    rem = np.remainder(angle, np.pi)  # in [0, pi)
    if (np.minimum(rem, np.pi - rem) < eps).any():
        raise SingularityError("cot undefined: angle within eps of a multiple of pi")
    return floored_cot(angle, eps)


def cot_via_theta(theta, m: float = 0.0, eps: float = DEFAULT_EPS):
    """Cotangent kernel working directly in angle space.

    Returns (cot_theta, cot_theta_m): the floored cot(theta) and the
    pole-checked cot(theta + m), which raises SingularityError.
    """
    theta = np.asarray(theta, dtype=np.float64)
    return floored_cot(theta, eps)[0], margin_cot(theta + m, eps)[0]


def cot_via_identity(cos_theta, m: float = 0.0, eps: float = DEFAULT_EPS):
    """Cotangent kernel working from cosines via angle-addition identities.

    sin(theta) is recovered as max(sqrt(1 - cos^2), eps) (theta in [0, pi] so
    the root is non-negative), then
        cos(theta + m) = cos*cos(m) - sin*sin(m)
        sin(theta + m) = sin*cos(m) + cos*sin(m)
    Returns (cot_theta, cot_theta_m).  Raises SingularityError when
    |sin(theta + m)| < eps.
    """
    cos_t = np.asarray(cos_theta, dtype=np.float64)
    if (np.abs(cos_t) > 1.0).any():
        raise ValueError("cosines must lie in [-1, 1]")
    sin_t = np.maximum(np.sqrt(1.0 - cos_t * cos_t), eps)
    cot_theta = cos_t / sin_t
    cos_m, sin_m = np.cos(m), np.sin(m)
    cos_tm = cos_t * cos_m - sin_t * sin_m
    sin_tm = sin_t * cos_m + cos_t * sin_m
    if (np.abs(sin_tm) < eps).any():
        raise SingularityError("cot undefined: |sin(theta + m)| < eps")
    cot_theta_m = cos_tm / sin_tm
    return cot_theta, cot_theta_m


def elastic_sample(mean: float, sigma: float, rng: np.random.Generator, size=None):
    """Draw margin(s) from N(mean, sigma^2); sigma = 0 returns mean exactly.

    The draw is taken even when sigma = 0 so the generator stream advances
    identically for elastic and degenerate configurations.
    """
    if sigma < 0.0:
        raise ValueError("sigma must be >= 0")
    z = rng.standard_normal(size)
    return mean + sigma * z
