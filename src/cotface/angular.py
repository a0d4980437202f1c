"""Angle geometry shared by every margin loss.

Features and class-center weights are compared on the unit hypersphere: both
are L2-normalized, so the logit between sample i and class j is a pure
function of the angle theta_ji = arccos(<x_i, w_j>).  This module provides the
normalization, the feature-to-angle map, the cotangent (from cosines and
floored for competitor classes, pole-checked for margin-shifted angles) with
the paper's two kernels, and the Gaussian margin sampler used by the elastic
losses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

DEFAULT_EPS = 1e-7  # the "eps" of every docstring below

_LOG_BASES = ("natural", "ten")


class ConfigError(ValueError):
    """A setting that cannot work: a usage error, not bad input."""


class ZeroVectorError(ValueError):
    """Raised when a vector with norm below eps is normalized."""


class NormOverflowError(ValueError):
    """Raised when a finite vector is normalized whose norm overflows float64."""


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
    log_base: str = "natural"

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.s < 0.0:
            raise ConfigError(f"scale s must be >= 0, got {self.s}")
        for name in ("sigma1", "sigma2", "sigma3"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be >= 0")
        if self.log_base not in _LOG_BASES:
            raise ConfigError(f"log_base must be one of {_LOG_BASES}")

    @property
    def log_divisor(self) -> float:
        """ln(b) for the configured base: losses are natural-log values / this."""
        return 1.0 if self.log_base == "natural" else float(np.log(10.0))


@dataclass
class AngularBatch:
    """A batch of sample-to-class angles, or of their cosines, with integer labels.

    theta has shape (N, n_classes), radians in [0, pi); labels has shape (N,)
    with values in [0, n_classes).  A cosine batch passes theta=None and cos
    instead, with values in [-1, 1] and the labeled ones strictly inside, so
    that their angles have a finite gradient.  An angle batch gets cos(theta).
    """

    theta: np.ndarray | None
    labels: np.ndarray
    cos: np.ndarray | None = None

    def __post_init__(self):
        if (self.theta is None) == (self.cos is None):
            raise ValueError("give either theta or cos")
        name = "theta" if self.cos is None else "cos"
        values = np.asarray(getattr(self, name), dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if values.ndim != 2:
            raise ValueError(f"{name} must be 2-D (N, n_classes)")
        if self.labels.shape != (values.shape[0],):
            raise ValueError("labels must have shape (N,)")
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise ValueError("labels must be integers")
        # one min and one max judge the whole array: NaN fails every comparison
        lo, hi = (values.min(), values.max()) if values.size else (0.0, 0.0)
        in_range = lo >= 0.0 and hi < np.pi if self.cos is None else lo >= -1.0 and hi <= 1.0
        if not in_range and not np.isfinite(values).all():
            raise ValueError(f"{name} contains non-finite values")
        if (self.labels < 0).any() or (self.labels >= values.shape[1]).any():
            raise ValueError("labels out of range")
        if self.cos is None and not in_range:
            raise ValueError("angles must lie in [0, pi)")
        labeled = np.abs(values[np.arange(values.shape[0]), self.labels])
        if self.theta is None and (not in_range or (labeled == 1.0).any()):
            raise ValueError("cosines must lie in [-1, 1], the labeled ones in (-1, 1)")
        self.theta, self.cos = (values, np.cos(values)) if self.cos is None else (None, values)

    @property
    def n_samples(self) -> int:
        return self.cos.shape[0]

    @property
    def n_classes(self) -> int:
        return self.cos.shape[1]


def l2_normalize(v) -> np.ndarray:
    """Return v / ||v||: ZeroVectorError when ||v|| < eps, NormOverflowError when v is
    finite and ||v|| overflows float64; a non-finite v passes."""
    v = np.asarray(v, dtype=np.float64)
    with np.errstate(over="ignore"):  # squares that overflow take _scaled_unit's path
        norm = float(np.linalg.norm(v))
    if norm < DEFAULT_EPS:
        raise ZeroVectorError(f"cannot normalize vector with norm {norm!r}")
    if norm == math.inf and np.isfinite(v).all():
        return _scaled_unit(v)[0]
    return v / norm


def _scaled_unit(v):
    """(v / ||v||, ||v||) of a finite v, v divided by its largest |entry| first (Blue 1978)."""
    big = float(np.abs(v).max())
    norm = float(np.linalg.norm(v / big))
    if norm * big == math.inf:
        raise NormOverflowError("cannot normalize vector: its norm overflows float64")
    return v / big / norm, norm * big


def _unit_rows(m):
    """(m with unit rows, the (N, 1) row norms); l2_normalize's errors, row by row."""
    m = np.asarray(m, dtype=np.float64)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(m, axis=1, keepdims=True)
    if (norms < DEFAULT_EPS).any():
        raise ZeroVectorError("matrix has a row with norm below eps")
    unit, inf_rows = m / norms, np.flatnonzero(np.isinf(norms[:, 0]))
    for i in inf_rows[np.isfinite(m[inf_rows]).all(axis=1)]:  # a non-finite row passes
        unit[i], norms[i] = _scaled_unit(m[i])
    return unit, norms


def angles_from_features(features, weights) -> np.ndarray:
    """Angles between normalized feature rows and normalized weight rows.

    features: (N, d) raw feature vectors; weights: (n_classes, d) class
    centers.  Cosines are clamped to [-1 + eps, 1 - eps] before arccos so the
    result stays differentiable.  Returns (N, n_classes) radians.
    """
    features, weights = (np.asarray(a, dtype=np.float64) for a in (features, weights))
    if not np.isfinite(features).all() or not np.isfinite(weights).all():
        raise ValueError("non-finite input")
    cos = _unit_rows(features)[0] @ _unit_rows(weights)[0].T
    return np.arccos(np.clip(cos, -1.0 + DEFAULT_EPS, 1.0 - DEFAULT_EPS, out=cos), out=cos)


def cot_from_cos(cos):
    """(cot, d cot/d cos, sin) of theta from cos(theta), with sin floored at eps.

    sin = max(sqrt((1 - cos)(1 + cos)), eps), factored to keep its digits as
    |cos| nears 1, holds cot at +-cos/eps near the poles; the slope is
    (1 + cot^2)/sin = 1/sin^3, and 1/eps where the floor engages.
    """
    sin = np.subtract(1.0, cos, out=np.empty(np.shape(cos)))
    slope = np.add(1.0, cos, out=np.empty_like(sin))
    np.sqrt(np.multiply(sin, slope, out=sin), out=sin)
    eps = DEFAULT_EPS
    floored = None if sin.size == 0 or sin.min() >= eps else sin < eps  # NaN takes this branch
    if floored is not None:
        np.maximum(sin, eps, out=sin)
    cot = np.divide(cos, sin)
    np.divide(np.add(np.multiply(cot, cot, out=slope), 1.0, out=slope), sin, out=slope)
    if floored is not None:
        slope[floored] = 1.0 / eps
    return cot, slope, sin


def margin_cot(angle):
    """cot(angle) and its slope -(1 + cot^2) for margin-shifted angles.

    Raises SingularityError when any angle falls within eps of a multiple of
    pi, so the cotangent stays finite.
    """
    rem = np.remainder(angle, np.pi)  # in [0, pi)
    if (np.minimum(rem, np.pi - rem) < DEFAULT_EPS).any():
        raise SingularityError("cot undefined: angle within eps of a multiple of pi")
    cot = 1.0 / np.tan(angle)
    return cot, -(1.0 + cot * cot)


def cot_via_theta(theta, m: float = 0.0):
    """Cotangent kernel working directly in angle space.

    Returns (cot_theta, cot_theta_m): cot(theta) with |tan| floored at eps and
    the pole-checked cot(theta + m), which raises SingularityError.
    """
    theta = np.asarray(theta, dtype=np.float64)
    t = np.tan(theta)
    return 1.0 / np.copysign(np.maximum(np.abs(t), DEFAULT_EPS), t), margin_cot(theta + m)[0]


def cot_via_identity(cos_theta, m: float = 0.0):
    """Cotangent kernel working from cosines via angle-addition identities.

    cot(theta) and the floored sin(theta) come from cot_from_cos, then
        cos(theta + m) = cos*cos(m) - sin*sin(m)
        sin(theta + m) = sin*cos(m) + cos*sin(m)
    Returns (cot_theta, cot_theta_m).  Raises SingularityError when
    |sin(theta + m)| < eps.
    """
    cos_t = np.asarray(cos_theta, dtype=np.float64)
    if (np.abs(cos_t) > 1.0).any():
        raise ValueError("cosines must lie in [-1, 1]")
    cot_theta, _, sin_t = cot_from_cos(cos_t)
    cos_m, sin_m = np.cos(m), np.sin(m)
    cos_tm = cos_t * cos_m - sin_t * sin_m
    sin_tm = sin_t * cos_m + cos_t * sin_m
    if (np.abs(sin_tm) < DEFAULT_EPS).any():
        raise SingularityError("cot undefined: |sin(theta + m)| < eps")
    return cot_theta, cos_tm / sin_tm


def elastic_sample(mean: float, sigma: float, rng: np.random.Generator, size=None):
    """Draw margin(s) from N(mean, sigma^2); sigma = 0 returns mean exactly.

    The draw is taken even when sigma = 0 so the generator stream advances
    identically for elastic and degenerate configurations.
    """
    if sigma < 0.0:
        raise ValueError("sigma must be >= 0")
    z = rng.standard_normal(size)
    return mean + sigma * z
