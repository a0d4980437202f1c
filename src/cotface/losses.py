"""Margin losses over sample-to-class angles.

Every angular loss is one softmax cross-entropy: the labeled class gets the
logit f = s*(k(e1*theta + e2) - e3), every other class g = s*k(theta), with
k in {cos, cot} (ArcFace's combined margin with ElasticFace's per-sample
margins), and the per-sample loss is

    -log_b( e^{f(theta_y)} / (e^{f(theta_y)} + sum_{j != y} e^{g(theta_j)}) )

computed as logit minus log-sum-exp with a max shift so large logits cannot
overflow.  The batch value is the mean of the per-sample losses; grad_theta
carries d(value)/d(theta_ji) with the same shape as the angle matrix.
PRESETS gives each named loss its kernel, margins and true-class branches.
The cosine family (norm-softmax, SphereFace, CosFace, ArcFace, ElasticFace,
combined margins) uses cos; the cotangent family uses cot, which diverges as
the angle approaches 0 and so punishes badly misclassified samples much harder
while driving well-classified ones to essentially zero loss.

Score-level losses for the binary heads live here too: a margin-shifted
sigmoid cross-entropy and a score-separation loss over a (low, high) pair of
score sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angular import (
    DEFAULT_EPS,
    AngularBatch,
    LossConfig,
    elastic_sample,
    floored_cot,
    margin_cot,
)


@dataclass
class LossOutput:
    """Loss value plus the gradients a trainer needs.

    value = mean(per_sample).  grad_theta is set by the angular losses (for
    plain softmax it is the gradient w.r.t. the raw logits); grad_scores by
    margin_sigmoid_ce; grad_low/grad_high by double_loss.
    """

    value: float
    per_sample: np.ndarray
    grad_theta: np.ndarray | None = None
    grad_scores: np.ndarray | None = None
    grad_low: np.ndarray | None = None
    grad_high: np.ndarray | None = None


@dataclass
class ScorePair:
    """Two score sets in [0, 1]: low should be pushed down, high up."""

    low: np.ndarray
    high: np.ndarray

    def __post_init__(self):
        self.low = np.atleast_1d(np.asarray(self.low, dtype=np.float64))
        self.high = np.atleast_1d(np.asarray(self.high, dtype=np.float64))
        for name, arr in (("low", self.low), ("high", self.high)):
            if arr.size == 0:
                raise ValueError(f"{name} scores must be non-empty")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} scores contain non-finite values")
            if (arr < 0.0).any() or (arr > 1.0).any():
                raise ValueError(f"{name} scores must lie in [0, 1]")


def _cross_entropy(z, labels, ln_b: float):
    """Softmax cross-entropy of each row of the logit matrix z at its label.

    Logit minus log-sum-exp with a max shift, so large logits cannot
    overflow.  Returns (per_sample, d(mean per_sample)/dz).
    """
    rows = np.arange(z.shape[0])
    zmax = z.max(axis=1, keepdims=True)
    shifted = np.subtract(z, zmax)
    np.exp(shifted, out=shifted)
    denom = shifted.sum(axis=1, keepdims=True)
    per_sample = (zmax[:, 0] + np.log(denom[:, 0]) - z[rows, labels]) / ln_b
    grad = np.divide(shifted, denom, out=shifted)
    grad[rows, labels] -= 1.0
    grad /= z.shape[0] * ln_b
    return per_sample, grad


def softmax_loss(logits, labels, cfg: LossConfig = LossConfig()) -> LossOutput:
    """Plain softmax cross-entropy on raw, unnormalized logits.

    grad_theta holds the gradient w.r.t. the logits themselves.
    """
    logits = np.asarray(logits, dtype=np.float64)
    per_sample, grad = _cross_entropy(logits, np.asarray(labels), cfg.log_divisor)
    return LossOutput(float(per_sample.mean()), per_sample, grad_theta=grad)


def _cos(angle, eps):
    return np.cos(angle), -np.sin(angle)


# kernel name -> (competitor form, true-class form), each angle -> (k, dk/dangle)
_KERNELS = {"cos": (_cos, _cos), "cot": (floored_cot, margin_cot)}


# name: (kernel k, e1, e2, e3, true-class branches).  k ("cos" or "cot") gives
# the competitor logit g = s*k(theta).  A margin slot is None (no margin), a
# LossConfig field, or a (mean, sigma) field pair drawn per sample with
# elastic_sample in slot order.  Branches are (kernel, weight field) pairs,
# summed; none means one unweighted branch with the competitor kernel.
PRESETS = {
    "norm-softmax": ("cos", None, None, None, ()),
    "sphereface": ("cos", "m", None, None, ()),
    "cosface": ("cos", None, None, "m", ()),
    "arcface": ("cos", None, "m", None, ()),
    "elastic-arc": ("cos", None, ("m", "sigma2"), None, ()),
    "elastic-cos": ("cos", None, None, ("m", "sigma3"), ()),
    "lmcot": ("cot", None, "m", None, ()),
    "combined-cos": ("cos", "m1", "m2", "m3", ()),
    "combined-cot": ("cot", "m1", "m2", "m3", ()),
    "elastic-cot": ("cot", None, ("m", "sigma2"), None, ()),
    "generalized-lmcot": ("cot", ("m1", "sigma1"), ("m2", "sigma2"), ("m3", "sigma3"), ()),
    "dual": ("cot", ("m1", "sigma1"), ("m2", "sigma2"), ("m3", "sigma3"),
             (("cot", "alpha"), ("cos", "beta"))),
}

ELASTIC_LOSSES = frozenset(
    name for name, row in PRESETS.items() if any(isinstance(e, tuple) for e in row[1:4]))


def _margin(slot, cfg: LossConfig, rng, n: int):
    """A margin slot's value: None, a config field, or n elastic draws."""
    if slot is None:
        return None
    if isinstance(slot, str):
        return getattr(cfg, slot)
    mean, sigma = slot
    return elastic_sample(getattr(cfg, mean), getattr(cfg, sigma), rng, size=n)


def _margin_loss(name: str, batch: AngularBatch, cfg: LossConfig, rng) -> LossOutput:
    """The loss of preset `name`: cross-entropy over its margin logits.

    Every class gets the competitor logit g = s*k(theta); the labeled class
    gets f = s*(k(e1*theta + e2) - e3) per branch.  Margins the preset leaves
    out are skipped, not applied as 1 or 0, so each loss evaluates the same
    arithmetic as its closed form.  Weighted branches sum.
    """
    kernel, e1, e2, e3, branches = PRESETS[name]
    if rng is None and name in ELASTIC_LOSSES:
        raise ValueError("elastic losses need an rng")
    weights = [w for _, w in branches]
    if weights and not sum(getattr(cfg, w) for w in weights) > 0.0:
        raise ValueError(f"{' + '.join(weights)} must be positive")
    g, dg = _KERNELS[kernel][0](batch.theta, DEFAULT_EPS)  # fresh arrays, scaled in place
    g *= cfg.s
    dg *= cfg.s
    n, labels = batch.n_samples, batch.labels
    rows = np.arange(n)
    u = batch.theta[rows, labels]
    e1, e2, e3 = [_margin(e, cfg, rng, n) for e in (e1, e2, e3)]  # draws in slot order
    if e1 is not None:
        u = e1 * u
    if e2 is not None:
        u = u + e2
    slope = cfg.s if e1 is None else cfg.s * e1
    per_sample = grad = None
    for true_kernel, weight in branches or ((kernel, None),):
        k, dk = _KERNELS[true_kernel][1](u, DEFAULT_EPS)
        g[rows, labels] = cfg.s * (k if e3 is None else k - e3)  # g becomes the logits
        ps, gz = _cross_entropy(g, labels, cfg.log_divisor)
        gz_true = gz[rows, labels] * (slope * dk)
        gz *= dg  # chain rule: d(logit)/d(theta) is dg off the label, the f slope on it
        gz[rows, labels] = gz_true
        if weight is not None:
            ps = getattr(cfg, weight) * ps
            gz *= getattr(cfg, weight)
        per_sample = ps if per_sample is None else per_sample + ps
        grad = gz if grad is None else grad + gz
    return LossOutput(float(per_sample.mean()), per_sample, grad_theta=grad)


ANGULAR_LOSSES = {}  # preset name -> its loss(batch, cfg, rng=None), filled below


def _preset_loss(qualname: str, name: str, doc: str):
    """The loss function `qualname` of preset `name`, registered in ANGULAR_LOSSES."""

    def loss(batch: AngularBatch, cfg: LossConfig, rng=None) -> LossOutput:
        return _margin_loss(name, batch, cfg, rng)

    loss.__name__ = loss.__qualname__ = qualname
    loss.__doc__ = doc
    ANGULAR_LOSSES[name] = loss
    return loss


norm_softmax_loss = _preset_loss(
    "norm_softmax_loss", "norm-softmax", "No margin: f = g = s*cos(theta).")
sphereface_loss = _preset_loss(
    "sphereface_loss", "sphereface", "Multiplicative angular margin: f = s*cos(m*theta).")
cosface_loss = _preset_loss(
    "cosface_loss", "cosface", "Subtractive cosine margin: f = s*(cos(theta) - m).")
arcface_loss = _preset_loss(
    "arcface_loss", "arcface", "Additive angular margin: f = s*cos(theta + m).")
elasticface_arc_loss = _preset_loss(
    "elasticface_arc_loss", "elastic-arc",
    "ArcFace with a per-sample margin drawn from N(m, sigma2^2).")
elasticface_cos_loss = _preset_loss(
    "elasticface_cos_loss", "elastic-cos",
    "CosFace with a per-sample margin drawn from N(m, sigma3^2).")
lmcot_loss = _preset_loss(
    "lmcot_loss", "lmcot", "Cotangent margin: f = s*cot(theta + m), g = s*cot(theta).")
combined_margin_cos_loss = _preset_loss(
    "combined_margin_cos_loss", "combined-cos",
    """All three cosine margins at once: f = s*(cos(m1*theta + m2) - m3).

    (m1, m2, m3) = (m, 0, 0), (1, m, 0) and (1, 0, m) reduce to SphereFace,
    ArcFace and CosFace.
    """)
combined_margin_cot_loss = _preset_loss(
    "combined_margin_cot_loss", "combined-cot",
    "Cotangent form of the combined margin: f = s*(cot(m1*theta + m2) - m3).")
elastic_cot_loss = _preset_loss(
    "elastic_cot_loss", "elastic-cot",
    "Cotangent margin with the additive margin drawn from N(m, sigma2^2).")
generalized_lmcot_loss = _preset_loss(
    "generalized_lmcot_loss", "generalized-lmcot",
    """Combined cotangent margin with every margin drawn per sample.

    e1 ~ N(m1, sigma1^2), e2 ~ N(m2, sigma2^2), e3 ~ N(m3, sigma3^2), drawn in
    that order; f = s*(cot(e1*theta + e2) - e3).
    """)
dual_cot_cos_loss = _preset_loss(
    "dual_cot_cos_loss", "dual",
    """Weighted sum of a cot branch and a cos branch over one margin draw.

    Both branches share the sampled margins (e1, e2, e3) and the same
    cot-based competitor term sum_{j != y} e^{s*cot(theta_j)}; only the
    true-class logit differs: s*(cot(e1*theta + e2) - e3) versus
    s*(cos(e1*theta + e2) - e3).  value = alpha*cot_branch + beta*cos_branch.
    """)


def double_loss(pair: ScorePair) -> LossOutput:
    """Separation loss on a (low, high) score pair: mean(low) - mean(high) + 1.

    Scores in [0, 1] bound the value to [0, 2]; identical branches give
    exactly 1.  The pair counts as a single sample, so per_sample has length
    one.  Gradients are +1/|low| per low score and -1/|high| per high score.
    """
    value = float(pair.low.mean() - pair.high.mean() + 1.0)
    return LossOutput(
        value=value,
        per_sample=np.array([value]),
        grad_low=np.full(pair.low.shape, 1.0 / pair.low.size),
        grad_high=np.full(pair.high.shape, -1.0 / pair.high.size),
    )


def margin_sigmoid_ce(scores, labels, m: float = 0.0) -> LossOutput:
    """Sigmoid cross-entropy on margin-shifted raw scores.

    z = score + (label - 0.5)*m, so a positive m eases the labeled class
    (shifts the true side further from the decision boundary before the
    sigmoid); pass a negative m for the penalizing variant.  Natural-log BCE
    in the stable softplus form; grad_scores = (sigmoid(z) - label)/N.
    """
    scores = np.atleast_1d(np.asarray(scores, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels, dtype=np.float64))
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have matching shapes")
    if not np.isin(labels, (0.0, 1.0)).all():
        raise ValueError("labels must be 0 or 1")
    z = scores + (labels - 0.5) * m
    # softplus(z) - z*y is -log sigmoid(z) for y=1 and -log(1-sigmoid(z)) for y=0
    per_sample = np.logaddexp(0.0, z) - z * labels
    # exp of -|z| only, so extreme scores cannot overflow
    ez = np.exp(-np.abs(z))
    sig = np.where(z >= 0.0, 1.0 / (1.0 + ez), ez / (1.0 + ez))
    grad = (sig - labels) / scores.size
    return LossOutput(float(per_sample.mean()), per_sample, grad_scores=grad)

