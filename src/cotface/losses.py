"""Margin losses over sample-to-class angles.

Every angular loss is one softmax cross-entropy: the labeled class gets the
logit f = s*(k(e1*theta + e2) - e3), every other class g = s*k(theta), with
k in {cos, cot} (ArcFace's combined margin with ElasticFace's per-sample
margins), and the per-sample loss is

    -log_b( e^{f(theta_y)} / (e^{f(theta_y)} + sum_{j != y} e^{g(theta_j)}) )

computed with a max shift and log1p of the terms below the top, so no exp
overflows and small losses keep their digits.  The margins change only f, so
one pass over the competitor logits serves every true-class branch (_shared_ce,
which softmax_loss uses too).  The batch value is the mean of the per-sample
losses; grad carries its gradient with respect to the batch's angles, or its
cosines for a cosine batch.
PRESETS gives each named loss its kernel, margins and true-class branches,
and ANGULAR_LOSSES[name] is that loss.
The cosine family (norm-softmax, SphereFace, CosFace, ArcFace, ElasticFace,
combined margins) uses cos; the cotangent family uses cot, which diverges as
the angle approaches 0 and so punishes badly misclassified samples much harder
while driving well-classified ones to essentially zero loss.

Score-level losses for the binary heads live here too: a margin-shifted
sigmoid cross-entropy (softmax_loss over the logits (0, z)) and a
score-separation loss over a metrics.ScoredPairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from .angular import (
    AngularBatch,
    LossConfig,
    cot_from_cos,
    elastic_sample,
    margin_cot,
)
from .metrics import ScoredPairs


@dataclass
class LossOutput:
    """Loss value, per-sample losses and grad = d(value)/d(input).

    value = mean(per_sample).  grad has the input's shape: an angular batch's
    angles (its cosines for a cosine batch), softmax_loss's logits,
    margin_sigmoid_ce's scores, or double_loss's impostor scores then genuine scores.
    """

    value: float
    per_sample: np.ndarray
    grad: np.ndarray


def _shared_ce(k, dk, s: float, labels, branches, ln_b: float):
    """Cross-entropy of true-class branches (f, df, w) over shared competitors z = s*k.

    k (N, C) is overwritten; dk (a float or (N, C)) and df (N,) are slopes, f
    the labeled logit and w a weight (None: unweighted).  One pass over z gives
    the competitors' row max m and S = sum_{j != y} e^{z_j - m} (0 with none);
    a branch adds (N,) work: top = max(m, f), D = S*e^{m - top} + e^{f - top},
    loss (top - f + log1p(S*e^{m - top} - (1 - e^{f - top})))/ln b, which keeps a
    near-certain sample's digits.  Returns (per_sample, d(mean)/d(input)), summed.
    """
    n, rows = len(labels), np.arange(len(labels))
    z = np.multiply(k, s, out=k)
    z[rows, labels] = -np.inf
    m = z.max(axis=1)
    if z.shape[1] > 1:  # with no competitor m is -inf, and z stays -inf
        np.subtract(z, m[:, None], out=z)
    total = np.exp(z, out=z).sum(axis=1)  # e^{-inf} = 0 on the label
    parts = []
    for f, df, w in branches:
        top = np.maximum(m, f)
        shrink, e_f = np.exp(m - top), np.exp(f - top)
        denom = total * shrink + e_f
        part = ((top - f + np.log1p(total * shrink - (1.0 - e_f))) / ln_b,
                shrink / (denom * (n * ln_b)), (e_f / denom - 1.0) / (n * ln_b) * df)
        parts.append(part if w is None else [w * x for x in part])
    per_sample, coef, grad_true = (reduce(np.add, terms) for terms in zip(*parts))
    z *= (coef * s)[:, None]
    z *= dk
    z[rows, labels] = grad_true
    return per_sample, z


def softmax_loss(logits, labels, cfg: LossConfig = LossConfig()) -> LossOutput:
    """Plain softmax cross-entropy on raw, unnormalized logits; grad is d/d(logits)."""
    logits = np.array(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ValueError("logits must be 2-D (N, n_classes)")
    if not np.isfinite(logits).all():
        raise ValueError("logits contain non-finite values")
    labels = AngularBatch(None, labels, cos=np.zeros(logits.shape)).labels  # AngularBatch's checks
    f = logits[np.arange(len(labels)), labels]  # a copy: the core overwrites logits
    per_sample, grad = _shared_ce(logits, 1.0, 1.0, labels, [(f, 1.0, None)], cfg.log_divisor)
    return LossOutput(float(per_sample.mean()), per_sample, grad)


# kernel name -> (competitor form cos -> (fresh k, dk/dcos), true-class form angle -> (k, dk/du))
_KERNELS = {"cos": (lambda c: (c.copy(), 1.0), lambda u: (np.cos(u), -np.sin(u))),
            "cot": (lambda c: cot_from_cos(c)[:2], margin_cot)}


# name: (kernel k, e1, e2, e3, true-class branches).  k ("cos" or "cot") gives
# the competitor logit g = s*k(theta).  A margin slot is None (no margin), a
# LossConfig field, or a (mean, sigma) field pair drawn per sample with
# elastic_sample in slot order.  Branches are (kernel, weight field) pairs,
# summed; none means one unweighted branch with the competitor kernel.
PRESETS = {
    "norm-softmax": ("cos", None, None, None, ()),  # no margin: f = g = s*cos(theta)
    "sphereface": ("cos", "m", None, None, ()),  # f = s*cos(m*theta)
    "cosface": ("cos", None, None, "m", ()),  # f = s*(cos(theta) - m)
    "arcface": ("cos", None, "m", None, ()),  # f = s*cos(theta + m)
    "elastic-arc": ("cos", None, ("m", "sigma2"), None, ()),  # arcface, margin ~ N(m, sigma2^2)
    "elastic-cos": ("cos", None, None, ("m", "sigma3"), ()),  # cosface, margin ~ N(m, sigma3^2)
    "lmcot": ("cot", None, "m", None, ()),  # f = s*cot(theta + m), g = s*cot(theta)
    # (m1, m2, m3) = (m, 0, 0), (1, m, 0) and (1, 0, m) give sphereface, arcface, cosface
    "combined-cos": ("cos", "m1", "m2", "m3", ()),  # f = s*(cos(m1*theta + m2) - m3)
    "combined-cot": ("cot", "m1", "m2", "m3", ()),  # f = s*(cot(m1*theta + m2) - m3)
    "elastic-cot": ("cot", None, ("m", "sigma2"), None, ()),  # lmcot, margin ~ N(m, sigma2^2)
    # e1 ~ N(m1, sigma1^2), e2 ~ N(m2, sigma2^2), e3 ~ N(m3, sigma3^2), drawn in
    # that order; f = s*(cot(e1*theta + e2) - e3)
    "generalized-lmcot": ("cot", ("m1", "sigma1"), ("m2", "sigma2"), ("m3", "sigma3"), ()),
    # alpha*cot_branch + beta*cos_branch over one margin draw and one cot competitor
    # term: f = s*(cot(e1*theta + e2) - e3) and s*(cos(e1*theta + e2) - e3)
    "dual": ("cot", ("m1", "sigma1"), ("m2", "sigma2"), ("m3", "sigma3"),
             (("cot", "alpha"), ("cos", "beta"))),
}

ELASTIC_LOSSES = frozenset(
    name for name, row in PRESETS.items() if any(isinstance(e, tuple) for e in row[1:4]))


def _margin(slot, cfg: LossConfig, rng, n: int):
    """A margin slot's value: None, a config field, or n elastic draws."""
    if isinstance(slot, tuple):  # (mean, sigma) fields
        return elastic_sample(*(getattr(cfg, f) for f in slot), rng, size=n)
    return None if slot is None else getattr(cfg, slot)


def _margin_loss(name: str, batch: AngularBatch, cfg: LossConfig, rng=None) -> LossOutput:
    """The loss of preset `name`: cross-entropy over its margin logits.

    Every other class gets the competitor logit g = s*k(theta) from its cosine,
    the labeled class f = s*(k(e1*theta + e2) - e3) per branch from its angle.
    Margins the preset leaves out are skipped, not applied as 1 or 0, so each
    loss evaluates its closed form's arithmetic.  The weighted branches sum
    over one competitor term, which _shared_ce computes once.
    """
    kernel, e1, e2, e3, branches = PRESETS[name]
    if rng is None and name in ELASTIC_LOSSES:
        raise ValueError("elastic losses need an rng")
    weights = [w for _, w in branches]
    if weights and not sum(getattr(cfg, w) for w in weights) > 0.0:
        raise ValueError(f"{' + '.join(weights)} must be positive")
    k, dk = _KERNELS[kernel][0](batch.cos)  # k is fresh: the core overwrites it
    n, labels, rows = batch.n_samples, batch.labels, np.arange(batch.n_samples)
    if batch.theta is None:  # cosine batch: d(angle)/d(cos) = -1/sin(angle) on the label
        u = np.arccos(batch.cos[rows, labels])
        slope = cfg.s / -np.sin(u)
    else:  # angle batch: d(cos)/d(angle) = -sin(angle) off the label
        u, slope, dk = batch.theta[rows, labels], cfg.s, dk * -np.sin(batch.theta)
    e1, e2, e3 = [_margin(e, cfg, rng, n) for e in (e1, e2, e3)]  # draws in slot order
    if e1 is not None:
        u, slope = e1 * u, slope * e1
    if e2 is not None:
        u = u + e2
    trues = []
    for true_kernel, weight in branches or ((kernel, None),):
        f, df = _KERNELS[true_kernel][1](u)
        trues.append((cfg.s * (f if e3 is None else f - e3), slope * df,
                      None if weight is None else getattr(cfg, weight)))
    per_sample, grad = _shared_ce(k, dk, cfg.s, labels, trues, cfg.log_divisor)
    return LossOutput(float(per_sample.mean()), per_sample, grad)


# preset name -> its loss(batch, cfg, rng=None), in PRESETS order
ANGULAR_LOSSES = {name: partial(_margin_loss, name) for name in PRESETS}


def double_loss(pairs: ScoredPairs) -> LossOutput:
    """Separation loss on a score set pair: mean(impostor) - mean(genuine) + 1.

    Scores must lie in [0, 1], which bounds the value to [0, 2]; identical sets
    give exactly 1.  The pair counts as one sample, so per_sample has length
    one.  grad is +1/|impostor| per impostor score, then -1/|genuine| per genuine.
    """
    imp, gen = pairs.impostor, pairs.genuine
    if min(imp.min(), gen.min()) < 0.0 or max(imp.max(), gen.max()) > 1.0:
        raise ValueError("scores must lie in [0, 1]")
    value = float(imp.mean() - gen.mean() + 1.0)
    grad = np.concatenate([np.full(imp.size, 1.0 / imp.size), np.full(gen.size, -1.0 / gen.size)])
    return LossOutput(value, np.array([value]), grad)


def margin_sigmoid_ce(scores, labels, m: float = 0.0) -> LossOutput:
    """Sigmoid cross-entropy on margin-shifted scores z: softmax_loss over (0, z).

    z = score + (label - 0.5)*m, so a positive m eases the labeled class (moves
    it away from the decision boundary) and a negative m penalizes it.  Natural
    log; grad = (sigmoid(z) - label)/N.
    """
    scores = np.atleast_1d(np.asarray(scores, dtype=np.float64))
    if scores.ndim != 1 or not np.isfinite(scores).all():
        raise ValueError("scores must be 1-D and finite")
    if not np.isfinite(m):
        raise ValueError("m must be finite")
    labels = np.atleast_1d(np.asarray(labels, dtype=np.float64))
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have matching shapes")
    if not np.isin(labels, (0.0, 1.0)).all():
        raise ValueError("labels must be 0 or 1")
    with np.errstate(over="ignore"):
        z = scores + (labels - 0.5) * m
    if not np.isfinite(z).all():
        raise ValueError("margin-shifted scores must be finite")
    out = softmax_loss(np.stack([np.zeros_like(z), z], axis=1), labels.astype(np.intp))
    return LossOutput(out.value, out.per_sample, out.grad[:, 1])
