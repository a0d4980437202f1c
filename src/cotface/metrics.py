"""Verification and retrieval metrics.

Score conventions: genuine pairs should score high, impostor pairs low.  For
a threshold t applied as "accept iff score >= t":

    FAR(t) = fraction of impostor scores >= t   (false accepts)
    FRR(t) = fraction of genuine scores <  t    (false rejects)

FAR is non-increasing and FRR non-decreasing in t, so they cross once; the
equal error rate is read off at that crossing by linear interpolation over
the grid of observed scores.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .floattext import format_rows


@dataclass
class ScoredPairs:
    """Finite 1-D similarity scores of genuine (same-identity) and impostor pairs, neither empty."""

    genuine: np.ndarray
    impostor: np.ndarray

    def __post_init__(self):
        self.genuine = np.atleast_1d(np.asarray(self.genuine, dtype=np.float64))
        self.impostor = np.atleast_1d(np.asarray(self.impostor, dtype=np.float64))
        for name, arr in (("genuine", self.genuine), ("impostor", self.impostor)):
            if arr.ndim != 1:
                raise ValueError(f"{name} scores must be 1-D")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} scores contain non-finite values")
        if not (self.genuine.size and self.impostor.size):
            raise ValueError("both score sets must be non-empty")


def _ascending(a: np.ndarray) -> np.ndarray:
    """a itself when it is already in ascending order (one O(n) check), else a sorted copy."""
    return a if (a[1:] >= a[:-1]).all() else np.sort(a)


def far_frr_sweep(pairs: ScoredPairs, thresholds) -> np.ndarray:
    """FAR and FRR at each threshold; returns rows (threshold, far, frr)."""
    thresholds = np.atleast_1d(np.asarray(thresholds, dtype=np.float64))
    if thresholds.ndim != 1 or np.isnan(thresholds).any():
        raise ValueError("thresholds must be 1-D and not NaN")
    gen, imp = _ascending(pairs.genuine), _ascending(pairs.impostor)
    # impostors >= t accepted; genuines < t rejected
    far = (imp.size - np.searchsorted(imp, thresholds, side="left")) / imp.size
    frr = np.searchsorted(gen, thresholds, side="left") / gen.size
    return np.column_stack([thresholds, far, frr])


def eer(pairs: ScoredPairs) -> tuple[float, float]:
    """Equal error rate and its threshold.

    The candidate grid is the sorted unique scores padded with one sentinel
    below and above every score (where (FAR, FRR) are (1, 0) and (0, 1)), so
    the FAR - FRR sign change is always bracketed.  Within the bracket both
    rates are interpolated linearly and the crossing point is returned; exact
    ties (FAR == FRR on a grid point) short-circuit to that point.
    """
    return _eer_on_sweep(far_frr_sweep(pairs, _eer_grid(pairs)))


def _eer_grid(pairs: ScoredPairs) -> np.ndarray:
    """eer's candidate grid: the sorted unique scores, zeros as one +0.0, and the two sentinels."""
    grid = np.unique(np.concatenate([pairs.genuine, pairs.impostor])) + 0.0  # -0.0 + 0.0 is 0.0
    # from 2**53 up, top + 1.0 == top; the next float up still rejects every score
    top = grid[-1]
    with np.errstate(over="ignore"):  # above the largest float, the sentinel is inf
        return np.concatenate([[grid[0] - 1.0], grid, [max(top + 1.0, np.nextafter(top, np.inf))]])


def _eer_on_sweep(sweep: np.ndarray) -> tuple[float, float]:
    """eer's bracket search over the far_frr_sweep rows of its grid."""
    grid, far, frr = sweep[:, 0], sweep[:, 1], sweep[:, 2]
    diff = far - frr
    # diff never rises and runs from +1 to -1: k is the last point with diff > 0
    k = int((diff[1:] <= 0.0).argmax())
    if diff[k + 1] == 0.0:
        return float(far[k + 1]), float(grid[k + 1])
    lam = diff[k] / (diff[k] - diff[k + 1])
    value = far[k] + lam * (far[k + 1] - far[k])
    with np.errstate(over="ignore"):  # a bracket wider than the largest float overflows
        step = grid[k + 1] - grid[k]
    threshold = (grid[k] + lam * step if np.isfinite(step)
                 else (1.0 - lam) * grid[k] + lam * grid[k + 1])
    return float(value), min(float(threshold), sys.float_info.max)  # the top sentinel may be inf


def auc(pairs: ScoredPairs) -> float:
    """P(genuine score > impostor score), ties counted half.

    Rank-statistic form: (#{g > i} + 0.5 * #{g == i}) / (|G| * |I|).
    """
    imp, gen = _ascending(pairs.impostor), _ascending(pairs.genuine)  # probes walk imp in order
    below = np.searchsorted(imp, gen, side="left").sum()
    below_or_eq = np.searchsorted(imp, gen, side="right").sum()
    wins = int(below)
    ties = int(below_or_eq - below)
    return (wins + 0.5 * ties) / (pairs.genuine.size * pairs.impostor.size)


_LINSPACE_LIMIT = 2.0 ** 1020  # beyond it, np.linspace's steps can overflow


def equal_edges(lo, hi, bins):
    """np.histogram's edges for `bins` equal bins over [lo, hi], or None if a bin has no width."""
    if isinstance(bins, bool) or not isinstance(bins, (int, np.integer)) or bins < 1:
        raise ValueError("bins must be a whole number >= 1")
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("value range must be finite")
    if not lo < hi:
        raise ValueError("empty value range")
    if max(abs(lo), abs(hi)) < _LINSPACE_LIMIT:
        edges = np.linspace(lo, hi, bins + 1)
    else:  # from a quarter scale
        edges = 4.0 * np.linspace(lo / 4.0, hi / 4.0, bins + 1)
        edges[[0, -1]] = lo, hi  # a quarter of a tiny endpoint can round away
    return edges if (edges[1:] > edges[:-1]).all() else None


def histogram(scores, bins: int, value_range: tuple[float, float]):
    """Fixed-range histogram over equal bins; returns (counts, edges).

    Counts sum to the number of scores inside value_range (the right edge of
    the last bin is inclusive, matching numpy).
    """
    edges = equal_edges(*value_range, bins)
    if edges is None:
        raise ValueError(f"value range too narrow for {bins} equal bins")
    return np.histogram(scores, bins=edges)


def pca2(points):
    """Project points onto their two leading principal axes.

    points: (N, d) with d >= 2.  The axes are the top two eigenvectors of the
    covariance (1/(N-1) scaling) by eigendecomposition, in descending
    eigenvalue order; each axis has its largest-magnitude coordinate made
    positive so the output is sign-deterministic.  Returns (projected (N, 2),
    eigenvalues (2,), axes (2, d)).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] < 2:
        raise ValueError("points must be (N, d) with d >= 2")
    if pts.shape[0] < 2:
        raise ValueError("need at least two points")
    centered = pts - pts.mean(axis=0)
    cov = (centered.T @ centered) / (pts.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending eigenvalues
    top = [-1, -2]
    axes = eigvecs[:, top].T
    pivots = np.abs(axes).argmax(axis=1)
    axes *= np.sign(axes[[0, 1], pivots])[:, None]
    return centered @ axes.T, eigvals[top], axes


@dataclass
class RankedQuery:
    """One query's predictions in rank order, with its relevant-item count."""

    rel: np.ndarray
    num_relevant: int

    def __post_init__(self):
        self.rel = np.atleast_1d(np.asarray(self.rel))
        if not np.isin(self.rel, (0, 1)).all():
            raise ValueError("relevance flags must be 0/1")
        if self.num_relevant < 0:
            raise ValueError("num_relevant must be >= 0")
        if self.num_relevant < self.rel.sum():
            raise ValueError("num_relevant must be >= the number of relevant flags")
        if not float(self.num_relevant).is_integer():  # nan, inf or a fraction
            raise ValueError("num_relevant must be a whole number")


def map_at_100(queries: list[RankedQuery]) -> float:
    """Mean average precision truncated at rank 100.

    Per query: (1/min(m_q, 100)) * sum_{k <= min(n_q, 100)} P(k) * rel(k),
    where P(k) is precision over the top k.  Queries with m_q = 0 are
    excluded from the mean; if every query is excluded the result is 0.
    """
    aps = []
    for q in queries:
        if q.num_relevant == 0:
            continue
        rel = q.rel[:100]
        ranks = np.arange(1, rel.size + 1)
        precision = np.cumsum(rel) / ranks
        aps.append(float((precision * rel).sum()) / min(q.num_relevant, 100))
    if not aps:
        return 0.0
    return float(np.mean(aps))


def gap(confidences, correct, num_in_gallery: int) -> float:
    """Global average precision over the confidence-ranked prediction list.

    All predictions are sorted by descending confidence (stable, so ties keep
    insertion order); GAP = (1/M) * sum_i P(i) * rel(i) with M =
    num_in_gallery, the queries with a relevant item, at least the correct count.
    """
    if not (num_in_gallery >= 1 and float(num_in_gallery).is_integer()):  # nan fails >= 1
        raise ValueError("num_in_gallery must be a positive count")
    conf = np.asarray(confidences, dtype=np.float64)
    correct = np.asarray(correct).astype(np.float64)
    if conf.shape != correct.shape:
        raise ValueError("confidences and correct must have matching shapes")
    if not (np.isin(correct, (0, 1)).all() and np.isfinite(conf).all()):
        raise ValueError("correct flags must be 0/1 and confidences finite")
    if num_in_gallery < correct.sum():
        raise ValueError(f"num_in_gallery {num_in_gallery} is below the "
                         f"{int(correct.sum())} correct predictions")
    order = np.argsort(-conf, kind="stable")
    rel = correct[order]
    precision = np.cumsum(rel) / np.arange(1, rel.size + 1)
    return float((precision * rel).sum()) / num_in_gallery


def sweep_to_csv(sweep: np.ndarray) -> str:
    """Render far_frr_sweep rows as a threshold,far,frr table of "%.17g" values."""
    return "threshold,far,frr\n" + format_rows(sweep, b",", b"\n").decode()


def histogram_to_csv(counts_by_name: dict, edges: np.ndarray) -> str:
    """Render histograms over shared edges as a CSV table; "%.17g" prints a count as an integer."""
    table = np.column_stack([edges[:-1], edges[1:], *counts_by_name.values()])
    return ",".join(["bin_left,bin_right", *counts_by_name]) + "\n" + format_rows(
        table, b",", b"\n").decode()
