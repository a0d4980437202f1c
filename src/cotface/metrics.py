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

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ScoredPairs:
    """Similarity scores for genuine (same-identity) and impostor pairs."""

    genuine: np.ndarray
    impostor: np.ndarray

    def __post_init__(self):
        self.genuine = np.atleast_1d(np.asarray(self.genuine, dtype=np.float64))
        self.impostor = np.atleast_1d(np.asarray(self.impostor, dtype=np.float64))
        for name, arr in (("genuine", self.genuine), ("impostor", self.impostor)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} scores contain non-finite values")


def far_frr_sweep(pairs: ScoredPairs, thresholds) -> np.ndarray:
    """FAR and FRR at each threshold; returns rows (threshold, far, frr)."""
    if pairs.genuine.size == 0 or pairs.impostor.size == 0:
        raise ValueError("both score sets must be non-empty")
    thresholds = np.atleast_1d(np.asarray(thresholds, dtype=np.float64))
    gen = np.sort(pairs.genuine)
    imp = np.sort(pairs.impostor)
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
    """eer's candidate grid: the sorted unique scores and the two sentinels."""
    if pairs.genuine.size == 0 or pairs.impostor.size == 0:
        raise ValueError("both score sets must be non-empty")
    grid = np.unique(np.concatenate([pairs.genuine, pairs.impostor]))
    # from 2**53 up, top + 1.0 == top; the next float up still rejects every score
    top = grid[-1]
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
    threshold = grid[k] + lam * (grid[k + 1] - grid[k])
    return float(value), float(threshold)


def auc(pairs: ScoredPairs) -> float:
    """P(genuine score > impostor score), ties counted half.

    Rank-statistic form: (#{g > i} + 0.5 * #{g == i}) / (|G| * |I|).
    """
    if pairs.genuine.size == 0 or pairs.impostor.size == 0:
        raise ValueError("both score sets must be non-empty")
    imp = np.sort(pairs.impostor)
    below = np.searchsorted(imp, pairs.genuine, side="left").sum()
    below_or_eq = np.searchsorted(imp, pairs.genuine, side="right").sum()
    wins = int(below)
    ties = int(below_or_eq - below)
    return (wins + 0.5 * ties) / (pairs.genuine.size * pairs.impostor.size)


def histogram(scores, bins: int, value_range: tuple[float, float]):
    """Fixed-range histogram; returns (counts, edges).

    Counts sum to the number of scores inside value_range (the right edge of
    the last bin is inclusive, matching numpy).
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    lo, hi = value_range
    if not lo < hi:
        raise ValueError("empty value range")
    return np.histogram(np.asarray(scores, dtype=np.float64), bins=bins, range=(lo, hi))


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


@dataclass
class RankedRetrieval:
    """Retrieval results: per-query ranked lists plus a flat confidence view.

    `queries` feeds map_at_100; the flat `confidences`/`correct` arrays plus
    `num_in_gallery` (the M normalizer: queries with at least one relevant
    gallery item) feed gap.
    """

    queries: list = field(default_factory=list)
    confidences: np.ndarray | None = None
    correct: np.ndarray | None = None
    num_in_gallery: int | None = None


def map_at_100(retrieval: RankedRetrieval) -> float:
    """Mean average precision truncated at rank 100.

    Per query: (1/min(m_q, 100)) * sum_{k <= min(n_q, 100)} P(k) * rel(k),
    where P(k) is precision over the top k.  Queries with m_q = 0 are
    excluded from the mean; if every query is excluded the result is 0.
    """
    aps = []
    for q in retrieval.queries:
        if q.num_relevant == 0:
            continue
        rel = q.rel[:100]
        ranks = np.arange(1, rel.size + 1)
        precision = np.cumsum(rel) / ranks
        aps.append(float((precision * rel).sum()) / min(q.num_relevant, 100))
    if not aps:
        return 0.0
    return float(np.mean(aps))


def gap(retrieval: RankedRetrieval) -> float:
    """Global average precision over the confidence-ranked prediction list.

    All predictions are sorted by descending confidence (stable, so ties keep
    insertion order); GAP = (1/M) * sum_i P(i) * rel(i) with M =
    num_in_gallery.
    """
    if retrieval.confidences is None or retrieval.correct is None:
        raise ValueError("gap needs the flat confidence view")
    if not retrieval.num_in_gallery or retrieval.num_in_gallery < 1:
        raise ValueError("num_in_gallery must be a positive count")
    conf = np.asarray(retrieval.confidences, dtype=np.float64)
    correct = np.asarray(retrieval.correct).astype(np.float64)
    if conf.shape != correct.shape:
        raise ValueError("confidences and correct must have matching shapes")
    order = np.argsort(-conf, kind="stable")
    rel = correct[order]
    precision = np.cumsum(rel) / np.arange(1, rel.size + 1)
    return float((precision * rel).sum()) / retrieval.num_in_gallery


_CSV_BLOCK_ROWS = 4096  # bounds the Python floats alive at once


def sweep_to_csv(sweep: np.ndarray) -> str:
    """Render far_frr_sweep rows as a threshold,far,frr table."""
    parts = ["threshold,far,frr\n"]
    for start in range(0, len(sweep), _CSV_BLOCK_ROWS):
        block = sweep[start:start + _CSV_BLOCK_ROWS]
        parts.append("%.17g,%.17g,%.17g\n" * len(block) % tuple(block.ravel().tolist()))
    return "".join(parts)


def histogram_to_csv(counts_by_name: dict, edges: np.ndarray) -> str:
    """Render one or more histograms over shared edges as a CSV table."""
    names = list(counts_by_name)
    lines = ["bin_left,bin_right," + ",".join(names)]
    for i in range(edges.size - 1):
        row = [f"{edges[i]:.17g}", f"{edges[i + 1]:.17g}"]
        row += [str(int(counts_by_name[n][i])) for n in names]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
