"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way (scalar loops,
exhaustive enumeration, a dense SVD) and shares no code with the
library: when a test compares the two, agreement means two distinct
derivations reached the same numbers.  Two exceptions judge a batched path
by its one-at-a-time form: detect_per_window, the detection cascade one
window and one box at a time, is built from the library's per-box pieces
(pyramid, crop_region, bilinear_resize, DetectionBox, iou) and judges the
array cascade's batching, indexing, gating and NMS; gradcheck_loop calls the
library's losses once per bumped coordinate and judges gradcheck's stacking;
read_pgm_scan, a byte-at-a-time PGM header scanner, builds the library's
GrayImage so that its checks raise the same errors; rotate_region_taps, the
rotated crop with its bilinear arithmetic written out, reads a GrayImage.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def ce_value(theta, labels, f_true, g_other, s: float, ln_b: float = 1.0):
    """Scalar-loop softmax cross-entropy over angle logits.

    f_true(angle) gives the labeled-class logit, g_other(angle) every other
    class's logit; both already include the scale s in the caller's closure
    or receive it here for convenience (callers pass s-inclusive functions
    and s=1, or bare functions and the scale).  Returns (value, per_sample).
    """
    theta = np.asarray(theta, dtype=np.float64)
    per_sample = []
    for i, y in enumerate(labels):
        num = math.exp(s * f_true(theta[i, y]))
        den = num
        for j in range(theta.shape[1]):
            if j != y:
                den += math.exp(s * g_other(theta[i, j]))
        per_sample.append(-math.log(num / den) / ln_b)
    return sum(per_sample) / len(per_sample), np.array(per_sample)


def softmax_ce_value(logits, labels, ln_b: float = 1.0):
    """Scalar-loop cross-entropy on raw logits."""
    logits = np.asarray(logits, dtype=np.float64)
    per_sample = []
    for i, y in enumerate(labels):
        den = sum(math.exp(v) for v in logits[i])
        per_sample.append(-math.log(math.exp(logits[i, y]) / den) / ln_b)
    return sum(per_sample) / len(per_sample), np.array(per_sample)


def eer_exhaustive(genuine, impostor):
    """Equal error rate by scanning every candidate threshold.

    FAR and FRR are counted directly at each unique score (plus one sentinel
    on each side); the crossing is located by linear scan and resolved by the
    same linear interpolation the midpoint-estimator definition prescribes.
    """
    genuine = list(map(float, genuine))
    impostor = list(map(float, impostor))
    grid = sorted(set(genuine + impostor))
    grid = [grid[0] - 1.0] + grid + [grid[-1] + 1.0]

    def rates(t):
        far = sum(1 for v in impostor if v >= t) / len(impostor)
        frr = sum(1 for v in genuine if v < t) / len(genuine)
        return far, frr

    table = [rates(t) for t in grid]
    for k in range(len(grid) - 1):
        far_k, frr_k = table[k]
        diff_k = far_k - frr_k
        if diff_k == 0.0:
            return far_k, grid[k]
        far_n, frr_n = table[k + 1]
        diff_n = far_n - frr_n
        if diff_k > 0.0 and diff_n <= 0.0:
            if diff_n == 0.0:
                return far_n, grid[k + 1]
            lam = diff_k / (diff_k - diff_n)
            return far_k + lam * (far_n - far_k), grid[k] + lam * (grid[k + 1] - grid[k])
    raise AssertionError("no crossing")


def auc_pairwise(genuine, impostor):
    """P(genuine > impostor) by brute-force double loop, ties half."""
    wins = 0
    ties = 0
    for g in genuine:
        for i in impostor:
            if g > i:
                wins += 1
            elif g == i:
                ties += 1
    return (wins + 0.5 * ties) / (len(genuine) * len(impostor))


def pca_dense(points):
    """Top-2 principal axes and eigenvalues from an SVD of the centered points.

    The right singular vectors of the centered data are the covariance
    eigenvectors and sing**2 / (N - 1) its eigenvalues, so no covariance
    matrix or symmetric eigensolver is involved.
    """
    pts = np.asarray(points, dtype=np.float64)
    centered = pts - pts.mean(axis=0)
    _, sing, vt = np.linalg.svd(centered, full_matrices=False)
    return sing[:2] ** 2 / (pts.shape[0] - 1), vt[:2]


def nms_exhaustive(boxes, iou_threshold, iou_fn):
    """Greedy-NMS result characterized without running the greedy loop.

    Enumerates every subset of boxes, keeps those that are feasible (all
    pairwise IoU below the threshold) and maximal (no excluded box could be
    added), and returns the lexicographically smallest one under the
    confidence-then-index visiting order.  That subset is exactly what the
    greedy sweep must produce.
    """
    n = len(boxes)
    rank = sorted(range(n), key=lambda i: (-boxes[i].confidence, i))
    pos = {idx: r for r, idx in enumerate(rank)}
    conflict = [[iou_fn(boxes[i], boxes[j]) >= iou_threshold for j in range(n)]
                for i in range(n)]

    best = None
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            chosen = set(subset)
            if any(conflict[i][j] for i in subset for j in subset if i < j):
                continue
            extendable = any(
                k not in chosen and not any(conflict[k][i] for i in chosen)
                for k in range(n)
            )
            if extendable:
                continue
            key = tuple(sorted(pos[i] for i in subset))
            if best is None or key < best[0]:
                best = (key, chosen)
    return best[1]


def _greedy_nms(boxes, iou_threshold, iou_fn):
    """Greedy NMS over a list: visit by (-confidence, index), keep a box
    unless it overlaps an already-kept one with IoU >= iou_threshold."""
    kept = []
    for i in sorted(range(len(boxes)), key=lambda i: (-boxes[i].confidence, i)):
        if all(iou_fn(boxes[i], k) < iou_threshold for k in kept):
            kept.append(boxes[i])
    return kept


def detect_per_window(img, scorer, config):
    """The three-stage cascade one candidate at a time.

    Stage 1 loops over every window of every pyramid level and builds one
    DetectionBox per survivor; stages 2 and 3 cut and resample each box with
    crop_region plus bilinear_resize; each stage ends in _greedy_nms.  The
    batch scorer is called with K = 1 batches.
    """
    from dataclasses import replace

    from cotface.pipeline import DetectionBox, bilinear_resize, crop_region, image_pyramid, iou

    window = 12
    boxes = []
    for level, scale in image_pyramid(img, config.min_face, config.scale_factor, window):
        if level.width < window or level.height < window:
            continue
        for y0 in range(0, level.height - window + 1, config.stride):
            for x0 in range(0, level.width - window + 1, config.stride):
                crop = level.pixels[y0 : y0 + window, x0 : x0 + window].copy()
                coords = (min(x0 / scale, img.width - 1.0),
                          min(y0 / scale, img.height - 1.0),
                          min((x0 + window) / scale, float(img.width)),
                          min((y0 + window) / scale, float(img.height)))
                conf = float(scorer.stage1(crop[None], np.array([coords]))[0])
                if conf >= config.stage_confidences[0]:
                    boxes.append(DetectionBox(*coords, conf))
    boxes = _greedy_nms(boxes, config.stage_iou[0], iou)

    for stage, size in ((2, 24), (3, 48)):
        survivors = []
        for box in boxes:
            coords = np.array([[box.x1, box.y1, box.x2, box.y2]])
            crop = bilinear_resize(crop_region(img, box.x1, box.y1, box.x2, box.y2),
                                   size, size).pixels[None]
            landmarks = None
            if stage == 2:
                conf = float(scorer.stage2(crop, coords)[0])
            else:
                conf, rel = scorer.stage3(crop, coords)
                conf = float(conf[0])
                if rel is not None:
                    rel = np.clip(np.asarray(rel[0], dtype=np.float64), 0.0, 1.0)
                    landmarks = np.column_stack([
                        np.minimum(box.x1 + rel[:, 0] * box.width, box.x2),
                        np.minimum(box.y1 + rel[:, 1] * box.height, box.y2)])
            if conf >= config.stage_confidences[stage - 1]:
                survivors.append(replace(box, confidence=conf, landmarks=landmarks))
        boxes = _greedy_nms(survivors, config.stage_iou[stage - 1], iou)
    return boxes


def match_loop(identities, probe, sim_threshold: float = 0.5):
    """1:N match one stored embedding at a time, in enrollment order.

    identities: name -> unit embeddings, both in enrollment order.  Each
    similarity is a correctly rounded sum (math.fsum) of products, so equal
    embeddings always score equal, and a later embedding wins only when its
    similarity is strictly greater: ties go to the first-enrolled identity.
    Returns (identity, best similarity); None when the best is non-finite or
    below sim_threshold, (None, -1.0) when nothing is stored.
    """
    probe = np.asarray(probe, dtype=np.float64)
    probe = (probe / math.sqrt(float(np.sum(probe * probe)))).tolist()
    best_name, best_sim, found = None, -1.0, False
    for name, embeddings in identities.items():
        for emb in embeddings:
            sim = math.fsum(p * e for p, e in zip(probe, emb.tolist()))
            if not found or sim > best_sim:
                best_name, best_sim, found = name, sim, True
    if not found or not math.isfinite(best_sim) or best_sim < sim_threshold:
        return None, best_sim
    return best_name, best_sim


def _gradcheck_trial(loss_name, cfg_rng, data_rng, trial_seed):
    """One trial's (params, loss_fn, grad_of), drawn as gradcheck draws it."""
    from cotface.angular import AngularBatch, LossConfig
    from cotface.losses import (ANGULAR_LOSSES, ScorePair, double_loss, margin_sigmoid_ce,
                                softmax_loss)

    if loss_name in ANGULAR_LOSSES:
        n_samples = int(cfg_rng.integers(2, 5))
        n_classes = int(cfg_rng.integers(2, 6))
        cfg = LossConfig(
            s=float(cfg_rng.uniform(0.5, 4.0)),
            m=float(cfg_rng.uniform(0.01, 0.3)),
            m1=float(cfg_rng.uniform(0.9, 1.1)),
            m2=float(cfg_rng.uniform(0.01, 0.2)),
            m3=float(cfg_rng.uniform(0.0, 0.2)),
            sigma1=float(cfg_rng.uniform(0.0, 0.05)),
            sigma2=float(cfg_rng.uniform(0.0, 0.05)),
            sigma3=float(cfg_rng.uniform(0.0, 0.05)),
            alpha=float(cfg_rng.uniform(0.2, 1.0)),
            beta=float(cfg_rng.uniform(0.2, 1.0)),
            log_base="ten" if cfg_rng.integers(2) else "natural",
        )
        theta = data_rng.uniform(0.15, 2.6, size=(n_samples, n_classes))
        labels = data_rng.integers(0, n_classes, size=n_samples)
        return theta.ravel(), \
            lambda p: ANGULAR_LOSSES[loss_name](
                AngularBatch(p.reshape(theta.shape), labels), cfg,
                rng=np.random.default_rng(trial_seed)), \
            lambda out: out.grad_theta.ravel()
    if loss_name == "softmax":
        n_samples = int(cfg_rng.integers(2, 5))
        n_classes = int(cfg_rng.integers(2, 6))
        cfg = LossConfig(log_base="ten" if cfg_rng.integers(2) else "natural")
        logits = data_rng.normal(0.0, 2.0, size=(n_samples, n_classes))
        labels = data_rng.integers(0, n_classes, size=n_samples)
        return logits.ravel(), \
            lambda p: softmax_loss(p.reshape(logits.shape), labels, cfg), \
            lambda out: out.grad_theta.ravel()
    if loss_name == "margin-ce":
        n = int(cfg_rng.integers(2, 9))
        m = float(cfg_rng.uniform(-1.0, 1.0))
        scores = data_rng.normal(0.0, 2.0, size=n)
        labels = data_rng.integers(0, 2, size=n)
        return scores, lambda p: margin_sigmoid_ce(p, labels, m), lambda out: out.grad_scores
    if loss_name == "double":
        n_low = int(cfg_rng.integers(2, 6))
        n_high = int(cfg_rng.integers(2, 6))
        return data_rng.uniform(0.1, 0.9, size=n_low + n_high), \
            lambda p: double_loss(ScorePair(low=p[:n_low], high=p[n_low:])), \
            lambda out: np.concatenate([out.grad_low, out.grad_high])
    raise ValueError(f"unknown loss {loss_name!r}")


def gradcheck_loop(loss_name: str, trials: int = 100, h: float = 1e-5, seed: int = 0):
    """gradcheck with one loss call per bumped copy: 2P + 1 calls per trial.

    Draws each trial's configuration in gradcheck's order, moves one
    coordinate at a time by +-h, and keeps the first coordinate whose
    relative error strictly exceeds every earlier one, a NaN error counting
    as infinite.
    """
    from cotface.train import GradcheckReport

    cfg_rng = np.random.default_rng(seed)
    data_rng = np.random.default_rng(seed + 1)
    max_err, worst = 0.0, {}
    for trial in range(trials):
        params, loss_fn, grad_of = _gradcheck_trial(loss_name, cfg_rng, data_rng, trial)
        analytic = grad_of(loss_fn(params))
        for i in range(params.size):
            bumped = params.copy()
            bumped[i] = params[i] + h
            up = loss_fn(bumped).value
            bumped[i] = params[i] - h
            down = loss_fn(bumped).value
            fd = (up - down) / (2.0 * h)
            err = abs(analytic[i] - fd) / (abs(analytic[i]) + abs(fd) + 1e-4)
            if math.isnan(err):
                err = math.inf
            if err > max_err:
                max_err = err
                worst = {"trial": trial, "coordinate": i,
                         "analytic": float(analytic[i]), "fd": float(fd)}
    return GradcheckReport(loss_name=loss_name, trials=trials,
                           max_rel_err=float(max_err), worst=worst)


def read_scores_loop(path):
    """The eval scores file read one text-mode line at a time.

    Returns (genuine, impostor) float64 arrays in file order; a ValueError
    names the first rejected line as path:lineno.
    """
    genuine, impostor = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'label,score'")
            label = parts[0].strip().lower()
            try:
                score = float(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if label in ("1", "genuine"):
                kept = genuine
            elif label in ("0", "impostor"):
                kept = impostor
            else:
                raise ValueError(f"{path}:{lineno}: unknown label {label!r}")
            if not math.isfinite(score):
                raise ValueError(f"{path}:{lineno}: non-finite score {parts[1]!r}")
            kept.append(score)
    if not genuine or not impostor:
        raise ValueError(f"{path}: need at least one genuine and one impostor score")
    return np.array(genuine), np.array(impostor)


def gauss_hermite_mean(per_margin_value, mean: float, sigma: float, nodes: int = 64):
    """E[f(X)] for X ~ N(mean, sigma^2) by Gauss-Hermite quadrature."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    values = [per_margin_value(mean + sigma * math.sqrt(2.0) * xi) for xi in x]
    return float(np.dot(w, values) / math.sqrt(math.pi))


def read_pgm_scan(path):
    """Binary (P5) PGM read by scanning the header one byte at a time.

    Whitespace and "#" comments (up to, not including, the next newline)
    separate tokens; a token runs to the next whitespace byte.
    """
    from cotface.pipeline import GrayImage

    with open(path, "rb") as fh:
        data = fh.read()

    pos = 0

    def next_token():
        nonlocal pos
        while pos < len(data):
            if data[pos : pos + 1].isspace():
                pos += 1
            elif data[pos : pos + 1] == b"#":
                while pos < len(data) and data[pos : pos + 1] != b"\n":
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError(f"{path}: truncated PGM header")
        return data[start:pos]

    magic = next_token()
    if magic != b"P5":
        raise ValueError(f"{path}: not a binary PGM (magic {magic!r})")
    width, height, maxval = (int(next_token()) for _ in range(3))
    if not 0 < maxval <= 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    raster = data[pos : pos + width * height]
    if len(raster) != width * height:
        raise ValueError(f"{path}: raster truncated")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    return GrayImage(pixels.astype(np.float64))


def rotate_region_taps(img, center, angle: float, x1: int, y1: int, x2: int, y2: int):
    """Pixels of the rectangle [x1,x2) x [y1,y2) of img rotated by -angle about
    center, with its own floor, edge clamp and four-tap blend written out."""
    cx, cy = float(center[0]), float(center[1])
    xs = np.arange(x1, x2, dtype=np.float64)
    ys = np.arange(y1, y2, dtype=np.float64)
    gx, gy = np.meshgrid(xs - cx, ys - cy)
    ca, sa = np.cos(angle), np.sin(angle)
    src_x = np.clip(ca * gx - sa * gy + cx, 0.0, img.width - 1.0)
    src_y = np.clip(sa * gx + ca * gy + cy, 0.0, img.height - 1.0)
    x0 = np.floor(src_x).astype(int)
    y0 = np.floor(src_y).astype(int)
    x1i = np.minimum(x0 + 1, img.width - 1)
    y1i = np.minimum(y0 + 1, img.height - 1)
    fx = src_x - x0
    fy = src_y - y0
    p = img.pixels
    out = ((1 - fy) * ((1 - fx) * p[y0, x0] + fx * p[y0, x1i])
           + fy * ((1 - fx) * p[y1i, x0] + fx * p[y1i, x1i]))
    return np.clip(out, 0.0, 255.0)
