"""Sliding-window face detection: the detection pyramid, NMS, cascade, alignment.

The detector is a three-stage rescoring cascade over a pluggable batch
scorer: the 12 px windows of each pyramid level are scored in batches,
survivors are re-scored on 24 px and then 48 px crops (the last stage also
predicts landmarks).  One greedy NMS pass, at NMS_IOU, follows stage 1; it
compares only near neighbours, so it is near-linear in the stage-1 survivors.
Candidates stay arrays from the scan to the last stage, as rows x1, y1, x2,
y2, confidence in original image coordinates; only the boxes detect returns
become DetectionBox objects.

For K candidates the scorer provides

    stage1(crops (K, 12, 12), boxes (K, 4)) -> confidences (K,)
    stage2(crops (K, 24, 24), boxes (K, 4)) -> confidences (K,)
    stage3(crops (K, 48, 48), boxes (K, 4)) -> (confidences (K,),
                                                landmarks (K, L, 2) or None)

where crops are float64 levels in [0, 255], boxes are rows x1, y1, x2, y2 in
original image coordinates, and landmarks are (x, y) relative to their box,
clipped to [0, 1].  Scorers can be learned models or synthetic test
probes.  Stage 1 gets whole rows of windows, up to _SCAN_BATCH per call;
stages 2 and 3 get at most _CHUNK boxes per call.

Stages 2 and 3 need no NMS pass of their own: a greedy pass at threshold t
keeps rows whose pairwise IoU is below t, and later stages only drop and
rescore rows, so another pass at t would keep every row.  They order their
survivors as such a pass would visit them, by descending confidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .image import (GrayImage, bilinear_resize, crop_bounds, crop_region, crop_resize,
                    rotate_region)


@dataclass
class DetectionBox:
    """Axis-aligned box with a confidence and optional (k, 2) landmarks."""

    x1: float
    y1: float
    x2: float
    y2: float
    confidence: float
    landmarks: np.ndarray | None = None

    def __post_init__(self):
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise ValueError("box must have positive width and height")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must lie in [0, 1]")
        if self.landmarks is not None:
            self.landmarks = np.asarray(self.landmarks, dtype=np.float64)
            if self.landmarks.ndim != 2 or self.landmarks.shape[1] != 2:
                raise ValueError("landmarks must have shape (k, 2)")
            x_ok = (self.landmarks[:, 0] >= self.x1) & (self.landmarks[:, 0] <= self.x2)
            y_ok = (self.landmarks[:, 1] >= self.y1) & (self.landmarks[:, 1] <= self.y2)
            if not (x_ok & y_ok).all():
                raise ValueError("landmarks must lie inside the box")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height


def iou(a: DetectionBox, b: DetectionBox) -> float:
    """Intersection over union of two boxes (0 when disjoint)."""
    ix = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
    iy = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
    inter = ix * iy
    if inter == 0.0:
        return 0.0
    return inter / (a.area + b.area - inter)


def nms_rows(rows, iou_threshold: float) -> np.ndarray:
    """Greedy non-maximum suppression over rows x1, y1, x2, y2, confidence.

    Rows are visited by descending confidence (ties by lower row index); each
    is kept unless it overlaps an already-kept row with IoU >= iou_threshold.
    Returns the kept row indices in visiting order.  The IoU is computed in
    iou's operation order, so decisions at the threshold are iou's.  A
    non-finite coordinate or area raises ValueError; a threshold of 0 or
    below, or NaN, keeps the first row visited only.

    The IoU is at most the overlap over the union along either axis, so
    IoU >= t needs widths and heights within a ratio of t and centres at
    most (1 - t) / (1 + t) times the larger size apart on each axis.  Only
    such pairs, from _candidate_pairs, are compared, which gives the
    all-pairs pass's rows at a near-linear cost (Neubeck & Van Gool, 2006).
    """
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 5)
    x1, y1, x2, y2, _ = rows.T
    area = (x2 - x1) * (y2 - y1)
    if not np.isfinite(area).all():
        raise ValueError("box coordinates must be finite")
    order = _visiting_order(rows)
    if not iou_threshold > 0.0:
        return order[:1]
    a, b = _candidate_pairs(rows, iou_threshold)
    ix = np.maximum(0.0, np.minimum(x2[a], x2[b]) - np.maximum(x1[a], x1[b]))
    iy = np.maximum(0.0, np.minimum(y2[a], y2[b]) - np.maximum(y1[a], y1[b]))
    inter = ix * iy
    overlap = np.zeros_like(inter)
    np.divide(inter, area[a] + area[b] - inter, out=overlap, where=inter != 0.0)
    # each suppressing pair as (earlier, later) visiting positions, by the earlier
    pairs = np.sort(np.argsort(order)[np.stack([a, b])[:, overlap >= iou_threshold]], axis=0)
    gone = bytearray(len(rows))
    for i, j in pairs[:, np.argsort(pairs[0])].T.tolist():
        if not gone[i]:  # every pair that could drop i came before
            gone[j] = 1
    return order[np.frombuffer(gone, dtype=np.uint8) == 0]


_SLACK = 1e-6  # relative widening of size classes and cells, far above their rounding


def _candidate_pairs(rows, t: float):
    """Row index pairs (a, b), each unordered pair once, among them every
    pair whose IoU, as nms_rows computes it, reaches t > 0 (t >= 1 takes
    the pairs of t = 0.999).  Rows of positive width and height get a size
    class, max(width, height) in steps of a factor 1/t, and each class a
    grid of cells (1 - t) / (1 + t) times its largest size, widened so that
    no edge is more than 2**16 cells from 0.  A row meets the rows of its
    own class and of the next one up whose centres lie in the same or an
    adjacent cell of that class's grid.
    """
    x1, y1, x2, y2 = rows[:, :4].T
    live = np.flatnonzero((x2 > x1) & (y2 > y1))  # the other rows overlap nothing
    t = min(t, 0.999)
    size = np.maximum(x2 - x1, y2 - y1)[live]
    _, cls = np.unique(np.floor(np.log(size) / (-np.log(t) * (1.0 + _SLACK))), return_inverse=True)
    top = np.zeros(cls.max(initial=-1) + 1)
    np.maximum.at(top, cls, size)
    far = np.abs(rows[live, :4]).max(initial=0.0)
    cell = np.maximum((1.0 - t) / (1.0 + t) * (1.0 + _SLACK) * top, max(far / 2.0**16, 5e-324))
    up = np.flatnonzero(cls + 1 < len(top))
    ask = np.concatenate([np.arange(len(live)), up])  # each row in its class's grid, then the next
    grid = np.concatenate([cls, cls[up] + 1])
    box = rows[live[ask]]
    centre = box[:, :2] + (box[:, 2:4] - box[:, :2]) * 0.5  # x1 + x2 could overflow
    gx, gy = (np.floor(c / cell[grid]).astype(np.int64) + 2**17 for c in centre.T)
    key = (grid << 36) + (gy << 18) + gx
    by_key = np.argsort(key[: len(live)])
    keys = key[: len(live)][by_key]
    near = (key + (np.array([[-1], [0], [1]]) << 18)).ravel()  # three rows of cells around each
    lo, hi = np.searchsorted(keys, near - 1), np.searchsorted(keys, near + 1, "right")
    count = hi - lo
    a = np.tile(ask, 3).repeat(count)
    b = by_key[np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - lo, count)]
    keep = (np.tile(np.arange(len(ask)), 3).repeat(count) >= len(live)) | (a < b)  # own class: once
    return live[a[keep]], live[b[keep]]


def nms(boxes, iou_threshold: float) -> list:
    """Greedy non-maximum suppression of DetectionBox objects (see nms_rows);
    the kept boxes are returned in visiting order."""
    rows = [(b.x1, b.y1, b.x2, b.y2, b.confidence) for b in boxes]
    return [boxes[i] for i in nms_rows(rows, iou_threshold)]


# MTCNN's published constants (Zhang et al., 2016)
WINDOW = 12  # side of the stage-1 scan window, px
PYRAMID_STEP = 0.709  # scale ratio of consecutive pyramid levels
STRIDE = 2  # stage-1 window step on each pyramid level, px
STAGE_GATES = (0.6, 0.7, 0.7)  # the confidence each stage's survivors reach
NMS_IOU = 0.7  # the one NMS pass's threshold, after stage 1
# scorer batch sizes; they bound the memory of a batch's crops and resampling
_SCAN_BATCH = 2048  # stage-1 windows per call (whole rows of windows, at least one row)
_CHUNK = 8  # stage-2/3 boxes per call


def image_pyramid(img: GrayImage, min_face: float) -> list[tuple[GrayImage, float]]:
    """Scaled copies for a sliding-window scan.

    The first scale maps a min_face-sized region onto the WINDOW size; each
    further level shrinks by PYRAMID_STEP, and levels are kept while the
    scaled short side still covers one window.  min_face must be at least
    WINDOW / 2, so no level is more than twice the frame's size per side.
    """
    if not WINDOW / 2 <= min_face < np.inf:
        raise ValueError(f"min_face must be finite and at least {WINDOW // 2} px, got {min_face}")
    levels = []
    scale = WINDOW / min_face
    # side * scale rounds twice, so a short side equal to min_face can land an
    # ulp below WINDOW; that level still rounds to WINDOW px
    while min(img.width, img.height) * scale >= WINDOW - math.ulp(WINDOW):
        w = max(1, int(round(img.width * scale)))
        h = max(1, int(round(img.height * scale)))
        levels.append((bilinear_resize(img, w, h), scale))
        scale *= PYRAMID_STEP
    return levels


def _survivors(out, boxes, threshold):
    """Rows x1, y1, x2, y2, confidence of the boxes whose stage output reaches
    threshold, and the pass mask.  Fails closed as DetectionBox does: an
    output not shaped (K,) or a passing confidence outside [0, 1] raises
    ValueError, and NaN never passes."""
    conf = np.asarray(out, dtype=np.float64)
    if conf.shape != (len(boxes),):
        raise ValueError(f"stage scorer returned shape {conf.shape} for {len(boxes)} boxes")
    keep = conf >= threshold
    if ((conf[keep] < 0.0) | (conf[keep] > 1.0)).any():
        raise ValueError("confidence must lie in [0, 1]")
    return np.column_stack([boxes[keep], conf[keep]]), keep


def _frame_landmarks(rel, boxes, keep):
    """(K', L, 2) frame coordinates of the kept boxes' landmarks from (K, L, 2)
    box-relative ones, clipped to [0, 1].  Raises ValueError on another shape
    or on a non-finite landmark of a kept box."""
    rel = np.asarray(rel, dtype=np.float64)
    if rel.ndim != 3 or rel.shape[0] != len(boxes) or rel.shape[2] != 2:
        raise ValueError(f"landmarks must have shape ({len(boxes)}, L, 2), got {rel.shape}")
    rel = rel[keep]
    if not np.isfinite(rel).all():
        raise ValueError("landmarks must be finite")
    rel = np.clip(rel, 0.0, 1.0)
    x1, y1, x2, y2 = (c[:, None] for c in boxes[keep].T)
    # x1 + 1.0 * (x2 - x1) can round one ulp past x2; the minimum keeps it inside
    return np.stack([np.minimum(x1 + rel[:, :, 0] * (x2 - x1), x2),
                     np.minimum(y1 + rel[:, :, 1] * (y2 - y1), y2)], axis=-1)


def _scan_stage(img, stage1, min_face):
    """Stage 1: score every 12 px window of every pyramid level, windows in
    row-major order, whole rows of windows per call up to _SCAN_BATCH; the
    survivors of the NMS pass at NMS_IOU, in its visiting order."""
    found = [np.empty((0, 5))]
    for level, scale in image_pyramid(img, min_face):  # every level covers a window
        windows = sliding_window_view(level.pixels, (WINDOW, WINDOW))
        windows = windows[::STRIDE, ::STRIDE]
        nx = windows.shape[1]
        band = max(1, _SCAN_BATCH // nx)  # window rows per call
        for r in range(0, windows.shape[0], band):
            rows = windows[r : r + band]
            crops = np.ascontiguousarray(rows).reshape(-1, WINDOW, WINDOW)
            x0 = np.tile(np.arange(nx) * STRIDE, len(rows))
            y0 = np.repeat(np.arange(r, r + len(rows)) * STRIDE, nx)
            boxes = np.column_stack([
                np.minimum(x0 / scale, img.width - 1.0),
                np.minimum(y0 / scale, img.height - 1.0),
                np.minimum((x0 + WINDOW) / scale, float(img.width)),
                np.minimum((y0 + WINDOW) / scale, float(img.height)),
            ])
            found.append(_survivors(stage1(crops, boxes), boxes, STAGE_GATES[0])[0])
    found = np.concatenate(found)
    return found[nms_rows(found, NMS_IOU)]


def _rescore_stage(img, rows, stage, size: int, threshold: float):
    """Stages 2/3: re-score size px crops of the rows, _CHUNK boxes per call.

    stage(crops, boxes) returns (confidences, landmarks or None).  Returns the
    surviving rows and their (K, L, 2) frame landmarks, or None when the
    stage gave none.
    """
    kept, marks = [np.empty((0, 5))], []
    for start in range(0, len(rows), _CHUNK):
        boxes = rows[start : start + _CHUNK, :4]
        out, rel = stage(crop_resize(img, boxes, size, size), boxes)
        survivors, keep = _survivors(out, boxes, threshold)
        kept.append(survivors)
        marks.append(None if rel is None else _frame_landmarks(rel, boxes, keep))
    if all(m is None for m in marks):
        return np.concatenate(kept), None
    return np.concatenate(kept), np.concatenate(marks)  # ValueError if the chunks disagree


def _visiting_order(rows):  # nms_rows's: descending confidence, ties by lower row index
    return np.lexsort((np.arange(len(rows)), -rows[:, 4]))


def _later_stages(img, rows, scorer) -> list:
    """Stages 2 and 3 on stage-1 NMS survivors, each ordered as nms_rows visits."""
    rows, _ = _rescore_stage(img, rows, lambda crops, boxes: (scorer.stage2(crops, boxes), None),
                             24, STAGE_GATES[1])
    rows = rows[_visiting_order(rows)]
    rows, marks = _rescore_stage(img, rows, scorer.stage3, 48, STAGE_GATES[2])
    return [DetectionBox(*rows[i].tolist(), landmarks=None if marks is None else marks[i])
            for i in _visiting_order(rows)]


def detect(img: GrayImage, scorer, min_face: float) -> list:
    """Run the full three-stage cascade, its pyramid starting at min_face px
    (see image_pyramid); returns the surviving DetectionBoxes.

    scorer is a batch scorer (see the module docstring) whose landmarks have
    the same L in every call.  A stage with no candidates is not called, nor
    is any later one.  A malformed output, a passing confidence outside
    [0, 1] or a non-finite landmark of a passing box raises ValueError; a
    NaN confidence never passes.
    """
    return _later_stages(img, _scan_stage(img, scorer.stage1, min_face), scorer)


def largest_face(img: GrayImage, scorer, min_face: float):
    """The box max(detect(img, scorer, min_face), key=area) gives, or None.

    detect's stage-1 scan and NMS pass run once; its stages 2 and 3 then run
    on the survivors one area at a time, largest first, and the first area
    with a survivor gives detect's first box of it.  This relies on a crop's
    confidence not depending on the other crops in its batch.  Every scored
    output is validated as in detect, though landmark shapes are compared
    only within one area; a box never shown to a scorer cannot be judged, so
    a bad output on it raises nothing.
    """
    rows = _scan_stage(img, scorer.stage1, min_face)
    area = (rows[:, 2] - rows[:, 0]) * (rows[:, 3] - rows[:, 1])  # as DetectionBox.area
    for size in sorted(set(area.tolist()), reverse=True):
        boxes = _later_stages(img, rows[area == size], scorer)
        if boxes:
            return boxes[0]
    return None


def align(img: GrayImage, box: DetectionBox):
    """Rotate the face upright about the eye midpoint and crop the box.

    The roll angle is arctan of the eye-to-eye slope (landmarks[0] = left
    eye, landmarks[1] = right eye); the image is resampled so the eye line
    becomes horizontal and the box rectangle is cropped from the result.
    Returns (crop, landmarks in crop coordinates); without landmarks the
    plain crop and None.
    """
    if box.landmarks is None:
        return crop_region(img, box.x1, box.y1, box.x2, box.y2), None
    ix1, iy1, ix2, iy2 = crop_bounds(img, box.x1, box.y1, box.x2, box.y2)
    left, right = box.landmarks[0], box.landmarks[1]
    angle = float(np.arctan2(right[1] - left[1], right[0] - left[0]))
    mid = (left + right) / 2.0
    crop = rotate_region(img, mid, angle, ix1, iy1, ix2, iy2)

    ca, sa = np.cos(-angle), np.sin(-angle)
    rot = np.array([[ca, -sa], [sa, ca]])
    transformed = (box.landmarks - mid) @ rot.T + mid - np.array([ix1, iy1])
    return crop, transformed
