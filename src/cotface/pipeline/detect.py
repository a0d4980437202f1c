"""Sliding-window face detection: pyramid scan, NMS, cascade, alignment.

The detector is a three-stage rescoring cascade over a pluggable batch
scorer: the 12 px windows of each pyramid level are scored in batches,
survivors are re-scored on 24 px and then 48 px crops (the last stage also
predicts landmarks), with greedy NMS after each stage.  Candidates stay
arrays from the scan to the last NMS, as rows x1, y1, x2, y2, confidence in
original image coordinates; only the boxes detect returns become
DetectionBox objects.

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

An NMS pass that cannot suppress is skipped: a greedy pass at threshold t
keeps rows whose pairwise IoU is below t, and later stages only drop and
rescore rows, so a pass at or above an earlier pass's threshold keeps every
row, in nms_rows's visiting order, which detect takes directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# bilinear_resize is not called here; perfbench/layers.py counts its calls at
# this module's name, so the name stays importable from it.
from .image import (GrayImage, bilinear_resize, crop_bounds, crop_region,  # noqa: F401
                    crop_resize, image_pyramid, rotate_region)


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
    iou's operation order, so decisions at the threshold are iou's.
    """
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 5)
    x1, y1, x2, y2, conf = rows.T
    area = (x2 - x1) * (y2 - y1)
    order = np.lexsort((np.arange(len(rows)), -conf))
    kept = []
    while order.size:
        i, rest = order[0], order[1:]
        kept.append(i)
        ix = np.maximum(0.0, np.minimum(x2[i], x2[rest]) - np.maximum(x1[i], x1[rest]))
        iy = np.maximum(0.0, np.minimum(y2[i], y2[rest]) - np.maximum(y1[i], y1[rest]))
        inter = ix * iy
        overlap = np.zeros_like(inter)
        np.divide(inter, area[rest] + area[i] - inter, out=overlap, where=inter != 0.0)
        order = rest[overlap < iou_threshold]
    return np.array(kept, dtype=np.intp)


def nms(boxes, iou_threshold: float) -> list:
    """Greedy non-maximum suppression of DetectionBox objects (see nms_rows);
    the kept boxes are returned in visiting order."""
    rows = [(b.x1, b.y1, b.x2, b.y2, b.confidence) for b in boxes]
    return [boxes[i] for i in nms_rows(rows, iou_threshold)]


@dataclass
class DetectConfig:
    """Cascade parameters: pyramid geometry plus per-stage gates."""

    min_face: float = 24.0
    scale_factor: float = 0.709
    stride: int = 2
    stage_confidences: tuple = (0.6, 0.7, 0.7)
    stage_iou: tuple = (0.7, 0.7, 0.7)

    def __post_init__(self):
        if len(self.stage_confidences) != 3 or len(self.stage_iou) != 3:
            raise ValueError("need one confidence and one iou threshold per stage")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")


_WINDOW = 12
# scorer batch sizes; they bound the memory of a batch's crops and resampling
_SCAN_BATCH = 2048  # stage-1 windows per call (whole rows of windows, at least one row)
_CHUNK = 8  # stage-2/3 boxes per call


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


def _scan_stage(img, stage1, config):
    """Stage 1: score every 12 px window of every pyramid level, windows in
    row-major order, whole rows of windows per call up to _SCAN_BATCH."""
    found = [np.empty((0, 5))]
    for level, scale in image_pyramid(img, config.min_face, config.scale_factor, _WINDOW):
        if level.width < _WINDOW or level.height < _WINDOW:
            continue
        windows = sliding_window_view(level.pixels, (_WINDOW, _WINDOW))
        windows = windows[:: config.stride, :: config.stride]
        nx = windows.shape[1]
        band = max(1, _SCAN_BATCH // nx)  # window rows per call
        for r in range(0, windows.shape[0], band):
            rows = windows[r : r + band]
            crops = np.ascontiguousarray(rows).reshape(-1, _WINDOW, _WINDOW)
            x0 = np.tile(np.arange(nx) * config.stride, len(rows))
            y0 = np.repeat(np.arange(r, r + len(rows)) * config.stride, nx)
            boxes = np.column_stack([
                np.minimum(x0 / scale, img.width - 1.0),
                np.minimum(y0 / scale, img.height - 1.0),
                np.minimum((x0 + _WINDOW) / scale, float(img.width)),
                np.minimum((y0 + _WINDOW) / scale, float(img.height)),
            ])
            found.append(_survivors(stage1(crops, boxes), boxes, config.stage_confidences[0])[0])
    return np.concatenate(found)


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


def _skips(config, k) -> bool:  # after a pass at no higher threshold; NaN never skips
    return any(t <= config.stage_iou[k] for t in config.stage_iou[:k])


def _nms_pass(rows, config, k):
    if _skips(config, k):
        return np.lexsort((np.arange(len(rows)), -rows[:, 4]))  # nms_rows's visiting order
    return nms_rows(rows, config.stage_iou[k])


def _later_stages(img, rows, scorer, config) -> list:
    """Stages 2 and 3, each with its NMS pass, on stage-1 NMS survivors."""
    rows, _ = _rescore_stage(img, rows, lambda crops, boxes: (scorer.stage2(crops, boxes), None),
                             24, config.stage_confidences[1])
    rows = rows[_nms_pass(rows, config, 1)]
    rows, marks = _rescore_stage(img, rows, scorer.stage3, 48, config.stage_confidences[2])
    return [DetectionBox(*rows[i].tolist(), landmarks=None if marks is None else marks[i])
            for i in _nms_pass(rows, config, 2)]


def detect(img: GrayImage, scorer, config: DetectConfig | None = None) -> list:
    """Run the full three-stage cascade; returns the surviving DetectionBoxes.

    scorer is a batch scorer (see the module docstring): for K candidates,
    stage1(crops (K, 12, 12), boxes (K, 4)) -> (K,) confidences,
    stage2(crops (K, 24, 24), boxes (K, 4)) -> (K,) confidences, and
    stage3(crops (K, 48, 48), boxes (K, 4)) -> ((K,) confidences, landmarks),
    with landmarks either None or (K, L, 2) coordinates relative to each box
    in [0, 1], the same L in every call.  A stage with no candidates is not
    called, nor is any later one.  A malformed output, a passing confidence
    outside [0, 1] or a non-finite landmark of a passing box raises
    ValueError; a NaN confidence never passes.
    """
    if config is None:
        config = DetectConfig()
    rows = _scan_stage(img, scorer.stage1, config)
    return _later_stages(img, rows[_nms_pass(rows, config, 0)], scorer, config)


def largest_face(img: GrayImage, scorer, config: DetectConfig | None = None):
    """The box max(detect(img, scorer, config), key=area) gives, or None.

    When neither later NMS pass can suppress, as at the default stage_iou,
    detect's stages 2 and 3 run on the stage-1 NMS survivors one area at a
    time, largest first, and the first area with a survivor gives detect's
    first box of it.  This relies on a crop's confidence not depending on
    the other crops in its batch.  Every scored output is validated as in
    detect, though landmark shapes are compared only within one area; a box
    never shown to a scorer cannot be judged, so a bad output on it raises
    nothing.  Any other config runs detect.
    """
    if config is None:
        config = DetectConfig()
    if not (_skips(config, 1) and _skips(config, 2)):
        return max(detect(img, scorer, config), key=lambda b: b.area, default=None)
    rows = _scan_stage(img, scorer.stage1, config)
    rows = rows[_nms_pass(rows, config, 0)]
    area = (rows[:, 2] - rows[:, 0]) * (rows[:, 3] - rows[:, 1])  # as DetectionBox.area
    for size in sorted(set(area.tolist()), reverse=True):
        boxes = _later_stages(img, rows[area == size], scorer, config)
        if boxes:
            return boxes[0]
    return None


def min_face_filter(boxes, frame_width: float, ratio: float = 5.0) -> list:
    """Keep boxes at least frame_width/ratio wide (inclusive)."""
    if frame_width <= 0.0 or ratio <= 0.0:
        raise ValueError("frame_width and ratio must be positive")
    return [b for b in boxes if b.width >= frame_width / ratio]


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
