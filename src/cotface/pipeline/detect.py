"""Sliding-window face detection: pyramid scan, NMS, cascade, alignment.

The detector is a three-stage rescoring cascade over pluggable scorers: a
12 px window scans every pyramid level, survivors are re-scored on 24 px and
then 48 px crops (the last stage also predicts landmarks), with greedy NMS
after each stage.  Scorers receive the crop and the candidate box in original
image coordinates, so they can be learned models or synthetic test probes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .image import (GrayImage, bilinear_resize, crop_bounds, crop_region, image_pyramid,
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


def nms(boxes, iou_threshold: float) -> list:
    """Greedy non-maximum suppression.

    Candidates are visited by descending confidence (ties by lower input
    index); each is kept unless it overlaps an already-kept box with
    IoU >= iou_threshold.  Kept boxes are returned in visiting order.
    """
    order = sorted(range(len(boxes)), key=lambda i: (-boxes[i].confidence, i))
    kept = []
    for i in order:
        if all(iou(boxes[i], k) < iou_threshold for k in kept):
            kept.append(boxes[i])
    return kept


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


def _scan_stage(img, scorer, config):
    """Stage 1: score every 12 px window of every pyramid level."""
    candidates = []
    for level, scale in image_pyramid(img, config.min_face, config.scale_factor, _WINDOW):
        if level.width < _WINDOW or level.height < _WINDOW:
            continue
        for y0 in range(0, level.height - _WINDOW + 1, config.stride):
            for x0 in range(0, level.width - _WINDOW + 1, config.stride):
                crop = GrayImage(level.pixels[y0 : y0 + _WINDOW, x0 : x0 + _WINDOW].copy())
                box = DetectionBox(
                    x1=min(x0 / scale, img.width - 1.0),
                    y1=min(y0 / scale, img.height - 1.0),
                    x2=min((x0 + _WINDOW) / scale, float(img.width)),
                    y2=min((y0 + _WINDOW) / scale, float(img.height)),
                    confidence=0.0,
                )
                conf = float(scorer.stage1(crop, box))
                if conf >= config.stage_confidences[0]:
                    candidates.append(replace(box, confidence=conf))
    return candidates


def _rescore_stage(img, boxes, scorer, stage: int, size: int, threshold: float):
    """Stages 2/3: re-score fixed-size crops; stage 3 adds landmarks."""
    survivors = []
    for box in boxes:
        crop = bilinear_resize(crop_region(img, box.x1, box.y1, box.x2, box.y2), size, size)
        if stage == 2:
            conf = float(scorer.stage2(crop, box))
            landmarks = None
        else:
            conf, rel = scorer.stage3(crop, box)
            conf = float(conf)
            landmarks = None
            if rel is not None:
                rel = np.clip(np.asarray(rel, dtype=np.float64), 0.0, 1.0)
                landmarks = np.column_stack([
                    box.x1 + rel[:, 0] * box.width,
                    box.y1 + rel[:, 1] * box.height,
                ])
        if conf >= threshold:
            survivors.append(replace(box, confidence=conf, landmarks=landmarks))
    return survivors


def detect(img: GrayImage, scorer, config: DetectConfig | None = None) -> list:
    """Run the full three-stage cascade; returns the surviving boxes.

    scorer must provide stage1(crop, box) -> confidence,
    stage2(crop, box) -> confidence, and stage3(crop, box) ->
    (confidence, landmarks) with landmarks either None or (k, 2) coordinates
    relative to the box in [0, 1].
    """
    if config is None:
        config = DetectConfig()
    boxes = _scan_stage(img, scorer, config)
    boxes = nms(boxes, config.stage_iou[0])
    boxes = _rescore_stage(img, boxes, scorer, 2, 24, config.stage_confidences[1])
    boxes = nms(boxes, config.stage_iou[1])
    boxes = _rescore_stage(img, boxes, scorer, 3, 48, config.stage_confidences[2])
    return nms(boxes, config.stage_iou[2])


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
