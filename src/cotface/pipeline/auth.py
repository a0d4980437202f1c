"""End-to-end authentication over one frame.

Fixed stage order: the largest detected face (largest_face), minimum-size
filter, alignment, anti-spoof gate on the FULL frame, gallery match, and
finally the closed-eye check (rejecting when both eyes are closed).  Every
gate fails closed: a non-finite score from any scorer never gives "accepted".
Each stage short-circuits, so e.g. the embedder never runs on a spoofed frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# detect is not called here; perfbench/layers.py wraps it at this module's
# name, so the name stays importable from it.
from .detect import DetectConfig, align, detect, largest_face, min_face_filter  # noqa: F401
from .gallery import Gallery, match
from .image import GrayImage, eye_crops

DEFAULT_SPOOF_THRESHOLD = 0.65


@dataclass(frozen=True)
class AuthOutcome:
    """Tagged authentication verdict.

    kind is one of "no_face", "invalid_face", "stranger", "eyes_closed",
    "accepted"; the optional fields are filled per kind (spoof score for
    invalid_face, best similarity for stranger/accepted, identity for
    eyes_closed/accepted).
    """

    kind: str
    identity: str | None = None
    similarity: float | None = None
    spoof_score: float | None = None


def spoof_gate(score: float, threshold: float = DEFAULT_SPOOF_THRESHOLD) -> bool:
    """True when the frame counts as live; scores >= threshold and non-finite
    scores are fakes."""
    return bool(np.isfinite(score)) and score < threshold


@dataclass
class AuthScorers:
    """Pluggable models for the pipeline.

    detector: cascade scorer (see pipeline.detect); spoof: frame -> score in
    [0, 1] (high = fake); embedder: face crop -> unit embedding; eye_closed:
    eye crop -> score in [0, 1] (high = closed).
    """

    detector: object
    spoof: object
    embedder: object
    eye_closed: object


@dataclass
class AuthConfig:
    sim_threshold: float = 0.5
    spoof_threshold: float = DEFAULT_SPOOF_THRESHOLD
    eye_closed_threshold: float = 0.5
    min_face_ratio: float = 5.0
    detect: DetectConfig | None = None  # None: derived from the frame width


def authenticate(frame: GrayImage, gallery: Gallery, scorers: AuthScorers,
                 config: AuthConfig | None = None) -> AuthOutcome:
    """Authenticate one frame against the gallery."""
    if config is None:
        config = AuthConfig()
    det_cfg = config.detect
    if det_cfg is None:
        det_cfg = DetectConfig(min_face=frame.width / config.min_face_ratio)

    face = largest_face(frame, scorers.detector, det_cfg)
    if face is None or not min_face_filter([face], frame.width, config.min_face_ratio):
        return AuthOutcome("no_face")

    crop, landmarks = align(frame, face)

    spoof_score = float(scorers.spoof(frame))
    if not spoof_gate(spoof_score, config.spoof_threshold):
        return AuthOutcome("invalid_face", spoof_score=spoof_score)

    embedding = scorers.embedder(crop)
    identity, best_sim = match(gallery, embedding, config.sim_threshold)
    if identity is None:
        return AuthOutcome("stranger", similarity=best_sim)

    if landmarks is not None and landmarks.shape[0] >= 2:
        left, right = eye_crops(crop, landmarks[0], landmarks[1])
        scores = (float(scorers.eye_closed(left)), float(scorers.eye_closed(right)))
        # open eyes pass; a non-finite score or threshold rejects, like both eyes closed
        if not (np.isfinite(scores).all() and min(scores) < config.eye_closed_threshold):
            return AuthOutcome("eyes_closed", identity=identity)

    return AuthOutcome("accepted", identity=identity, similarity=best_sim)
