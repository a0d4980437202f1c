"""End-to-end authentication over one frame.

Fixed stage order: the largest face (largest_face rescores only the largest
stage-1 survivors), kept if at least frame width / min_face_ratio wide,
alignment, anti-spoof gate on the FULL frame, gallery match, and finally the
closed-eye check (rejecting when both eyes are closed).  Every gate fails
closed: a non-finite score from any scorer never gives "accepted".  Each
stage short-circuits, so e.g. the embedder never runs on a spoofed frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# detect is not called here; perfbench/layers.py wraps it at this module's
# name, so the name stays importable from it.
from .detect import align, detect, largest_face  # noqa: F401
from .gallery import Gallery, match
from .image import GrayImage, eye_crops

DEFAULT_SPOOF_THRESHOLD = 0.65  # spoof scores at or above it are fakes
EYE_CLOSED_THRESHOLD = 0.5  # an eye scoring at or above it is closed


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


def spoof_gate(score: float) -> bool:
    """True when the frame counts as live: a finite score under DEFAULT_SPOOF_THRESHOLD."""
    return bool(np.isfinite(score)) and score < DEFAULT_SPOOF_THRESHOLD


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
    min_face_ratio: float = 5.0  # the smallest face is frame width / min_face_ratio

    def __post_init__(self):
        if not 0.0 < self.min_face_ratio < np.inf:
            raise ValueError("min_face_ratio must be finite and positive")


def authenticate(frame: GrayImage, gallery: Gallery, scorers: AuthScorers,
                 config: AuthConfig | None = None) -> AuthOutcome:
    """Authenticate one frame against the gallery.

    The smallest face is frame.width / config.min_face_ratio; it sets the
    scan's pyramid, which raises ValueError when it is below 6 px.
    """
    if config is None:
        config = AuthConfig()
    min_face = frame.width / config.min_face_ratio
    face = largest_face(frame, scorers.detector, min_face)
    # An unclamped first-level box is 12 / scale wide in exact arithmetic:
    # min_face to within one ulp of it, and a level exists only if min_face
    # is about frame.width or less.  Its two edges and their difference, all
    # at most frame.width, round by half an ulp of frame.width each, so the
    # box is short of min_face by at most 2.5 such ulps.  A box the frame
    # edge clamped by more than that is dropped.
    if face is None or face.width < min_face - 3 * math.ulp(frame.width):
        return AuthOutcome("no_face")

    crop, landmarks = align(frame, face)

    spoof_score = float(scorers.spoof(frame))
    if not spoof_gate(spoof_score):
        return AuthOutcome("invalid_face", spoof_score=spoof_score)

    embedding = scorers.embedder(crop)
    identity, best_sim = match(gallery, embedding, config.sim_threshold)
    if identity is None:
        return AuthOutcome("stranger", similarity=best_sim)

    if landmarks is not None and landmarks.shape[0] >= 2:
        left, right = eye_crops(crop, landmarks[0], landmarks[1])
        scores = (float(scorers.eye_closed(left)), float(scorers.eye_closed(right)))
        # open eyes pass; a non-finite score rejects, like both eyes closed
        if not (np.isfinite(scores).all() and min(scores) < EYE_CLOSED_THRESHOLD):
            return AuthOutcome("eyes_closed", identity=identity)

    return AuthOutcome("accepted", identity=identity, similarity=best_sim)
