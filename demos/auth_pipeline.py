"""Drive the whole authentication pipeline on synthetic frames.

A "face" here is just a bright square on a dark background so that a batch
cascade scorer that rates each crop by its mean brightness can find it.  The point is the plumbing: sharpness
gate, pyramid scan, NMS, alignment, gallery, spoof gate, eye check.
"""

import numpy as np

from cotface.pipeline import (
    AuthConfig,
    AuthScorers,
    DetectConfig,
    Gallery,
    GrayImage,
    authenticate,
    detect,
    enroll,
    gallery_to_text,
    image_pyramid,
    match,
    sharpness_gate,
)


class BrightnessCascade:
    """Batch scorer: each crop's confidence is its mean brightness / 255."""

    def stage1(self, crops, boxes):
        return crops.reshape(len(crops), -1).mean(axis=1) / 255.0

    stage2 = stage1

    def stage3(self, crops, boxes):
        # eyes level at 35% height, the same two landmarks for every crop
        eyes = np.array([[0.3, 0.35], [0.7, 0.35]])
        return self.stage1(crops, boxes), np.broadcast_to(eyes, (len(crops), 2, 2))


def make_frame(face_at=(20, 20), size=(60, 60)):
    img = GrayImage(np.zeros(size))
    y, x = face_at
    img.pixels[y:y + 20, x:x + 20] = 255.0
    return img


frame = make_frame()
print("frame:", frame.width, "x", frame.height)

ok, edges = sharpness_gate(frame)
print(f"sharpness gate: {'pass' if ok else 'fail'} ({edges} edge pixels)")

levels = image_pyramid(frame, min_face=20.0)
print("pyramid levels:", [(lvl.width, round(s, 3)) for lvl, s in levels])

boxes = detect(frame, BrightnessCascade(), DetectConfig(min_face=20.0))
print(f"detected {len(boxes)} box(es):")
for b in boxes:
    print(f"  ({b.x1:.1f},{b.y1:.1f})-({b.x2:.1f},{b.y2:.1f}) conf {b.confidence:.3f}")
print()

# enroll two identities; the embedder is faked with fixed unit vectors
gallery = Gallery()
enroll(gallery, "alice", np.array([1.0, 0.0, 0.0]))
enroll(gallery, "alice", np.array([0.98, 0.1, 0.0]))
enroll(gallery, "bob", np.array([0.0, 1.0, 0.0]))
print("gallery file:")
print(gallery_to_text(gallery))

name, sim = match(gallery, np.array([0.9, 0.05, 0.1]))
print(f"probe matched {name} at similarity {sim:.4f}")
print()


def run(title, spoof_score=0.1, embedding=None, eye_score=0.0, frame_override=None):
    scorers = AuthScorers(
        detector=BrightnessCascade(),
        spoof=lambda img: spoof_score,
        embedder=lambda crop: embedding if embedding is not None else np.array([1.0, 0.0, 0.0]),
        eye_closed=lambda crop: eye_score,
    )
    config = AuthConfig(detect=DetectConfig(min_face=20.0))
    out = authenticate(frame_override if frame_override is not None else frame,
                       gallery, scorers, config)
    fields = {k: v for k, v in (("identity", out.identity),
                                ("similarity", out.similarity),
                                ("spoof_score", out.spoof_score)) if v is not None}
    print(f"{title:<28} -> {out.kind}  {fields}")


run("live enrolled face")
run("spoofed frame", spoof_score=0.9)
run("spoof score at cutoff", spoof_score=0.65)
run("unknown face", embedding=np.array([0.0, 0.0, 1.0]))
run("both eyes closed", eye_score=1.0)
run("empty frame", frame_override=GrayImage(np.zeros((60, 60))))
