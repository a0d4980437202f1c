"""Detection cascade: IoU, greedy NMS, scanning, size gate, alignment."""

import numpy as np
import pytest

from cotface.pipeline import (
    DetectConfig,
    DetectionBox,
    GrayImage,
    align,
    detect,
    iou,
    min_face_filter,
    nms,
)

from oracles import nms_exhaustive


def _box(x1, y1, x2, y2, conf=1.0, landmarks=None):
    return DetectionBox(x1, y1, x2, y2, conf, landmarks)


class TestDetectionBox:
    def test_geometry_properties(self):
        b = _box(1.0, 2.0, 4.0, 8.0)
        assert (b.width, b.height, b.area) == (3.0, 6.0, 18.0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            _box(5.0, 0.0, 5.0, 10.0)

    def test_confidence_range(self):
        with pytest.raises(ValueError):
            _box(0.0, 0.0, 1.0, 1.0, conf=1.5)

    def test_landmarks_must_sit_inside(self):
        with pytest.raises(ValueError):
            _box(0.0, 0.0, 10.0, 10.0, landmarks=[[11.0, 5.0], [5.0, 5.0]])


class TestIou:
    def test_identical(self):
        a = _box(0.0, 0.0, 4.0, 4.0)
        assert iou(a, a) == 1.0

    def test_disjoint(self):
        assert iou(_box(0.0, 0.0, 1.0, 1.0), _box(2.0, 2.0, 3.0, 3.0)) == 0.0

    def test_touching_edges_count_as_disjoint(self):
        assert iou(_box(0.0, 0.0, 1.0, 1.0), _box(1.0, 0.0, 2.0, 1.0)) == 0.0

    def test_half_overlapping_unit_squares(self):
        # intersection 0.5, union 1.5
        a = _box(0.0, 0.0, 1.0, 1.0)
        b = _box(0.5, 0.0, 1.5, 1.0)
        assert iou(a, b) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_symmetry(self):
        a = _box(0.0, 0.0, 3.0, 2.0)
        b = _box(1.0, 1.0, 5.0, 4.0)
        assert iou(a, b) == iou(b, a)


def _random_boxes(rng, n, quantize_conf):
    boxes = []
    for _ in range(n):
        x1, y1 = rng.uniform(0.0, 40.0, 2)
        w, h = rng.uniform(4.0, 30.0, 2)
        conf = rng.uniform(0.05, 1.0)
        if quantize_conf:
            conf = round(conf, 1)  # force confidence ties
        boxes.append(_box(x1, y1, x1 + w, y1 + h, conf))
    return boxes


class TestNms:
    def test_single_box_kept(self):
        b = _box(0.0, 0.0, 5.0, 5.0, 0.4)
        assert nms([b], 0.5) == [b]

    def test_duplicate_keeps_first(self):
        a = _box(0.0, 0.0, 5.0, 5.0, 0.9)
        b = _box(0.0, 0.0, 5.0, 5.0, 0.9)
        assert nms([a, b], 0.5) == [a]

    def test_lower_confidence_duplicate_suppressed(self):
        weak = _box(0.0, 0.0, 5.0, 5.0, 0.3)
        strong = _box(0.5, 0.0, 5.5, 5.0, 0.8)
        assert nms([weak, strong], 0.5) == [strong]

    def test_disjoint_boxes_all_survive_ordered_by_confidence(self):
        boxes = [
            _box(0.0, 0.0, 2.0, 2.0, 0.2),
            _box(10.0, 0.0, 12.0, 2.0, 0.9),
            _box(20.0, 0.0, 22.0, 2.0, 0.5),
        ]
        assert nms(boxes, 0.5) == [boxes[1], boxes[2], boxes[0]]

    def test_agrees_with_exhaustive_oracle(self):
        rng = np.random.default_rng(60)
        for trial in range(100):
            boxes = _random_boxes(rng, int(rng.integers(1, 7)), trial % 2 == 0)
            threshold = float(rng.uniform(0.2, 0.8))
            kept = nms(boxes, threshold)
            ids = {id(b): i for i, b in enumerate(boxes)}
            assert {ids[id(b)] for b in kept} == nms_exhaustive(boxes, threshold, iou)

    def test_kept_set_is_conflict_free_and_contains_top_box(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            boxes = _random_boxes(rng, 8, False)
            kept = nms(boxes, 0.4)
            assert max(boxes, key=lambda b: b.confidence) in kept
            for i, a in enumerate(kept):
                assert all(iou(a, b) < 0.4 for b in kept[:i])


class _BrightScorer:
    """Confidence = mean brightness of the crop, normalized to [0, 1]."""

    def stage1(self, crop, box):
        return float(crop.pixels.mean()) / 255.0

    def stage2(self, crop, box):
        return self.stage1(crop, box)

    def stage3(self, crop, box):
        return self.stage1(crop, box), np.array([[0.3, 0.4], [0.7, 0.4]])


class _ZeroScorer:
    def stage1(self, crop, box):
        return 0.0

    def stage2(self, crop, box):
        return 0.0

    def stage3(self, crop, box):
        return 0.0, None


def _plant(img, x1, y1, x2, y2):
    img.pixels[y1:y2, x1:x2] = 255.0


class TestDetect:
    def test_dark_frame_yields_nothing(self):
        img = GrayImage(np.zeros((60, 60)))
        assert detect(img, _BrightScorer(), DetectConfig(min_face=20.0)) == []

    def test_zero_scorer_yields_nothing_even_on_bright_frame(self):
        img = GrayImage(np.full((60, 60), 255.0))
        assert detect(img, _ZeroScorer(), DetectConfig(min_face=20.0)) == []

    def test_single_bright_square_found(self):
        img = GrayImage(np.zeros((60, 60)))
        _plant(img, 20, 20, 40, 40)
        found = detect(img, _BrightScorer(), DetectConfig(min_face=20.0))
        assert len(found) == 1
        best = found[0]
        cx, cy = (best.x1 + best.x2) / 2.0, (best.y1 + best.y2) / 2.0
        assert abs(cx - 30.0) <= 2.0 and abs(cy - 30.0) <= 2.0
        assert iou(best, _box(20.0, 20.0, 40.0, 40.0)) >= 0.8

    def test_landmarks_attached_in_frame_coordinates(self):
        img = GrayImage(np.zeros((60, 60)))
        _plant(img, 20, 20, 40, 40)
        best = detect(img, _BrightScorer(), DetectConfig(min_face=20.0))[0]
        assert best.landmarks is not None and best.landmarks.shape == (2, 2)
        expected = np.array([
            [best.x1 + 0.3 * best.width, best.y1 + 0.4 * best.height],
            [best.x1 + 0.7 * best.width, best.y1 + 0.4 * best.height],
        ])
        np.testing.assert_allclose(best.landmarks, expected, atol=1e-12)

    def test_two_separated_squares_found(self):
        img = GrayImage(np.zeros((60, 120)))
        _plant(img, 10, 20, 30, 40)
        _plant(img, 80, 20, 100, 40)
        found = detect(img, _BrightScorer(), DetectConfig(min_face=20.0))
        assert len(found) == 2
        centers = sorted((b.x1 + b.x2) / 2.0 for b in found)
        assert abs(centers[0] - 20.0) <= 2.0 and abs(centers[1] - 90.0) <= 2.0

    def test_boxes_clamped_to_frame(self):
        img = GrayImage(np.full((30, 30), 255.0))
        for b in detect(img, _BrightScorer(), DetectConfig(min_face=15.0)):
            assert 0.0 <= b.x1 < b.x2 <= 30.0
            assert 0.0 <= b.y1 < b.y2 <= 30.0


class TestMinFaceFilter:
    def test_inclusive_threshold(self):
        frame_w = 100.0
        quarter = _box(0.0, 0.0, 25.0, 25.0)   # width W/4
        fifth = _box(0.0, 0.0, 20.0, 25.0)     # width exactly W/5
        sixth = _box(0.0, 0.0, 100.0 / 6.0, 25.0)
        kept = min_face_filter([quarter, fifth, sixth], frame_w, ratio=5.0)
        assert kept == [quarter, fifth]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            min_face_filter([], 0.0)
        with pytest.raises(ValueError):
            min_face_filter([], 100.0, ratio=-1.0)


def _gradient_image(h=100, w=100):
    y, x = np.mgrid[0:h, 0:w]
    return GrayImage((x * 1.7 + y * 0.9) % 255.0)


class TestAlign:
    def test_level_eyes_reduce_to_plain_crop(self):
        img = _gradient_image()
        lm = np.array([[30.0, 40.0], [50.0, 40.0], [40.0, 50.0]])
        crop, out = align(img, _box(20.0, 25.0, 60.0, 65.0, landmarks=lm))
        np.testing.assert_allclose(crop.pixels, img.pixels[25:65, 20:60], atol=1e-9)
        np.testing.assert_allclose(out, lm - [20.0, 25.0], atol=1e-12)

    def test_no_landmarks_returns_crop_and_none(self):
        img = _gradient_image()
        crop, out = align(img, _box(10.2, 20.7, 30.1, 40.5))
        assert out is None
        np.testing.assert_array_equal(crop.pixels, img.pixels[20:41, 10:31])

    def test_45_degree_eyes_become_level(self):
        img = _gradient_image()
        lm = np.array([[10.0, 10.0], [20.0, 20.0]])
        _, out = align(img, _box(5.0, 5.0, 25.0, 25.0, landmarks=lm))
        assert abs(out[0, 1] - out[1, 1]) <= 0.5
        # distance between the eyes is preserved by the rotation
        assert np.linalg.norm(out[1] - out[0]) == pytest.approx(np.sqrt(200.0), rel=1e-12)
        assert out[1, 0] > out[0, 0]

    def test_random_rolls_all_level_within_half_pixel(self):
        rng = np.random.default_rng(62)
        img = GrayImage(np.zeros((100, 100)))
        for _ in range(1000):
            while True:
                left = rng.uniform(25.0, 75.0, 2)
                right = rng.uniform(25.0, 75.0, 2)
                if right[0] > left[0] and np.linalg.norm(right - left) >= 2.0:
                    break
            lo = np.minimum(left, right)
            hi = np.maximum(left, right)
            box = _box(lo[0] - 15.0, lo[1] - 15.0, hi[0] + 15.0, hi[1] + 15.0,
                       landmarks=np.stack([left, right]))
            _, out = align(img, box)
            assert abs(out[0, 1] - out[1, 1]) <= 0.5

    def test_realigning_measures_zero_roll(self):
        img = _gradient_image()
        lm = np.array([[35.0, 30.0], [55.0, 42.0]])
        crop, out = align(img, _box(25.0, 20.0, 65.0, 55.0, landmarks=lm))
        second = _box(0.0, 0.0, float(crop.width), float(crop.height), landmarks=out)
        _, out2 = align(crop, second)
        angle = np.arctan2(out2[1, 1] - out2[0, 1], out2[1, 0] - out2[0, 0])
        assert abs(angle) <= 1e-9
