"""Detection cascade: IoU, greedy NMS, scanning, size gate, alignment."""

import importlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cotface.pipeline import (
    DetectConfig,
    DetectionBox,
    GrayImage,
    align,
    detect,
    iou,
    largest_face,
    min_face_filter,
    nms,
)
from cotface.pipeline.detect import nms_rows

from oracles import detect_per_window, nms_exhaustive

# the module itself: `cotface.pipeline.detect` as an attribute is the function
detect_module = importlib.import_module("cotface.pipeline.detect")


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

    def test_threshold_decisions_follow_iou_bits(self):
        """At a threshold equal to iou(a, b) the weaker box goes; one ulp above
        it, it stays.  This pair's IoU denominator rounds differently as
        (area_b + area_a) - inter and as area_b + (area_a - inter)."""
        a = _box(1.3, 15.0, 10.9, 18.5, 0.9)
        b = _box(5.6, 13.6, 8.5, 20.9, 0.5)
        threshold = iou(a, b)
        inter = (b.x2 - b.x1) * (a.y2 - a.y1)
        assert inter / (b.area + (a.area - inter)) != threshold
        assert nms([a, b], threshold) == [a]
        assert nms([a, b], float(np.nextafter(threshold, 1.0))) == [a, b]

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


def _brightness(crops):
    return crops.reshape(len(crops), -1).mean(axis=1) / 255.0


def _relative_landmarks(crops, rel):
    return np.broadcast_to(np.asarray(rel, dtype=np.float64), (len(crops), len(rel), 2))


class _BrightScorer:
    """Confidence = mean brightness of each crop, normalized to [0, 1]."""

    def stage1(self, crops, boxes):
        return _brightness(crops)

    def stage2(self, crops, boxes):
        return self.stage1(crops, boxes)

    def stage3(self, crops, boxes):
        return self.stage1(crops, boxes), _relative_landmarks(crops, [[0.3, 0.4], [0.7, 0.4]])


class _ZeroScorer:
    def stage1(self, crops, boxes):
        return np.zeros(len(crops))

    def stage2(self, crops, boxes):
        return np.zeros(len(crops))

    def stage3(self, crops, boxes):
        return np.zeros(len(crops)), None


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


def _fields(box):
    return (box.x1, box.y1, box.x2, box.y2, box.confidence)


class TestNmsRows:
    @settings(max_examples=200, deadline=None)
    @given(specs=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(1, 6),
                                    st.integers(1, 6), st.sampled_from([0.2, 0.5, 0.9, 1.0])),
                          max_size=8),
           threshold=st.sampled_from([0.0, 0.25, 1.0 / 3.0, 0.5, 0.7, 1.0]))
    def test_agrees_with_exhaustive_oracle_on_tied_confidences(self, specs, threshold):
        # integer boxes and quantized confidences: ties in confidence and
        # IoUs that land exactly on the threshold
        boxes = [_box(x, y, x + w, y + h, conf) for x, y, w, h, conf in specs]
        kept = list(nms_rows([_fields(b) for b in boxes], threshold))
        visiting = sorted(range(len(boxes)), key=lambda i: (-boxes[i].confidence, i))
        assert kept == [i for i in visiting if i in kept]
        assert set(kept) == nms_exhaustive(boxes, threshold, iou)

    @settings(max_examples=200, deadline=None)
    @given(specs=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(1, 6),
                                    st.integers(1, 6), st.sampled_from([0.2, 0.5, 0.9, 1.0])),
                          max_size=8),
           later=st.lists(st.tuples(st.booleans(), st.sampled_from([0.2, 0.5, 0.9, 1.0])),
                          min_size=8, max_size=8),
           first=st.sampled_from([0.0, 0.25, 1.0 / 3.0, 0.5, 0.7, 1.0]),
           rise=st.sampled_from([0.0, 1e-12, 0.1, 0.5, np.inf]))
    def test_a_pass_at_or_above_an_applied_threshold_keeps_every_row(
            self, specs, later, first, rise):
        """What detect's skip relies on: rows kept at one threshold, then some
        dropped and the rest rescored (boxes unmoved), all survive a pass at
        that threshold or above, in (-confidence, index) order."""
        rows = np.array([[x, y, x + w, y + h, c] for x, y, w, h, c in specs]).reshape(-1, 5)
        rows = rows[nms_rows(rows, first)]
        later = np.array(later, dtype=float)[: len(rows)]  # (stays, new confidence) per row
        stays = later[:, 0] == 1.0
        rows = rows[stays]
        rows[:, 4] = later[stays, 1]
        visiting = np.lexsort((np.arange(len(rows)), -rows[:, 4]))
        np.testing.assert_array_equal(nms_rows(rows, first + rise), visiting)


class _ClippedLandmarks(_BrightScorer):
    """_BrightScorer whose stage-3 landmarks leave the box and get clipped."""

    def stage3(self, crops, boxes):
        rel = [[-0.2, 0.4], [0.7, 1.3], [1.2, -0.1], [0.5, 0.55]]
        return self.stage1(crops, boxes), _relative_landmarks(crops, rel)


def _random_frame(seed, height, width, integer, faces):
    """Dark noise with up to `faces` bright squares; integer or fractional levels."""
    rng = np.random.default_rng(seed)
    pixels = rng.uniform(0.0, 90.0, (height, width))
    for _ in range(faces):
        side = int(rng.integers(6, min(height, width) + 1))
        y, x = rng.integers(0, height - side + 1), rng.integers(0, width - side + 1)
        pixels[y : y + side, x : x + side] = rng.uniform(190.0, 255.0, (side, side))
    return np.rint(pixels) if integer else pixels


def _assert_detect_matches_oracle(pixels, config):
    img, scorer = GrayImage(pixels), _ClippedLandmarks()
    got = detect(img, scorer, config)
    want = detect_per_window(img, scorer, config)
    assert [_fields(b) for b in got] == [_fields(b) for b in want]
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.landmarks, b.landmarks)


_FRAME_WITH_OVERLAPS = dict(seed=7, height=40, width=44, integer=False, stride=1,
                           min_face=14.0, faces=2)


# detect skips an NMS pass whose threshold is at least one already applied:
# the examples take a later pass below, equal to and above an earlier one, and
# a NaN threshold, which takes the full pass
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), height=st.integers(12, 48), width=st.integers(12, 48),
       integer=st.booleans(), stride=st.integers(1, 3), min_face=st.floats(12.0, 30.0),
       faces=st.integers(0, 2),
       stage_iou=st.tuples(*[st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9, np.nan])] * 3))
@example(**_FRAME_WITH_OVERLAPS, stage_iou=(0.7, 0.3, 0.5))
@example(**_FRAME_WITH_OVERLAPS, stage_iou=(0.7, 0.7, 0.7))
@example(**_FRAME_WITH_OVERLAPS, stage_iou=(0.3, 0.7, 0.9))
@example(**_FRAME_WITH_OVERLAPS, stage_iou=(0.9, 0.5, 0.1))
@example(**_FRAME_WITH_OVERLAPS, stage_iou=(0.7, np.nan, 0.7))
def test_detect_matches_per_window_oracle(seed, height, width, integer, stride, min_face, faces,
                                          stage_iou):
    _assert_detect_matches_oracle(_random_frame(seed, height, width, integer, faces),
                                  DetectConfig(min_face=min_face, stride=stride,
                                               stage_iou=stage_iou))


@pytest.mark.parametrize("stage_iou, passes", [
    ((0.7, 0.7, 0.7), [0.7]), ((0.7, 0.3, 0.5), [0.7, 0.3]), ((0.3, 0.7, 0.2), [0.3, 0.2]),
    ((0.9, 0.5, 0.1), [0.9, 0.5, 0.1]), ((0.7, np.nan, 0.7), [0.7, np.nan])])
def test_only_passes_that_can_suppress_run(monkeypatch, stage_iou, passes):
    ran = []
    run = detect_module.nms_rows
    monkeypatch.setattr(detect_module, "nms_rows", lambda rows, t: ran.append(t) or run(rows, t))
    pixels = _random_frame(7, 40, 44, False, 2)
    detect(GrayImage(pixels), _ClippedLandmarks(),
           DetectConfig(min_face=14.0, stride=1, stage_iou=stage_iou))
    np.testing.assert_array_equal(ran, passes)


@pytest.mark.parametrize("scan_batch, chunk", [(1, 1), (7, 3), (64, 8)])
def test_batch_sizes_do_not_change_the_result(monkeypatch, scan_batch, chunk):
    # a scan batch below one row of windows still scores whole rows
    monkeypatch.setattr(detect_module, "_SCAN_BATCH", scan_batch)
    monkeypatch.setattr(detect_module, "_CHUNK", chunk)
    pixels, config = _random_frame(7, 40, 44, False, 2), DetectConfig(min_face=14.0, stride=1)
    assert len(detect(GrayImage(pixels), _ClippedLandmarks(), config)) > 1
    _assert_detect_matches_oracle(pixels, config)


class _QuarterScorer(_ClippedLandmarks):
    """Brightness rounded to quarters, so boxes tie in both confidences."""

    def stage1(self, crops, boxes):
        return np.round(_brightness(crops) * 4.0) / 4.0


class _PlacedScorer(_QuarterScorer):
    """Stage-3 confidence in quarters from the box's place, not its crop, so
    it does not follow the stage-1 order."""

    def stage3(self, crops, boxes):
        conf = np.round(4.0 * ((boxes[:, 0] * 7.0 + boxes[:, 1] * 13.0) % 1.0)) / 4.0
        return conf, super().stage3(crops, boxes)[1]


_SCORERS = {"bright": _ClippedLandmarks, "quarters": _QuarterScorer, "placed": _PlacedScorer}


def _same_box(got, want):
    """Equal fields and landmarks, or both None."""
    if got is None or want is None:
        return got is want
    return _fields(got) == _fields(want) and np.array_equal(got.landmarks, want.landmarks)


# the default stage_iou takes the fast path, the others mostly fall back to detect
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), height=st.integers(12, 48), width=st.integers(12, 48),
       integer=st.booleans(), stride=st.integers(1, 3), min_face=st.floats(12.0, 30.0),
       faces=st.integers(0, 3), scorer=st.sampled_from(sorted(_SCORERS)),
       chunk=st.sampled_from([1, 3, 8]), default_config=st.booleans(),
       stage_confidences=st.sampled_from([(0.6, 0.7, 0.7), (0.5, 0.25, 0.5)]),
       stage_iou=st.one_of(st.just((0.7, 0.7, 0.7)), st.tuples(
           *[st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9, np.nan])] * 3)))
# the next two examples pick a box of the largest area that is not the first
# to survive, the second after a chunk that ends below that area
@example(seed=1692857840, height=43, width=32, integer=False, stride=3, min_face=15.2, faces=3,
         scorer="placed", chunk=1, default_config=False, stage_confidences=(0.5, 0.25, 0.5),
         stage_iou=(0.7, 0.7, 0.7))
@example(seed=352567537, height=32, width=20, integer=True, stride=3, min_face=14.6, faces=1,
         scorer="placed", chunk=3, default_config=False, stage_confidences=(0.5, 0.25, 0.5),
         stage_iou=(0.7, 0.7, 0.7))
@example(**_FRAME_WITH_OVERLAPS, scorer="quarters", chunk=3, default_config=False,
         stage_confidences=(0.5, 0.25, 0.5), stage_iou=(0.7, np.nan, 0.7))
def test_largest_face_is_the_largest_detected_box(seed, height, width, integer, stride, min_face,
                                                  faces, scorer, chunk, default_config,
                                                  stage_confidences, stage_iou):
    """largest_face gives max(detect(...), key=area), ties in area and in
    both confidences included, on either path, at any chunk size and with
    the config left out (None)."""
    img = GrayImage(_random_frame(seed, height, width, integer, faces))
    scorer = _SCORERS[scorer]()
    config = None if default_config else DetectConfig(
        min_face=min_face, stride=stride, stage_confidences=stage_confidences,
        stage_iou=stage_iou)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detect_module, "_CHUNK", chunk)
        want = max(detect(img, scorer, config), key=lambda b: b.area, default=None)
        assert _same_box(largest_face(img, scorer, config), want)


@pytest.mark.parametrize("transpose", [False, True])
def test_landmarks_on_the_box_edge_stay_inside(transpose):
    # in this frame, y1 + 1.0 * (y2 - y1) rounds one ulp past y2 for a box
    # (x1 + 1.0 * (x2 - x1) past x2 once transposed)
    pixels = _random_frame(1, 23, 22, False, 1)
    _assert_detect_matches_oracle(pixels.T if transpose else pixels,
                                  DetectConfig(min_face=19.219684455725247, stride=1))


class _Scripted:
    """Brightness batch scorer with chosen stage outputs replaced; make(k)
    gives the replacement for a batch of k.  Logs the stage of every call."""

    def __init__(self, **outputs):
        self.outputs = outputs
        self.calls = []

    def _out(self, stage, crops, default):
        self.calls.append(stage)
        make = self.outputs.get(stage)
        return default if make is None else make(len(crops))

    def stage1(self, crops, boxes):
        return self._out("stage1", crops, _brightness(crops))

    def stage2(self, crops, boxes):
        return self._out("stage2", crops, _brightness(crops))

    def stage3(self, crops, boxes):
        rel = _relative_landmarks(crops, [[0.3, 0.4], [0.7, 0.4]])
        return self._out("stage3", crops, (_brightness(crops), rel))


def _face_60():
    img = GrayImage(np.zeros((60, 60)))
    _plant(img, 20, 20, 40, 40)
    return img


def test_largest_face_rescores_only_the_largest_boxes():
    """On a frame with one large face, the fast path shows stages 2 and 3
    only the boxes of the largest area, one call each, where detect shows
    them every stage-1 survivor."""
    img = GrayImage(np.zeros((60, 60)))
    _plant(img, 8, 8, 52, 52)
    found, scorer = detect(img, _Scripted(), DetectConfig(min_face=12.0)), _Scripted()
    assert _same_box(largest_face(img, scorer, DetectConfig(min_face=12.0)),
                     max(found, key=lambda b: b.area))
    assert len(found) > 8 and scorer.calls.count("stage2") == scorer.calls.count("stage3") == 1


_NAN = float("nan")


class TestScorerContract:
    def test_unchanged_script_finds_the_face(self):
        assert len(detect(_face_60(), _Scripted(), DetectConfig(min_face=20.0))) == 1

    @pytest.mark.parametrize("stage, make", [
        ("stage1", lambda k: np.full(k + 1, 0.9)),
        ("stage1", lambda k: 0.9),
        ("stage1", lambda k: np.full((k, 1), 0.9)),
        ("stage2", lambda k: np.full(k - 1, 0.9)),
        ("stage3", lambda k: (np.full((1, k), 0.9), None)),
    ])
    def test_wrongly_shaped_confidences_raise(self, stage, make):
        with pytest.raises(ValueError, match="shape"):
            detect(_face_60(), _Scripted(**{stage: make}), DetectConfig(min_face=20.0))

    @pytest.mark.parametrize("stage, make", [
        ("stage1", lambda k: np.full(k, 1.5)),
        ("stage2", lambda k: np.full(k, 1.0 + 1e-12)),
        ("stage3", lambda k: (np.full(k, np.inf), None)),
    ])
    def test_passing_confidence_above_one_raises(self, stage, make):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            detect(_face_60(), _Scripted(**{stage: make}), DetectConfig(min_face=20.0))

    def test_passing_negative_confidence_raises(self):
        config = DetectConfig(min_face=20.0, stage_confidences=(-1.0, 0.7, 0.7))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            detect(_face_60(), _Scripted(stage1=lambda k: np.full(k, -0.5)), config)

    @pytest.mark.parametrize("stage, make", [
        ("stage1", lambda k: np.full(k, _NAN)),
        ("stage2", lambda k: np.full(k, _NAN)),
        ("stage3", lambda k: (np.full(k, _NAN), np.full((k, 2, 2), _NAN))),
        ("stage1", lambda k: np.full(k, -np.inf)),
    ])
    def test_nan_and_minus_inf_never_pass(self, stage, make):
        config = DetectConfig(min_face=20.0, stage_confidences=(0.0, 0.0, 0.0))
        assert detect(_face_60(), _Scripted(**{stage: make}), config) == []

    def test_nan_candidates_drop_out_alone(self):
        def half_nan(k):
            conf = np.full(k, 0.95)
            conf[::2] = _NAN
            return conf

        found = detect(_face_60(), _Scripted(stage1=half_nan), DetectConfig(min_face=20.0))
        assert found and all(0.0 <= b.confidence <= 1.0 for b in found)

    @pytest.mark.parametrize("make", [
        lambda k: (np.full(k, 0.9), np.array([[0.3, 0.4], [0.7, 0.4]])),  # one box's (L, 2)
        lambda k: (np.full(k, 0.9), np.full((k, 2, 3), 0.5)),
        lambda k: (np.full(k, 0.9), np.full((k + 1, 2, 2), 0.5)),
    ])
    def test_wrongly_shaped_landmarks_raise(self, make):
        with pytest.raises(ValueError, match="shape"):
            detect(_face_60(), _Scripted(stage3=make), DetectConfig(min_face=20.0))

    @pytest.mark.parametrize("value", [_NAN, np.inf, -np.inf])
    def test_non_finite_landmarks_of_a_passing_box_raise(self, value):
        make = lambda k: (np.full(k, 0.9), np.full((k, 2, 2), value))  # noqa: E731
        with pytest.raises(ValueError, match="finite"):
            detect(_face_60(), _Scripted(stage3=make), DetectConfig(min_face=20.0))

    @pytest.mark.parametrize("stage, later", [("stage1", "stage2"), ("stage2", "stage3")])
    def test_empty_stage_never_calls_the_next_scorer(self, stage, later):
        scorer = _Scripted(**{stage: lambda k: np.zeros(k)})
        assert detect(_face_60(), scorer, DetectConfig(min_face=20.0)) == []
        assert stage in scorer.calls and later not in scorer.calls


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
