"""Pixel-level operations: Laplacian, sharpness gate, pyramid, crops, PGM."""

import importlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotface.pipeline import (
    GrayImage,
    bilinear_resize,
    crop_region,
    eye_crops,
    image_pyramid,
    laplacian,
    read_pgm,
    rotate_region,
    sharpness_gate,
    write_pgm,
)
from cotface.pipeline import image as image_module
from cotface.pipeline.detect import WINDOW
from cotface.pipeline.image import _taps, crop_bounds, crop_resize
from oracles import read_pgm_scan, rotate_region_taps

# the module itself: `cotface.pipeline.detect` as an attribute is the function
detect_module = importlib.import_module("cotface.pipeline.detect")


def _blank(h, w, level=0.0):
    return GrayImage(np.full((h, w), level))


class TestGrayImage:
    def test_dimensions(self):
        img = _blank(4, 7)
        assert img.height == 4 and img.width == 7

    @pytest.mark.parametrize("pixels", [
        np.full((3, 3), -1.0), np.full((3, 3), 256.0),
        np.full((3, 3), np.nan), np.zeros((0, 3)), np.zeros(9),
    ])
    def test_invalid_rejected(self, pixels):
        with pytest.raises(ValueError):
            GrayImage(pixels)


class TestLaplacian:
    def test_constant_image_zero(self):
        assert not laplacian(_blank(5, 5, 128.0)).any()

    def test_centered_impulse(self):
        img = _blank(5, 5)
        img.pixels[2, 2] = 255.0
        resp = laplacian(img)
        assert resp[1, 1] == -1020.0            # center: -4 * 255
        assert resp[0, 1] == resp[2, 1] == 255.0
        assert resp[1, 0] == resp[1, 2] == 255.0
        assert resp[0, 0] == resp[2, 2] == 0.0  # diagonals untouched

    def test_affine_ramp_annihilated(self):
        y, x = np.mgrid[0:8, 0:10]
        img = GrayImage(2.0 * x + 3.0 * y + 5.0)
        np.testing.assert_allclose(laplacian(img), 0.0, atol=1e-12)

    def test_output_shape(self):
        assert laplacian(_blank(6, 9)).shape == (4, 7)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            laplacian(_blank(2, 5))


class TestSharpnessGate:
    def test_blank_image_fails(self):
        passed, count = sharpness_gate(_blank(20, 20))
        assert not passed and count == 0

    def test_checkerboard_all_interior_pixels_count(self, monkeypatch):
        monkeypatch.setattr(image_module, "DEFAULT_PIXEL_THRESHOLD", 255.0)
        y, x = np.mgrid[0:10, 0:10]
        img = GrayImage(((x + y) % 2) * 255.0)
        # every interior pixel has 4 opposite neighbors: |response| = 8*255 or 4*255
        passed, count = sharpness_gate(img)
        assert passed and count == 64

    def test_impulse_above_a_raised_pixel_threshold(self, monkeypatch):
        # only the center's |-4*255| clears 300; 25 px need 1 strong pixel
        monkeypatch.setattr(image_module, "DEFAULT_PIXEL_THRESHOLD", 300.0)
        img = _blank(5, 5)
        img.pixels[2, 2] = 255.0
        passed, count = sharpness_gate(img)
        assert passed and count == 1

    def test_default_count_threshold_scales_with_area(self):
        # 40x50 = 2000 px -> needs 10; a single impulse yields 5 strong pixels
        img = _blank(40, 50)
        img.pixels[20, 25] = 255.0
        passed, count = sharpness_gate(img)
        assert count == 5 and not passed


class TestBilinearResize:
    def test_identity(self):
        rng = np.random.default_rng(0)
        img = GrayImage(rng.uniform(0, 255, (7, 9)))
        out = bilinear_resize(img, 9, 7)
        np.testing.assert_allclose(out.pixels, img.pixels, atol=1e-12)

    def test_constant_preserved(self):
        out = bilinear_resize(_blank(8, 8, 77.0), 3, 5)
        np.testing.assert_allclose(out.pixels, 77.0, atol=1e-12)

    def test_downscale_averages(self):
        img = GrayImage(np.array([[0.0, 255.0], [0.0, 255.0]]))
        out = bilinear_resize(img, 1, 1)
        assert out.pixels[0, 0] == pytest.approx(127.5)

    def test_output_shape(self):
        out = bilinear_resize(_blank(10, 20), 13, 4)
        assert (out.height, out.width) == (4, 13)

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            bilinear_resize(_blank(4, 4), 0, 3)


class TestImagePyramid:
    def test_first_scale_maps_min_face_to_window(self):
        levels = image_pyramid(_blank(240, 240), min_face=48.0)
        assert levels[0][1] == pytest.approx(12.0 / 48.0)
        assert levels[0][0].width == 60

    def test_level_arithmetic(self):
        levels = image_pyramid(_blank(240, 240), min_face=48.0)
        scales = [s for _, s in levels]
        expected = []
        s = 12.0 / 48.0
        while 240.0 * s >= 12.0:
            expected.append(s)
            s *= 0.709
        assert scales == pytest.approx(expected)
        assert levels[1][0].width == pytest.approx(42.5, abs=0.5)

    def test_strictly_decreasing(self):
        levels = image_pyramid(_blank(100, 160), min_face=20.0)
        scales = [s for _, s in levels]
        assert all(b < a for a, b in zip(scales, scales[1:]))

    def test_tiny_image_single_or_empty(self):
        assert len(image_pyramid(_blank(13, 13), min_face=13.0)) == 1
        assert image_pyramid(_blank(13, 13), min_face=26.0) == []

    def test_a_short_side_equal_to_min_face_gets_its_level(self):
        """For 15 sides in 12..499, side * (12 / side) rounds to an ulp under
        12; each still gets its one 12 px level, as a square and as the short
        side of a frame five times as wide."""
        sides = [s for s in range(12, 500) if s * (12 / s) < 12]
        assert len(sides) == 15
        for side in sides:
            for width in (side, 5 * side):
                (level, _), = image_pyramid(_blank(side, width), min_face=float(side))
                assert (level.height, level.width) == (12, 12 * width // side)

    @settings(max_examples=200, deadline=None)
    @given(h=st.integers(1, 160), w=st.integers(1, 160), data=st.data())
    def test_every_level_covers_a_window(self, h, w, data):
        """The stage-1 scan takes every level without a size check: each is at
        least WINDOW px on both sides, with min_face at the short side too."""
        short = max(min(h, w), WINDOW / 2)
        min_face = data.draw(st.one_of(st.just(float(short)), st.floats(WINDOW / 2, 320.0)))
        for level, _ in image_pyramid(_blank(h, w), min_face):
            assert min(level.height, level.width) >= WINDOW

    def test_bad_args_rejected(self):
        with pytest.raises(ValueError):
            image_pyramid(_blank(20, 20), min_face=0.0)
        for min_face in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                image_pyramid(_blank(20, 20), min_face=min_face)

    @pytest.mark.parametrize("min_face", [5.9, 0.2, 1e-6])
    def test_min_face_below_half_a_window_allocates_nothing(self, monkeypatch, min_face):
        """At min_face 0.2 a 1 x 200 frame's first level would be 60 x 12,000."""
        def no_resize(*args):
            raise AssertionError("resampled a level it should refuse")

        monkeypatch.setattr(detect_module, "bilinear_resize", no_resize)
        with pytest.raises(ValueError, match="min_face must be finite and at least 6 px"):
            image_pyramid(_blank(200, 1), min_face=min_face)

    def test_each_level_resamples_through_detect_bilinear_resize(self, monkeypatch):
        """The pyramid looks bilinear_resize up in cotface.pipeline.detect, the
        name the traced benchmark counts calls at: one call per level."""
        calls = []

        def counting(img, w, h):
            calls.append((w, h))
            return bilinear_resize(img, w, h)

        monkeypatch.setattr(detect_module, "bilinear_resize", counting)
        levels = image_pyramid(_blank(100, 160), min_face=20.0)
        assert len(levels) > 1
        assert calls == [(level.width, level.height) for level, _ in levels]

    def test_min_face_of_half_a_window_doubles_the_frame(self):
        levels = image_pyramid(_blank(30, 40), min_face=6.0)
        assert (levels[0][0].height, levels[0][0].width, levels[0][1]) == (60, 80, 2.0)


class TestCropRegion:
    def test_integer_box(self):
        rng = np.random.default_rng(1)
        img = GrayImage(rng.uniform(0, 255, (10, 10)))
        out = crop_region(img, 2, 3, 5, 7)
        np.testing.assert_array_equal(out.pixels, img.pixels[3:7, 2:5])

    def test_fractional_box_expands(self):
        img = _blank(10, 10)
        out = crop_region(img, 1.2, 1.8, 4.4, 5.1)
        assert (out.width, out.height) == (4, 5)  # floor(1.2)..ceil(4.4)

    def test_clamped_to_bounds(self):
        out = crop_region(_blank(6, 6), -3.0, -3.0, 99.0, 99.0)
        assert (out.width, out.height) == (6, 6)


class TestCropResize:
    def test_rows_equal_per_box_crop_then_resize(self):
        # the batch is bit-identical to cutting each crop and resizing it alone
        rng = np.random.default_rng(2)
        img = GrayImage(rng.uniform(0, 255, (31, 27)))
        x1, y1 = rng.uniform(-5.0, 30.0, (2, 40))
        boxes = np.column_stack([x1, y1, x1 + rng.uniform(0.1, 25.0, 40),
                                 y1 + rng.uniform(0.1, 25.0, 40)])
        for width, height in ((24, 24), (5, 9), (1, 1)):
            out = crop_resize(img, boxes, width, height)
            assert out.shape == (40, height, width)
            for box, got in zip(boxes, out):
                want = bilinear_resize(crop_region(img, *box), width, height).pixels
                np.testing.assert_array_equal(got, want)

    def test_no_boxes(self):
        assert crop_resize(_blank(5, 5), np.empty((0, 4)), 3, 3).shape == (0, 3, 3)

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            crop_resize(_blank(4, 4), [[0.0, 0.0, 2.0, 2.0]], 3, 0)


class TestCropBounds:
    def test_arrays_match_scalars(self):
        img = _blank(10, 12)
        rng = np.random.default_rng(3)
        coords = rng.uniform(-4.0, 16.0, (4, 25))
        coords[2:] += 5.0
        bounds = crop_bounds(img, *coords)
        for k in range(25):
            assert tuple(int(b[k]) for b in bounds) == crop_bounds(img, *coords[:, k])

    @pytest.mark.parametrize("box", [(np.nan, 0.0, 3.0, 3.0), (0.0, 0.0, np.inf, 3.0)])
    def test_non_finite_rejected(self, box):
        with pytest.raises(ValueError):
            crop_region(_blank(6, 6), *box)


class TestEyeCrops:
    def test_sixth_by_tenth(self):
        face = _blank(100, 60)  # height 100, width 60
        left, right = eye_crops(face, (20, 35), (40, 35))
        assert (left.width, left.height) == (10, 10)
        assert (right.width, right.height) == (10, 10)

    def test_centering(self):
        face = GrayImage(np.arange(100.0 * 60).reshape(100, 60) % 256)
        left, _ = eye_crops(face, (30, 50), (40, 50))
        # 10x10 window centered at (30, 50): columns 25..35, rows 45..55
        np.testing.assert_array_equal(left.pixels, face.pixels[45:55, 25:35])

    def test_corner_landmark_clamped(self):
        face = _blank(100, 60)
        left, right = eye_crops(face, (0, 0), (59, 99))
        assert (left.width, left.height) == (10, 10)
        assert (right.width, right.height) == (10, 10)

    def test_minimum_size_one(self):
        left, _ = eye_crops(_blank(5, 5), (2, 2), (3, 2))
        assert left.width == 1 and left.height == 1


class TestPgm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        img = GrayImage(rng.integers(0, 256, (9, 13)).astype(np.float64))
        path = tmp_path / "img.pgm"
        write_pgm(img, path)
        loaded = read_pgm(path)
        np.testing.assert_array_equal(loaded.pixels, img.pixels)

    def test_fractional_levels_rounded(self, tmp_path):
        img = GrayImage(np.full((3, 3), 100.6))
        path = tmp_path / "img.pgm"
        write_pgm(img, path)
        assert (read_pgm(path).pixels == 101.0).all()

    def test_comments_and_whitespace_tolerated(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5 # comment\n# another\n 2 2\n255\n" + bytes([0, 64, 128, 255]))
        img = read_pgm(path)
        np.testing.assert_array_equal(img.pixels, [[0.0, 64.0], [128.0, 255.0]])

    def test_samples_are_shares_of_maxval(self, tmp_path):
        """Netpbm: a sample of maxval is white, whatever maxval is."""
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5 2 2 15\n" + bytes([0, 5, 10, 15]))
        np.testing.assert_array_equal(read_pgm(path).pixels, [[0.0, 85.0], [170.0, 255.0]])

    def test_sample_above_maxval_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5 2 2 15\n" + bytes([15, 15, 15, 16]))
        with pytest.raises(ValueError) as err:
            read_pgm(path)
        assert str(err.value) == f"{path}: sample 16 above maxval 15"

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
        with pytest.raises(ValueError, match="not a binary PGM"):
            read_pgm(path)

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes([0] * 7))
        with pytest.raises(ValueError, match="truncated"):
            read_pgm(path)

    @pytest.mark.parametrize("header", [b"P5\n1_0 1_0\n255\n", b"P5\n+2 2\n255\n",
                                        b"P5\n-2 -3\n255\n", b"P5\n0 2\n255\n"])
    def test_header_fields_are_positive_decimals(self, tmp_path, header):
        # int() reads "1_0" as 10 and "+2" as 2; "-2 -3" and a width of 0 failed
        # in numpy and GrayImage without naming the file
        path = tmp_path / "img.pgm"
        path.write_bytes(header + bytes(100))
        with pytest.raises(ValueError) as err:
            read_pgm(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_pgm(tmp_path / "absent.pgm")


# a P5 header (magic, width, height, maxval) joined by separators: a
# whitespace byte, then whitespace and newline-terminated comments
_PGM_SPACES = st.sampled_from([b" ", b"\n", b"\t", b"\r", b"\x0b", b"\x0c", b"\r\n"])
_PGM_COMMENTS = st.binary(max_size=6).map(lambda b: b"#" + b.replace(b"\n", b"") + b"\n")
_PGM_SEPARATORS = st.tuples(_PGM_SPACES, st.lists(st.one_of(_PGM_SPACES, _PGM_COMMENTS),
                                                  max_size=3)).map(lambda t: t[0] + b"".join(t[1]))
_PGM_HEADERS = st.tuples(
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 255),
    st.lists(_PGM_SEPARATORS, min_size=3, max_size=3), _PGM_SPACES)
# one edit or none: a header token swapped for an odd one, junk bytes spliced
# in (an unterminated comment, a byte that is not whitespace, ...), or the
# file cut short by some bytes
_PGM_EDITS = st.one_of(
    st.none(),
    st.tuples(st.just("swap"), st.integers(0, 3),
              st.sampled_from([b"P2", b"P5x", b"P", b"0", b"256", b"-1", b"+2", b"1_0",
                               b"02", b"x", b"1e3", b"2#c", b"\xff", b""])),
    st.tuples(st.just("junk"), st.integers(0, 40),
              st.one_of(st.sampled_from([b"#", b"#c", b"\x1c", b"\x00", b"\x85", b" "]),
                        st.binary(max_size=3))),
    st.tuples(st.just("cut"), st.integers(1, 40), st.none()))


def _pgm_result(reader, path):
    """Pixels, or the exception's type and message."""
    try:
        return reader(path).pixels.tolist()
    except ValueError as exc:  # its subclass is part of the comparison
        return type(exc), str(exc)


class TestPgmScannerOracle:
    @settings(max_examples=400, deadline=None)
    @given(header=_PGM_HEADERS, raster=st.binary(min_size=16, max_size=20), edit=_PGM_EDITS)
    def test_matches_byte_scanner(self, header, raster, edit):
        """read_pgm gives the byte scanner's pixels, or its exception type and
        message, on random headers, edits and truncations."""
        width, height, maxval, separators, last = header
        tokens = [b"P5", str(width).encode(), str(height).encode(), str(maxval).encode()]
        kind, at, piece = edit or (None, 0, None)
        if kind == "swap":
            tokens[at] = piece
        data = b"".join(t + sep for t, sep in zip(tokens, separators + [last])) + raster
        if kind == "junk":
            at %= len(data) + 1
            data = data[:at] + piece + data[at:]
        if kind == "cut":
            data = data[:max(len(data) - at, 0)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "img.pgm"
            path.write_bytes(data)
            assert _pgm_result(read_pgm, path) == _pgm_result(read_pgm_scan, path)


class TestTaps:
    def test_source_coordinates_clamp_to_the_edge(self):
        """Coordinates before 0 read the first pixel and those past size - 1
        the last, each with weight 0 on the second tap."""
        i0, i1, w = _taps(np.array([-7.5, -0.5, 0.0, 2.25, 4.0, 4.5, 1e308]), 5, start=10)
        assert i0.tolist() == [10, 10, 10, 12, 14, 14, 14]
        assert i1.tolist() == [11, 11, 11, 13, 14, 14, 14]
        assert w.tolist() == [0.0, 0.0, 0.0, 0.25, 0.0, 0.0, 0.0]


class TestRotateRegionOracle:
    @settings(max_examples=400, deadline=None)
    @given(h=st.integers(1, 12), w=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           cx=st.floats(-4.0, 16.0), cy=st.floats(-4.0, 16.0),
           angle=st.floats(-np.pi, np.pi), x1=st.integers(-4, 12), y1=st.integers(-4, 12),
           bw=st.integers(1, 10), bh=st.integers(1, 10))
    def test_same_bytes_as_the_written_out_blend(self, h, w, seed, cx, cy, angle, x1, y1, bw, bh):
        """rotate_region's shared tap and blend helpers give the bytes of the
        rotated crop with its own floor, clamp and four-tap blend."""
        img = GrayImage(np.random.default_rng(seed).uniform(0.0, 255.0, size=(h, w)))
        got = rotate_region(img, (cx, cy), angle, x1, y1, x1 + bw, y1 + bh).pixels
        want = rotate_region_taps(img, (cx, cy), angle, x1, y1, x1 + bw, y1 + bh)
        assert got.tobytes() == want.tobytes()
