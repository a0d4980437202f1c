"""Grayscale image container and the pixel-level operations.

Images are row-major float arrays of levels in [0, 255].  Everything here is
plain numpy: bilinear resampling (one core, for a whole image or a batch of
box crops), the 4-neighbor Laplacian, the sharpness gate built on it, and
box and eye-region cropping.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

DEFAULT_PIXEL_THRESHOLD = 30.0
SHARPNESS_COUNT_FRACTION = 0.005
# one PGM header token: skip whitespace and "#" comments (to the end of their
# line), then take a run of non-whitespace that does not start a comment
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]\S*)")


@dataclass
class GrayImage:
    """(height, width) float64 levels in [0, 255]."""

    pixels: np.ndarray

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.ndim != 2 or self.pixels.size == 0:
            raise ValueError("pixels must be a non-empty 2-D array")
        if not np.isfinite(self.pixels).all():
            raise ValueError("pixels contain non-finite values")
        if (self.pixels < 0.0).any() or (self.pixels > 255.0).any():
            raise ValueError("levels must lie in [0, 255]")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def read_pgm(path) -> GrayImage:
    """Read a binary (P5) PGM file with maxval <= 255 as levels in [0, 255]."""
    with open(path, "rb") as fh:
        data = fh.read()

    pos = 0

    def next_token():
        nonlocal pos
        match = _PGM_TOKEN.match(data, pos)
        if match is None:
            raise ValueError(f"{path}: truncated PGM header")
        pos = match.end()
        return match[1]

    def next_decimal():
        token = next_token()
        if not token.isdigit():  # ASCII digits only: no sign, "_" or other digits
            raise ValueError(f"{path}: PGM header field {token!r} is not a decimal")
        return int(token)

    magic = next_token()
    if magic != b"P5":
        raise ValueError(f"{path}: not a binary PGM (magic {magic!r})")
    width, height, maxval = (next_decimal() for _ in range(3))
    if not 0 < maxval <= 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    if width < 1 or height < 1:
        raise ValueError(f"{path}: empty {width}x{height} image")
    pos += 1  # single whitespace byte after maxval
    raster = data[pos : pos + width * height]
    if len(raster) != width * height:
        raise ValueError(f"{path}: raster truncated")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    if pixels.max() > maxval:
        raise ValueError(f"{path}: sample {pixels.max()} above maxval {maxval}")
    return GrayImage(pixels * 255.0 / maxval)  # Netpbm: a sample is a share of maxval


def write_pgm(img: GrayImage, path):
    """Write a binary (P5) PGM, rounding levels to the nearest integer."""
    levels = np.clip(np.rint(img.pixels), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.width} {img.height}\n255\n".encode("ascii"))
        fh.write(levels.tobytes())


def bilinear_resize(img: GrayImage, new_width: int, new_height: int) -> GrayImage:
    """Resample with bilinear interpolation (half-pixel centers, edge clamp)."""
    whole = [[0.0, 0.0, img.width, img.height]]
    return GrayImage(crop_resize(img, whole, new_width, new_height)[0])


def crop_resize(img: GrayImage, boxes, width: int, height: int) -> np.ndarray:
    """Bilinear resamples, shape (K, height, width), of the integer crops
    (crop_bounds) of K float boxes given as rows x1, y1, x2, y2.

    Each crop is resampled on its own: half-pixel centers, clamped to the
    crop's edge, levels clipped to [0, 255].  The one-box case is
    bilinear_resize.
    """
    if width < 1 or height < 1:
        raise ValueError("target size must be positive")
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    ix1, iy1, ix2, iy2 = crop_bounds(img, *boxes.T)
    c0, c1, fx = _crop_taps(ix1, ix2 - ix1, width)
    r0, r1, fy = _crop_taps(iy1, iy2 - iy1, height)
    return _blend(img.pixels, r0[:, :, None], r1[:, :, None], fy[:, :, None],
                  c0[:, None, :], c1[:, None, :], fx[:, None, :])


def _crop_taps(start, size, n: int):
    """Per crop (start, size along one axis): the two image indices each of
    n output samples reads and the weight of the second, each shape (K, n)."""
    return _taps((np.arange(n) + 0.5) * (size / n)[:, None] - 0.5, size[:, None], start[:, None])


def _taps(s, size, start=0):
    """The two indices, offset by start, that source coordinates s, clamped
    to [0, size - 1], read, and the weight of the second."""
    s = np.clip(s, 0.0, size - 1.0)
    i0 = np.floor(s).astype(np.intp)
    return start + i0, start + np.minimum(i0 + 1, size - 1), s - i0


def _blend(p, r0, r1, fy, c0, c1, fx):
    """Bilinear blend of the four taps p[r, c], levels clipped to [0, 255]."""
    top = p[r0, c0] * (1.0 - fx) + p[r0, c1] * fx
    bottom = p[r1, c0] * (1.0 - fx) + p[r1, c1] * fx
    return np.clip(top * (1.0 - fy) + bottom * fy, 0.0, 255.0)


def laplacian(img: GrayImage) -> np.ndarray:
    """Valid 4-neighbor Laplacian responses, shape (height-2, width-2).

    Responses are signed (an isolated bright pixel gives -4*255 at its
    center), so this returns a raw array rather than an image.
    """
    if img.height < 3 or img.width < 3:
        raise ValueError("image must be at least 3x3")
    p = img.pixels
    return (p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:]
            - 4.0 * p[1:-1, 1:-1])


def sharpness_gate(img: GrayImage) -> tuple[bool, int]:
    """Count strong Laplacian responses and compare against a minimum.

    A pixel counts when |response| >= DEFAULT_PIXEL_THRESHOLD; the image
    passes when the count reaches SHARPNESS_COUNT_FRACTION of the pixel
    count, rounded, and at least 1.  Returns (passed, edge_count).
    """
    edge_count = int((np.abs(laplacian(img)) >= DEFAULT_PIXEL_THRESHOLD).sum())
    count_threshold = max(1, round(SHARPNESS_COUNT_FRACTION * img.width * img.height))
    return edge_count >= count_threshold, edge_count


def crop_bounds(img: GrayImage, x1, y1, x2, y2):
    """Integer bounds (ix1, iy1, ix2, iy2) of float boxes: floored/ceiled
    outward, clamped to the image, and at least one pixel wide and tall.

    Coordinates are scalars or equal-shape arrays; the bounds have their shape.
    """
    if not np.isfinite([x1, y1, x2, y2]).all():
        raise ValueError("box coordinates must be finite")
    ix1 = np.clip(np.floor(x1), 0, img.width - 1).astype(np.intp)
    iy1 = np.clip(np.floor(y1), 0, img.height - 1).astype(np.intp)
    ix2 = np.clip(np.ceil(x2), ix1 + 1, img.width).astype(np.intp)
    iy2 = np.clip(np.ceil(y2), iy1 + 1, img.height).astype(np.intp)
    return ix1, iy1, ix2, iy2


def crop_region(img: GrayImage, x1: float, y1: float, x2: float, y2: float) -> GrayImage:
    """Integer crop of a float box, clamped to the image bounds."""
    ix1, iy1, ix2, iy2 = crop_bounds(img, x1, y1, x2, y2)
    return GrayImage(img.pixels[iy1:iy2, ix1:ix2].copy())


def rotate_region(img: GrayImage, center, angle: float,
                  x1: int, y1: int, x2: int, y2: int) -> GrayImage:
    """Resample the rectangle [x1,x2) x [y1,y2) from the image rotated by
    -angle about center (bilinear, edge clamp).

    Output pixel (x, y) reads the source at R(angle)·((x,y) - center) + center,
    so content that sat at angle `angle` becomes horizontal.
    """
    cx, cy = float(center[0]), float(center[1])
    xs = np.arange(x1, x2, dtype=np.float64)
    ys = np.arange(y1, y2, dtype=np.float64)
    gx, gy = np.meshgrid(xs - cx, ys - cy)
    ca, sa = np.cos(angle), np.sin(angle)
    src_x, src_y = ca * gx - sa * gy + cx, sa * gx + ca * gy + cy
    return GrayImage(_blend(img.pixels, *_taps(src_y, img.height), *_taps(src_x, img.width)))


def eye_crops(face: GrayImage, left_center, right_center) -> tuple[GrayImage, GrayImage]:
    """Fixed-size eye regions around two landmarks inside a face crop.

    Crop size is (width//6) x (height//10) of the face crop (floored, at
    least 1 px); windows are centered on each landmark and shifted inside the
    face bounds when the landmark sits near an edge.
    """
    cw = max(1, face.width // 6)
    ch = max(1, face.height // 10)

    def crop_at(center):
        x0 = int(np.clip(int(round(center[0])) - cw // 2, 0, face.width - cw))
        y0 = int(np.clip(int(round(center[1])) - ch // 2, 0, face.height - ch))
        return GrayImage(face.pixels[y0 : y0 + ch, x0 : x0 + cw].copy())

    return crop_at(left_center), crop_at(right_center)
