"""Enrollment gallery: named identities holding up to five unit embeddings.

The on-disk format is line-oriented text: a magic+version line, the identity
count, then per identity its name, "dim count", and one embedding per line as
17-significant-digit decimals, which round-trip float64 exactly.  Insertion
order encodes enrollment order both in memory and on disk; match ties are
broken in favor of the earliest-enrolled identity.  enroll and load_gallery
admit only finite unit embeddings of one dim, so match can trust every row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..angular import l2_normalize

MAGIC = "facegallery"
VERSION = 1
MAX_EMBEDDINGS_PER_IDENTITY = 5
UNIT_NORM_TOLERANCE = 1e-6  # largest |norm - 1| a stored embedding may have


class GalleryFormatError(ValueError):
    """Raised when a gallery file cannot be parsed."""


@dataclass
class Gallery:
    """identities: name -> list of unit embeddings (enrollment order)."""

    identities: dict = field(default_factory=dict)

    @property
    def dim(self) -> int | None:
        for embeddings in self.identities.values():
            if embeddings:
                return embeddings[0].size
        return None

    def total_embeddings(self) -> int:
        return sum(len(v) for v in self.identities.values())


@dataclass(frozen=True)
class EnrollResult:
    accepted: bool
    reason: str | None
    count: int


def enroll(gallery: Gallery, name: str, embedding, sharpness_ok: bool = True) -> EnrollResult:
    """Add one embedding (re-normalized) for an identity.

    Rejected with reason "blurry" when the sharpness gate failed upstream and
    "capacity" when the identity already holds the maximum; the gallery is
    unchanged on rejection.  A non-finite embedding, one whose norm overflows,
    or one whose dim differs from the gallery's raises ValueError, also leaving
    the gallery unchanged.
    """
    if not name or "\n" in name:
        raise ValueError("identity name must be non-empty and single-line")
    current = gallery.identities.get(name, [])
    if not sharpness_ok:
        return EnrollResult(False, "blurry", len(current))
    if len(current) >= MAX_EMBEDDINGS_PER_IDENTITY:
        return EnrollResult(False, "capacity", len(current))
    embedding = np.asarray(embedding, dtype=np.float64)
    if not np.isfinite(embedding).all():
        raise ValueError("embedding contains non-finite values")
    unit = l2_normalize(embedding)
    if not abs(np.linalg.norm(unit) - 1.0) <= UNIT_NORM_TOLERANCE:  # ||embedding|| overflowed
        raise ValueError("embedding norm overflows float64")
    if gallery.dim is not None and unit.size != gallery.dim:
        raise ValueError(f"embedding dim {unit.size} != gallery dim {gallery.dim}")
    gallery.identities.setdefault(name, []).append(unit)
    return EnrollResult(True, None, len(gallery.identities[name]))


def match(gallery: Gallery, probe, sim_threshold: float = 0.5):
    """Best cosine match over every stored embedding.

    Returns (identity, best_similarity); identity is None (stranger) when the
    best similarity is non-finite or falls below sim_threshold.  Ties keep the
    earliest enrolled identity.  An empty gallery reports (None, -1.0).
    """
    probe = l2_normalize(probe)
    best_name, best_sim = None, -1.0
    found = False
    for name, embeddings in gallery.identities.items():
        for emb in embeddings:
            sim = float(np.dot(probe, emb))
            if not found or sim > best_sim:
                best_name, best_sim, found = name, sim, True
    if not found or not np.isfinite(best_sim) or best_sim < sim_threshold:
        return None, best_sim
    return best_name, best_sim


def gallery_to_text(gallery: Gallery) -> str:
    lines = [f"{MAGIC} {VERSION}", str(len(gallery.identities))]
    for name, embeddings in gallery.identities.items():
        dim = embeddings[0].size if embeddings else 0
        lines.append(name)
        lines.append(f"{dim} {len(embeddings)}")
        for emb in embeddings:
            lines.append(" ".join(f"{v:.17g}" for v in emb))
    return "\n".join(lines) + "\n"


def save_gallery(gallery: Gallery, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(gallery_to_text(gallery))


def load_gallery(path) -> Gallery:
    """Parse a gallery file; embeddings round-trip bit-exactly.

    Raises GalleryFormatError for any malformed content, including a
    non-finite embedding, one whose norm differs from 1 by more than
    UNIT_NORM_TOLERANCE, and a dim that differs from the first identity's.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()

    def take(i):
        if i >= len(lines):
            raise GalleryFormatError(f"{path}: truncated gallery file")
        return lines[i]

    header = take(0).split()
    if len(header) != 2 or header[0] != MAGIC:
        raise GalleryFormatError(f"{path}: bad magic line {take(0)!r}")
    if header[1] != str(VERSION):
        raise GalleryFormatError(f"{path}: unsupported version {header[1]!r}")
    try:
        n_identities = int(take(1))
    except ValueError as exc:
        raise GalleryFormatError(f"{path}: bad identity count") from exc
    if n_identities < 0:
        raise GalleryFormatError(f"{path}: bad identity count {n_identities}")

    gallery = Gallery()
    pos = 2
    for _ in range(n_identities):
        name = take(pos)
        if not name:
            raise GalleryFormatError(f"{path}: empty identity name")
        try:
            dim_s, count_s = take(pos + 1).split()
            dim, count = int(dim_s), int(count_s)
        except ValueError as exc:
            raise GalleryFormatError(f"{path}: bad 'dim count' line for {name!r}") from exc
        if not 0 <= count <= MAX_EMBEDDINGS_PER_IDENTITY:
            raise GalleryFormatError(f"{path}: {name!r} count {count} breaks the embedding cap")
        if count and gallery.dim not in (None, dim):
            raise GalleryFormatError(f"{path}: {name!r} has dim {dim}, gallery dim {gallery.dim}")
        pos += 2
        embeddings = []
        for _ in range(count):
            line = take(pos)
            try:
                values = np.array([float(v) for v in line.split()])
            except ValueError as exc:
                raise GalleryFormatError(f"{path}: non-numeric embedding for {name!r}") from exc
            if values.size != dim:
                raise GalleryFormatError(f"{path}: embedding length != {dim} for {name!r}")
            norm = float(np.linalg.norm(values))
            if not abs(norm - 1.0) <= UNIT_NORM_TOLERANCE:  # `not <=` also rejects NaN
                raise GalleryFormatError(f"{path}: embedding of {name!r} has norm {norm!r}, not 1")
            embeddings.append(values)
            pos += 1
        if name in gallery.identities:
            raise GalleryFormatError(f"{path}: duplicate identity {name!r}")
        gallery.identities[name] = embeddings
    return gallery
