"""Enrollment gallery: named identities holding up to five unit embeddings.

The on-disk format is line-oriented text: a magic+version line, the identity
count, then per identity its name, "dim count", and one embedding per line as
17-significant-digit decimals, which round-trip float64 exactly.  Insertion
order encodes enrollment order both in memory and on disk; match ties are
broken in favor of the earliest-enrolled identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..angular import l2_normalize

MAGIC = "facegallery"
VERSION = 1
MAX_EMBEDDINGS_PER_IDENTITY = 5


class GalleryFormatError(ValueError):
    """Raised when a gallery file cannot be parsed."""


@dataclass
class Gallery:
    """identities: name -> list of unit embeddings (enrollment order).

    enrolled_at mirrors the structure with monotonically increasing sequence
    numbers (re-derived from file order on load).
    """

    identities: dict = field(default_factory=dict)
    enrolled_at: dict = field(default_factory=dict)
    next_seq: int = 0

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
    unchanged on rejection.
    """
    if not name or "\n" in name:
        raise ValueError("identity name must be non-empty and single-line")
    current = gallery.identities.get(name, [])
    if not sharpness_ok:
        return EnrollResult(False, "blurry", len(current))
    if len(current) >= MAX_EMBEDDINGS_PER_IDENTITY:
        return EnrollResult(False, "capacity", len(current))
    unit = l2_normalize(embedding)
    if gallery.dim is not None and unit.size != gallery.dim:
        raise ValueError(f"embedding dim {unit.size} != gallery dim {gallery.dim}")
    gallery.identities.setdefault(name, []).append(unit)
    gallery.enrolled_at.setdefault(name, []).append(gallery.next_seq)
    gallery.next_seq += 1
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
    """Parse a gallery file; embeddings round-trip bit-exactly."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()

    def take(i):
        if i >= len(lines):
            raise GalleryFormatError(f"{path}: truncated gallery file")
        return lines[i]

    header = take(0).split()
    if len(header) != 2 or header[0] != MAGIC:
        raise GalleryFormatError(f"{path}: bad magic line {take(0)!r}")
    if int(header[1]) != VERSION:
        raise GalleryFormatError(f"{path}: unsupported version {header[1]}")
    try:
        n_identities = int(take(1))
    except ValueError as exc:
        raise GalleryFormatError(f"{path}: bad identity count") from exc

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
        if count > MAX_EMBEDDINGS_PER_IDENTITY:
            raise GalleryFormatError(f"{path}: {name!r} exceeds the embedding cap")
        pos += 2
        embeddings = []
        for _ in range(count):
            values = np.array([float(v) for v in take(pos).split()])
            if values.size != dim:
                raise GalleryFormatError(f"{path}: embedding length != {dim} for {name!r}")
            embeddings.append(values)
            pos += 1
        if name in gallery.identities:
            raise GalleryFormatError(f"{path}: duplicate identity {name!r}")
        gallery.identities[name] = embeddings
        gallery.enrolled_at[name] = list(range(gallery.next_seq, gallery.next_seq + count))
        gallery.next_seq += count
    return gallery
