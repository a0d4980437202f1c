"""Enrollment gallery: named identities holding up to five unit embeddings.

A gallery is one float64 (capacity, d) matrix whose first E rows are the
embeddings in enrollment order, an owner array giving each row's identity
rank (identities ranked by first enrollment), and each identity's row list.
enroll writes one row, growing the capacity by half when full, so E enrolls
copy the matrix O(log E) times.  match scores all rows with one einsum and,
among the rows equal to the best similarity, takes the smallest owner rank:
ties go to the identity enrolled first, then to its earliest embedding.  Not
BLAS gemv (`rows @ probe`): it sums blocks of rows in different orders, so
identical rows at different positions can score different bits and break
that rule; einsum sums every row alike.

The on-disk format is line-oriented text: a magic+version line, the identity
count, then per identity its name, "dim count", and one embedding per line as
17-significant-digit decimals, which round-trip float64 exactly.  enroll and
load_gallery admit only finite unit embeddings of one dim, so match can trust
every row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..angular import l2_normalize

MAGIC = "facegallery"
VERSION = 1
MAX_EMBEDDINGS_PER_IDENTITY = 5
UNIT_NORM_TOLERANCE = 1e-6  # largest |norm - 1| a stored embedding may have


class GalleryFormatError(ValueError):
    """Raised when a gallery file cannot be parsed."""


class Gallery:
    """Unit embeddings as the rows of one matrix; see the module docstring."""

    def __init__(self):
        self._rows, self._owner, self._size = np.empty((0, 0)), np.empty(0, np.intp), 0
        self._names: list[str] = []                       # rank -> name
        self._ids: dict[str, tuple[int, list[int]]] = {}  # name -> (rank, its rows)

    @property
    def identities(self) -> dict:
        """name -> read-only views of its embeddings, both in enrollment order."""
        rows = self._rows[: self._size]
        rows.flags.writeable = False
        return {name: [rows[i] for i in ids] for name, (_, ids) in self._ids.items()}

    @property
    def dim(self) -> int | None:
        return self._rows.shape[1] if self._size else None

    def total_embeddings(self) -> int:
        return self._size

    def _append(self, name: str, unit: np.ndarray):
        n = self._size
        if n == len(self._rows):
            capacity = max(8, n + n // 2)
            rows, owner = np.empty((capacity, unit.size)), np.empty(capacity, np.intp)
            if n:
                rows[:n], owner[:n] = self._rows, self._owner
            self._rows, self._owner = rows, owner
        if name not in self._ids:
            self._ids[name] = (len(self._names), [])
            self._names.append(name)
        rank, ids = self._ids[name]
        self._rows[n], self._owner[n] = unit, rank
        ids.append(n)
        self._size = n + 1


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
    the gallery unchanged; so does a name the file cannot hold as one UTF-8
    line: an empty one, one with a lone surrogate, or one with any line break
    str.splitlines knows (\r, \v, \f, \x1c-\x1e, U+0085, U+2028, ... as well
    as \n), since load_gallery splits the file with it.
    """
    if name.splitlines() != [name] or name.encode("utf-8", "replace").decode("utf-8") != name:
        raise ValueError("identity name must be non-empty, single-line and UTF-8 encodable")
    count = len(gallery._ids[name][1]) if name in gallery._ids else 0
    if not sharpness_ok:
        return EnrollResult(False, "blurry", count)
    if count >= MAX_EMBEDDINGS_PER_IDENTITY:
        return EnrollResult(False, "capacity", count)
    embedding = np.asarray(embedding, dtype=np.float64)
    if not np.isfinite(embedding).all():
        raise ValueError("embedding contains non-finite values")
    unit = l2_normalize(embedding)
    if not abs(np.linalg.norm(unit) - 1.0) <= UNIT_NORM_TOLERANCE:  # ||embedding|| overflowed
        raise ValueError("embedding norm overflows float64")
    if gallery.dim is not None and unit.size != gallery.dim:
        raise ValueError(f"embedding dim {unit.size} != gallery dim {gallery.dim}")
    gallery._append(name, unit)
    return EnrollResult(True, None, count + 1)


def match(gallery: Gallery, probe, sim_threshold: float = 0.5):
    """Best cosine match over every stored embedding.

    Returns (identity, best_similarity); identity is None (stranger) when the
    best similarity is non-finite or falls below sim_threshold.  Ties keep the
    earliest enrolled identity.  An empty gallery reports (None, -1.0).
    """
    probe = l2_normalize(probe)
    n = gallery._size
    if not n:
        return None, -1.0
    sims = np.einsum("ij,j->i", gallery._rows[:n], probe)  # row-consistent bits; see module doc
    best_sim = float(sims.max())  # NaN when the probe is non-finite
    if not np.isfinite(best_sim) or best_sim < sim_threshold:
        return None, best_sim
    return gallery._names[gallery._owner[:n][sims == best_sim].min()], best_sim


def _text_lines(gallery: Gallery):
    """The gallery file, one "\\n"-terminated line at a time."""
    yield f"{MAGIC} {VERSION}\n{len(gallery._names)}\n"
    row_format = " ".join(["%.17g"] * (gallery.dim or 0)) + "\n"
    for name, (_, ids) in gallery._ids.items():
        yield f"{name}\n{gallery.dim if ids else 0} {len(ids)}\n"
        for i in ids:
            yield row_format % tuple(gallery._rows[i].tolist())


def gallery_to_text(gallery: Gallery) -> str:
    return "".join(_text_lines(gallery))


def save_gallery(gallery: Gallery, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_text_lines(gallery))


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
    dim, n, pos = None, 0, 2
    for rank in range(n_identities):  # the headers first, so that the matrix is allocated once
        name = take(pos)
        if not name:
            raise GalleryFormatError(f"{path}: empty identity name")
        try:
            dim_s, count_s = take(pos + 1).split()
            name_dim, count = int(dim_s), int(count_s)
        except ValueError as exc:
            raise GalleryFormatError(f"{path}: bad 'dim count' line for {name!r}") from exc
        if not 0 <= count <= MAX_EMBEDDINGS_PER_IDENTITY:
            raise GalleryFormatError(f"{path}: {name!r} count {count} breaks the embedding cap")
        if count and dim not in (None, name_dim):
            raise GalleryFormatError(f"{path}: {name!r} has dim {name_dim}, gallery dim {dim}")
        if name in gallery._ids:
            raise GalleryFormatError(f"{path}: duplicate identity {name!r}")
        dim = name_dim if count else dim
        gallery._names.append(name)
        gallery._ids[name] = (rank, list(range(n, n + count)))
        n += count
        pos += 2 + count
    if pos > len(lines):
        raise GalleryFormatError(f"{path}: truncated gallery file")

    # Row i, of the identity of rank r, is line 4 + 2r + i.  The matrix is
    # allocated after the first row's length checks out, so that a huge
    # declared dim allocates nothing.
    rows, owner = np.empty((0, 0)), np.empty(n, np.intp)
    for name, (rank, ids) in gallery._ids.items():
        for i in ids:
            try:
                values = list(map(float, lines[4 + 2 * rank + i].split()))
            except ValueError as exc:
                raise GalleryFormatError(f"{path}: non-numeric embedding for {name!r}") from exc
            if len(values) != dim:
                raise GalleryFormatError(f"{path}: embedding length != {dim} for {name!r}")
            if not i:
                rows = np.empty((n, dim))
            rows[i], owner[i] = values, rank
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_NORM_TOLERANCE))  # NaN and inf fail too
    if bad.size:
        name, norm = gallery._names[owner[bad[0]]], float(norms[bad[0]])
        raise GalleryFormatError(f"{path}: embedding of {name!r} has norm {norm!r}, not 1")
    gallery._rows, gallery._owner, gallery._size = rows, owner, n
    return gallery
