"""Enrollment gallery: named identities holding up to five unit embeddings.

A gallery is one float64 (capacity, d) matrix whose first E rows are the
embeddings in enrollment order, an owner array giving each row's identity
rank (identities ranked by first enrollment), and each identity's row list.
enroll and load_gallery fill it only through _register, which ranks a name,
_append, which writes a row and grows the capacity by half when full, so E
rows copy the matrix O(log E) times, and _claim, which gives rows already
written (read from a row companion) to a name.  match scores all rows
with one einsum and, among the rows equal to the best similarity, takes the
smallest owner rank: ties go to the identity enrolled first, then to its
earliest embedding.  Not BLAS gemv (`rows @ probe`): it sums blocks of rows
in different orders, so identical rows at different positions can score
different bits and break that rule; einsum sums every row alike.

The on-disk format is line-oriented text: a magic+version line, the identity
count, then per identity its name, "dim count", and one embedding per line as
17-significant-digit decimals, which round-trip float64 exactly.  Both fillers
admit only finite unit embeddings of one dim, so match can trust every row.
The rows are "%.17g" % x per value, rendered _TEXT_CHUNK identities at a time
by floattext.format_rows, the one exact renderer that also writes far_frr.csv.

Beside the text G, save_gallery writes a binary companion G.rows holding the
identity table (names and counts) and the rows.  When it was written for
exactly this text and its table passes the checks the text parse applies,
load_gallery takes both from it and reads no text line, only the text's
bytes to hash them; otherwise it parses the text, the source of truth.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import shutil
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..angular import l2_normalize
from ..floattext import format_rows

MAGIC = "facegallery"
VERSION = 1
MAX_EMBEDDINGS_PER_IDENTITY = 5
UNIT_NORM_TOLERANCE = 1e-6  # largest |norm - 1| a stored embedding may have
_TEXT_CHUNK = 8  # identities rendered at once; more grow the heap and save no time
# companion: this header (a magic naming the format and the row dtype, so an
# older companion or another byte order reads as stale; the text's sha256; n;
# d; the identity count k; the byte size of the names), the identity table (the
# k UTF-8 names in text order joined by "\n", then k one-byte counts), the
# n * d float64 rows in text order, then the sha256 of every byte before it
_COMPANION = struct.Struct("<24s32sQQQQ")
_COMPANION_MAGIC = f"cotface-gallery-2 {np.dtype(np.float64).str}".encode().ljust(24, b"\0")


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

    def _register(self, name: str) -> tuple[int, list[int]]:
        """name's (rank, rows), ranking a new name after every known one."""
        if name not in self._ids:
            self._ids[name] = (len(self._names), [])
            self._names.append(name)
        return self._ids[name]

    def _reserve(self, room: int, dim: int):
        """Capacity for max(8, room + room // 2) rows of dim, keeping the rows held."""
        capacity, n = max(8, room + room // 2), self._size
        rows, owner = np.empty((capacity, dim)), np.empty(capacity, np.intp)
        if n:
            rows[:n], owner[:n] = self._rows[:n], self._owner[:n]
        self._rows, self._owner = rows, owner

    def _claim(self, name: str, count: int):
        """Give the next count rows, already written, to name."""
        rank, ids = self._register(name)
        n = self._size
        self._owner[n : n + count] = rank
        ids.extend(range(n, n + count))
        self._size = n + count

    def _append(self, name: str, unit: np.ndarray | list[float]):
        n = self._size
        if n == len(self._rows):
            self._reserve(n, np.size(unit))
        rank, ids = self._register(name)
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
    if gallery.dim is not None and unit.size != gallery.dim:
        raise ValueError(f"embedding dim {unit.size} != gallery dim {gallery.dim}")
    gallery._append(name, unit)
    return EnrollResult(True, None, count + 1)


def match(gallery: Gallery, probe, sim_threshold: float = 0.5):
    """Best cosine match over every stored embedding.

    Returns (identity, best_similarity); identity is None (stranger) unless the
    best similarity is at least sim_threshold, which NaN never is.  Ties keep the
    earliest enrolled identity.  An empty gallery reports (None, -1.0).  A
    non-finite probe scores NaN; a finite one whose norm overflows raises
    ValueError, as enroll does.
    """
    probe = l2_normalize(probe)
    n = gallery._size
    if not n:
        return None, -1.0
    sims = np.einsum("ij,j->i", gallery._rows[:n], probe)  # row-consistent bits; see module doc
    best_sim = float(sims.max())  # NaN when the probe is non-finite
    if not best_sim >= sim_threshold:  # a NaN similarity or threshold fails closed
        return None, best_sim
    return gallery._names[gallery._owner[:n][sims == best_sim].min()], best_sim


def _text_lines(gallery: Gallery):
    """The gallery file as UTF-8 bytes, _TEXT_CHUNK identities at a time."""
    yield f"{MAGIC} {VERSION}\n{len(gallery._names)}\n".encode()
    entries = list(gallery._ids.items())
    for chunk in (entries[i:i + _TEXT_CHUNK] for i in range(0, len(entries), _TEXT_CHUNK)):
        rows = gallery._rows[[i for _, (_, ids) in chunk for i in ids]]
        row_lines, lines = iter(format_rows(rows, b" ", b"\n").split(b"\n")), []
        for name, (_, ids) in chunk:
            lines.append(f"{name}\n{gallery.dim if ids else 0} {len(ids)}".encode())
            lines.extend(itertools.islice(row_lines, len(ids)))
        yield b"\n".join(lines) + b"\n"


def gallery_to_text(gallery: Gallery) -> str:
    return b"".join(_text_lines(gallery)).decode()


def _write_hashed(fh, chunks) -> bytes:
    """Write the byte strings chunks to fh; the sha256 of all of them."""
    sha = hashlib.sha256()
    for data in chunks:
        sha.update(data)
        fh.write(data)
    return sha.digest()


def save_gallery(gallery: Gallery, path):
    """Write the gallery file and its row companion atomically.

    Both go to temporary files beside them, which then replace the text and
    then the companion, so a failed write leaves the previous files as they
    were and no temporary file behind; a failure between the two replaces
    leaves a companion of other text, which load_gallery ignores.  Both take
    the permission bits of the text file they replace.
    """
    path = Path(path)
    companion = Path(f"{path}.rows")
    tmp, tmp_rows = (p.with_name(f".{p.name}.{os.getpid()}.tmp") for p in (path, companion))
    try:
        with open(tmp, "wb") as fh:
            text_sha = _write_hashed(fh, _text_lines(gallery))
        with open(tmp_rows, "wb") as fh:  # in text order, which enrollment order may not be
            names = "\n".join(gallery._ids).encode("utf-8")
            counts = bytes(len(ids) for _, ids in gallery._ids.values())
            head = _COMPANION.pack(_COMPANION_MAGIC, text_sha, gallery._size, gallery.dim or 0,
                                   len(counts), len(names))
            rows = (gallery._rows[ids].tobytes() for _, ids in gallery._ids.values())
            fh.write(_write_hashed(fh, itertools.chain([head, names, counts], rows)))
        if path.exists():
            shutil.copymode(path, tmp)
        shutil.copymode(tmp, tmp_rows)
        os.replace(tmp, path)
        os.replace(tmp_rows, companion)
    except BaseException:
        tmp.unlink(missing_ok=True)
        tmp_rows.unlink(missing_ok=True)
        raise


def load_gallery(path) -> Gallery:
    """Read a gallery file; embeddings round-trip bit-exactly.

    With a row companion that is intact, holds this text's hash and the text's
    identity count, and whose identity table passes the text parse's name and
    count checks, the names, counts and rows come from the companion, and the
    text is only hashed, in blocks (once the companion's header is sound).
    Otherwise the lines (as str.splitlines cuts them; see enroll) are walked
    once and the rows parsed into enroll's builder (so a huge declared dim
    allocates nothing).  GalleryFormatError reports the first fault in file
    order, such as a trailing line or a dim other than the first identity's,
    then any non-finite embedding or one whose norm differs from 1 by more
    than UNIT_NORM_TOLERANCE.
    """
    gallery = _companion_gallery(path)
    if gallery is None:  # no companion fits the text: parse the text
        with open(path, "r", encoding="utf-8") as fh:
            gallery = _read_text(path, fh)

    rows = gallery._rows[: gallery._size]
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_NORM_TOLERANCE))  # NaN and inf fail too
    if bad.size:
        name, norm = gallery._names[gallery._owner[bad[0]]], float(norms[bad[0]])
        raise GalleryFormatError(f"{path}: embedding of {name!r} has norm {norm!r}, not 1")
    return gallery


def _companion_gallery(path) -> Gallery | None:
    """The gallery path's companion holds, every row claimed; None when the
    companion is missing, short, long or corrupt, of an older format or the
    other byte order, written for other text (the file path), or holds a table
    the text parse would refuse: a name that is empty, repeated, not UTF-8 or
    not one line, a count above the cap, counts whose sum is not n, or an
    identity count other than the text's."""
    try:
        with open(f"{path}.rows", "rb") as fh, open(path, "rb") as text:
            head = fh.read(_COMPANION.size).ljust(_COMPANION.size, b"\0")  # short: fails st_size
            magic, for_text, n, d, k, names_size = _COMPANION.unpack(head)
            if (magic != _COMPANION_MAGIC or (n > 0) != (d > 0)  # so the file's size bounds n
                    or os.fstat(fh.fileno()).st_size
                    != _COMPANION.size + names_size + k + 8 * n * d + 32):
                return None
            counted = f"{MAGIC} {VERSION}\n{k}\n".encode()  # the text's first two lines
            start = text.read(len(counted))
            text_sha = hashlib.sha256(start)
            for block in iter(lambda: text.read(1 << 20), b""):
                text_sha.update(block)
            if start != counted or text_sha.digest() != for_text:
                return None
            table = fh.read(names_size + k)
            gallery, sha = Gallery(), hashlib.sha256(head + table)
            if n:  # an empty gallery keeps its (0, 0) matrix, which enroll can grow
                gallery._reserve(n, d)
            data = gallery._rows[:n].reshape(-1).view(np.uint8)
            fh.readinto(data)
            sha.update(data)  # a short read leaves bytes that fail the check
            if sha.digest() != fh.read():
                return None
        names = table[:names_size].decode("utf-8").split("\n") if names_size else []
    except (OSError, UnicodeDecodeError):
        return None
    counts = table[names_size:]
    if not (len(names) == k == len(set(names)) and sum(counts) == n
            and max(counts, default=0) <= MAX_EMBEDDINGS_PER_IDENTITY
            and all(name.splitlines() == [name] for name in names)):
        return None
    for name, count in zip(names, counts):
        gallery._claim(name, count)
    return gallery


def _read_text(path, fh) -> Gallery:
    """The gallery the text file fh holds, each row parsed into enroll's builder."""
    gallery = Gallery()
    lines = itertools.chain.from_iterable(map(str.splitlines, fh))

    # Reads stay outside `except ValueError`: truncated or undecodable input raises one.
    def take(at_end=None):
        line = next(lines, at_end)
        if line is None:
            raise GalleryFormatError(f"{path}: truncated gallery file")
        return line

    magic, count_line = take(), take("")  # a missing count line is a bad one
    header = magic.split()
    if len(header) != 2 or header[0] != MAGIC:
        raise GalleryFormatError(f"{path}: bad magic line {magic!r}")
    if header[1] != str(VERSION):
        raise GalleryFormatError(f"{path}: unsupported version {header[1]!r}")
    try:
        n_identities = int(count_line)
    except ValueError as exc:
        raise GalleryFormatError(f"{path}: bad identity count") from exc
    if n_identities < 0:
        raise GalleryFormatError(f"{path}: bad identity count {n_identities}")
    for _ in range(n_identities):
        name, dim_count = take(), take("")
        if not name:
            raise GalleryFormatError(f"{path}: empty identity name")
        try:
            dim, count = map(int, dim_count.split())
        except ValueError as exc:
            raise GalleryFormatError(f"{path}: bad 'dim count' line for {name!r}") from exc
        if not 0 <= count <= MAX_EMBEDDINGS_PER_IDENTITY:
            raise GalleryFormatError(f"{path}: {name!r} count {count} breaks the embedding cap")
        if count and gallery.dim not in (None, dim):
            raise GalleryFormatError(f"{path}: {name!r} has dim {dim}, gallery dim {gallery.dim}")
        if name in gallery._ids:
            raise GalleryFormatError(f"{path}: duplicate identity {name!r}")
        gallery._register(name)
        for _ in range(count):
            row = take()
            try:
                values = list(map(float, row.split()))
            except ValueError as exc:
                raise GalleryFormatError(f"{path}: non-numeric embedding for {name!r}") from exc
            if len(values) != dim:
                raise GalleryFormatError(f"{path}: embedding length != {dim} for {name!r}")
            gallery._append(name, values)
    if next(lines, None) is not None:
        raise GalleryFormatError(f"{path}: trailing lines after the last declared identity")
    return gallery
