"""Single edits of well-formed input files, for the malformed-input property
tests: each strategy draws an edit, and each function applies one to a file's
text or bytes.  An edit may leave the file well-formed (swapping two equal
tokens, say); the tests judge each result by the file's own reader."""

from __future__ import annotations

import hashlib
import re

import numpy as np
from hypothesis import strategies as st

from cotface.pipeline import gallery

_INDEX = st.integers(0, 10**6)

# A factor within UNIT_NORM_TOLERANCE of 1 leaves a row that the format
# accepts as unit, so the scale edit draws factors outside that band.
GALLERY_EDITS = st.tuples(
    st.sampled_from(["truncate", "swap", "nan", "scale", "count", "header"]),
    _INDEX, _INDEX, st.floats(0.0, 10.0).filter(lambda f: abs(f - 1.0) > 1e-4))
_BAD_HEADERS = ("facegallery 2", "facegallery", "faceroster 1", "facegallery 1 1", "")


def _split_words(text, separators):
    """text split on separators, which stay in the list, and the indices of
    the words between them."""
    tokens = re.split(separators, text)
    return tokens, [k for k, t in enumerate(tokens) if t and not re.fullmatch(separators, t)]


def _swap_words(text, a, b, separators):
    tokens, words = _split_words(text, separators)
    i, j = words[a % len(words)], words[b % len(words)]
    tokens[i], tokens[j] = tokens[j], tokens[i]
    return "".join(tokens)


def mutate_gallery(text, kind, a, b, factor):
    """One edit of a saved gallery's text: cut its last a + 1 characters (most
    draws of a are small, so most cuts fall in the last rows), swap tokens a and
    b, put a NaN at value b of embedding row a, scale row a by factor, set
    count line a (the identity count or one identity's embedding count) to
    b % 8 - 1, or replace the magic line."""
    if kind == "truncate":
        return text[: -1 - a % len(text)]
    if kind == "swap":
        return _swap_words(text, a, b, r"(\s+)")
    lines = text.split("\n")
    if kind == "header":
        lines[0] = _BAD_HEADERS[b % len(_BAD_HEADERS)]
        return "\n".join(lines)
    if kind == "count":
        counts = [1] + [k for k, line in enumerate(lines[2:], 2)
                        if re.fullmatch(r"-?\d+ -?\d+", line)]  # "dim count" lines
        row = counts[a % len(counts)]
        lines[row] = " ".join(lines[row].split()[:-1] + [str(b % 8 - 1)])
        return "\n".join(lines)
    rows = [k for k, line in enumerate(lines) if line.count(" ") >= 2]  # embeddings
    row = rows[a % len(rows)]
    values = lines[row].split()
    if kind == "nan":
        values[b % len(values)] = "nan"
    else:
        values = [f"{float(v) * factor:.17g}" for v in values]
    lines[row] = " ".join(values)
    return "\n".join(lines)


COMPANION_EDITS = st.tuples(
    st.sampled_from(["flip", "truncate", "extend", "shape", "forge", "swap", "table"]),
    _INDEX, _INDEX)
# a row companion is its header (a 24-byte magic, the text's sha256, then n, d,
# the identity count k and the names' byte size as little-endian uint64), the
# k names joined by "\n", k one-byte counts, the n * d float64 rows, then the
# sha256 of every byte before it
_HEADER = gallery._COMPANION
TABLE_FORGERIES = ("empty", "duplicate", "\n", "\r", "\u2028", "not utf-8", "surrogate",
                   "cap", "sum", "drop")


def _companion_parts(data):
    """The header's fields (magic, text sha256, n, d, k, the names' size), the
    names (bytes), the counts and the rows of a well-formed companion."""
    fields = list(_HEADER.unpack_from(data))
    table_at = _HEADER.size + fields[5]
    rows_at = table_at + fields[4]
    names = data[_HEADER.size : table_at].split(b"\n") if fields[5] else []
    return fields, names, list(data[table_at:rows_at]), data[rows_at:-32]


def _forged(fields, names, counts, rows):
    """The companion of these parts, its k, names' size and sha256 recomputed."""
    names = b"\n".join(names)
    body = _HEADER.pack(*fields[:4], len(counts), len(names)) + names + bytes(counts) + rows
    return body + hashlib.sha256(body).digest()


def mutate_companion(data, kind, a, b):
    """One edit of a gallery's row companion: flip bit b % 8 of byte a, cut it
    at a, append b % 16 + 1 zero bytes, rewrite (n, d) as a wrong shape (some
    keep n * d), or forge a companion with its sha256 recomputed: of such a
    shape, of one row fewer or one more (a copy of the first), as a machine of
    the other byte order writes it (its magic and rows swapped), or with
    identity a's table entry forged as TABLE_FORGERIES[b] names (an empty,
    repeated, multi-line or non-UTF-8 name, a count above the cap, counts
    that no longer sum to n, or the identity dropped)."""
    if kind == "flip":
        at = a % len(data)
        return data[:at] + bytes([data[at] ^ 1 << b % 8]) + data[at + 1:]
    if kind == "truncate":
        return data[: a % len(data)]
    if kind == "extend":
        return data + bytes(b % 16 + 1)
    fields, names, counts, rows = _companion_parts(data)
    n, d = fields[2:4]
    shapes = [(d, n), (2 * n, d // 2), (n + 1, d), (max(n - 1, 0), d), (n, d + 1), (2**62, 0)]
    if kind == "shape":
        fields[2:4] = shapes[b % len(shapes)]
        return _HEADER.pack(*fields) + data[_HEADER.size:]
    if kind == "swap":
        native = np.dtype(np.float64)
        fields[0] = fields[0].replace(native.str.encode(), native.newbyteorder().str.encode())
        return _forged(fields, names, counts, np.frombuffer(rows, native).byteswap().tobytes())
    if kind == "table":
        i, forgery = a % len(names), TABLE_FORGERIES[b % len(TABLE_FORGERIES)]
        if forgery == "empty":
            names[i] = b""
        elif forgery == "duplicate":
            names[i] = names[i - 1]  # no edit when there is one name
        elif forgery == "\n":  # k + 1 names, k of them distinct
            names[i] += b"\n" + names[i]
        elif forgery == "not utf-8":
            names[i] += b"\xff"
        elif forgery == "surrogate":
            names[i] += "\ud800".encode("utf-8", "surrogatepass")
        elif forgery == "cap":  # the sum stays n when n is above the cap
            total, counts = sum(counts), [0] * len(counts)
            counts[i] = gallery.MAX_EMBEDDINGS_PER_IDENTITY + 1
            counts[i - 1] += max(total - counts[i], 0)
        elif forgery == "sum":
            counts[i] = (counts[i] + 1) % (gallery.MAX_EMBEDDINGS_PER_IDENTITY + 1)
        elif forgery == "drop":
            del names[i], counts[i]
        else:  # a line break inside the name
            names[i] = names[i][:1] + forgery.encode("utf-8") + names[i][1:]
        return _forged(fields, names, counts, rows)
    if a % 2:
        fields[2:4] = shapes[b % len(shapes)]
    elif b % 2 and n:
        fields[2], rows = n - 1, rows[: len(rows) - 8 * d]
    else:
        fields[2], rows = n + 1, rows + rows[: 8 * d]
    return _forged(fields, names, counts, rows)


PGM_EDITS = st.tuples(st.sampled_from(["truncate", "token", "byte"]), _INDEX, _INDEX)
_BAD_PGM_TOKENS = (b"P2", b"P5x", b"0", b"-1", b"256", b"x", b"99999", b"1e3", b"")


def mutate_pgm(data, kind, a, b):
    """One edit of a binary PGM: truncate it at a, replace header token a
    (magic, width, height, maxval), or set byte a to b % 256."""
    if kind == "truncate":
        return data[: a % len(data)]
    if kind == "token":
        tokens = re.split(rb"(\s+)", data, maxsplit=4)
        tokens[2 * (a % 4)] = _BAD_PGM_TOKENS[b % len(_BAD_PGM_TOKENS)]
        return b"".join(tokens)
    at = a % len(data)
    return data[:at] + bytes([b % 256]) + data[at + 1:]


SCORE_EDITS = st.tuples(st.sampled_from(["truncate", "swap", "field", "byte"]), _INDEX, _INDEX)
_BAD_FIELDS = ("nan", "inf", "-inf", "x", "", "1e400", "2", "0,1")


def mutate_scores(data, kind, a, b):
    """One edit of an eval scores file (utf-8 bytes): truncate it at a, swap
    fields a and b, replace field a, or put the non-UTF-8 byte 0xff at a."""
    if kind == "truncate":
        return data[: a % len(data)]
    if kind == "byte":
        at = a % len(data)
        return data[:at] + b"\xff" + data[at:]
    text = data.decode("utf-8")
    if kind == "swap":
        return _swap_words(text, a, b, r"([,\n]+)").encode("utf-8")
    fields, words = _split_words(text, r"([,\n]+)")
    fields[words[a % len(words)]] = _BAD_FIELDS[b % len(_BAD_FIELDS)]
    return "".join(fields).encode("utf-8")
