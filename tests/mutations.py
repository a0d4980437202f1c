"""Single edits of well-formed input files, for the malformed-input property
tests: each strategy draws an edit, and each function applies one to a file's
text or bytes.  An edit may leave the file well-formed (swapping two equal
tokens, say); the tests judge each result by the file's own reader."""

from __future__ import annotations

import hashlib
import re
import struct

from hypothesis import strategies as st

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
    st.sampled_from(["flip", "truncate", "extend", "shape", "forge"]), _INDEX, _INDEX)
# a row companion is a 24-byte magic, the text's sha256, n and d (little-endian
# uint64), the n * d float64 rows, then the sha256 of every byte before it
_N_AT, _ROWS_AT = 56, 72


def mutate_companion(data, kind, a, b):
    """One edit of a gallery's row companion: flip bit b % 8 of byte a, cut it
    at a, append b % 16 + 1 zero bytes, rewrite (n, d) as a wrong shape (some
    keep n * d), or forge a companion with its sha256 recomputed: of such a
    shape, or of one row fewer or one more (a copy of the first)."""
    if kind == "flip":
        at = a % len(data)
        return data[:at] + bytes([data[at] ^ 1 << b % 8]) + data[at + 1:]
    if kind == "truncate":
        return data[: a % len(data)]
    if kind == "extend":
        return data + bytes(b % 16 + 1)
    n, d = struct.unpack_from("<QQ", data, _N_AT)
    shapes = [(d, n), (2 * n, d // 2), (n + 1, d), (max(n - 1, 0), d), (n, d + 1), (2**62, 0)]
    if kind == "shape":
        return data[:_N_AT] + struct.pack("<QQ", *shapes[b % len(shapes)]) + data[_ROWS_AT:]
    rows = data[_ROWS_AT:-32]
    if a % 2:
        n, d = shapes[b % len(shapes)]
    elif b % 2 and n:
        n, rows = n - 1, rows[: len(rows) - 8 * d]
    else:
        n, rows = n + 1, rows + rows[: 8 * d]
    body = data[:_N_AT] + struct.pack("<QQ", n, d) + rows
    return body + hashlib.sha256(body).digest()


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
