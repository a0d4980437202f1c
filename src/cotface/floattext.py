"""Exact "%.17g" text for float64 arrays, without one Python call per value.

For 1e-4 <= |x| < 1, e = floor(log10|x|), it is "-" if x < 0, "0.", -e - 1 zeros and the
digits of D = round(|x| * 10**(16 - e)) without trailing zeros.  10**(16 - e) is a double, so
Dekker's product (Numer. Math. 18, 1971) gives |x| * 10**(16 - e) as hi + lo exactly; hi > 2**53
is even, so hi + rint(lo) rounds ties to even as "%" does (Gay 1990).  Others go through "%".
"""

from __future__ import annotations

import numpy as np

_BLOCK = 1 << 15  # values rendered at once
_FIELD = 6  # words of the longest "%.17g" text, "-2.2250738585072014e-308"
_DECADES = (1e-3, 1e-2, 1e-1)  # each rounds up, so |x| >= 1e-j exactly when |x| >= 10**-j


def _split(x):
    """x as hi + lo exactly, each with at most 26 significant bits (Veltkamp)."""
    t = 134217729.0 * x  # 2**27 + 1
    hi = t - (t - x)
    return hi, x - hi


_POW10 = np.array([1e20, 1e19, 1e18, 1e17])  # 10**(16 - e) for e = -4..-1
_SIGN = np.frombuffer(b"0.\0\0-0.\0", np.uint32)  # "0." and "-0.", a word each
# e's -e - 1 zeros and D's first digit, at (e + 4) * 10 + digit
_LEAD = np.frombuffer(b"".join((b"0" * zeros).rjust(3, b"\0") + b"%d" % digit
                               for zeros in (3, 2, 1, 0) for digit in range(10)), np.uint32)
# D's 4-digit groups, then at 10_000 + group the same without its trailing zeros
_GROUPS = np.frombuffer(b"".join(b"%04d" % i for i in range(10_000)) + b"".join(
    (b"%04d" % i).rstrip(b"0").ljust(4, b"\0") for i in range(10_000)), np.uint32)


def format_rows(values, sep: bytes, end: bytes) -> bytes:
    """The bytes of "".join(sep.join("%.17g" % x for x in row) + end for row in values)
    for a 2-D float64 array; sep and end hold no NUL byte."""
    values = np.asarray(values, dtype=np.float64)
    if not values.shape[1]:
        return end * len(values)
    size = -(-max(len(sep), len(end)) // 4) * 4  # whole words
    sep, end = (np.frombuffer(t.ljust(size, b"\0"), np.uint32) for t in (sep, end))
    step, out = max(1, _BLOCK // values.shape[1]), []
    for x in (values[i:i + step] for i in range(0, len(values), step)):
        flat = x.ravel()
        a = np.abs(flat)
        fast = (a >= 1e-4) & (a < 1.0)
        a[~fast] = 0.5  # any value of the fast range: its row is overwritten below
        decade = sum((a >= d).view(np.int8) for d in _DECADES).astype(np.intp)  # e + 4
        p = _POW10[decade]
        (ah, al), (ph, pl), hi = _split(a), _split(p), a * p
        lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl  # Dekker: a * p == hi + lo exactly
        d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
        middle, last = d // 10 ** 8 % 10 ** 8, d % 10 ** 8
        group = np.stack([middle, middle, last, last], axis=1)
        group[:, ::2] //= 10 ** 4
        group[:, 1::2] %= 10 ** 4
        group[:, 3] += 10_000  # a group whose later groups are all zero drops its trailing zeros
        for j in (2, 1, 0):
            group[:, j] += 10_000 * (group[:, j + 1] == 10_000)
        words = np.empty(x.shape + (_FIELD + sep.size,), np.uint32)
        rows = words.reshape(-1, words.shape[-1])
        rows[:, 0] = _SIGN[(flat < 0.0).astype(np.intp)]
        rows[:, 1] = _LEAD[decade * 10 + d // 10 ** 16]
        rows[:, 2:_FIELD] = _GROUPS[group]
        words[:, :-1, _FIELD:], words[:, -1, _FIELD:] = sep, end
        slow = np.flatnonzero(~fast)
        text = np.array(["%.17g" % v for v in flat[slow].tolist()], f"S{4 * _FIELD}")
        rows[slow, :_FIELD] = text.view(np.uint32).reshape(-1, _FIELD)
        out.append(words.tobytes().translate(None, b"\0"))
    return b"".join(out)
