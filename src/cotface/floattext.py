"""Exact "%.17g" text for float64 arrays, without one Python call per value.

For 1e-6 <= |x| < 1, e = floor(log10|x|), Dekker's product (Numer. Math. 18, 1971) gives
|x| * 10**(16 - e) as hi + lo exactly, since the power is a double up to 10**22; hi > 2**53 is
even, so D = hi + rint(lo) rounds ties to even as "%" does (Gay 1990).  For e >= -4 the text is
"-" if x < 0, "0.", -e - 1 zeros and D without trailing zeros; for e = -5 and -6 it is the sign,
D's first digit, "." and its other 16 digits without trailing zeros (never all zero: not even
the double nearest d * 10**e has D = d * 10**16), then "e-05" or "e-06".  A zero is "0" or "-0".
Only |x| >= 1, |x| < 1e-6, nan and inf go through "%".
"""

from __future__ import annotations

import numpy as np

_BLOCK = 1 << 15  # values rendered at once
_FIELD = 6  # words of the longest "%.17g" text, "-2.2250738585072014e-308"
_LOW = np.nextafter(1e-6, 1.0)  # the double 1e-6 rounds down, so it is below 10**-6
_DECADES = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)  # each rounds up: |x| >= 1e-j iff |x| >= 10**-j


def _split(x):
    """x as hi + lo exactly, each with at most 26 significant bits (Veltkamp)."""
    t = 134217729.0 * x  # 2**27 + 1
    hi = t - (t - x)
    return hi, x - hi


_POW10 = np.array([1e22, 1e21, 1e20, 1e19, 1e18, 1e17])  # 10**(16 - e) for e = -6..-1
_SIGN = np.frombuffer(b"0.\0\0-0.\0" b"0\0\0\0-0\0\0", np.uint32)  # "0.", "-0.", then "0", "-0"
# e's -e - 1 zeros and D's first digit, at (e + 6) * 10 + digit; none for e < -4
_LEAD = np.frombuffer(b"\0" * 80 + b"".join((b"0" * zeros).rjust(3, b"\0") + b"%d" % digit
                      for zeros in (3, 2, 1, 0) for digit in range(10)), np.uint32)
# exponent form's sign, first digit and ".", at sign * 10 + digit
_POINT = np.frombuffer(b"".join((sign + b"%d." % digit).ljust(4, b"\0")
                                for sign in (b"", b"-") for digit in range(10)), np.uint32)
_EXP = np.frombuffer(b"e-06e-05", np.uint32)
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
        fast, zero = (a >= _LOW) & (a < 1.0), a == 0.0
        slow, zero = np.flatnonzero(~(fast | zero)), np.flatnonzero(zero)
        a[~fast] = 0.5  # any value of the fast range: its row is overwritten below
        decade = sum((a >= d).view(np.int8) for d in _DECADES).astype(np.intp)  # e + 6
        p = _POW10[decade]
        (ah, al), (ph, pl), hi = _split(a), _split(p), a * p
        lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl  # Dekker: a * p == hi + lo exactly
        d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
        top = d // 10 ** 8
        first, eights = top // 10 ** 8, np.empty((2, d.size), np.int32)
        eights[0], eights[1] = top - first * 10 ** 8, d - top * 10 ** 8
        q = eights // 10 ** 4
        r = eights - q * 10 ** 4  # D's groups are q[0], r[0], q[1], r[1]
        r[1] += 10_000  # a group whose later groups are all zero drops its trailing zeros
        for later, group in ((r[1], q[1]), (q[1], r[0]), (r[0], q[0])):
            np.add(group, 10_000, out=group, where=later == 10_000)
        neg = np.signbit(flat).astype(np.intp)
        words = np.empty(x.shape + (_FIELD + sep.size,), np.uint32)
        rows = words.reshape(-1, words.shape[-1])
        rows[:, 0] = np.take(_SIGN, neg)
        rows[:, 1] = np.take(_LEAD, decade * 10 + first)
        rows[:, 2:_FIELD] = np.take(_GROUPS, np.stack([q[0], r[0], q[1], r[1]], 1, dtype=np.intp))
        words[:, :-1, _FIELD:], words[:, -1, _FIELD:] = sep, end
        sci = np.flatnonzero(decade < 2)  # e = -6 or -5: the exponent form
        rows[sci, 1:5] = rows[sci, 2:6]
        rows[sci, 0] = _POINT[neg[sci] * 10 + first[sci]]
        rows[sci, 5] = _EXP[decade[sci]]
        rows[zero, 0], rows[zero, 1:_FIELD] = _SIGN[2 + neg[zero]], 0
        text = np.array(["%.17g" % v for v in flat[slow].tolist()], f"S{4 * _FIELD}")
        rows[slow, :_FIELD] = text.view(np.uint32).reshape(-1, _FIELD)
        out.append(words.tobytes().translate(None, b"\0"))
    return b"".join(out)
