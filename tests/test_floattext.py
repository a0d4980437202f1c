"""The vectorized "%.17g" renderer against one Python format call per value."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from cotface.floattext import format_rows


def _assert_renders(values, sep=",", end="\n"):
    values = np.asarray(values, dtype=np.float64)
    expected = oracles.format_17g_rows(values, sep, end)
    assert format_rows(values, sep.encode(), end.encode()) == expected


def _signed(values):
    values = np.asarray(values, dtype=np.float64).ravel()
    return np.concatenate([values, -values]).reshape(-1, 2)


@pytest.mark.parametrize("low,high", [(0, 2 ** 64), (0x3EE0 << 48, 0x3FF1 << 48)],
                         ids=["any", "near-the-fast-range"])
def test_random_bit_patterns(low, high):
    """10**6 float64 bit patterns: any bits, then |x| in about [7.6e-6, 1.06)."""
    bits = np.random.default_rng(low).integers(low, high, (250_000, 4), dtype=np.uint64)
    bits[::2] |= np.uint64(1 << 63)
    _assert_renders(bits.view(np.float64))


def _ties(e: int, limit: int | None):
    """Every (up to limit) odd q with q / 2**(17 - e) in [10**e, 10**(e + 1)):
    exact decimals of 18 significant digits that end in 5."""
    j = 17 - e
    first = math.ceil(Fraction(10) ** e * 2 ** j) | 1
    stop = min(math.ceil(Fraction(10) ** (e + 1) * 2 ** j), 2 ** 53, first + 2 * (limit or 2 ** 53))
    q = np.arange(first, stop, 2, dtype=np.int64)
    return q.astype(np.float64) / 2.0 ** j


@pytest.mark.parametrize("e", range(-6, 0))
def test_every_tie_at_the_17th_digit_in_the_fast_range(e):
    """e = -1 is q / 2**18 for every odd q in [26215, 262143]; e = -6 is
    q / 2**23 for every odd q in [9, 83]."""
    ties = _ties(e, None)
    assert ties.min() >= 10.0 ** e and ties.max() < 10.0 ** (e + 1)
    _assert_renders(_signed(ties))


def test_ties_at_the_17th_digit_in_other_decades():
    decades = [e for e in range(-12, 16) if not -6 <= e < 0]
    _assert_renders(_signed(np.concatenate([_ties(e, 20_000) for e in decades])))


def test_powers_of_ten_and_their_neighbours():
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    _assert_renders(_signed([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)]))


def test_the_fast_range_ends():
    """1e-4 and 1.0 with their neighbours, and the 1,000 doubles below 1 and
    below each of 1e-1 .. 1e-4, where a wrong rounding prints the next decade."""
    below = [np.nextafter(x, 0.0) for x in (1e-4, 1.0)]
    ends = [1e-4, 1.0, *below, np.nextafter(1e-4, 1.0), np.nextafter(1.0, 2.0)]
    steps = [x - np.arange(1, 1001) * np.spacing(np.nextafter(x, 0.0))
             for x in (1.0, 1e-1, 1e-2, 1e-3, 1e-4)]
    _assert_renders(_signed(np.concatenate([ends, *steps])))


def test_the_exponent_form_ends():
    """The 1,000 doubles on each side of 1e-6, 1e-5 and 1e-4, where the text
    turns from one exponent or form to the next; the double 1e-6 is below 10**-6."""
    assert format_rows(np.array([[1e-6]]), b",", b"\n") == b"9.9999999999999995e-07\n"
    steps = np.arange(1, 1001)
    sides = [x + sign * steps * np.spacing(x) for x in (1e-6, 1e-5, 1e-4)
             for sign in (-1.0, 1.0)]
    _assert_renders(_signed(np.concatenate([[1e-6, 1e-5, 1e-4], *sides])))


def test_exponent_form_tails_with_zero_groups():
    """Doubles in [1e-6, 1e-4) whose later digits end in zero groups, such as
    1.3e-06 and 1.0001e-05.  No double there has all 16 later digits zero
    (that text would have no "."): not even the one nearest each d * 10**e."""
    short = np.array([float(f"{m}e{e}") for e in (-9, -10) for m in range(1, 100_000)])
    short = short[(short >= 1e-6) & (short < 1e-4)]
    _assert_renders(_signed(short))
    nearest = [float(f"{d}e{e}") for d in range(1, 10) for e in (-5, -6)]
    texts = [("%.17g" % x).split("e") for x in np.concatenate(
        [nearest, np.nextafter(nearest, 0.0), np.nextafter(nearest, 1.0)]).tolist()]
    assert all("." in mantissa for mantissa, exponent in texts if exponent in ("-05", "-06"))
    _assert_renders(_signed(nearest))


def test_signed_zeros():
    values = np.array([[0.0, -0.0, 0.5], [-0.0, 2e-5, 0.0], [-0.0, -0.0, -0.0]])
    assert format_rows(values, b",", b"\n") == b"0,-0,0.5\n-0,2.0000000000000002e-05,0\n-0,-0,-0\n"
    _assert_renders(values)
    _assert_renders(values, sep="", end="")


def test_zeros_subnormals_and_non_finite_values():
    tiny = sys.float_info.min
    subnormals = np.random.default_rng(1).integers(1, 1 << 52, 1000, dtype=np.uint64)
    specials = [0.0, 5e-324, np.nextafter(tiny, 0.0), tiny, sys.float_info.max, np.inf, np.nan]
    _assert_renders(_signed(np.concatenate([specials, subnormals.view(np.float64)])))


@pytest.mark.parametrize("shape", [(0, 3), (0, 0), (3, 0), (5, 1), (1, 1), (1, 7)])
def test_empty_and_one_column_arrays(shape):
    values = np.random.default_rng(2).uniform(-1.5, 1.5, shape)
    _assert_renders(values)
    _assert_renders(values, sep=" ", end="")


@settings(max_examples=300, deadline=None)
@given(values=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0,
                                                      max_side=6),
                         elements=st.floats(width=64)),
       sep_end=st.sampled_from([(",", "\n"), (" ", "\n"), ("", ""), ("; ", "\r\n"),
                                ("\t-->\t", ".")]))
def test_any_floats_render_as_percent_17g(values, sep_end):
    _assert_renders(values, *sep_end)
