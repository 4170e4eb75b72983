"""The ``%.17g`` CSV writer against Python's own formatter.

Every case compares ``format_rows`` with ``'%.17g' % v`` joined by ``,`` and
``\\n``, the text ``np.savetxt`` writes, on values that exercise each path of
the writer: fixed notation on either side of every power of ten, rounding
ties, carries to the next power, scientific notation, subnormals, zeros,
infinities and NaN.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collar import csvfmt
from collar.csvfmt import format_rows, write_csv


def oracle(table: np.ndarray) -> bytes:
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in table.tolist()).encode()


def assert_formats(values, cols: int = 7) -> None:
    values = np.asarray(values, dtype=np.float64).ravel()
    values = np.concatenate([values, np.full(-values.size % cols, 0.5)])
    table = values.reshape(-1, cols)
    mine, python = format_rows(table), oracle(table)
    if mine != python:
        for row, a, b in zip(table, mine.split(b"\n"), python.split(b"\n")):
            assert a == b, row.tolist()
    assert mine == python


def random_doubles(rng, n: int, exponents) -> np.ndarray:
    """``n`` doubles with random sign and mantissa bits and biased exponents drawn from ``exponents``."""
    bits = rng.integers(0, 1 << 52, n, dtype=np.uint64)
    bits |= rng.integers(exponents[0], exponents[1], n).astype(np.uint64) << np.uint64(52)
    bits |= rng.integers(0, 2, n).astype(np.uint64) << np.uint64(63)
    return bits.view(np.float64)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9).flatmap(
    lambda cols: st.lists(st.lists(st.floats(), min_size=cols, max_size=cols), min_size=1,
                          max_size=12)))
def test_any_rows_match_python(rows):
    table = np.array(rows, dtype=np.float64)
    assert format_rows(table) == oracle(table)


def test_a_million_random_bit_patterns_match_python():
    rng = np.random.default_rng(20250)
    # Biased exponents 1003..1083 span about 1e-6..2e18, both sides of the
    # fixed notation range; the last block draws every exponent.
    for exponents in [(1003, 1084)] * 7 + [(0, 2048)]:
        values = random_doubles(rng, 1 << 17, exponents)
        assert_formats(values, cols=int(rng.integers(1, 40)))


def test_neighbours_of_every_power_of_ten_match_python():
    values = []
    for j in range(-12, 19):
        v = float(f"1e{j}")
        for direction in (-math.inf, math.inf):
            w = v
            for _ in range(4):
                values.append(w)
                w = math.nextafter(w, direction)
    values = np.array(values)
    assert_formats(np.concatenate([values, -values]))


def test_rounding_ties_go_to_even():
    # m + 1/4 and m + 3/4 have 18 significant digits ending in 5 when m has 16,
    # and so do m + j/8 (j odd) for m of 15 digits; each is a double.
    rng = np.random.default_rng(3)
    m16 = rng.integers(10**15, 2 * 10**15, 4000).astype(np.float64)
    m15 = rng.integers(10**14, 10**15, 4000).astype(np.float64)
    ties = np.concatenate([m16 + 0.25, m16 + 0.75, m15 + 0.125, m15 + 0.375, m15 + 0.625])
    for t in ties[::997].tolist():
        k = math.floor(math.log10(t))
        assert (Fraction(t) * Fraction(10) ** (16 - k)).denominator == 2
    assert_formats(np.concatenate([ties, -ties, ties * 1e-10, ties * 1e-15]))


def test_carries_and_notation_boundaries_match_python():
    below = [math.nextafter(float(f"1e{j}"), 0.0) for j in range(-6, 19)]
    values = below + [9.99999999999999995e-5, 1e-4, 1e-5, 99999999999999984.0, 1e17,
                      0.1, 0.5, 1.0, 10.0, 100.0, 1200.0, 3e16, 123456789012345678.0]
    assert_formats(np.array(values + [-v for v in values]))


def test_special_values_match_python():
    tiny = np.array([5e-324, 2.2250738585072014e-308, 1e-300, 1.7976931348623157e308])
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
    assert_formats(np.concatenate([specials, tiny, -tiny, specials]), cols=3)


def test_thresholds_are_the_least_doubles_at_or_above_powers_of_ten():
    for j, t in zip(range(-5, 18), csvfmt._TENS.tolist()):
        assert Fraction(t) >= Fraction(10) ** j > Fraction(math.nextafter(t, 0.0))


@pytest.mark.parametrize("cols", [1, 2, 801])
def test_write_csv_bytes_equal_savetxt(tmp_path, cols):
    rng = np.random.default_rng(cols)
    table = rng.standard_normal((9, cols)) * 10.0 ** rng.integers(-7, 19, (9, cols))
    table[0, 0] = np.nan
    write_csv(tmp_path / "mine.csv", "a,b", table[:, 0], table[:, 1:])
    np.savetxt(tmp_path / "numpy.csv", table, delimiter=",", header="a,b", comments="",
               fmt="%.17g")
    assert (tmp_path / "mine.csv").read_bytes() == (tmp_path / "numpy.csv").read_bytes()


def test_write_csv_of_no_rows_is_the_header(tmp_path):
    write_csv(tmp_path / "empty.csv", "eps,sup_gap", [], [])
    assert (tmp_path / "empty.csv").read_bytes() == b"eps,sup_gap\n"
