"""CSV text of float tables, byte for byte the ``%.17g`` text of ``np.savetxt``.

``write_csv(path, header, *columns)`` writes the header line and then the rows
of ``np.column_stack(columns)``, each value as Python's ``'%.17g' % v``, joined
by ``,`` and ended by ``\\n``: the bytes of ``np.savetxt(path, table,
delimiter=",", header=header, comments="", fmt="%.17g")``.  It formats a block
of rows at a time in numpy, so neither the stacked table nor one Python
float per value is ever built.

A finite nonzero ``x`` that ``%g`` prints in fixed notation has the 17
significant digits ``q = round(|x| 10^s)``, ``s = 16 - k``, where
``k = floor(log10|x|)`` is the place of its leading digit.  ``k`` is exact:
the binary exponent of ``x`` bounds it to two places, and one comparison
with the least double at or above a power of ten decides.  ``|x| 10^s`` is
the double ``p`` plus an error that Dekker's product gives exactly, from
halves of at most 26 bits; ``p >= 10^16`` is an even integer, so rounding the
error half to even rounds the product so, as CPython's correctly rounded
``dtoa`` does.  ``q`` never rounds up to ``10^17``: 17 digits tell doubles
apart, and no double below ``10^(k+1)`` shares the digits of the one nearest
it, which is not below it.  All of it is ``float64`` arithmetic on integers below ``2^53``, split as the first
9 and the last 8 digits.  The digits come from a table of four-digit groups,
with the trailing zeros of the last nonzero group as 0 bytes, and are placed
in a byte matrix with one column per decimal place; the sign of a positive
value, the point of an integer and every place outside a value's digits are
0 bytes too, and one pass deletes them.

``nan``, ``inf`` and zeros are constant strings.  Values that ``%g`` prints
in scientific notation (below ``1e-4`` or from ``1e17`` on in magnitude,
subnormals among them) are formatted one at a time by ``'%.17g' % x``.

Integer division, ``log10`` and arithmetic that mixes booleans with numbers
are avoided, and the tables are built on the first write: numpy code that a
solve never runs shows as resident memory once a first write maps it.
"""

from __future__ import annotations

import functools

import numpy as np

#: Values one formatted block holds; its temporaries take about 130 bytes each.
_BLOCK_VALUES = 4000


def _upper_half(t):
    """The upper 26 bits of each double in ``t`` (Veltkamp's split): ``t`` less
    them fits in 26 bits too, so the product of two halves is exact."""
    c = t * 134217729.0
    return c - (c - t)


#: ``10^s`` for every ``s = 16 - k``, ``k`` in ``[-5, 16]``, and its two halves,
#: split in Python floats: importing runs no numpy arithmetic.
_POWERS = [float(10**s) for s in range(22)]
_TEN = np.array(_POWERS)
_TEN_HI = np.array([_upper_half(t) for t in _POWERS])
_TEN_LO = np.array([t - _upper_half(t) for t in _POWERS])
#: For ``j`` in ``[-5, 17]``, the least double at or above ``10^j``: each
#: literal rounds up where ``10^j`` is not a double.
_TENS = np.array([float(f"1e{j}") for j in range(-5, 18)])
_LOG10_2 = 0.30102999566398120
_ZERO, _MINUS, _DOT, _COMMA, _NEWLINE = (ord(c) for c in "0-.,\n")
#: The text of nan, inf and a zero after the sign, 0 bytes dropped.
_CONSTANTS = np.frombuffer(b"naninf0\0\0", dtype=np.uint8).reshape(3, 3)


@functools.cache
def _tables():
    """The four digits of each ``g < 10^4`` as one ``uint32`` of text, then the
    same with trailing zeros as 0 bytes; and for each leading place ``k`` in
    ``[-4, 16]`` and leading digit, the 8 bytes before a value's last 16 digits."""
    digit = np.arange(10)
    groups = np.empty((2, 10, 10, 10, 10, 4), dtype=np.uint8)
    ends = np.ones((10, 10, 10, 10), dtype=bool)  # the digits after place c are all zero
    for c in range(3, -1, -1):
        shape = (10,) + (1,) * (3 - c)
        groups[:, ..., c] = (digit + _ZERO).reshape(shape)
        ends &= (digit == 0).reshape(shape)
        groups[1, ..., c][ends] = 0
    lead = np.zeros((21, 10, 8), dtype=np.uint8)
    for k in range(-4, 0):
        lead[k + 4, :, 7 + k : 7] = _ZERO  # the places 10^0 .. 10^(k+1)
    lead[:, :, 7] = digit + _ZERO
    tables = groups.view(np.uint32).ravel(), lead.view(np.uint64).ravel()
    for table in tables:
        table.flags.writeable = False  # every call shares them
    return tables


def _decimal(ax):
    """The 17 significant digits of each ``ax`` in ``[1e-5, 1e17)``, as its first
    9 digits ``head`` and its last 8 ``tail`` (exact integers in ``float64``),
    and ``k``, the place of its leading digit: ``ax`` rounds to
    ``(head 10^8 + tail) 10^(k-16)``."""
    # 2^(e-1) <= ax < 2^e puts the leading place at floor((e-1) log10 2) or one above.
    k = np.floor((np.frexp(ax)[1] - 1) * _LOG10_2).astype(np.int64)
    k = np.where(ax >= _TENS.take(k + 6), k + 1, k)
    s = 16 - k
    ten, ten_hi, ten_lo = _TEN.take(s), _TEN_HI.take(s), _TEN_LO.take(s)
    del s
    # ax 10^s is p + err exactly (Dekker's product), and p >= 10^16 is an even
    # integer, so rounding err half to even rounds the product so.
    p = ax * ten
    a_hi = _upper_half(ax)
    a_lo = ax - a_hi
    err = a_hi * ten_hi
    err -= p
    err += a_hi * ten_lo
    err += a_lo * ten_hi
    err += a_lo * ten_lo
    del a_hi, a_lo, ten, ten_hi, ten_lo
    head = np.floor(p / 1e8)  # at most one above, when the quotient rounds up
    tail = p - head * 1e8
    tail += np.rint(err)
    carry = np.floor(tail / 1e8)
    head += carry
    tail -= carry * 1e8
    return head, tail, k


def _digit_rows(head, tail, k, left, size):
    """Each value's row of ``size`` digit bytes from its first 9 and last 8
    digits and its leading place ``k``: ``left`` 0 bytes, the leading zeros of
    ``0.0..`` and the first digit in the 8 bytes up to ``left + 7``, the other
    16 digits with trailing zeros dropped, and 0 bytes.  So the place ``10^p``
    is at byte ``left + 7 + k - p``."""
    # Below 10^9 every quotient is exact enough to floor.
    a1 = np.floor(head / 1e4)
    g0 = np.floor(a1 / 1e4)
    groups_table, lead_table = _tables()
    lead = lead_table.take((k + 4) * 10 + g0.astype(np.int64))
    groups = np.empty((4, head.size))
    groups[0] = a1 - g0 * 1e4
    groups[1] = head - a1 * 1e4
    del a1, g0
    groups[2] = np.floor(tail / 1e4)
    groups[3] = tail - groups[2] * 1e4
    # A group whose later groups are all zero ends the value: its trailing
    # zeros, or all of it if it is zero too, are dropped (table entries 10^4 on).
    ends = groups[1:] == 0.0
    ends[1] &= ends[2]
    ends[0] &= ends[1]
    groups[:3][ends] += 1e4
    groups[3] += 1e4
    index = groups.astype(np.int64)
    del groups, ends
    rows = np.zeros((head.size, size // 8), dtype=np.uint64)
    rows[:, left // 8] = lead
    rows.view(np.uint32)[:, left // 4 + 2 : left // 4 + 6] = groups_table.take(index).T
    return rows.view(np.uint8)


def format_rows(table: np.ndarray) -> bytes:
    """The ``%.17g`` text of the rows of a 2-D float table: ``,`` within a row,
    ``\\n`` after each."""
    x = np.ascontiguousarray(table, dtype=np.float64)
    cols = x.shape[1]
    x = x.ravel()
    n = x.size
    ax = np.abs(x)
    # nan, inf, zeros and the values %g writes in scientific notation are laid
    # out as 1.0 and written over: the first three as constants, the last one
    # at a time by Python.
    other = np.flatnonzero(~((ax >= 1e-5) & (ax < 1e17)))
    ax[other] = 1.0
    integral = ax == np.floor(ax)
    head, tail, k = _decimal(ax)
    del ax
    other = np.concatenate([other, np.flatnonzero(k < -4)])
    k[other] = 0
    xo = x[other]
    kind = np.where(np.isnan(xo), 0, np.where(np.isinf(xo), 1, np.where(xo == 0.0, 2, 3)))
    slow = other[kind == 3].tolist()
    texts = [b"%.17g" % x[i] for i in slow]

    # Columns: sign, the places 10^top .. 10^0, the point, 10^-1 .. 10^bottom
    # and the separator; wide enough for every text written one at a time.
    top = max(int(k.max()), 0)
    bottom = min(int(k.min()) - 16, -1, 2 - max(map(len, texts), default=0))
    width = top - bottom + 1
    # Rows of digit bytes just wide enough for every value's window of places.
    left = -(-max(top - int(k.min()) - 7, 0) // 8) * 8
    size = -(-(left + 8 + top - bottom) // 8) * 8
    digits = _digit_rows(head, tail, k, left, size)
    del head, tail
    window = np.ndarray((n, size - width + 1, width), np.uint8, digits, 0, (size, 1, 1))
    places = window[np.arange(n), k + (left + 7 - top)]
    del digits, window
    text = np.empty((n, width + 3), dtype=np.uint8)
    text[:, 0] = np.where(np.signbit(x), _MINUS, 0)
    text[:, 1 : top + 2] = places[:, : top + 1]
    # Only an integer has no point: rounding to 17 digits makes no other one.
    text[:, top + 2] = np.where(integral, 0, _DOT)
    text[:, top + 3 : -1] = places[:, top + 1 :]
    del places
    # The trailing zeros of an integer's digits are in its integer part.
    whole = np.flatnonzero(integral & (k > 0))
    if whole.size:
        lead = text[whole, 1 : top + 2]
        digit = np.arange(top, -1, -1) <= k[whole, None]
        text[whole, 1 : top + 2] = np.where(digit & (lead == 0), _ZERO, lead)
    text[:, -1] = _COMMA
    text[cols - 1 :: cols, -1] = _NEWLINE
    if other.size:
        text[other, 1:-1] = 0
        text[other, 1:4] = _CONSTANTS.take(np.minimum(kind, 2), axis=0)
        text[other[kind == 0], 0] = 0
    for i, s in zip(slow, texts):
        text[i, :-1] = 0
        text[i, : len(s)] = np.frombuffer(s, dtype=np.uint8)
    return text.tobytes().translate(None, b"\0")


def write_csv(path, header: str, *columns) -> None:
    """``header`` and the ``%.17g`` rows of ``np.column_stack(columns)`` to ``path``,
    the bytes ``np.savetxt`` writes with ``delimiter=","`` and ``comments=""``.

    Each column is a 1-D array or a 2-D array of columns, all with the same
    number of rows; the table is stacked one block of rows at a time.
    """
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    rows = len(columns[0])
    width = sum(1 if c.ndim == 1 else c.shape[1] for c in columns)
    step = max(1, _BLOCK_VALUES // width)
    with open(path, "wb") as out:
        out.write(header.encode() + b"\n")
        for j in range(0, rows, step):
            out.write(format_rows(np.column_stack([c[j : j + step] for c in columns])))
