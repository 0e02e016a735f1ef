"""Float64 table cells over whole arrays: ``"%.16e" % v`` for CSV and ``repr(v)`` for JSON, byte for byte.

Both formats share one double-double core.  For a nonzero double x with decimal exponent k it forms
y = |x| 10^(16-k) in [1e16, 1e17) as floor(y) plus a fraction: a Dekker product of the frexp mantissa with a
double-double 10^(16-k), relative error near 2^-103, so within 2^-45 in units of y.  ``%.16e`` takes the
nearest integer to y as its 17 digits.  ``repr`` takes the shortest digits inside x's rounding interval, the
nearest such when several fit (Steele and White, PLDI 1990; Adams, PLDI 2018).  A cell that the error bound
cannot decide, within _MARGIN of a rounding boundary, is formatted by ``%`` or ``repr`` itself, and so are
inputs under _SMALL values, where the array path's fixed cost (0.1 ms for CSV, 0.3 ms for JSON) exceeds its
saving of about 1 microsecond a value.
"""

from __future__ import annotations

import functools

import numpy as np

WIDTH = 24  # bytes of the longest float cell in either format, "-2.2250738585072014e-308"
_SMALL = 256
_MARGIN = 2.0**-32  # far above the core's error in units of y, far below the 1/2 of a rounding
_E_LO, _E_HI = -293, 341  # 16 - k for every decimal exponent k of a finite double, one beyond each end
_P10 = 10 ** np.arange(17, dtype=np.int64)


@functools.cache
def _tables():
    """Tables built on first use, none at import.

    - 10^e = (hi + lo) 2^b for e in [_E_LO, _E_HI] with hi in [1, 2), each part correctly rounded (Python's int
      division rounds correctly).
    - A cell is six 4-byte words, sign (or 0) d1 "." d2 | d3-d6 | d7-d10 | d11-d14 | d15-d17 "e" | exponent: the
      text of "%.16e", and of repr's exponent form ("1.25e-05") once the digits past its last are blanked.  Masks
      keep the first c bytes of a word (c from 0 to 4); then come the "e" alone, and the "0" that repr's positional
      forms take from the exponent word.
    - The byte order of repr's positional forms by decimal exponent k from -4 to 15, "0.00012" and "1200.0" or
      "12.5", as indices into a cell (20 holds "0", 21 a blank).
    """
    rows = []
    for e in range(_E_LO, _E_HI + 1):
        num, den = (5**e, 1) if e >= 0 else (1, 5**-e)
        s = 64 + den.bit_length() - num.bit_length()  # 5^e 2^s = num / den lies near 2^64
        num, den = (num << s, den) if s >= 0 else (num, den << -s)
        h = num / den
        rows.append((h, (num - int(h) * den) / den, e - s))
    h, lo, b = np.array(rows).T
    mant, ex = np.frexp(h)
    heads, digits3, exponents, keep = (np.frombuffer(b"".join(text), np.uint32) for text in (
        (sign + b"%d.%d" % divmod(i, 10) for sign in (b"\0", b"-") for i in range(100)),
        (b"%03de" % i for i in range(10**3)),
        ((b"%+03d" % k).ljust(4, b"\0") for k in range(-400, 401)),
        [b"\xff" * c + b"\0" * (4 - c) for c in range(5)] + [b"\0\0\0e", b"0\0\0\0"],
    ))
    digits4 = (np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")).copy().view(np.uint32)[:, 0]
    digit = [1, 3, *range(4, 19)]  # d1-d17
    layouts = [[0, 20, 2] + [20] * (-k - 1) + digit for k in range(-4, 0)]
    layouts += [[0] + digit[:k + 1] + [2] + digit[k + 1:] for k in range(16)]
    templates = np.array([row + [21] * (WIDTH - len(row)) for row in layouts], np.intp)
    words = heads, digits4, digits3, exponents, keep
    return (2.0 * mant, np.ldexp(lo, 1 - ex), (b + ex - 1).astype(np.int32)), words, templates


def _split(v):
    """Veltkamp's split of doubles into two 26-bit halves, v = high + low exactly."""
    high = 134217729.0 * v  # c
    low = high - v
    high -= low  # c - (c - v)
    return high, np.subtract(v, high, out=low)


def _product(m, ex, k):
    """y = m 2^ex 10^(16 - k) as yh + yl, with its binary scale and the parts of 10^(16 - k) that make it."""
    powers, lows, scales = _tables()[0]
    row = 16 - _E_LO - k
    hi, scale = powers[row], scales[row]
    del row
    scale += ex  # int32: numpy's ldexp is about 20 times slower with int64 exponents
    p = m * hi
    (m_h, m_l), (hi_h, hi_l) = _split(m), _split(hi)
    err = m_h * hi_h
    err -= p
    err += np.multiply(m_h, hi_l, out=m_h)  # m hi = p + err exactly (Dekker); each product overwrites a dead half
    err += np.multiply(m_l, hi_h, out=hi_h)
    err += np.multiply(m_l, hi_l, out=m_l)
    del m_h, m_l, hi_h
    lo = np.take(lows, 16 - _E_LO - k, out=hi_l)  # gathered once the halves are spent
    err += m * lo
    return np.ldexp(p, scale, out=p), np.ldexp(err, scale, out=err), scale, hi, lo


def _core(x, half_ulp):
    """For finite doubles ``x``: k, y = n + frac with n an int64 and 0 <= frac < 1, where x is zero, and with
    ``half_ulp`` x's half ulp in units of y as h + h_lo and where x is a power of two (else None).  A zero is
    taken for 1."""
    zero = x == 0.0
    a = np.abs(x)
    a[zero] = 1.0
    m, ex = np.frexp(a)
    k = np.floor(np.log10(a, out=a), out=a).astype(np.intp)  # intp: a gather index of any other type is cast first
    del a
    parts = _product(m, ex, k)
    yh, yl, scale, hi, lo = parts
    # log10 can miss by one next to a power of ten; yh - 1e16 and yh - 1e17 are exact, so these signs are too.  Where
    # y lies too near 1e16 or 1e17 for the bound, either k gives %.16e the same digits (after a carry), and repr
    # finds 1e16 or 1e17 in the rounding interval from either side.
    high = (yh - 1e17) + yl
    moved = np.flatnonzero(((yh - 1e16) + yl < 0) | (high >= 0))
    if moved.size:
        k[moved] += np.where(high[moved] >= 0, 1, -1)
        for part, new in zip(parts, _product(m[moved], ex[moved], k[moved])):
            part[moved] = new
    del parts, high
    ulp = None
    if half_ulp:  # the ulp is 2^(ex - 53) for normals, 2^-1074 below
        half = scale - ex + np.maximum(ex, -1021) - 54
        ulp = np.ldexp(hi, half, out=hi), np.ldexp(lo, half, out=lo), m == 0.5
    del scale, hi, lo, m, ex
    below = np.floor(yl)
    n = yh.astype(np.int64)
    del yh
    n += below.astype(np.int64)
    yl -= below
    return k, n, yl, zero, ulp


def _digits(x, shortest):
    """For finite doubles ``x``: 17 digits (int64, from 1e16 up, or 0) and k for ``%.16e``, or with ``shortest``
    those of ``repr`` and the count j of trailing zeros past them; and the cells that the bound cannot decide."""
    k, n, frac, zero, ulp = _core(x, shortest)
    q, above, rest, uncertain, j = 1, n, 0, np.zeros(x.size, bool), None  # %.16e: the integer nearest to y
    if shortest:
        h, h_lo, power_of_two = ulp  # x's half ulp in units of y, as h_int + h_frac + h_lo
        h_int = np.floor(h)
        h_frac = np.subtract(h, h_int, out=h)
        # the integers in x's rounding interval [y - h, y + h] are [first, last]; an end near an integer is undecided
        g_first, g_last = frac - h_frac, frac + h_frac
        g_first -= h_lo
        g_last += h_lo
        del ulp, h, h_frac, h_lo
        h_int = h_int.astype(np.int64)
        first, last = n - h_int, n + h_int
        del h_int
        first += np.ceil(g_first).astype(np.int64)
        last += np.floor(g_last).astype(np.int64)
        uncertain = power_of_two  # its interval is twice as long above it as below
        for g in g_first, g_last:
            g -= np.rint(g)
            uncertain |= np.abs(g, out=g) < _MARGIN
        del g, g_first, g_last
        # j: the largest power 10^j with a multiple in [first, last]; the test is monotone in j
        j, rows = np.zeros(x.size, np.int64), np.flatnonzero(~uncertain)
        for q in _P10[1:]:
            rows = rows[(last[rows] // q) * q >= first[rows]]
            if not rows.size:
                break
            j[rows] += 1
        j[zero] = 16  # "0.0"
        del first, last, rows
        q = _P10[j]
        above = n // q
        rest = np.subtract(n, above * q, out=n)
    # the multiple of q nearest to y: up when y mod q > q / 2, a tie when they are within _MARGIN
    t = np.multiply(frac, 2.0, out=frac)
    t += 2 * rest - q  # 2 (y mod q) - q, exact where it is small
    uncertain = np.flatnonzero((uncertain | (np.abs(t) < 2.0 * _MARGIN)) & ~zero)
    digits = above
    digits += t > 0
    digits *= q
    digits[zero], k[zero] = 0, 0
    carry = digits >= 10**17  # the double 1e-14 lies below 10^-14 and prints as 1.0000000000000000e-14
    digits[carry], k[carry] = 10**16, k[carry] + 1
    return digits, k, j, uncertain


def _render(x, shortest):
    """The cells of finite doubles ``x``: 17 digits (``%.16e``), or the shortest that round-trip (``repr``)."""
    digits, k, j, uncertain = _digits(x, shortest)
    heads, digits4, digits3, exponents, keep_bytes = _tables()[1]
    words = np.empty((x.size, 6), np.uint32)
    head = digits // 10**15  # d1 d2
    words[:, 0] = heads[np.signbit(x) * 100 + head]
    digits -= head * 10**15  # d3-d17
    for w, scale in ((1, 10**11), (2, 10**7), (3, 10**3)):
        group = digits // scale
        words[:, w] = digits4[group]
        digits -= group * scale
    words[:, 4] = digits3[digits]
    del digits
    words[:, 5] = exponents[k + 400]
    out = words.view(np.uint8)
    if shortest:
        # blank the digits past the last significant one, but positional "1200.0" keeps its integer zeros and one
        # fraction zero, and the exponent form drops its point with one digit left ("1e-05"); then gather the
        # positional forms' bytes, one exponent at a time
        positional, p = (k >= -4) & (k < 16), np.subtract(17, j, out=j)
        keep = np.where(positional & (k >= 0), np.maximum(p, k + 2), p)
        del j, p
        words[:, 0] &= keep_bytes[np.where(keep > 1, 4, 2 + positional)]
        for w in range(1, 5):  # word w holds digits 4 w - 1 to 4 w + 2
            words[:, w] &= keep_bytes[np.clip(keep - 4 * w + 2, 0, 4)]
        del keep
        words[:, 4] |= keep_bytes[5] * ~positional  # the "e"
        words[positional, 5] = keep_bytes[6]
        templates = _tables()[2]
        for exponent in np.unique(k[positional]):  # a table holds a handful of exponents: one gather each is cheap
            rows = np.flatnonzero(positional & (k == exponent))
            out[rows] = np.take(out, rows, axis=0)[:, templates[exponent + 4]]
    out[uncertain] = _exact(x[uncertain], repr if shortest else b"%.16e".__mod__).view(np.uint8).reshape(-1, WIDTH)
    return out.view(f"S{WIDTH}")[:, 0]


def _exact(values, render):
    """Each of ``values`` rendered by ``render`` itself, as zero-padded cells."""
    return np.fromiter(map(render, values.tolist()), f"S{WIDTH}", count=values.size)


def _format(values: np.ndarray, shortest: bool) -> np.ndarray:
    """The cells of ``repr`` (``shortest``) or ``%.16e``: by the array path from _SMALL values up, else directly."""
    x = values.ravel()
    text = _exact(x, repr if shortest else b"%.16e".__mod__) if x.size < _SMALL else _render(x, shortest)
    return text.view(np.uint8).reshape(values.shape + (WIDTH,))


def e16(values: np.ndarray) -> np.ndarray:
    """``b"%.16e" % v`` for each finite float64 of ``values``, zero-padded to shape ``values.shape + (24,)``."""
    return _format(values, shortest=False)


def shortest(values: np.ndarray) -> np.ndarray:
    """``repr(v)``, json.dumps's text, for each finite float64 of ``values``, zero-padded as :func:`e16` pads."""
    return _format(values, shortest=True)
