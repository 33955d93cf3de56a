"""Python's ``repr`` text of float64 tables, without a Python call per number.

``csv_body(values)`` returns the bytes of ``"".join(",".join(map(repr, row))
+ "\\n" for row in values)`` for a finite 2-d float64 array.  It works in
blocks of ``BLOCK`` values, in three stages:

1. Shortest digits by Schubfach (R. Giulietti, "The Schubfach way to render
   doubles", 2020), in uint64 arithmetic with a 128-bit table of powers of
   ten: the shortest decimal f 10^k that reads back as the same double,
   the one nearest to it when several are shortest, as ``repr`` picks.
   Each value takes one exact 128-bit product per table word, from 32-bit
   halves; the two ends of its rounding interval differ from it by a
   power of two, so their products follow by shifts, carries and borrows
   (as in J. Jeon's Dragonbox, 2020, one product per value).
2. ASCII digits: f is left-aligned to 17 digits, whose last 16 are looked
   up four at a time in a "0000"..."9999" table of uint32 words.
3. Layout: one gather through byte templates keyed by sign, significant
   digit count and exponent class writes ``repr``'s fixed or exponent form
   and the separator; a length mask drops the unused template bytes.

The lookup tables are built at the first call, not at import.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

#: values per block.  On a 16384 x 4 table, blocks of 65536 values took 1.2x
#: the CPU time and raised the peak RSS by 22.7 MB against 3.9 MB; blocks of
#: 8192 were as fast there, and on a 4096 x 4 table they raised it by 3.1 MB
#: against 1.5 MB (2 cores, numpy 2.4)
BLOCK = 4096

# uint64 arrays are combined with np.uint64 scalars only: under numpy 1.x a
# uint64 array and a Python int promote to float64
_U1, _U2, _U4, _U10, _U32, _U40, _U52, _U63, _U64 = (
    np.uint64(n) for n in (1, 2, 4, 10, 32, 40, 52, 63, 64))
_MASK11 = np.uint64(2 ** 11 - 1)
_MASK32 = np.uint64(2 ** 32 - 1)
_MASK52 = np.uint64(2 ** 52 - 1)
_MASK63 = np.uint64(2 ** 63 - 1)
#: offset of the irregular exponent fields in the scale table
_IRREGULAR = np.uint64(2 ** 11)
_E8, _E16 = np.uint64(10 ** 8), np.uint64(10 ** 16)

#: the decimal exponents k of the 10^k scales of all finite doubles, and the
#: decimal point positions p of their texts 0.ddd 10^p (17 digits at most)
K_MIN, K_MAX = -324, 292
POINT_MIN, POINT_MAX = K_MIN + 1, K_MAX + 17


def _flog2pow10(e):
    """floor(log2(10^e)) for |e| <= 1233."""
    return (e * 913124641741) >> 38


#: output template positions in the 28 source bytes of one value: digit i of
#: 17 at _DIGITS[i], the exponent's three digits at _EXP_DIGITS (a zero-padded
#: "0ddd" word at 20..23), the separator at 26
_DIGITS = [0] + list(range(4, 20))
_EXP_DIGITS = [21, 22, 23]
_DOT, _MINUS, _E, _PLUS, _ZERO, _SEP = 1, 2, 3, 24, 25, 26
_ROW = 28
_WIDTH = 25                       # "-d.dddddddddddddddde-ddd" and a separator
#: source word 0 holds the leading digit and ".", "-", "e"; word 6 "+", "0"
_WORD0 = np.uint64(ord("0") | ord(".") << 8 | ord("-") << 16 | ord("e") << 24)
_WORD6 = ord("+") | ord("0") << 8
_CLASSES = 24   # fixed form for decimal point positions -3..16, 4 exponent forms


def _point_class(point: int) -> int:
    """repr's layout class of a value 0.ddd 10^point."""
    if -3 <= point <= 16:
        return point + 3
    return 20 + 2 * (point < 1) + (abs(point - 1) >= 100)


def _template(neg: int, n: int, cls: int) -> list[int]:
    """Source positions of ``repr`` for sign, n significant digits and class."""
    out = [_MINUS] if neg else []
    if cls < 20:                            # fixed: 0.000ddd, dd.ddd, ddd00.0
        point = cls - 3
        if point <= 0:
            out += [_ZERO, _DOT] + [_ZERO] * -point + _DIGITS[:n]
        elif point < n:
            out += _DIGITS[:point] + [_DOT] + _DIGITS[point:n]
        else:                               # digits past n are "0" already
            out += _DIGITS[:point] + [_DOT, _ZERO]
    else:                                   # d.ddde-dd, de+ddd
        neg_exp, wide = divmod(cls - 20, 2)
        out += _DIGITS[:1] + ([_DOT] + _DIGITS[1:n] if n > 1 else [])
        out += [_E, _MINUS if neg_exp else _PLUS] + _EXP_DIGITS[1 - wide:]
    return out + [_SEP]


class _Tables(NamedTuple):
    scales: np.ndarray      # (5, 2^12) hidden bit, h, g1, g0, k per exponent field
    pow10: np.ndarray       # 10^0 ... 10^17
    quads: np.ndarray       # "0000"..."9999" as little-endian uint32 words
    classes: np.ndarray     # _point_class per point - POINT_MIN
    exp_words: np.ndarray   # "0ddd" of |point - 1| per point - POINT_MIN
    templates: np.ndarray   # (keys, _WIDTH) source positions per key, intp for take
    used: np.ndarray        # (keys, _WIDTH) the positions each template uses


@functools.cache
def _tables() -> _Tables:
    """The power-of-ten table, digit lookups and layout templates."""
    # g = floor(10^-k 2^-r) + 1 with 2^125 <= g < 2^126, as g1 2^63 + g0
    g = [(10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1
         for k in range(K_MIN, K_MAX + 1) for r in [_flog2pow10(-k) - 125]]
    g = np.array([[x >> 63 for x in g], [x & (2 ** 63 - 1) for x in g]], dtype=np.uint64)
    # per 11-bit exponent field bq of v = c 2^q: c's hidden bit, h, g1, g0
    # and k; at _IRREGULAR + bq again for c = 2^52 above the subnormals'
    # q = -1074, whose lower neighbour is closer: k = floor(log10(3/4 2^q))
    # there, floor(log10(2^q)) elsewhere
    bq = np.arange(2 * 2 ** 11) % 2 ** 11
    irregular = np.arange(2 * 2 ** 11) >= 2 ** 11
    q = np.maximum(bq, 1) - 1075
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = q + _flog2pow10(-k) + 2
    scales = np.array([(bq > 0) << 52, h, *g.take(k - K_MIN, axis=1), k], dtype=np.uint64)
    quad = np.arange(10000)
    quads = sum((quad // 10 ** (3 - j) % 10 + ord("0")) << 8 * j
                for j in range(4)).astype("<u4")
    points = range(POINT_MIN, POINT_MAX + 1)
    keys = [(neg, n, cls) for neg in (0, 1) for n in range(1, 18)
            for cls in range(_CLASSES)]
    templates = np.zeros((len(keys), _WIDTH), dtype=np.intp)
    used = np.zeros((len(keys), _WIDTH), dtype=bool)
    for row, key in enumerate(keys):
        positions = _template(*key)
        templates[row, :len(positions)] = positions
        used[row, :len(positions)] = True
    tables = _Tables(
        scales=scales,
        pow10=np.array([10 ** i for i in range(18)], dtype=np.uint64),
        quads=quads,
        classes=np.array([_point_class(p) for p in points], dtype=np.intp),
        exp_words=quads[[abs(p - 1) for p in points]],
        templates=templates, used=used)
    for table in tables:                # shared by every call
        table.setflags(write=False)
    return tables


def _mul128(g, cp):
    """High and low 64-bit words of g cp, for g < 2^63 and cp < 2^60.

    From 32-bit halves: the cross products stay below 2^63 and 2^60, so
    their sum with the carry of the low product needs no split.
    """
    g_lo, g_hi = g & _MASK32, g >> _U32
    cp_lo, cp_hi = cp & _MASK32, cp >> _U32
    mid = ((g_lo * cp_lo) >> _U32) + g_lo * cp_hi + g_hi * cp_lo
    return g_hi * cp_hi + (mid >> _U32), g * cp


def _bounds(bits, scales):
    """c, k and Schubfach's vb, vbl, vbr of each value v = c 2^q.

    Each is Giulietti's rop(g, cp), floor(g cp 2^-127) with its last bit set
    when inexact (his figure 8), for g = g1 2^63 + g0 and cp = cb 2^h: cb = 4c
    for vb, 4c - 2 for vbl (4c - 1 when c = 2^52 above the subnormals) and
    4c + 2 for vbr.  The three differ only by g 2^(h+1) or g 2^h, so g1 cp
    and g0 cp are multiplied once, in 128 bits, and the neighbours' words
    follow by shifts with explicit borrows and carries.
    """
    bq = (bits >> _U52) & _MASK11
    t = bits & _MASK52
    irregular = (t == 0) & (bq > _U1)
    scale = scales.take((bq + irregular * _IRREGULAR).view(np.int64), axis=1)
    hidden, h, k, g = scale[0], scale[1], scale[4], scale[2:4]
    c = t | hidden
    hi, lo = _mul128(g, c << (h + _U2))     # rows g1 cp and g0 cp
    # vbr: + g 2^up, vbl: - g 2^down, with the carry and borrow of the low word
    up = h + _U1
    down = up - irregular
    lo_r = lo + (g << up)
    lo_l = lo - (g << down)
    hi_r = hi + (g >> (_U64 - up)) + (lo_r < lo)
    hi_l = hi - (g >> (_U64 - down)) - (lo_l > lo)
    # the words x1 = high g0 cp, y0 = low g1 cp, y1 = high g1 cp of each lane
    x1 = np.array([hi[1], hi_l[1], hi_r[1]])
    y0 = np.array([lo[0], lo_l[0], lo_r[0]])
    y1 = np.array([hi[0], hi_l[0], hi_r[0]])
    z = (y0 >> _U1) + x1
    vb, vbl, vbr = (y1 + (z >> _U63)) | (((z & _MASK63) + _MASK63) >> _U63)
    return c, k.view(np.int64), vb, vbl, vbr


def _shortest(bits, scales):
    """Schubfach digits: (f, k) with the value's shortest text f 10^k.

    Zeros give (0, 1).
    """
    c, k, vb, vbl, vbr = _bounds(bits, scales)
    odd = c & _U1       # the rounding interval is closed when c is even
    vbl += odd
    vbr -= odd
    s = vb >> _U2
    # one digit shorter: u' = 10 floor(s/10) or w' = u' + 10, the one in range
    sp10 = s // _U10 * _U10
    upin = vbl <= sp10 << _U2
    wpin = (sp10 << _U2) + _U40 <= vbr
    # else s or s + 1: the one in range, or when both are, the nearer, ties to even
    s4 = s << _U2
    take_s = (vbl <= s4) & ((vbr < s4 + _U4) | (vb + (s & _U1) <= s4 + _U2))
    f = np.where(upin, sp10, np.where(wpin, sp10 + _U10, np.where(take_s, s, s + _U1)))
    zero = (bits << _U1) == 0
    f[zero] = 0
    k[zero] = 1
    return f, k


def _source(flat, seps, tables: _Tables):
    """The source bytes (values, _ROW) of a 1-d float64 block and each value's template key."""
    bits = flat.view(np.uint64)
    f, k = _shortest(bits, tables.scales)
    ndigits = np.searchsorted(tables.pow10, f, side="right")
    f17 = f * tables.pow10[17 - ndigits]
    lead = f17 // _E16
    rest = f17 - lead * _E16
    hi8 = rest // _E8
    # digits 1..16 in groups of four: the upper and lower halves of hi8, lo8
    halves = np.array([hi8, rest - hi8 * _E8], dtype=np.uint32)
    uppers = halves // 10000
    point = k + ndigits - POINT_MIN         # value = 0.ddd 10^(point + POINT_MIN)
    src = np.empty((flat.size, _ROW // 4), dtype="<u4")
    src[:, 0] = lead + _WORD0
    for word, group in zip((1, 3, 2, 4), (*uppers, *(halves - uppers * 10000))):
        src[:, word] = tables.quads.take(group)
    src[:, 5] = tables.exp_words.take(point)
    src[:, 6] = seps
    text = src.view(np.uint8)
    # trailing zeros of digits 1..16: the "e" at byte 3 ends the scan
    zeros = np.argmax(text[:, 19:2:-1] != ord("0"), axis=1)
    key = (((bits >> _U63).astype(np.intp) * 17 + 16 - zeros) * _CLASSES
           + tables.classes.take(point))
    return text, key


def _text_block(flat, seps, tables: _Tables) -> bytes:
    """``repr`` of each value of a 1-d float64 block, each followed by its separator."""
    # the digit stages' temporaries are freed before the gather's index exists
    text, key = _source(flat, seps, tables)
    index = tables.templates.take(key, axis=0)
    index += np.arange(0, flat.size * _ROW, _ROW)[:, None]
    return text.ravel().take(index)[tables.used.take(key, axis=0)].tobytes()


def csv_body(values: np.ndarray) -> bytes:
    """The CSV lines of a finite 2-d float64 array: ``repr`` cells, "," and "\\n"."""
    if values.size == 0:
        return b""
    tables = _tables()
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    width = values.shape[1]
    # source word 6 with the separator after each cell: "\n" after a row's last
    seps = np.full(flat.size, _WORD6 | ord(",") << 16, dtype="<u4")
    seps[width - 1::width] = _WORD6 | ord("\n") << 16
    return b"".join(_text_block(flat[start:start + BLOCK], seps[start:start + BLOCK], tables)
                    for start in range(0, flat.size, BLOCK))
