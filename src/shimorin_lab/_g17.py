"""CSV rows whose floats carry the bytes of CPython's ``"%.17g" % x``, built with numpy.

``"%.17g"`` runs David Gay's correctly rounded bignum dtoa, about 0.8 us per
float. Here the 17 digits of |x| come from a double-double product instead
(Dekker's two-product with a (hi, lo) table of 10^s built from exact
fractions): |x| * 10^(16 - k) = h + L, with h an integer-valued double and
|L| < 32 known to ~1e-14. The floor F of the product fixes the decimal exponent
k (10^16 <= F < 10^17), and the digits are F, or F + 1 when the fraction is
above 1/2. The exponent is corrected on the floor, not on the rounded value: a
product just below 10^16 rounds to 10^16 but has 17 digits at k - 1 (1e-225).

An element is formatted by ``%`` itself when it is nan, infinite, subnormal,
outside [1e-200, 1e200] (zero excepted), within 1e-6 of a decimal midpoint
(where the exact tie rule decides), or when two exponent steps do not settle
its k. Everything else follows the ``%g`` layout: scientific when k < -4 or
k >= 17, with at least two exponent digits, trailing zeros and a bare '.'
stripped.

A float's field is four little-endian 8-byte words, NUL where no character
goes: ``[NUL , sign 0 0 0 0 d0] [d1..d8] [d9..d16] [e +dd(d) NUL..]``. The
leading zeros, the exponent and the point's place depend on the decimal
exponent only, so they come from per-exponent tables; the point goes in by
shifting the bytes before it one place left. A block of rows is one word
matrix, compacted with ``bytes.translate``. The tables are built on first use.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

import numpy as np

_LO, _HI = 1e-200, 1e200    # |x| range of the double-double path
_K_MIN, _K_MAX = -203, 203  # decimal exponents of the tables (two steps past the range)
_TIE = 1e-6                 # fraction this close to 1/2: leave the rounding to '%'
_BLOCK = 2048               # rows per write (about 0.9 KB of temporaries per row)
_E16, _E17 = 10 ** 16, 10 ** 17
_ZERO_KEY = _K_MAX - _K_MIN + 1  # layout of +-0.0
_FALLBACK_KEY = _ZERO_KEY + 1    # no digits; the '%' bytes are written over the field
_U8 = np.dtype("<u8")


def _words(byte_rows: np.ndarray) -> np.ndarray:
    """(m, 8j) bytes -> (m, j) little-endian words holding the same bytes."""
    return np.ascontiguousarray(byte_rows, dtype=np.uint8).view(_U8)


def _mask(keep: np.ndarray) -> np.ndarray:
    """Rows of byte flags -> their 0xFF masks, one contiguous array per word."""
    return _words(keep * np.uint8(0xFF)).T.copy()


@cache
def _tabs() -> dict:
    """The 10^s table and the layout tables, built on first use, read-only."""
    ks = range(_K_MIN, _K_MAX + 1)
    hi, lo = [], []
    for k in ks:
        exact = Fraction(10) ** (16 - k)
        hi.append(float(exact))
        lo.append(float(exact - Fraction(hi[-1])))
    hi = np.array(hi)
    c = 134217729.0 * hi  # Dekker's split of each 10^s into two 26-bit halves
    hi_h = c - (c - hi)

    # per layout key: word 0 without sign and d0, word 3, the digits kept
    # before the point, the most digits shown, and the byte the point follows
    n_keys = _FALLBACK_KEY + 1
    head = np.zeros((n_keys, 8), dtype=np.uint8)
    head[:, 1] = ord(",")
    tail = np.zeros((n_keys, 8), dtype=np.uint8)
    before = np.zeros(n_keys, dtype=np.int64)
    cap = np.full(n_keys, 17, dtype=np.int64)
    point = np.full(n_keys, 7, dtype=np.int64)
    for key, k in enumerate(ks):
        if -4 <= k < 0:
            head[key, 7 + k:7] = ord("0")
            point[key] = 7 + k
        elif 0 <= k < 17:
            before[key], point[key] = k + 1, 7 + k
        else:
            exp = b"e%+03d" % k
            tail[key, :len(exp)] = np.frombuffer(exp, np.uint8)
            before[key] = 1
    head[_ZERO_KEY, 6] = ord("0")
    cap[_ZERO_KEY] = cap[_FALLBACK_KEY] = 0

    # masks over words 0-2, bytes 0..23, where digit d_i is byte 7 + i; the
    # point tables have a 25th row for "no point"
    byte = np.arange(24)
    p = np.arange(25)[:, None]

    # per 4-digit group g of d1..d16 and its value r: the digits up to the
    # group's last nonzero one (1, d0 alone, when r = 0)
    text = np.array([b"%04d" % r for r in range(10000)], dtype="S4")
    last = np.zeros(10000, dtype=np.int64)
    for i in range(4):
        last[text.view(np.uint8).reshape(-1, 4)[:, i] != ord("0")] = i + 1
    upto = np.where(last > 0, last + 1 + 4 * np.arange(4)[:, None], 1)

    # right-aligned integers in j words: the bytes kept for each digit count
    int_lead = {j: _mask(np.arange(8 * j) >= 8 * j - np.arange(8 * j + 1)[:, None])
                for j in (1, 2, 3)}

    tables = {"hi": hi, "hi_h": hi_h, "hi_l": hi - hi_h, "lo": np.array(lo),
              "head": _words(head)[:, 0], "tail": _words(tail)[:, 0],
              "before": before, "cap": cap, "point": point,
              "kept": _mask((byte < 7) | (byte - 7 < np.arange(18)[:, None])),
              "left": _mask(byte < p), "right": _mask(byte > p),
              "dot": _words((byte == p) * np.uint8(ord("."))).T.copy(),
              "quad": text.view("<u4"), "upto": upto}
    tables.update({("lead", j): m for j, m in int_lead.items()})
    for array in tables.values():
        array.flags.writeable = False
    return tables


def _product(a, a_h, a_l, j, t):
    """Floor and fraction of a * 10^(16 - k) for the table rows j = k - _K_MIN."""
    h = a * t["hi"][j]
    p_h, p_l = t["hi_h"][j], t["hi_l"][j]
    low = (((a_h * p_h - h) + a_h * p_l) + a_l * p_h) + a_l * p_l + a * t["lo"][j]
    fl = np.floor(low)
    return h.astype(np.int64) + fl.astype(np.int64), low - fl


def _digits(a: np.ndarray, t: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, k, ok): the 17 significant digits of a >= 0 as an integer in
    [10^16, 10^17) and its decimal exponent, on the elements where ok."""
    ok = (a >= _LO) & (a <= _HI)
    a = np.where(ok, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    c = 134217729.0 * a
    a_h = c - (c - a)
    a_l = a - a_h
    F, frac = _product(a, a_h, a_l, k - _K_MIN, t)
    off = np.flatnonzero((F < _E16) | (F >= _E17))
    for _ in range(2):  # log10 was an ulp off: step k until the floor has 17 digits
        if not len(off):
            break
        k[off] += (F[off] >= _E17).astype(np.int64) - (F[off] < _E16)
        F[off], frac[off] = _product(a[off], a_h[off], a_l[off], k[off] - _K_MIN, t)
        off = off[(F[off] < _E16) | (F[off] >= _E17)]
    ok[off] = False
    ok &= np.abs(frac - 0.5) >= _TIE
    D = F + (frac > 0.5)
    top = D == _E17
    D[top] = _E16
    k += top
    return D, k, ok


def _float_words(x: np.ndarray) -> np.ndarray:
    """(len(x), 4) little-endian words: ',' and each element's '%.17g' bytes."""
    t = _tabs()
    D, k, ok = _digits(np.abs(x), t)
    key = k - _K_MIN
    zero = x == 0.0
    key[zero] = _ZERO_KEY
    fallback = ~(ok | zero)
    key[fallback] = _FALLBACK_KEY

    lead, rest = np.divmod(D, _E16)
    hi8, lo8 = np.divmod(rest, 10 ** 8)
    groups = [*np.divmod(hi8, 10000), *np.divmod(lo8, 10000)]
    out = np.empty((len(x), 4), dtype=_U8)
    quads = out.view("<u4")
    for g, r in enumerate(groups):
        quads[:, 2 + g] = t["quad"][r]
    upto = t["upto"]
    nd = np.maximum(np.maximum(upto[0][groups[0]], upto[1][groups[1]]),
                    np.maximum(upto[2][groups[2]], upto[3][groups[3]]))
    nd = np.minimum(nd, t["cap"][key])
    before = t["before"][key]
    kept = [m[np.maximum(nd, before)] for m in t["kept"]]
    sign = np.signbit(x).astype(np.uint64) * np.uint64(ord("-"))
    w = [(t["head"][key] | sign << 16 | (lead.astype(np.uint64) + ord("0")) << 56) & kept[0],
         out[:, 1] & kept[1], out[:, 2] & kept[2], np.uint64(0)]
    # the point follows byte p: bytes 1..p move one place left, p takes the point
    p = t["point"][key]
    p_dot = np.where(nd > before, p, 24)
    for i in range(3):
        out[:, i] = (((w[i] >> 8 | w[i + 1] << 56) & t["left"][i][p])
                     | (w[i] & t["right"][i][p]) | t["dot"][i][p_dot])
    out[:, 3] = t["tail"][key]
    if fallback.any():
        rows = np.flatnonzero(fallback)
        text = np.array([",%.17g" % v for v in x[rows].tolist()], dtype="S32")
        out[rows] = text.view(_U8).reshape(-1, 4)
    return out


def _int_words(n: np.ndarray) -> np.ndarray:
    """(len(n), j) little-endian words: each non-negative integer's '%d' bytes."""
    t = _tabs()
    j = -(-len(str(int(n.max(initial=0)))) // 8)
    out = np.empty((len(n), j), dtype=_U8)
    quads = out.view("<u4")
    rest = n
    for g in range(2 * j - 1, -1, -1):
        rest, r = np.divmod(rest, 10000)
        quads[:, g] = t["quad"][r]
    digits = np.searchsorted(10 ** np.arange(1, min(8 * j, 19)), n, side="right") + 1
    for i, mask in enumerate(t["lead", j]):
        out[:, i] &= mask[digits]
    return out


def write_rows(fh, n: np.ndarray, *columns: np.ndarray) -> None:
    """Write the rows '%d,%.17g,...,%.17g\\n' of n >= 0 and the float columns to fh,
    one block of rows at a time."""
    for start in range(0, len(n), _BLOCK):
        block = slice(start, start + _BLOCK)
        ints = _int_words(n[block])
        floats = _float_words(np.stack([c[block] for c in columns], axis=1).ravel())
        rows = np.hstack([ints, floats.reshape(len(ints), -1)])
        rows.view(np.uint8)[:, -1] = ord("\n")
        fh.write(rows.tobytes().translate(None, b"\0").decode("ascii"))
