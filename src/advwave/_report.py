"""Deterministic CSV and SVG output helpers for the command line tools.

Every number in a CSV table is written exactly as ``"%.17g" % value`` writes
it: 17 significant digits, correctly rounded with ties to even, so a float64
read back from the table is the one that was written.  Python's formatting
costs close to a microsecond per value (17 digits miss its fast path), more
than most tables take to compute, so ``write_csv`` renders blocks of rows
with one numpy kernel instead.  A block holds about ``_BLOCK_VALUES`` = 4 096
values, whatever the table's width: the kernel's temporaries, about 200 bytes
a value, then stay within a 2 MiB L2 cache (see ``_BLOCK_VALUES`` for timings),
while smaller blocks pay the kernel's fixed cost, about 60 us a call, more
often.  The kernel's tables (``_tables``) are built on its first call.  Each
value goes through four steps:

1. **Scale.**  |x| times 10**(16 - k), k = floor(log10 |x|), is formed as a
   double-double: Dekker's exact product (``core._two_prod``) of |x| and the
   double nearest 10**(16 - k), plus |x| times that power's rounding
   remainder.  One table holds, for every exponent the kernel can ask for
   (10**-260 to 10**270), the (hi, lo) pair, correctly rounded from Python
   integers, and hi's Veltkamp halves; |x| is split by clearing its 27 low
   mantissa bits.
2. **Round.**  The scaled value is rounded to a 17-digit integer q; a q
   outside [1e16, 1e17) moves k one decade, and q = 1e17 after rounding
   becomes 1e16 in the next decade.  Only the q at or past those two edges
   are looked at again.
3. **Render.**  q's lead digit and its four groups of four digits come from
   a chain of floor divisions by 10**4, each followed by a multiply-subtract.
   The groups' characters, from a lookup table, go into a fixed-slot canvas
   of 48 bytes per value: sign, the "0.000" lead of fixed notation, each
   digit followed by a slot for the decimal point, the exponent and the
   separator.  One XOR pattern per (notation, last kept digit) adds the lead
   and the point and clears trailing zeros; a value's notation, the first
   digit it must keep and its exponent are read from three small tables
   indexed by k.  Empty slots hold NUL bytes, which ``bytes.translate``
   removes.
4. **Fall back.**  Non-finite values, |x| outside [1e-250, 1e250), and
   values whose scaled remainder lies within 1e-6 of a half unit, where the
   double-double cannot decide the rounding (exact ties such as 2**-25 among
   them), are formatted by ``"%.17g" %`` itself.

The double-double carries the scaled value to within about 1e-14 of a unit,
so every value the kernel renders itself rounds as printf rounds it.

SVG points
----------
``write_svg`` writes each polyline's ``points`` attribute exactly as
``" ".join(map("%.2f,%.2f".__mod__, zip(xs, ys)))`` would, with a smaller
kernel of the same kind.  Each coordinate v becomes one 8-byte word: s =
100 v is rounded to an integer q, whose integer part (up to four digits,
NUL-padded in front) and two-digit fraction come from lookup tables, and the
last byte holds the separator (``,`` after x, a space after y).  Below 1e6, s
lies within 6e-11 of the exact 100 v, so q is printf's rounding unless s lies
within 1e-6 of a half unit (exact ties such as 576.125 among them).  Those
values, and values that are not finite, carry the sign bit (-0.0 prints as
``-0.00``) or lie outside [0, 1e4), are formatted by ``"%.2f" %`` and spliced
in.  ``write_svg`` plots finite series only, so every series shares one pass
over x for its pixel columns and the runs of points within each
(``_pixel_runs``).  Only the points a series keeps are mapped to y pixels and
formatted.
"""
from __future__ import annotations

import functools

import numpy as np

from .core import _split, _two_prod

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")
_FMT = "%.17g"
# Values formatted at a time, in whole rows: the kernel's temporaries (about 200
# bytes a value) stay within a 2 MiB L2.  Figure 3's 10-column table of 2 001 rows
# at omega0 = 1000 gamma took 2.72 ms in blocks of 1 024 rows (10 240 values),
# 2.50-2.81 ms in blocks of 819 rows (8 190), 2.16-2.23 ms in blocks of 4 090
# values and 2.49-2.57 ms in blocks of 2 040; its default 4-column table of
# 20 373 rows took 8.07-8.20 ms in 1 024-row blocks, 9.40-9.48 ms in 512-row
# blocks and 7.6-10.3 ms in 2 048-row blocks (2-vCPU Xeon VM, one pinned CPU,
# 10th percentile of 60 runs, written to a new file): smaller blocks pay the
# fixed cost of about 80 numpy operations (about 60 us) more often.
_BLOCK_VALUES = 4096

_KERNEL_RANGE = (1e-250, 1e250)  # |x| the kernel renders; the scaled products stay normal
_KERNEL_BITS = np.array(_KERNEL_RANGE).view(np.uint64)  # |x| is inside iff its bits are
_TIE_TOL = 1e-6  # a remainder this close to a half unit goes to "%.17g" % (CSV) or "%.2f" % (SVG)
_Q_MIN, _Q_MAX = 10 ** 16, 10 ** 17  # the 17-digit integers
_X_MIN, _X_MAX = -251, 251  # decimal exponents the kernel can print
_P_MIN, _P_MAX = -260, 270  # the powers 10**p it holds: every 10**(16 - k) and a margin
_SCI = 17  # position class of scientific notation; -4..16 are fixed notation
# canvas bytes per value: 0 sign, 1-5 lead, 2i + 6 digit i and 2i + 7 its point
# slot (i = 0..16), 40-44 exponent, 45 separator, 46-47 padding
_SLOT = 48


def _pow10(p: int):
    """10**p as the nearest double hi and the nearest double to 10**p - hi."""
    if p >= 0:
        exact = 10 ** p
        hi = float(exact)
        lo = float(exact - int(hi))
    else:
        den = 10 ** -p
        hi = 1 / den  # int / int is correctly rounded
        num, two = hi.as_integer_ratio()
        lo = (two - num * den) / (two * den)
    return hi, lo


def _scaled(ax, k, powers):
    """Round ax * 10**(16 - k) to an int64 q; also return the remainder."""
    hi, lo, *hi_halves = np.take(powers, 16 - _P_MIN - k, axis=1)
    prod = ax * hi  # >= 2**53, so an integer; the rest of ax * 10**e follows
    rest = _two_prod(ax, hi, hi_halves)
    rest += ax * lo
    step = np.rint(rest)
    rest -= step
    return np.add(prod, step, dtype=np.int64, casting="unsafe"), rest


@functools.cache
def _tables():
    """The kernel's lookup tables, built on its first call."""
    # group g of four digits (digits 4g+1..4g+4), each followed by a point slot,
    # as one word; the last slot holds the index (1-16) of its last nonzero digit,
    # or 0 if it has none
    d = np.arange(100, dtype=np.int64)
    pairs = (d // 10 + 48) | (d % 10 + 48) << 16
    in_pair = np.where(d % 10 > 0, 2, np.where(d > 0, 1, 0))  # 1-based, 0: none
    within = np.where(in_pair > 0, in_pair + 2, in_pair[:, None]).ravel()  # group 100 a + b
    top = np.where(within > 0, within + np.arange(0, 16, 4)[:, None], 0)
    quads = ((pairs[:, None] | pairs << 32).ravel() | top << 56).reshape(4, -1)  # by g
    # by (position class, last kept digit): lead, point and cleared zeros of words
    # 0-4, and the "0" of the lead digit, which the canvas holds as 0-9
    patch = np.zeros((_SCI + 5, 17, 40), np.uint8)
    patch[..., 6] = 0x30
    for x in range(-4, _SCI + 1):
        pos = 0 if x == _SCI else x  # the digit the point follows; x < 0: in the lead
        for last in range(max(pos, 0), 17):
            row = patch[x + 4, last]
            if pos < 0:
                row[1:2 - x] = np.frombuffer(b"0." + b"0" * (-x - 1), np.uint8)
            row[2 * last + 8::2] = 0x30
            if 0 <= pos < last:
                row[2 * pos + 7] = 0x2E
    patch = patch.reshape(-1, 40).view("<i8").T.astype(np.int64)
    # by exponent k: the first patch row of its class, the digit its fixed
    # notation keeps at least, and its exponent word with a comma after it
    x = np.arange(_X_MIN, _X_MAX + 1)
    fixed = (x >= -4) & (x < _SCI)
    classes = (np.where(fixed, x, _SCI) + 4) * 17
    kept = np.where(fixed & (x > 0), x, 0)
    exponents = np.array([0 if -4 <= k < _SCI else int.from_bytes(b"e%+03d" % k, "little")
                          for k in x.tolist()], np.int64) | ord(",") << 40
    # 10**p for p = _P_MIN.._P_MAX: hi, lo and hi's two Veltkamp halves, each
    # pair stored as it is made, so no list of them is ever held
    powers = np.empty((4, _P_MAX - _P_MIN + 1))
    for i, p in enumerate(range(_P_MIN, _P_MAX + 1)):
        powers[:2, i] = _pow10(p)
    powers[2:] = _split(powers[0])
    return quads, patch, classes, kept, exponents, powers


def _round17(x, powers):
    """|x| to 17 significant digits: q * 10**(k - 16) with q in [1e16, 1e17), or
    q = k = 0 for a zero; and the indices of the values "%.17g" % must format."""
    ax = np.abs(x)
    outside = ax.view(np.uint64) - _KERNEL_BITS[0] >= _KERNEL_BITS[1] - _KERNEL_BITS[0]
    ax = np.where(outside, 2.0, ax)  # any value inside: 2's q = 2e16 is no edge
    k = np.log10(ax)
    np.floor(k, out=k)
    k = k.astype(np.int64)
    q, rest = _scaled(ax, k, powers)
    # q = 1e16 or 1e17 at the edges of the decade, and beyond them where log10 missed it
    edge = np.flatnonzero((q - (_Q_MIN + 1)).view(np.uint64) >= _Q_MAX - _Q_MIN - 1)
    if edge.size:
        qe = q[edge]
        low = (qe < _Q_MIN) | ((qe == _Q_MIN) & (rest[edge] < 0.0))
        missed = low | (qe > _Q_MAX)
        off = edge[missed]
        if off.size:
            k[off] += np.where(low[missed], -1, 1)
            q[off], rest[off] = _scaled(ax[off], k[off], powers)
            qe = q[edge]
        rest[edge[(qe < _Q_MIN) | (qe > _Q_MAX)]] = 0.5  # still outside: a tie, left to "%.17g" %
        carry = edge[qe == _Q_MAX]  # rounded up into the next decade
        q[carry] = _Q_MIN
        k[carry] += 1
    # |rest| <= 0.5, and no double lies between 0.5 - 1e-6 and its rounding:
    # the values within _TIE_TOL of a half unit
    special = np.flatnonzero(outside | (np.abs(rest) >= 0.5 - _TIE_TOL))
    zero = x[special] == 0.0
    q[special[zero]] = 0
    k[special[zero]] = 0
    return q, k, special[~zero]


def _format_rows(block) -> bytes:
    """The CSV lines of a 2-d float64 block, as ``"%.17g" %`` would write them."""
    ncols = block.shape[1]
    x = block.ravel()
    quads, patch, classes, kept, exponents, powers = _tables()
    q, k, fallback = _round17(x, powers)
    # the canvas word-major: words[w, i] is word w of value i, its bytes little-endian
    words = np.empty((_SLOT // 8, x.size), np.int64)
    # q's lead digit and its four groups of four digits: a floor division by 10**4
    # leaves the digits above a group, and a multiply-subtract the group
    digits = np.empty((5, x.size), np.int64)
    digits[4] = q
    for i in range(3, -1, -1):
        np.floor_divide(digits[i + 1], 10 ** 4, out=digits[i])
        digits[i + 1] -= digits[i] * 10 ** 4
    for g in range(4):  # in range: clip skips the buffer
        np.take(quads[g], digits[g + 1], out=words[1 + g], mode="clip")
    np.left_shift(digits[0], 48, out=words[0])
    words[0] |= x.view(np.int64) >> 63 & 0x2D  # "-" where the sign bit is set
    last = np.maximum.reduce(words[1:5])  # the top bytes differ unless both are 0
    last >>= 56
    words[1:5] &= 2 ** 56 - 1
    ki = k - _X_MIN
    cls = np.take(kept, ki)
    np.maximum(cls, last, out=cls)
    cls += np.take(classes, ki)
    words[:5] ^= np.take(patch, cls, axis=1, out=digits, mode="clip")  # digits' buffer, done with
    del digits
    np.take(exponents, ki, out=words[5], mode="clip")
    words[5, ncols - 1::ncols] ^= (ord(",") ^ ord("\n")) << 40  # each row's last value ends it
    if fallback.size:  # "%.17g" % writes at most 24 bytes: words 0-2
        text = b"".join((_FMT % v).encode().ljust(40, b"\0") for v in x[fallback].tolist())
        words[:5, fallback] = np.frombuffer(text, "<i8").reshape(fallback.size, 5).T
        words[5, fallback] &= 0xFF << 40
    return words.T.astype("<i8", copy=False).tobytes().translate(None, b"\0")


def write_csv(path, meta: dict, columns: dict, trailer=()) -> None:
    """Write columns to ``path`` with a '#'-prefixed metadata header block.

    ``meta`` maps keys to values echoed as ``# key = value`` lines (resolved
    configuration, derived scalars); ``columns`` maps column names to equal
    length sequences of numbers.  Each number is converted to float64 and
    written byte for byte as ``"%.17g" % value`` writes it, so a table reads
    back bit-exactly and reproduces across runs.  The body is rendered by a
    numpy kernel in blocks of whole rows, about ``_BLOCK_VALUES`` values each;
    values the kernel cannot round with certainty (non-finite, |x| outside
    [1e-250, 1e250), or within 1e-6 of a rounding tie) are formatted by
    ``"%.17g" %`` itself.  The lines of ``trailer`` follow the body.
    """
    names = list(columns)
    cols = [columns[n] for n in names]
    length = len(cols[0]) if cols else 0
    if any(len(c) != length for c in cols):
        raise ValueError("columns must have equal length")
    arrays = [np.asarray(col, dtype=float) for col in cols]
    with open(path, "w", newline="") as fh:
        for key, value in meta.items():
            fh.write(f"# {key} = {value}\n")
        fh.write(",".join(names) + "\n")
        fh.flush()  # the header goes through the text layer, the body as bytes
        rows = max(1, _BLOCK_VALUES // max(len(arrays), 1))
        for start in range(0, length, rows):
            block = np.column_stack([a[start:start + rows] for a in arrays])
            fh.buffer.write(_format_rows(block))
        fh.writelines(trailer)


@functools.cache
def _point_tables():
    """The SVG kernel's lookup words: integer parts 0-9999 in bytes 0-3,
    right-aligned after NULs, and fractions ".00"-".99" in bytes 4-6."""
    d = np.arange(10_000, dtype=np.uint64)
    whole = np.zeros_like(d)
    for byte, power in enumerate((1000, 100, 10, 1)):
        digit = np.where(d >= power, d // power % 10 + 48, 0)
        whole |= digit.astype(np.uint64) << np.uint64(8 * byte)
    whole[0] = 0x30 << 24  # "0"
    f = np.arange(100, dtype=np.uint64)
    frac = (0x2E | (f // 10 + 48) << np.uint64(8) | (f % 10 + 48) << np.uint64(16)) << np.uint64(32)
    return whole, frac


def _format_points(pxs, pys) -> str:
    """``" ".join(map("%.2f,%.2f".__mod__, zip(pxs, pys)))``, byte for byte."""
    v = np.empty(2 * pxs.size)
    v[0::2] = pxs
    v[1::2] = pys
    inside = (v >= 0.0) & (v < 1e4) & ~np.signbit(v)
    s = 100.0 * np.where(inside, v, 0.0)
    q = np.rint(s)
    fallback = ~inside | (q >= 1e6) | (np.abs(np.abs(s - q) - 0.5) < _TIE_TOL)
    whole, frac = np.divmod(q.astype(np.int64), 100)
    whole_words, frac_words = _point_tables()
    words = np.take(whole_words, whole, mode="clip") | np.take(frac_words, frac)
    words.reshape(-1, 2)[:] |= np.array([ord(","), ord(" ")], np.uint64) << np.uint64(56)
    idx = np.flatnonzero(fallback)
    words[idx] = words[idx] & np.uint64(0xFF << 56) | np.uint64(1)  # a \x01 marks the splice
    text = words.astype("<u8", copy=False).tobytes().translate(None, b"\0")[:-1].decode("ascii")
    if not idx.size:
        return text
    parts = text.split("\x01")
    merged = [None] * (2 * idx.size + 1)
    merged[0::2] = parts
    merged[1::2] = map("%.2f".__mod__, v[idx].tolist())
    return "".join(merged)


def _escape(text) -> str:
    """``xml.sax.saxutils.escape`` of ``str(text)``, without importing it: the
    module pulls in ``urllib.request``, about 25 ms of import."""
    return str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float, n: int = 5):
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def _pixel_runs(column):
    """(first, last, run) for the runs of consecutive points that share a pixel
    column: each run's first and last index, and each point's run."""
    starts = np.diff(column, prepend=column[0] - 1) != 0
    first = np.flatnonzero(starts)
    return first, np.append(first[1:], column.size) - 1, np.cumsum(starts) - 1


def _pixel_extremes(runs, y):
    """Indices of the first, minimum, maximum and last point of each of
    ``_pixel_runs``' runs, in index order, each once.

    A run's minimum is the first point that attains it and its maximum the
    last, as a stable sort of the run by y would put them."""
    first, last, run = runs
    index = np.arange(run.size)
    lowest = np.minimum.reduceat(y, first)[run] == y
    highest = np.maximum.reduceat(y, first)[run] == y
    keep = np.zeros(run.size, dtype=bool)
    keep[np.concatenate([first, last,
                         np.minimum.reduceat(np.where(lowest, index, run.size), first),
                         np.maximum.reduceat(np.where(highest, index, -1), first)])] = True
    return np.flatnonzero(keep)


def write_svg(path, x, series: dict, title: str, xlabel: str, ylabel: str) -> None:
    """Plot ``series`` (name -> y array) against ``x`` as SVG polylines.

    x and every y must be finite, and the plot's x and y ranges finite and
    nonzero (a flat range is first widened by 1), or ValueError is raised
    before the file is opened.  A series with more points than the plot has
    pixel columns keeps, per pixel column (for x in order), only its first,
    minimum, maximum and last point: the line looks the same at the plot's
    resolution, and the file stops growing with the number of points.  Every
    series shares one pass over x for its pixel columns.  Labels and series
    names are XML-escaped.
    """
    width, height = 860, 560
    ml, mr, mt, mb = 80, 24, 48, 56
    plot_w = width - ml - mr
    xa = np.asarray(x, dtype=float)
    yas = [np.asarray(ys, dtype=float) for ys in series.values()]
    if any(ya.shape != xa.shape for ya in yas):
        raise ValueError("every series must have the shape of x")
    if not xa.size or not yas:
        raise ValueError("nothing to plot")
    # min and max carry a NaN, and an inf or an overflow makes a range inf or
    # NaN; a +-0 extreme gives the same ticks and pixels whichever zero numpy picks
    x_lo, x_hi = float(xa.min()), float(xa.max())
    y_lo, y_hi = float(np.min([ya.min() for ya in yas])), float(np.max([ya.max() for ya in yas]))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    pad = 0.05 * (y_hi - y_lo) or 1.0
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if not 0.0 < x_hi - x_lo < np.inf or not 0.0 < y_hi - y_lo < np.inf:
        raise ValueError("x and every series must be finite, over a finite range")

    def px(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return height - mb - (v - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'font-family="sans-serif" font-size="14">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="17">{_escape(title)}</text>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
        f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 12}" text-anchor="middle">{_escape(xlabel)}</text>',
        f'<text x="20" y="{(mt + height - mb) / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 20 {(mt + height - mb) / 2:.1f})">{_escape(ylabel)}</text>',
    ]
    for tx in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{px(tx):.2f}" y1="{height - mb}" x2="{px(tx):.2f}" '
                     f'y2="{height - mb + 5}" stroke="black"/>')
        parts.append(f'<text x="{px(tx):.2f}" y="{height - mb + 20}" text-anchor="middle">{tx:.4g}</text>')
    for ty in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{ml - 5}" y1="{py(ty):.2f}" x2="{ml}" y2="{py(ty):.2f}" stroke="black"/>')
        parts.append(f'<text x="{ml - 8}" y="{py(ty) + 4:.2f}" text-anchor="end">{ty:.4g}</text>')
    pxs = px(xa)
    # the points' pixel-column runs, where they outnumber the columns
    runs = _pixel_runs(np.minimum((pxs - ml).astype(np.int64), plot_w - 1)) if pxs.size > plot_w else None
    for idx, (name, ya) in enumerate(zip(series, yas)):
        color = _PALETTE[idx % len(_PALETTE)]
        keep = slice(None) if runs is None else _pixel_extremes(runs, ya)
        pts = _format_points(pxs[keep], py(ya[keep]))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - mr - 8}" y="{mt + 20 * (idx + 1)}" text-anchor="end" '
                     f'fill="{color}">{_escape(name)}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
