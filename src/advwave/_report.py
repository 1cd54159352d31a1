"""Deterministic CSV and SVG output helpers for the command line tools."""
from __future__ import annotations

import numpy as np

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")
_FMT = "%.17g"
_BLOCK_ROWS = 8192  # rows (points) formatted at a time: bounds the temporaries


def write_csv(path, meta: dict, columns: dict) -> None:
    """Write columns to ``path`` with a '#'-prefixed metadata header block.

    ``meta`` maps keys to values echoed as ``# key = value`` lines (resolved
    configuration, derived scalars); ``columns`` maps column names to equal
    length sequences.  Numbers are written with 17 significant digits so runs
    are bit-reproducible.
    """
    names = list(columns)
    cols = [columns[n] for n in names]
    length = len(cols[0]) if cols else 0
    if any(len(c) != length for c in cols):
        raise ValueError("columns must have equal length")
    arrays = [np.asarray(col, dtype=float) for col in cols]
    row_fmt = ",".join([_FMT] * len(cols)) + "\n"
    with open(path, "w", newline="") as fh:
        for key, value in meta.items():
            fh.write(f"# {key} = {value}\n")
        fh.write(",".join(names) + "\n")
        for start in range(0, length, _BLOCK_ROWS):
            block = [a[start:start + _BLOCK_ROWS].tolist() for a in arrays]
            fh.writelines(map(row_fmt.__mod__, zip(*block)))


def _ticks(lo: float, hi: float, n: int = 5):
    if hi == lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def _pixel_extremes(column, y):
    """Indices of the first, minimum, maximum and last point of each run of
    consecutive points that share a pixel column, in index order, each once."""
    starts = np.diff(column, prepend=column[0] - 1) != 0
    run = np.cumsum(starts)
    first = np.flatnonzero(starts)
    last = np.append(first[1:], run.size) - 1
    by_value = np.lexsort((y, run))  # runs stay in place; each sorted by y, stably
    keep = np.zeros(run.size, dtype=bool)
    keep[np.concatenate([first, last, by_value[first], by_value[last]])] = True
    return np.flatnonzero(keep)


def write_svg(path, x, series: dict, title: str, xlabel: str, ylabel: str) -> None:
    """Plot ``series`` (name -> y array) against ``x`` as SVG polylines.

    Non-finite points are skipped.  A series with more finite points than the
    plot has pixel columns keeps, per pixel column (for x in order), only its
    first, minimum, maximum and last point: the line looks the same at the
    plot's resolution, and the file stops growing with the number of points.
    """
    width, height = 860, 560
    ml, mr, mt, mb = 80, 24, 48, 56
    plot_w = width - ml - mr
    xa = np.asarray(x, dtype=float)
    yas = [np.asarray(ys, dtype=float) for ys in series.values()]
    masks = [np.isfinite(ya) for ya in yas]
    if not xa.size or not any(m.any() for m in masks):
        raise ValueError("nothing to plot")
    xs = xa.tolist()  # Python's min/max, not numpy's, which would propagate a NaN
    x_lo, x_hi = min(xs), max(xs)
    # a +-0 extreme pads to the same range whichever zero numpy picks
    y_lo = min(float(np.min(ya, initial=np.inf, where=m)) for ya, m in zip(yas, masks))
    y_hi = max(float(np.max(ya, initial=-np.inf, where=m)) for ya, m in zip(yas, masks))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    pad = 0.05 * (y_hi - y_lo) or 1.0
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return height - mb - (v - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'font-family="sans-serif" font-size="14">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="17">{title}</text>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
        f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 12}" text-anchor="middle">{xlabel}</text>',
        f'<text x="20" y="{(mt + height - mb) / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 20 {(mt + height - mb) / 2:.1f})">{ylabel}</text>',
    ]
    for tx in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{px(tx):.2f}" y1="{height - mb}" x2="{px(tx):.2f}" '
                     f'y2="{height - mb + 5}" stroke="black"/>')
        parts.append(f'<text x="{px(tx):.2f}" y="{height - mb + 20}" text-anchor="middle">{tx:.4g}</text>')
    for ty in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{ml - 5}" y1="{py(ty):.2f}" x2="{ml}" y2="{py(ty):.2f}" stroke="black"/>')
        parts.append(f'<text x="{ml - 8}" y="{py(ty) + 4:.2f}" text-anchor="end">{ty:.4g}</text>')
    for idx, (name, ya, mask) in enumerate(zip(series, yas, masks)):
        color = _PALETTE[idx % len(_PALETTE)]
        # same operation order as px/py, so each coordinate rounds identically
        pxs = ml + (xa[mask] - x_lo) / (x_hi - x_lo) * plot_w
        pys = height - mb - (ya[mask] - y_lo) / (y_hi - y_lo) * (height - mt - mb)
        if pxs.size > plot_w:
            keep = _pixel_extremes(np.minimum((pxs - ml).astype(np.int64), plot_w - 1), ya[mask])
            pxs, pys = pxs[keep], pys[keep]
        pts = " ".join(map("%.2f,%.2f".__mod__, zip(pxs.tolist(), pys.tolist())))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - mr - 8}" y="{mt + 20 * (idx + 1)}" text-anchor="end" '
                     f'fill="{color}">{name}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
