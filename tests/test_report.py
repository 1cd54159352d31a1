"""Output writers: exact bytes, and the CSV kernel against Python's own formatting."""
import itertools
import math
import struct
import xml.etree.ElementTree as ET
from fractions import Fraction
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advwave import _report
from advwave._report import _format_points, _pixel_extremes, _pixel_runs, write_csv, write_svg
from advwave.core import _split, _two_prod


def reference_csv(path, meta, columns):
    """The independent route: every value through ``"%.17g" %``, row by row."""
    names = list(columns)
    cols = [columns[n] for n in names]
    arrays = [np.asarray(col, dtype=float) for col in cols]
    row_fmt = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w", newline="") as fh:
        for key, value in meta.items():
            fh.write(f"# {key} = {value}\n")
        fh.write(",".join(names) + "\n")
        fh.writelines(map(row_fmt.__mod__, zip(*(a.tolist() for a in arrays))))


def reference_points(pxs, pys):
    """The independent route for a polyline: every point through ``"%.2f,%.2f" %``."""
    return " ".join(map("%.2f,%.2f".__mod__, zip(np.asarray(pxs).tolist(), np.asarray(pys).tolist())))


def assert_same_points(xs, ys):
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    got, want = _format_points(xs, ys).split(" "), reference_points(xs, ys).split(" ")
    bad = [(i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not bad, f"{len(bad)} points differ, first {bad[:3]}"
    assert len(got) == len(want)


def assert_same_csv(tmp_path, columns, meta=None):
    meta = {"k": "v"} if meta is None else meta
    write_csv(tmp_path / "kernel.csv", meta, columns)
    reference_csv(tmp_path / "reference.csv", meta, columns)
    got = (tmp_path / "kernel.csv").read_bytes().splitlines()
    want = (tmp_path / "reference.csv").read_bytes().splitlines()
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert not bad, f"{len(bad)} lines differ, first {bad[:3]}"
    assert len(got) == len(want)


def as_columns(values, ncols):
    values = np.asarray(values, dtype=float)
    values = np.resize(values, -(-values.size // ncols) * ncols).reshape(-1, ncols)
    return {f"c{j}": values[:, j] for j in range(ncols)}


def old_pixel_extremes(column, y):
    """The stable-lexsort route the reduceat version replaced."""
    starts = np.diff(column, prepend=column[0] - 1) != 0
    run = np.cumsum(starts)
    first = np.flatnonzero(starts)
    last = np.append(first[1:], run.size) - 1
    by_value = np.lexsort((y, run))
    keep = np.zeros(run.size, dtype=bool)
    keep[np.concatenate([first, last, by_value[first], by_value[last]])] = True
    return np.flatnonzero(keep)


def reference_polylines(x, series):
    """The per-series route for every polyline's points: each series' own pixel
    columns and runs, and ``"%.2f,%.2f" %``."""
    x = np.asarray(x, dtype=float)
    ys = [np.asarray(y, dtype=float) for y in series.values()]
    y_lo, y_hi = min(y.min() for y in ys), max(y.max() for y in ys)
    pad = 0.05 * (y_hi - y_lo) or 1.0
    y_lo, y_hi = y_lo - pad, y_hi + pad
    lines = []
    for y in ys:
        pxs = 80 + (x - x.min()) / (x.max() - x.min()) * 756  # its own pixel columns
        pys = 504 - (y - y_lo) / (y_hi - y_lo) * 456
        if pxs.size > 756:
            keep = old_pixel_extremes(np.minimum((pxs - 80).astype(np.int64), 755), y)
            pxs, pys = pxs[keep], pys[keep]
        lines.append(reference_points(pxs, pys))
    return lines


PINNED_CSV = (
    "# k = v\n# n = 3\nt,y,i\n"
    "0,0.33333333333333331,1\n0.5,nan,2\n1,-2.5e-300,3\n"
)

PINNED_SVG = (
    '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 860 560" font-family="sans-serif" font-size="14">\n'
    '<rect width="860" height="560" fill="white"/>\n'
    '<text x="430.0" y="24" text-anchor="middle" font-size="17">T</text>\n'
    '<line x1="80" y1="504" x2="836" y2="504" stroke="black"/>\n'
    '<line x1="80" y1="48" x2="80" y2="504" stroke="black"/>\n'
    '<text x="458.0" y="548" text-anchor="middle">x</text>\n'
    '<text x="20" y="276.0" text-anchor="middle" transform="rotate(-90 20 276.0)">y</text>\n'
    '<line x1="80.00" y1="504" x2="80.00" y2="509" stroke="black"/>\n'
    '<text x="80.00" y="524" text-anchor="middle">0</text>\n'
    '<line x1="269.00" y1="504" x2="269.00" y2="509" stroke="black"/>\n'
    '<text x="269.00" y="524" text-anchor="middle">0.25</text>\n'
    '<line x1="458.00" y1="504" x2="458.00" y2="509" stroke="black"/>\n'
    '<text x="458.00" y="524" text-anchor="middle">0.5</text>\n'
    '<line x1="647.00" y1="504" x2="647.00" y2="509" stroke="black"/>\n'
    '<text x="647.00" y="524" text-anchor="middle">0.75</text>\n'
    '<line x1="836.00" y1="504" x2="836.00" y2="509" stroke="black"/>\n'
    '<text x="836.00" y="524" text-anchor="middle">1</text>\n'
    '<line x1="75" y1="504.00" x2="80" y2="504.00" stroke="black"/>\n'
    '<text x="72" y="508.00" text-anchor="end">-0.675</text>\n'
    '<line x1="75" y1="390.00" x2="80" y2="390.00" stroke="black"/>\n'
    '<text x="72" y="394.00" text-anchor="end">0.2875</text>\n'
    '<line x1="75" y1="276.00" x2="80" y2="276.00" stroke="black"/>\n'
    '<text x="72" y="280.00" text-anchor="end">1.25</text>\n'
    '<line x1="75" y1="162.00" x2="80" y2="162.00" stroke="black"/>\n'
    '<text x="72" y="166.00" text-anchor="end">2.212</text>\n'
    '<line x1="75" y1="48.00" x2="80" y2="48.00" stroke="black"/>\n'
    '<text x="72" y="52.00" text-anchor="end">3.175</text>\n'
    '<polyline points="80.00,305.61 458.00,483.27 836.00,68.73" fill="none" stroke="#1f77b4" stroke-width="1.5"/>\n'
    '<text x="828" y="68" text-anchor="end" fill="#1f77b4">a</text>\n'
    '<polyline points="80.00,187.17 458.00,127.95 836.00,394.44" fill="none" stroke="#d62728" stroke-width="1.5"/>\n'
    '<text x="828" y="88" text-anchor="end" fill="#d62728">b</text>\n'
    '</svg>\n'
)


def test_write_csv_exact_bytes(tmp_path):
    # an ndarray column, a list column with a NaN, and an integer list column
    path = tmp_path / "t.csv"
    write_csv(path, {"k": "v", "n": 3},
              {"t": np.array([0.0, 0.5, 1.0]), "y": [1.0 / 3.0, float("nan"), -2.5e-300], "i": [1, 2, 3]})
    assert path.read_bytes() == PINNED_CSV.encode()


def pinned_values():
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
              5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
              2.0 ** -25, -(2.0 ** -25), 2.0 ** -24 * 3, 0.5, 1.0, 2.0, 100.0, 0.1, 1.0 / 3.0,
              9.9999999999999998e-249, 1e-250, 1e250, 0.99999999999999989, 9.9999999999999982e22,
              # near ties: the scaled value lies within 1e-15 of a half unit, closer
              # than the double-double resolves, so only the fallback rounds them right
              1.1959468262253353e-13, 7.690003270878412e-18, 4.786855007631058e-22,
              1.361777773360278e-32, 6.764894324615683e-98, 8.040647613604255e-235,
              1.950881509398564e+50, 8.3005394859917e+60]
    for p in (1e-5, 1e-4, 1e16, 1e17):  # the fixed/scientific switch
        values += [np.nextafter(p, 0.0), p, np.nextafter(p, math.inf)]
    for k in range(-300, 301):  # both sides of every power of ten; some round up a decade
        p = float(f"1e{k}")
        values += [np.nextafter(np.nextafter(p, 0.0), 0.0), np.nextafter(p, 0.0), p,
                   np.nextafter(p, math.inf), -p]
    return values


def test_write_csv_matches_percent_formatting_on_pinned_values(tmp_path):
    values = pinned_values()
    assert_same_csv(tmp_path, {"x": values})
    assert_same_csv(tmp_path, as_columns(values, 7))
    ints = [0, 1, -1, 7, 10 ** 16, 10 ** 17 - 1, 2 ** 53 + 1, -(10 ** 22)]
    assert_same_csv(tmp_path, {"i": ints, "x": [v / 8 for v in ints]})


def test_write_csv_matches_percent_formatting_on_random_bits(tmp_path):
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2 ** 64, size=200_000, dtype=np.uint64).view(np.float64)
    assert_same_csv(tmp_path, as_columns(bits, 4))
    # the decades a table holds, with the grids and round numbers it holds
    scaled = rng.normal(size=60_000) * 10.0 ** rng.integers(-30, 30, size=60_000)
    assert_same_csv(tmp_path, as_columns(np.concatenate([scaled, np.linspace(0.0, 20.0, 4001),
                                                         np.arange(-2000, 2000) / 16]), 5))


def _from_bits(b):
    return struct.unpack("<d", struct.pack("<Q", b))[0]


def _shapes(ncols):
    """(ncols, rows): a few rows, or one row either side of the first and second
    block boundaries of an ncols-column table."""
    block = _report._BLOCK_VALUES // ncols
    edges = [r + d for r in (block, 2 * block) for d in (-1, 0, 1)]
    return st.tuples(st.just(ncols), st.one_of(st.integers(1, 5), st.sampled_from(edges)))


@settings(max_examples=120, deadline=None)
@given(values=st.lists(st.one_of(st.floats(width=64), st.integers(0, 2 ** 64 - 1).map(_from_bits)),
                       min_size=1, max_size=40),
       shape=st.integers(1, 12).flatmap(_shapes))
def test_write_csv_matches_percent_formatting(values, shape, tmp_path_factory):
    # the drawn values repeat through a table that may span several blocks
    ncols, rows = shape
    table = np.resize(np.asarray(values, dtype=float), (rows, ncols))
    assert_same_csv(tmp_path_factory.mktemp("csv"), {f"c{j}": table[:, j] for j in range(ncols)})


def test_powers_of_ten_are_correctly_rounded_pairs():
    for p in range(-260, 270):  # every exponent the kernel can ask for
        hi, lo = _report._pow10(p)
        exact = Fraction(10) ** p
        assert hi == float(exact) and lo == float(exact - Fraction(hi)), p


def test_table_fed_two_prod_is_exact_on_every_power_of_ten():
    # the kernel's product: |x| split by its mantissa bits, 10**p by the table's
    # Veltkamp halves; random |x| with |x| 10**p in [1e16, 1e17), as the kernel
    # scales it, and one with an all-ones mantissa, on every row of the table
    powers = _report._tables()[-1]
    rng = np.random.default_rng(30)
    for row, p in enumerate(range(_report._P_MIN, _report._P_MAX + 1)):
        hi, lo, *halves = powers[:, row]
        assert (hi, lo) == _report._pow10(p) and halves == list(_split(hi)), p
        ax = rng.uniform(1.0, 10.0, 20) * 10.0 ** (16 - p)
        ax = np.append(ax, np.nextafter(2.0 ** math.floor(math.log2(ax[0])), 0.0))
        err = _two_prod(ax, hi, [np.full_like(ax, h) for h in halves])
        for a, e in zip(ax.tolist(), err.tolist()):
            assert Fraction(e) == Fraction(a) * Fraction(hi) - Fraction(a * hi), (p, a)


def test_write_csv_matches_percent_formatting_in_every_notation_class(tmp_path):
    # a value for each exponent k the kernel renders and each last nonzero digit
    # (0-16) of its 17, which together pick its notation class; every mantissa
    # with at most one digit after the lead is tried, so only such a pair can
    # be one that no double prints
    values, missing = [], []
    for k, last in itertools.product(range(-250, 250), range(17)):
        for mid, lead, end in itertools.product("0123456789", "123456789", "123456789"):
            v = float(f"{lead}.{(mid * (last - 1) + end)[:last]}e{k}")
            text = "%.16e" % v
            if (int(text[19:]), len((text[0] + text[2:18]).rstrip("0")) - 1) == (k, last):
                values.append(v)
                break
        else:
            missing.append((k, last))
    assert all(last <= 1 for _, last in missing)
    assert _report._round17(np.array(values), _report._tables()[-1])[2].size == 0  # the kernel renders all
    values = np.concatenate([values, np.negative(values)])
    assert_same_csv(tmp_path, {"x": values})
    assert_same_csv(tmp_path, as_columns(values, 3))


def test_exponent_words_follow_the_notation():
    # fixed notation for -4 <= k < 17; scientific notation otherwise, with the
    # exponent "e+XX" or "e-XXX" and, as in every value's last word, a comma after it
    exponents = _report._tables()[4]
    for k in range(_report._X_MIN, _report._X_MAX + 1):
        text = b"" if -4 <= k < 17 else f"e{'-' if k < 0 else '+'}{abs(k):02d}".encode()
        assert exponents[k - _report._X_MIN] == int.from_bytes(text.ljust(5, b"\0") + b",", "little"), k


def test_write_csv_matches_percent_formatting_at_every_decade_edge(tmp_path):
    # each power of ten the kernel renders and its two neighbours, both signs:
    # log10 puts some a decade above their 17 digits (the fix-up), and some
    # below 10**e round up to it (q = 10**17, the carry into the next decade)
    values = np.array([v for p in range(-250, 250) for ten in [float(f"1e{p}")]
                       for v in (np.nextafter(ten, 0.0), ten, np.nextafter(ten, math.inf))])
    digits = ["%.16e" % v for v in values.tolist()]
    exps = [int(d.split("e")[1]) for d in digits]
    assert any(np.floor(np.log10(values)) > exps)
    assert any(d.startswith("1.0000000000000000e") and Fraction(v) < Fraction(10) ** e
               for d, v, e in zip(digits, values.tolist(), exps))
    values = np.concatenate([values, -values])
    assert_same_csv(tmp_path, {"x": values})
    assert_same_csv(tmp_path, as_columns(values, 3))


def test_write_csv_without_rows(tmp_path):
    assert_same_csv(tmp_path, {"a": [], "b": np.array([])})
    assert_same_csv(tmp_path, {})


def test_write_svg_exact_bytes(tmp_path):
    # an ndarray and a list series; the y range spans both, padded by 5 %
    path = tmp_path / "t.svg"
    write_svg(path, np.array([0.0, 0.5, 1.0]),
              {"a": np.array([1.0, -0.5, 3.0]), "b": [2.0, 2.5, 0.25]},
              title="T", xlabel="x", ylabel="y")
    assert path.read_bytes() == PINNED_SVG.encode()


def _polyline_points(svg):
    line = next(ln for ln in svg.splitlines() if ln.startswith("<polyline"))
    return line.split('points="', 1)[1].split('"', 1)[0].split()


def test_write_svg_decimation_keeps_each_pixel_columns_extremes(tmp_path):
    rng = np.random.default_rng(7)
    x = np.linspace(0.0, 3.0, 20_000)
    y = np.cumsum(rng.normal(size=x.size)) + 5.0 * np.sin(40.0 * x)
    path = tmp_path / "d.svg"
    write_svg(path, x, {"y": y}, title="T", xlabel="x", ylabel="y")
    kept = _polyline_points(path.read_text())
    assert len(kept) <= 4 * 756 < y.size
    # the plot's own coordinates: 756 pixel columns from x = 80, y range padded by 5 %
    y_lo, y_hi = y.min(), y.max()
    pad = 0.05 * (y_hi - y_lo)
    px = 80 + (x - 0.0) / 3.0 * 756
    py = 504 - (y - (y_lo - pad)) / (y_hi - y_lo + 2.0 * pad) * 456
    points = ["%.2f,%.2f" % p for p in zip(px, py)]
    column = np.minimum(np.floor(px - 80).astype(int), 755)
    kept_x = [float(p.split(",")[0]) for p in kept]
    assert kept_x == sorted(kept_x)  # in index order
    for c in np.unique(column):
        idx = np.flatnonzero(column == c)
        for i in (idx[0], idx[-1], idx[np.argmin(y[idx])], idx[np.argmax(y[idx])]):
            assert points[i] in kept


def test_pixel_extremes_match_the_stable_sort():
    rng = np.random.default_rng(11)
    for case in range(300):
        n = int(rng.integers(1, 2000))
        column = np.sort(rng.integers(0, max(1, n // int(rng.integers(1, 30))), size=n))
        if case % 3 == 0:
            y = rng.integers(-3, 3, size=n).astype(float)  # integer-valued ties
        elif case % 3 == 1:
            y = rng.choice([0.0, -0.0, 1.0, -1.0], size=n)  # +-0 compare equal
        else:
            y = rng.normal(size=n)
        np.testing.assert_array_equal(_pixel_extremes(_pixel_runs(column), y), old_pixel_extremes(column, y))


def test_write_svg_keeps_every_point_up_to_the_plot_width(tmp_path):
    # 700 of the 756 points share the first pixel column: still all kept
    x = np.concatenate([np.linspace(0.0, 1e-3, 700), np.linspace(0.5, 1.0, 56)])
    path = tmp_path / "w.svg"
    write_svg(path, x, {"y": np.sin(50.0 * x)}, title="T", xlabel="x", ylabel="y")
    assert len(_polyline_points(path.read_text())) == 756


def test_format_points_matches_percent_formatting_on_ties():
    # exact binary ties k/8 (s = 100 v lands on a half unit for odd k) and both neighbours
    ties = np.arange(8 * 10_000) / 8.0
    for xs in (ties, np.nextafter(ties, -np.inf), np.nextafter(ties, np.inf)):
        assert_same_points(xs, xs[::-1])
    assert_same_points([576.125, 339.875, 623.375], [0.005, 0.015, 9999.995])


def test_format_points_falls_back_on_values_outside_the_kernel():
    special = [0.0, -0.0, -1.5, -1e-300, -5e-324, 5e-324, 0.004999, 0.005, 9999.99, 9999.994999999, 9999.997,
               9999.995, 1e4, 12345.678, 1e300, -1e300, math.nan, -math.nan, math.inf, -math.inf]
    for shift in range(len(special)):  # every value as an x and as a y, in every neighbourhood
        assert_same_points(np.roll(special, shift), special)
    assert _format_points(np.array([]), np.array([])) == ""
    assert _format_points(np.array([-0.0]), np.array([math.nan])) == "-0.00,nan"


@settings(max_examples=200, deadline=None)
@given(points=st.lists(st.tuples(st.floats(0.0, 860.0), st.floats(0.0, 560.0)), max_size=60))
def test_format_points_matches_percent_formatting(points):
    assert_same_points([p[0] for p in points], [p[1] for p in points])


def test_write_svg_matches_the_join_on_a_figure_like_series(tmp_path, monkeypatch):
    # 20 000 rows of a growing, oscillating curve, as figure 3 at an optical ratio plots
    t = np.linspace(0.0, 12.0, 20_000)
    series = {"n_dps": t * (1.0 + 0.3 * np.sin(400.0 * t)), "n_dpvacs": -0.5 * t + np.cos(700.0 * t),
              "n_dptotal": 0.5 * t + 0.1 * np.sin(400.0 * t)}
    write_svg(tmp_path / "kernel.svg", t, series, title="T", xlabel="x", ylabel="y")
    monkeypatch.setattr(_report, "_format_points", reference_points)
    write_svg(tmp_path / "reference.svg", t, series, title="T", xlabel="x", ylabel="y")
    assert (tmp_path / "kernel.svg").read_bytes() == (tmp_path / "reference.svg").read_bytes()


def _all_polyline_points(svg):
    return [ln.split('points="', 1)[1].split('"', 1)[0] for ln in svg.splitlines() if ln.startswith("<polyline")]


def test_write_svg_shares_one_pixel_pass_between_its_series(tmp_path):
    # every series takes its points from one pass over x; each keeps its own extremes
    rng = np.random.default_rng(5)
    x = np.linspace(0.0, 4.0, 9_000)
    walk = np.cumsum(rng.normal(size=x.size))
    series = {"walk": walk, "gated": np.where(x < 1.5, 0.0, walk - walk[x >= 1.5][0]),
              "sin": np.sin(30.0 * x), "steps": np.round(walk / 4.0)}  # integer steps: ties in a column
    path = tmp_path / "shared.svg"
    write_svg(path, x, series, title="T", xlabel="x", ylabel="y")
    assert _all_polyline_points(path.read_text()) == reference_polylines(x, series)


def test_write_svg_matches_the_per_series_route_on_the_optical_figure(tmp_path):
    # figure 3's five cycle-averaged series at omega0 = 1000 gamma: exact zeros
    # before each gate, and the envelopes' ties within a pixel column
    from advwave.core import DipoleParams
    from advwave.kinetics import ChargeParams, cycle_averaged

    t = np.linspace(0.0, 12.0, 2_001)
    curve = cycle_averaged(t, DipoleParams.from_rates(omega0=1000.0, gamma=1.0),
                           ChargeParams(q=1.0, m=1.0, r0=(1.0 / 3.0, 0.0, 0.0)))
    series = {"avg_dps": curve.avg_source, "avg_dpvacs": curve.avg_vacsource,
              "avg_dptotal": curve.avg_total, "lo_dptotal": curve.lo_total, "hi_dptotal": curve.hi_total}
    path = tmp_path / "fig3.svg"
    write_svg(path, t, series, title="T", xlabel="x", ylabel="y")
    assert _all_polyline_points(path.read_text()) == reference_polylines(t, series)


def test_write_svg_refuses_non_finite_values_and_ranges(tmp_path):
    # a NaN or an inf in x or in any series, and finite values whose range, or
    # padded y range, overflows or stays flat, would put nan coordinates in the
    # plot: each is refused before the file is opened
    ok = np.array([0.0, 1.0, 2.0])
    big = np.array([-1e308, 0.0, 1e308])
    cases = [(big, {"y": ok}), (ok, {"y": big}), (ok, {"y": ok, "z": [-1.7e308, 0.0, 0.0]}),
             (np.full(3, 1e300), {"y": ok}), (ok, {"y": np.full(3, 1e300)})]
    for bad in (np.nan, np.inf, -np.inf):
        for i in range(3):
            v = ok.copy()
            v[i] = bad
            cases += [(v, {"y": ok}), (ok, {"y": ok, "z": v})]
    for x, series in cases:
        path = tmp_path / "refused.svg"
        with pytest.raises(ValueError, match="finite, over a finite range"):
            write_svg(path, x, series, title="T", xlabel="x", ylabel="y")
        assert not path.exists()


def test_write_svg_escapes_its_labels(tmp_path):
    path = tmp_path / "e.svg"
    labels = {"title": "a<b & c", "xlabel": "t > 0", "ylabel": "<p^2>"}
    write_svg(path, np.array([0.0, 1.0]), {"x & <y>": [1.0, 2.0]}, **labels)
    root = ET.parse(path).getroot()  # raises if the file is not well-formed XML
    texts = [e.text for e in root.iter("{http://www.w3.org/2000/svg}text")]
    assert set(labels.values()) | {"x & <y>"} <= set(texts)
    assert escape(labels["title"]) in path.read_text()
