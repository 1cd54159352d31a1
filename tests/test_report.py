"""Output writers: exact bytes for a small input."""
import numpy as np

from advwave._report import write_csv, write_svg

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
    '<text x="72" y="508.00" text-anchor="end">0.9</text>\n'
    '<line x1="75" y1="390.00" x2="80" y2="390.00" stroke="black"/>\n'
    '<text x="72" y="394.00" text-anchor="end">1.45</text>\n'
    '<line x1="75" y1="276.00" x2="80" y2="276.00" stroke="black"/>\n'
    '<text x="72" y="280.00" text-anchor="end">2</text>\n'
    '<line x1="75" y1="162.00" x2="80" y2="162.00" stroke="black"/>\n'
    '<text x="72" y="166.00" text-anchor="end">2.55</text>\n'
    '<line x1="75" y1="48.00" x2="80" y2="48.00" stroke="black"/>\n'
    '<text x="72" y="52.00" text-anchor="end">3.1</text>\n'
    '<polyline points="80.00,483.27 836.00,68.73" fill="none" stroke="#1f77b4" stroke-width="1.5"/>\n'
    '<text x="828" y="68" text-anchor="end" fill="#1f77b4">a</text>\n'
    '<polyline points="80.00,276.00 458.00,172.36" fill="none" stroke="#d62728" stroke-width="1.5"/>\n'
    '<text x="828" y="88" text-anchor="end" fill="#d62728">b</text>\n'
    '</svg>\n'
)


def test_write_csv_exact_bytes(tmp_path):
    # an ndarray column, a list column with a NaN, and an integer list column
    path = tmp_path / "t.csv"
    write_csv(path, {"k": "v", "n": 3},
              {"t": np.array([0.0, 0.5, 1.0]), "y": [1.0 / 3.0, float("nan"), -2.5e-300], "i": [1, 2, 3]})
    assert path.read_bytes() == PINNED_CSV.encode()


def test_write_svg_exact_bytes(tmp_path):
    # non-finite points are skipped from each polyline and from the y range
    path = tmp_path / "t.svg"
    write_svg(path, np.array([0.0, 0.5, 1.0]),
              {"a": np.array([1.0, np.inf, 3.0]), "b": [2.0, 2.5, float("nan")]},
              title="T", xlabel="x", ylabel="y")
    assert path.read_bytes() == PINNED_SVG.encode()


def _polyline_points(svg):
    line = next(ln for ln in svg.splitlines() if ln.startswith("<polyline"))
    return line.split('points="', 1)[1].split('"', 1)[0].split()


def test_write_svg_decimation_keeps_each_pixel_columns_extremes(tmp_path):
    rng = np.random.default_rng(7)
    x = np.linspace(0.0, 3.0, 20_000)
    y = np.cumsum(rng.normal(size=x.size)) + 5.0 * np.sin(40.0 * x)
    y[::997] = np.nan
    path = tmp_path / "d.svg"
    write_svg(path, x, {"y": y}, title="T", xlabel="x", ylabel="y")
    kept = _polyline_points(path.read_text())
    finite = np.isfinite(y)
    assert len(kept) <= 4 * 756 < np.count_nonzero(finite)
    # the plot's own coordinates: 756 pixel columns from x = 80, y range padded by 5 %
    y_lo, y_hi = np.nanmin(y), np.nanmax(y)
    pad = 0.05 * (y_hi - y_lo)
    px = 80 + (x[finite] - 0.0) / 3.0 * 756
    py = 504 - (y[finite] - (y_lo - pad)) / (y_hi - y_lo + 2.0 * pad) * 456
    points = ["%.2f,%.2f" % p for p in zip(px, py)]
    column = np.minimum(np.floor(px - 80).astype(int), 755)
    kept_x = [float(p.split(",")[0]) for p in kept]
    assert kept_x == sorted(kept_x)  # in index order
    for c in np.unique(column):
        idx = np.flatnonzero(column == c)
        for i in (idx[0], idx[-1], idx[np.argmin(y[finite][idx])], idx[np.argmax(y[finite][idx])]):
            assert points[i] in kept


def test_write_svg_keeps_every_point_up_to_the_plot_width(tmp_path):
    # 700 of the 756 points share the first pixel column: still all kept
    x = np.concatenate([np.linspace(0.0, 1e-3, 700), np.linspace(0.5, 1.0, 56)])
    path = tmp_path / "w.svg"
    write_svg(path, x, {"y": np.sin(50.0 * x)}, title="T", xlabel="x", ylabel="y")
    assert len(_polyline_points(path.read_text())) == 756
