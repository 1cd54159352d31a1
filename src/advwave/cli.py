"""Command line front end.

Commands
--------
figure 1|2|3   momentum-diffusion curve data (CSV + SVG): the raw curves where
               the grid resolves the optical period, else their cycle
               averages and envelopes
power          emitted-power table, perturbative or two-level
corr           correlation-function traces on a (t, t') grid
detect         photo-detection rates with and without vacuum interference
validate       self-check suite; exit code 2 if any check fails

Exit codes: 0 success, 1 usage/configuration error, 2 numerical-validation
failure, 3 I/O failure.  A table of more than ``_MAX_ROWS`` rows (corr has
points^2) is a usage error, raised before any grid is allocated; only an
explicit ``--points`` can ask for one.
The numpy imports in this module are local to the command functions, so each
command imports only the modules it uses.

Configuration precedence: per-command defaults < ``--config`` file < flags.
``_CONFIG_KEYS`` is the one list of the settings: each key names a config-file
line (``key = value``, ``#`` comments allowed) and a flag.  All output tables
are deterministic: 17-significant-digit CSV with a ``# key = value`` header
block recording the fully resolved configuration.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits bad usage with status 2; remap it to our usage code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# config key, and flag name with "-" for "_" -> (RunConfig field, type, flag help)
_CONFIG_KEYS = {
    "gamma": ("gamma", float, "decay rate in 1/s"),
    "omega0_ratio": ("omega0_over_gamma", float, "transition frequency over gamma"),
    "r0_gamma": ("r0_gamma", float, "observation distance times gamma"),
    "tmax_gamma": ("tmax_gamma", float, "time-grid extent times gamma"),
    "points": ("points", int, "number of grid points"),
    "out": ("out", str, "output directory"),
}


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters shared by every command.

    gamma is in inverse seconds; omega0_over_gamma, r0_gamma and tmax_gamma
    are the dimensionless ratios omega0/gamma, r0*gamma and tmax*gamma.
    ``points`` of None means "choose automatically".
    """

    gamma: float = 1e8
    omega0_over_gamma: float = 100.0
    r0_gamma: float = 1.0 / 3.0
    tmax_gamma: float = 20.0
    points: int | None = None
    out: str = "."

    def __post_init__(self):
        from .core import _positive

        for field, cast, _ in _CONFIG_KEYS.values():
            if cast is float:
                _positive(getattr(self, field), field)
        if self.points is not None and self.points < 2:
            raise ValueError(f"points must be >= 2, got {self.points}")

    @property
    def omega0(self) -> float:
        return self.omega0_over_gamma * self.gamma

    @property
    def r0(self) -> float:
        return self.r0_gamma / self.gamma

    def meta(self) -> dict:
        from . import __version__

        meta = {"advwave_version": __version__}
        for field, cast, _ in _CONFIG_KEYS.values():
            v = getattr(self, field)
            meta[field] = "%.17g" % v if cast is float else "auto" if v is None else str(v)
        return meta


def _read_config(path):
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise OSError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not sep or not key or not val:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        field, cast, _ = _CONFIG_KEYS[key]
        try:
            values[field] = cast(val)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {val!r}") from None
    return values


def _resolve_config(ns, **command_defaults) -> RunConfig:
    values = dict(command_defaults)
    if getattr(ns, "config", None):
        values.update(_read_config(ns.config))
    for key, (field, _, _) in _CONFIG_KEYS.items():
        v = getattr(ns, key, None)
        if v is not None:
            values[field] = v
    return RunConfig(**values)


def _outpath(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    return os.path.join(cfg.out, name)


def _dipole_geometry(cfg: RunConfig):
    """Standard geometry: dipole along z, observation point on the x axis.

    Its near field goes as |d| / (4 pi r0^3), and each correlator is at most
    a few times its square (2 |E|^2 times a correlator of modulus <= 2), so
    r0^3 and 16 times that square must be floats: a larger or smaller r0 is a
    ValueError naming r0.
    """
    from .core import DipoleParams, _cubed

    params = DipoleParams.from_rates(cfg.omega0, cfg.gamma)
    near = math.sqrt(params.d_abs2) / (4.0 * math.pi * _cubed(cfg.r0, "r0"))
    if not math.isfinite(16.0 * near * near):
        raise ValueError(f"r0 = {cfg.r0:.6g} is too small: its near field |d| / (4 pi r0^3) "
                         f"= {near:.3g} squared leaves the float range")
    position = (cfg.r0, 0.0, 0.0)
    return params, position


def _check_carrier(cfg: RunConfig, end_gamma: float) -> None:
    """ValueError naming tmax_gamma when 2 omega0 t at the window's end, t gamma =
    ``end_gamma``, reaches ``core._MAX_PHASE``."""
    from .core import _check_carrier

    _check_carrier(cfg.omega0_over_gamma, end_gamma, subject=f"tmax_gamma = {cfg.tmax_gamma:g}")


# Output rows per table (the corr table has points^2 rows), checked before any
# grid is allocated.  Every automatic grid stays far below it (the largest is a
# figure grid of _RESOLVED_ROWS rows), so only an explicit --points reaches it.
_MAX_ROWS = 2_000_000
# The automatic figure grid takes 64 points per optical period while that needs
# at most _RESOLVED_ROWS rows (every paper figure does), else _AVERAGED_ROWS
# points, on which the figure shows cycle averages and envelopes.
_RESOLVED_ROWS = 65_536
_AVERAGED_ROWS = 2_001


def _points(cfg: RunConfig, command: str, auto: int, square: bool = False) -> int:
    """``cfg.points``, else the automatic count; refused above the row limit."""
    n = cfg.points if cfg.points is not None else auto
    rows = n**2 if square else n
    if rows > _MAX_ROWS:
        raise ValueError(f"the {command} grid needs {rows:,} rows, more than the "
                         f"limit of {_MAX_ROWS:,}; lower --points")
    return n


def _auto_points(cfg: RunConfig) -> int:
    """Automatic figure grid size: 64 points per optical period if that fits."""
    tmax = cfg.tmax_gamma / cfg.gamma
    intervals = 64 * cfg.omega0 * tmax / (2.0 * math.pi)
    return max(2, int(math.ceil(intervals)) + 1) if intervals <= _RESOLVED_ROWS - 1 else _AVERAGED_ROWS


def cmd_figure(cfg: RunConfig, which: int) -> int:
    """Write figN.csv / figN.svg: scaled momentum-diffusion curves vs t*gamma.

    A grid with a step of at most 1/16 optical period gets the raw curves
    (n_dps, n_dpvacs, n_dptotal).  A coarser one gets, for each curve, its
    average over one period and its lower and upper envelopes (avg_, lo_ and
    hi_ columns); figure 3 then fits the averaged total.
    """
    import numpy as np

    from ._report import write_csv, write_svg
    from .kinetics import ChargeParams, cycle_averaged, dispersion_change, longtime_fit

    if cfg.tmax_gamma < 2.0 * cfg.r0_gamma:
        raise ValueError("tmax_gamma must be >= 2*r0_gamma so the vacuum-source "
                         "onset lies inside the window")
    params, position = _dipole_geometry(cfg)
    charge = ChargeParams(q=1.0, m=1.0, r0=position)
    n = _points(cfg, "figure", _auto_points(cfg))
    tmax = cfg.tmax_gamma / cfg.gamma
    if which == 3 and not math.isfinite(n * tmax * tmax):    # the fit sums squared times
        raise ValueError(f"tmax_gamma = {cfg.tmax_gamma:g} is too large for the late-time "
                         f"fit: the squares of its {n:,} times overflow")
    _check_carrier(cfg, cfg.tmax_gamma)
    t = np.linspace(0.0, tmax, n)
    meta = cfg.meta()
    meta["figure"] = str(which)
    columns = {"t_gamma": t * cfg.gamma}
    if tmax / (n - 1) <= 2.0 * np.pi / params.omega0 / 16.0:
        curve = dispersion_change(t, params, charge)
        meta["columns"] = "t_gamma, N-scaled momentum changes (source, vac-source, total)"
        columns.update(n_dps=curve.cum_source, n_dpvacs=curve.cum_vacsource,
                       n_dptotal=curve.cum_total)
        plotted, fit_column = ("n_dps", "n_dpvacs", "n_dptotal"), None
    else:
        curve = cycle_averaged(t, params, charge)
        meta["columns"] = ("t_gamma, N-scaled momentum changes (source dps, vac-source "
                           "dpvacs, total dptotal): avg_ their average over one optical "
                           "period, lo_ and hi_ their lower and upper envelopes")
        for name, part in (("dps", "source"), ("dpvacs", "vacsource"), ("dptotal", "total")):
            for kind in ("avg", "lo", "hi"):
                columns[f"{kind}_{name}"] = getattr(curve, f"{kind}_{part}")
        plotted = ("avg_dps", "avg_dpvacs", "avg_dptotal", "lo_dptotal", "hi_dptotal")
        fit_column = "avg_dptotal"
    fit_lines = []
    if which == 3:  # fit before writing anything, so a failing fit leaves no files
        window = (tmax / 2.0, tmax)
        slope, intercept = longtime_fit(curve, window, which="total")
        if fit_column:  # the raw table has a single total column
            fit_lines.append(f"# fit_column = {fit_column}\n")
        fit_lines += ["# fit_window_gamma = [%.17g, %.17g]\n"
                      % (window[0] * cfg.gamma, window[1] * cfg.gamma),
                      "# fit_slope_over_gamma = %.17g\n" % (slope / cfg.gamma),
                      "# fit_intercept = %.17g\n" % intercept]
    write_csv(_outpath(cfg, f"fig{which}.csv"), meta, columns, trailer=fit_lines)
    write_svg(_outpath(cfg, f"fig{which}.svg"), columns["t_gamma"],
              {k: columns[k] for k in plotted},
              title=f"Scaled momentum diffusion (figure {which})",
              xlabel="t * gamma", ylabel="N * dp")
    return EXIT_OK


def cmd_power(cfg: RunConfig, model: str) -> int:
    """Write power.csv: emitted-power split into the four bookkeeping curves."""
    import numpy as np

    from ._report import write_csv
    from .fieldcoeffs import LevelScheme
    from .radiometry import pert_power_breakdown, power_curves_2lvl

    params, _ = _dipole_geometry(cfg)
    meta = cfg.meta()
    meta.update(model=model, units="natural (hbar = c = 1); power in omega0*gamma scale")
    if model == "pert":
        scheme = LevelScheme.two_level(params)
        pb = pert_power_breakdown(scheme, emitter=1)
        columns = {
            "p_g": [pb.glauber], "p_s": [pb.source],
            "p_vacs": [pb.vacsource], "p_total": [pb.total],
        }
    else:
        n = _points(cfg, "power", 201)
        t_ret = np.linspace(0.0, cfg.tmax_gamma / cfg.gamma, n)
        pb = power_curves_2lvl(t_ret, params)
        columns = {
            "t_gamma": t_ret * cfg.gamma,
            "p_g": pb.glauber, "p_s": pb.source,
            "p_vacs": pb.vacsource, "p_total": pb.total,
        }
    write_csv(_outpath(cfg, "power.csv"), meta, columns)
    return EXIT_OK


def cmd_corr(cfg: RunConfig) -> int:
    """Write corr.csv: G, interference and total traces on a (t, t') grid.

    Both observation points sit at the standard position r0 on the x axis.
    """
    import numpy as np

    from ._report import write_csv
    from .core import FieldKind
    from .correlations import corr_traces

    params, position = _dipole_geometry(cfg)
    n = _points(cfg, "corr", 41, square=True)
    _check_carrier(cfg, cfg.tmax_gamma)
    ts = np.linspace(0.0, cfg.tmax_gamma / cfg.gamma, n)
    t, tp = np.meshgrid(ts, ts, indexing="ij")
    g, d = corr_traces(FieldKind.ELECTRIC, FieldKind.ELECTRIC, t, position, tp, position, params)
    c = g + d
    cols = {"t_gamma": t * cfg.gamma, "tp_gamma": tp * cfg.gamma, "re_g": g.real, "im_g": g.imag,
            "re_delta": d.real, "im_delta": d.imag, "re_c": c.real, "im_c": c.imag}

    meta = cfg.meta()
    meta.update(field="E", trace="sum over field components",
                gate_tp_minus_t_gamma="%.17g" % (2.0 * cfg.r0_gamma),
                note="interference trace vanishes on the t = t' diagonal and "
                     "switches on across |t' - t| = 2*r0")
    write_csv(_outpath(cfg, "corr.csv"), meta, {k: v.ravel() for k, v in cols.items()})
    return EXIT_OK


def cmd_detect(cfg: RunConfig) -> int:
    """Write detect.csv: detection rates from G alone and from the full C."""
    import numpy as np

    from ._report import write_csv, write_svg
    from .photodetect import DetectorConfig, suppression_report

    params, position = _dipole_geometry(cfg)
    det = DetectorConfig(position=position, source=params)
    n = _points(cfg, "detect", 120)
    _check_carrier(cfg, 2.0 * cfg.r0_gamma + cfg.tmax_gamma)
    x = det.r
    t = np.linspace(x, 2.0 * x + cfg.tmax_gamma / cfg.gamma, n)
    rep = suppression_report(det, t)

    meta = cfg.meta()
    meta.update(onset_t_gamma="%.17g" % (2.0 * x * cfg.gamma),
                max_interference_ratio="%.17g" % rep.max_ratio)
    columns = {
        "t_gamma": t * cfg.gamma,
        "rate_g": rep.rate_g,
        "rate_c": rep.rate_c,
        "diff": rep.diff,
    }
    write_csv(_outpath(cfg, "detect.csv"), meta, columns)
    write_svg(_outpath(cfg, "detect.svg"), columns["t_gamma"],
              {"rate_g": rep.rate_g, "rate_c": rep.rate_c},
              title="Photo-detection rate", xlabel="t * gamma", ylabel="rate")
    return EXIT_OK


def _run_checks(cfg: RunConfig, p, grid, span: float, full: bool):
    """Yield (name, tolerance, measured, note) validation rows.

    ``p`` is the dipole at gamma = 1, ``grid`` the oracle's mode comb and
    ``span`` its width in units of gamma.  A row passes when measured <=
    tolerance; a check that raises measures NaN and so fails, with the error
    as its note.  The random working points come from one stdlib stream,
    ``core._uniform_stream(20260814)``, drawn a whole array at a time in the
    order of the rows, so every run draws the same ones.
    """
    import numpy as np

    from .atomdyn import commutator_expect, corr_minus_plus, sigma_z_expect
    from .core import Event, FieldKind, _uniform_stream
    from .correlations import commutator_parts, delta_expect_tensor
    from .kinetics import ChargeParams, momdiff_source, momdiff_vacsource
    from .oracle import angular_reduction_check, markov_kernel_check, oracle_sigma_z, two_time_route
    from .radiometry import _power_curves, _sphere_nodes

    uniform = _uniform_stream(20260814)
    kinds = (FieldKind.ELECTRIC, FieldKind.MAGNETIC)

    def power_sum_rules():
        # on random two-level working points, all in one array call
        ratio, t = uniform(0.0, 1.0, 100, 2).T
        pb = _power_curves(10.0 * t, 10.0 + 990.0 * ratio, 1.0)
        residuals = np.abs([pb.source + pb.vacsource - pb.total, pb.total - 2.0 * pb.glauber])
        return float(np.max(np.divide(residuals, pb.total, out=np.zeros_like(residuals),
                                      where=pb.total != 0.0))), ""

    def sphere_quadrature():
        # transverse sphere quadrature of three random vectors d, on the
        # rule's (M, 3) node array in one pass
        dirs, weights = _sphere_nodes(16)
        d = uniform(-1.0, 1.0, 3, 3)
        tr = d[:, None, :] - dirs * (d @ dirs.T)[:, :, None]
        ref = 8.0 * np.pi / 3.0 * np.sum(d * d, axis=1)
        return float(np.max(np.abs(np.sum(tr * tr, axis=2) @ weights - ref) / ref)), ""

    def random_event_pairs(ta, tb):
        # positions and kinds drawn for each pair of times; the pairs with both
        # events off the origin join the batch of their (kind_x, kind_y), one
        # tensor call per kind pair
        xa, xb = uniform(-2.0, 2.0, 2, ta.size, 3)
        pair = uniform(0.0, 4.0, ta.size).astype(int)
        kept = (np.linalg.norm(xa, axis=1) >= 1e-3) & (np.linalg.norm(xb, axis=1) >= 1e-3)
        for code in range(4):
            sel = kept & (pair == code)
            if sel.any():
                yield (kinds[code // 2], kinds[code % 2], Event(ta[sel], xa[sel]),
                       Event(tb[sel], xb[sel]))

    def light_cone_gating():
        # exact zeros before signal arrival
        charge = ChargeParams(q=1.0, m=1.0, r0=(cfg.r0_gamma, 0.0, 0.0))
        before_arrival = np.linspace(0.0, cfg.r0_gamma, 7, endpoint=False)
        before_round_trip = np.linspace(0.0, 2.0 * cfg.r0_gamma, 7, endpoint=False)
        worst = float(max(np.max(np.abs(momdiff_source(before_arrival, p, charge))),
                          np.max(np.abs(momdiff_vacsource(before_round_trip, p, charge)))))

        t = uniform(0.0, 10.0, 200)
        for ka, kb, ea, eb in random_event_pairs(t, t):
            worst = max(worst, float(np.max(np.abs(delta_expect_tensor(ka, kb, ea, eb, p)))))
        return worst, "exact zeros required"

    def commutator_reconstruction():
        # from the three partitions
        def peak(tensors):
            return np.max(np.abs(tensors), axis=(-2, -1))

        err = 0.0
        ta, tb = np.sort(uniform(0.0, 8.0, 200, 2), axis=1).T
        for ka, kb, ea, eb in random_event_pairs(ta, tb):
            total = sum(commutator_parts(ka, kb, ea, eb, p))
            ref = delta_expect_tensor(ka, kb, ea, eb, p)
            scale = np.maximum(np.maximum(peak(ref), peak(total)), 1e-30)  # per event
            err = max(err, float(np.max(peak(total - ref) / scale)))
        return err, ""

    def commutator_diagonal():
        # equal-time commutator against the population difference
        t = uniform(0.0, 10.0, 100)
        return float(np.max(np.abs(commutator_expect(t, t, p) + sigma_z_expect(t, p)))), ""

    def oracle_population():
        # discretized-field oracle for the population decay
        times = np.arange(0.5, 6.51, 0.5)
        vals = oracle_sigma_z(times, grid)
        err = float(np.max(np.abs(vals - sigma_z_expect(times, p))))
        return err, f"count={grid.count} span={span:g}, grid t in [0.5, 6.5]/gamma"

    def markov_mass():
        # resonance-kernel mass carried by the comb bandwidth
        return markov_kernel_check(p, span).mass_rel_err, f"band=omega0+-{span / 2.0:g}*gamma"

    def oracle_minus_plus():
        # two-excitation oracle for the anti-normal correlator: the hard-core
        # boson identity's Volterra grid and its last Romberg correction
        u, v = 1.0, 2.0
        num, _, steps, correction = two_time_route(u, v, grid)
        ref = corr_minus_plus(u, v, p)
        return abs(num - ref) / abs(ref), (f"count={grid.count} span={span:g}, volterra "
                                           f"base={steps} steps, richardson={correction:.1e}")

    checks = [
        ("power-sum-rules", 1e-12, power_sum_rules),
        ("sphere-quadrature", 1e-12, sphere_quadrature),
        ("light-cone-gating", 0.0, light_cone_gating),
        ("commutator-reconstruction", 1e-12, commutator_reconstruction),
        ("commutator-diagonal", 1e-12, commutator_diagonal),
        ("oracle-sigma-z", 0.03, oracle_population),
        ("markov-mass", 0.01, markov_mass),
        ("angular-reduction", 1e-10, lambda: (angular_reduction_check(), "")),
    ]
    if full:
        checks.append(("oracle-minus-plus", 0.05, oracle_minus_plus))
    for name, tolerance, check in checks:
        try:
            measured, note = check()
        except (ValueError, RuntimeError, MemoryError) as exc:
            measured, note = float("nan"), f"failed: {exc}"
        yield name, tolerance, measured, note


def cmd_validate(cfg: RunConfig, count: int, span: float, full: bool) -> int:
    """Run the self-check table; exit 2 when any check fails.

    The table goes to stdout and to validate.txt, which first records the
    resolved configuration, count, span and full as a ``# key = value`` block.
    """
    from .core import DipoleParams, _cubed
    from .oracle import build_grid

    _cubed(cfg.r0_gamma, "r0")      # the checks' field points, at gamma = 1
    if span / 2.0 >= cfg.omega0_over_gamma:     # the comb would reach zero frequency
        raise ValueError(f"span must be below 2 * omega0-ratio = "
                         f"{2.0 * cfg.omega0_over_gamma:g}, got {span:g}")
    # refuses a bad count or span with a ValueError, before any check runs
    params = DipoleParams.from_rates(cfg.omega0_over_gamma, 1.0)
    rows = list(_run_checks(cfg, params, build_grid(params, count, span), span, full))
    width = max(len(r[0]) for r in rows)
    lines = [f"{'check':<{width}}  {'tolerance':>11}  {'measured':>12}  result",
             "-" * (width + 48)]
    n_fail = 0
    for name, tol, measured, note in rows:
        passed = measured <= tol
        n_fail += not passed
        suffix = f"  ({note})" if note else ""
        lines.append(f"{name:<{width}}  {tol:>11.3g}  {measured:>12.4g}  "
                     f"{'PASS' if passed else 'FAIL'}{suffix}")
    lines.append(f"{n_fail} of {len(rows)} checks failed" if n_fail
                 else f"all {len(rows)} checks passed")
    report = "\n".join(lines)
    print(report)
    meta = cfg.meta()
    meta.update(count=str(count), span="%.17g" % span, full=str(full).lower())
    with open(_outpath(cfg, "validate.txt"), "w") as fh:
        fh.writelines(f"# {key} = {value}\n" for key, value in meta.items())
        fh.write(report + "\n")
    return EXIT_VALIDATION if n_fail else EXIT_OK


@functools.cache  # parsing leaves the parser as it was, so one serves every main() call
def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key = value config file")
    for key, (_, cast, text) in _CONFIG_KEYS.items():
        common.add_argument("--" + key.replace("_", "-"), type=cast, help=text)

    parser = _Parser(
        prog="advwave",
        description="Vacuum-source interference toolkit: figures, power tables, "
                    "correlation maps, detection sweeps, and self-validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figure", parents=[common],
                           help="momentum-diffusion figure data: raw curves, or cycle "
                                "averages and envelopes where the grid is coarser than "
                                "1/16 optical period")
    p_fig.add_argument("which", type=int, choices=(1, 2, 3))

    p_pow = sub.add_parser("power", parents=[common], help="emitted-power table")
    p_pow.add_argument("model", choices=("pert", "nonpert"))

    sub.add_parser("corr", parents=[common], help="correlation traces on a (t, t') grid")
    sub.add_parser("detect", parents=[common], help="photo-detection rate sweep")

    p_val = sub.add_parser("validate", parents=[common], help="run the self-check table")
    p_val.add_argument("--count", type=int, default=400, help="oracle mode count")
    p_val.add_argument("--span", type=float, default=50.0,
                       help="oracle comb span in units of gamma")
    p_val.add_argument("--full", action="store_true",
                       help="include the two-excitation oracle check")

    return parser


_FIGURE_DEFAULTS = {
    1: dict(omega0_over_gamma=10.0, tmax_gamma=6.0),
    2: dict(omega0_over_gamma=100.0, tmax_gamma=6.0),
    3: dict(omega0_over_gamma=100.0, tmax_gamma=20.0),
}


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
            raise ValueError(f"{argv[0]} comes before the command; flags follow the "
                             "command: advwave COMMAND [flags]")
        ns = _build_parser().parse_args(argv)
        if ns.command == "figure":
            return cmd_figure(_resolve_config(ns, **_FIGURE_DEFAULTS[ns.which]), ns.which)
        if ns.command == "power":
            return cmd_power(_resolve_config(ns, tmax_gamma=6.0), ns.model)
        if ns.command == "corr":
            return cmd_corr(_resolve_config(ns, tmax_gamma=4.0))
        if ns.command == "detect":
            return cmd_detect(_resolve_config(ns, tmax_gamma=10.0))
        return cmd_validate(_resolve_config(ns), ns.count, ns.span, ns.full)
    except ValueError as exc:
        print(f"advwave: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"advwave: error: out of memory ({str(exc) or 'allocation failed'}); "
              "reduce the grid size", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"advwave: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
