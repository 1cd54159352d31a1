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
``ADVWAVE_THREADS`` caps BLAS/OpenMP parallelism and is applied before the
numeric stack is first imported, which is why all numpy imports in this
module are local to the command functions.

Configuration precedence: per-command defaults < ``--config`` file < flags.
The config file holds ``key = value`` lines (``#`` comments allowed) with keys
gamma, omega0_ratio, r0_gamma, tmax_gamma, points, out.  All output tables are
deterministic: 17-significant-digit CSV with a ``# key = value`` header block
recording the fully resolved configuration.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_IO = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits bad usage with status 2; remap it to our usage code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _apply_thread_env():
    raw = os.environ.get("ADVWAVE_THREADS", "").strip()
    if not raw:
        return
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise _UsageError(f"ADVWAVE_THREADS must be a positive integer, got {raw!r}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, str(n))


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
        for name in ("gamma", "omega0_over_gamma", "r0_gamma", "tmax_gamma"):
            v = getattr(self, name)
            if not (v > 0.0 and v < float("inf")):
                raise _UsageError(f"{name} must be positive and finite, got {v}")
        if self.points is not None and self.points < 2:
            raise _UsageError(f"points must be >= 2, got {self.points}")

    @property
    def omega0(self) -> float:
        return self.omega0_over_gamma * self.gamma

    @property
    def r0(self) -> float:
        return self.r0_gamma / self.gamma

    def meta(self) -> dict:
        from . import __version__

        return {
            "advwave_version": __version__,
            "gamma": "%.17g" % self.gamma,
            "omega0_over_gamma": "%.17g" % self.omega0_over_gamma,
            "r0_gamma": "%.17g" % self.r0_gamma,
            "tmax_gamma": "%.17g" % self.tmax_gamma,
            "points": "auto" if self.points is None else str(self.points),
            "out": self.out,
        }


_CONFIG_KEYS = {
    "gamma": ("gamma", float),
    "omega0_ratio": ("omega0_over_gamma", float),
    "r0_gamma": ("r0_gamma", float),
    "tmax_gamma": ("tmax_gamma", float),
    "points": ("points", int),
    "out": ("out", str),
}


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
            raise _UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if key not in _CONFIG_KEYS:
            raise _UsageError(f"{path}:{lineno}: unknown key {key!r}")
        field, cast = _CONFIG_KEYS[key]
        try:
            values[field] = cast(val)
        except ValueError:
            raise _UsageError(f"{path}:{lineno}: bad value for {key}: {val!r}") from None
    return values


def _resolve_config(ns, **command_defaults) -> RunConfig:
    values = dict(command_defaults)
    if getattr(ns, "config", None):
        values.update(_read_config(ns.config))
    for flag, (field, _) in _CONFIG_KEYS.items():  # config keys double as flag names
        v = getattr(ns, flag, None)
        if v is not None:
            values[field] = v
    return RunConfig(**values)


def _outpath(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    return os.path.join(cfg.out, name)


def _dipole_geometry(cfg: RunConfig):
    """Standard geometry: dipole along z, observation point on the x axis."""
    from .core import DipoleParams

    params = DipoleParams.from_rates(cfg.omega0, cfg.gamma)
    position = (cfg.r0, 0.0, 0.0)
    return params, position


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
        raise _UsageError(f"the {command} grid needs {rows:,} rows, more than the "
                          f"limit of {_MAX_ROWS:,}; lower --points")
    return n


def _auto_points(cfg: RunConfig) -> int:
    """Automatic figure grid size: 64 points per optical period if that fits."""
    import math

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
        raise _UsageError("tmax_gamma must be >= 2*r0_gamma so the vacuum-source "
                          "onset lies inside the window")
    params, position = _dipole_geometry(cfg)
    charge = ChargeParams(q=1.0, m=1.0, r0=position)
    n = _points(cfg, "figure", _auto_points(cfg))
    tmax = cfg.tmax_gamma / cfg.gamma
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
    csv_path = _outpath(cfg, f"fig{which}.csv")
    write_csv(csv_path, meta, columns)
    if fit_lines:
        with open(csv_path, "a") as fh:
            fh.writelines(fit_lines)
    write_svg(_outpath(cfg, f"fig{which}.svg"), columns["t_gamma"],
              {k: columns[k] for k in plotted},
              title=f"Scaled momentum diffusion (figure {which})",
              xlabel="t * gamma", ylabel="N * dp")
    return EXIT_OK


def cmd_power(cfg: RunConfig, model: str) -> int:
    """Write power.csv: emitted-power split into the four bookkeeping curves."""
    import numpy as np

    from ._report import write_csv
    from .core import DipoleParams
    from .fieldcoeffs import LevelScheme
    from .radiometry import pert_power_breakdown, power_curves_2lvl

    params = DipoleParams.from_rates(cfg.omega0, cfg.gamma)
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


def _run_checks(cfg: RunConfig, count: int, span: float, full: bool):
    """Yield (name, tolerance, measured, note) validation rows.

    A row passes when measured <= tolerance; a check that raises measures NaN
    and so fails, with the error as its note.
    """
    import numpy as np

    from .atomdyn import (AtomCorrKind, commutator_expect, corr_minus_plus,
                          sigma_z_expect)
    from .core import DipoleParams, Event, FieldKind
    from .correlations import commutator_parts, delta_expect_tensor
    from .kinetics import ChargeParams, momdiff_source, momdiff_vacsource
    from .oracle import (angular_reduction_check, build_grid,
                         markov_kernel_check, oracle_sigma_z, oracle_two_time)
    from .radiometry import _sphere_nodes, power_curves_2lvl

    rng = np.random.default_rng(20260814)
    p = DipoleParams.from_rates(cfg.omega0_over_gamma, 1.0)
    kinds = (FieldKind.ELECTRIC, FieldKind.MAGNETIC)

    def power_sum_rules():
        # on random two-level working points
        err = 0.0
        for _ in range(100):
            q = DipoleParams.from_rates(rng.uniform(10.0, 1000.0), 1.0)
            pb = power_curves_2lvl(float(rng.uniform(0.0, 10.0)), q)
            err = max(err,
                      abs(pb.source + pb.vacsource - pb.total) / pb.total if pb.total else 0.0,
                      abs(pb.total - 2.0 * pb.glauber) / pb.total if pb.total else 0.0)
        return err, ""

    def sphere_quadrature():
        # transverse sphere quadrature of three random vectors d, on the
        # rule's (M, 3) node array in one pass
        dirs, weights = _sphere_nodes(16)
        d = rng.normal(size=(3, 3))
        tr = d[:, None, :] - dirs * (d @ dirs.T)[:, :, None]
        ref = 8.0 * np.pi / 3.0 * np.sum(d * d, axis=1)
        return float(np.max(np.abs(np.sum(tr * tr, axis=2) @ weights - ref) / ref)), ""

    def random_event_pairs(ta, tb):
        # positions and kinds drawn for each pair of times; the pairs with both
        # events off the origin join the batch of their (kind_x, kind_y), one
        # tensor call per kind pair
        xa, xb = rng.uniform(-2.0, 2.0, size=(2, ta.size, 3))
        pair = 2 * rng.integers(2, size=ta.size) + rng.integers(2, size=ta.size)
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

        t = rng.uniform(0.0, 10.0, size=200)
        for ka, kb, ea, eb in random_event_pairs(t, t):
            worst = max(worst, float(np.max(np.abs(delta_expect_tensor(ka, kb, ea, eb, p)))))
        return worst, "exact zeros required"

    def commutator_reconstruction():
        # from the three partitions
        def peak(tensors):
            return np.max(np.abs(tensors), axis=(-2, -1))

        err = 0.0
        ta, tb = np.sort(rng.uniform(0.0, 8.0, size=(200, 2)), axis=1).T
        for ka, kb, ea, eb in random_event_pairs(ta, tb):
            total = sum(commutator_parts(ka, kb, ea, eb, p))
            ref = delta_expect_tensor(ka, kb, ea, eb, p)
            scale = np.maximum(np.maximum(peak(ref), peak(total)), 1e-30)  # per event
            err = max(err, float(np.max(peak(total - ref) / scale)))
        return err, ""

    def commutator_diagonal():
        # equal-time commutator against the population difference
        t = rng.uniform(0.0, 10.0, size=100)
        return float(np.max(np.abs(commutator_expect(t, t, p) + sigma_z_expect(t, p)))), ""

    def oracle_population():
        # discretized-field oracle for the population decay
        grid = build_grid(p, count=count, span_gammas=span)
        times = np.arange(0.5, 6.51, 0.5)
        vals = oracle_sigma_z(times, grid)
        err = float(np.max(np.abs(vals - sigma_z_expect(times, p))))
        return err, f"count={count} span={span:g}, grid t in [0.5, 6.5]/gamma"

    def markov_mass():
        # resonance-kernel mass carried by the comb bandwidth; the packet width
        # is the time scale the oracle resolves, so its band fits inside any
        # comb wide enough for the dynamics, at any omega0
        w0 = p.omega0
        sigma = 0.25 / p.gamma
        rep = markov_kernel_check(lambda w: np.ones_like(w), t_r=2.0 * sigma,
                                  t_a=22.0 * sigma, params=p, sigma=sigma,
                                  band=(w0 - span / 2.0, w0 + span / 2.0))
        return rep.mass_rel_err, f"band=omega0+-{span / 2.0:g}*gamma"

    def angular_reduction():
        return angular_reduction_check(z_values=(5.0,), n_dirs=2, order=24), ""

    def oracle_minus_plus():
        # two-excitation-sector oracle for the anti-normal correlator
        grid = build_grid(p, count=count, span_gammas=span)
        u, v = 1.0, 2.0
        num = oracle_two_time(AtomCorrKind.MINUS_PLUS, u, v, grid)
        ref = corr_minus_plus(u, v, p)
        return abs(num - ref) / abs(ref), f"count={count} span={span:g}"

    checks = [
        ("power-sum-rules", 1e-12, power_sum_rules),
        ("sphere-quadrature", 1e-12, sphere_quadrature),
        ("light-cone-gating", 0.0, light_cone_gating),
        ("commutator-reconstruction", 1e-12, commutator_reconstruction),
        ("commutator-diagonal", 1e-12, commutator_diagonal),
        ("oracle-sigma-z", 0.03, oracle_population),
        ("markov-mass", 0.01, markov_mass),
        ("angular-reduction", 1e-10, angular_reduction),
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
    from .oracle import _TWO_PHOTON_DIM_BUDGET, _pair_count

    if count < 2:
        raise _UsageError(f"count must be >= 2, got {count}")
    if count + 1 > _TWO_PHOTON_DIM_BUDGET:
        raise _UsageError(f"count must be <= {_TWO_PHOTON_DIM_BUDGET - 1:,}, got {count:,}")
    if not 0.0 < span < float("inf"):
        raise _UsageError(f"span must be positive and finite, got {span}")
    if span / 2.0 >= cfg.omega0_over_gamma:     # the comb would reach zero frequency
        raise _UsageError(f"span must be below 2 * omega0-ratio = "
                          f"{2.0 * cfg.omega0_over_gamma:g}, got {span:g}")
    if full:
        _pair_count(count)
    rows = list(_run_checks(cfg, count, span, full))
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


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key = value config file")
    common.add_argument("--out", metavar="DIR", help="output directory")
    common.add_argument("--gamma", type=float, help="decay rate in 1/s")
    common.add_argument("--omega0-ratio", type=float, dest="omega0_ratio",
                        help="transition frequency over gamma")
    common.add_argument("--r0-gamma", type=float, dest="r0_gamma",
                        help="observation distance times gamma")
    common.add_argument("--tmax-gamma", type=float, dest="tmax_gamma",
                        help="time-grid extent times gamma")
    common.add_argument("--points", type=int, help="number of grid points")

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
        _apply_thread_env()
        argv = sys.argv[1:] if argv is None else list(argv)
        if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
            raise _UsageError(f"{argv[0]} comes before the command; flags follow the "
                              "command: advwave COMMAND [flags]")
        ns = _build_parser().parse_args(argv)
        if ns.command == "figure":
            cfg = _resolve_config(ns, **_FIGURE_DEFAULTS[ns.which])
            return cmd_figure(cfg, ns.which)
        if ns.command == "power":
            cfg = _resolve_config(ns, tmax_gamma=6.0)
            return cmd_power(cfg, ns.model)
        if ns.command == "corr":
            cfg = _resolve_config(ns, tmax_gamma=4.0)
            return cmd_corr(cfg)
        if ns.command == "detect":
            cfg = _resolve_config(ns, tmax_gamma=10.0)
            return cmd_detect(cfg)
        cfg = _resolve_config(ns)
        return cmd_validate(cfg, ns.count, ns.span, ns.full)
    except _UsageError as exc:
        print(f"advwave: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
