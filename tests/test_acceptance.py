"""End-to-end acceptance gate.

Nine numbered checks, one per physics guarantee the package makes.  Each test
enforces a numerical tolerance *and* a wall-clock budget, and prints a single
summary line (visible with ``pytest -rA`` or on failure).  Tolerances are
deliberately hard-coded — do not loosen them to make a failure go away.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from advwave import atomdyn, kinetics
from advwave.atomdyn import AtomCorrKind
from advwave.core import DipoleParams, Event, FieldKind
from advwave.correlations import commutator_parts, delta_expect_tensor, glauber_tensor
from advwave.fieldcoeffs import LevelScheme, field_coeff
from advwave.kinetics import ChargeParams
from advwave.oracle import build_grid, oracle_sigma_z, oracle_two_time
from advwave.photodetect import DetectorConfig, detection_rate_C, detection_rate_G, suppression_report
from advwave.radiometry import (
    intensity_trace_2lvl,
    pert_power_breakdown,
    power_curves_2lvl,
    sphere_integrate,
    spont_rate,
)

import routes

EE = FieldKind.ELECTRIC


_terminal_reporter = None


@pytest.fixture(scope="session", autouse=True)
def _grab_terminal_reporter(request):
    # the criterion lines must land in plain `pytest -v` logs, not only under
    # captured-stdout-on-failure; the terminal reporter writes past capture
    global _terminal_reporter
    _terminal_reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    yield


def _report(num: int, label: str, measure: str, elapsed: float, budget: float) -> None:
    line = f"criterion {num} ({label}): PASS — {measure}, {elapsed:.2f}s (budget {budget:.0f}s)"
    print(line)
    if _terminal_reporter is not None:
        _terminal_reporter.write_line(line)
    assert elapsed < budget, f"criterion {num} exceeded its {budget:.0f}s runtime budget: {elapsed:.2f}s"


def test_criterion_1_power_sum_rules():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(100):
        p = DipoleParams.from_rates(omega0=rng.uniform(10.0, 1000.0), gamma=1.0)
        b = power_curves_2lvl(rng.uniform(0.0, 10.0), p)
        worst = max(
            worst,
            abs(b.source + b.vacsource - b.total) / abs(b.total),
            abs(b.total - 2.0 * b.glauber) / abs(b.total),
        )
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12, f"power sum rule residual {worst:.3e} > 1e-12"
    _report(1, "power sum rules", f"max rel residual {worst:.1e}", elapsed, 1.0)


def test_criterion_2_virtual_level_cancellation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(417)
    worst = 0.0
    for _ in range(100):
        # four sorted levels with a moderate minimum gap; emitter is the third,
        # so exactly one (virtual) level sits above it
        while True:
            energies = np.sort(rng.uniform(0.0, 10.0, size=4))
            if np.min(np.diff(energies)) > 0.3:
                break
        d = rng.normal(size=(4, 4, 3))
        d = d + np.swapaxes(d, 0, 1)
        for i in range(4):
            d[i, i] = 0.0
        scheme = LevelScheme(energies=energies, dipoles=d)
        emitter = 2
        b = pert_power_breakdown(scheme, emitter)
        downward = sum(
            scheme.omega(emitter, m) * spont_rate(scheme, emitter, m)
            for m in range(4)
            if energies[m] < energies[emitter]
        )
        worst = max(
            worst,
            abs(b.source + b.vacsource - b.total) / abs(b.total),
            abs(b.total - downward) / abs(b.total),
        )
        # dropping the level above the emitter must not change the total at all
        truncated = LevelScheme(energies=energies[:3], dipoles=d[:3, :3])
        assert pert_power_breakdown(truncated, emitter).total == b.total
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12, f"virtual-level cancellation residual {worst:.3e} > 1e-12"
    _report(2, "virtual-level cancellation", f"max rel residual {worst:.1e}", elapsed, 1.0)


def test_criterion_3_sphere_quadrature():
    t0 = time.perf_counter()
    d = np.array([0.3, -1.1, 0.7])
    transverse = lambda nhat: d @ d - (d @ nhat) ** 2
    val = sphere_integrate(transverse, radius=1.0, order=16)
    ref = 8.0 * np.pi / 3.0 * (d @ d)
    err_a = abs(val - ref) / ref
    assert err_a <= 1e-12, f"transverse-projector integral off by {err_a:.3e}"

    p = DipoleParams.from_rates(omega0=100.0, gamma=1.0)
    radius = 3.7
    worst = 0.0
    for t_r in np.linspace(0.0, 5.0, 20):
        def integrand(nhat):
            x = radius * nhat
            # arrival time built from the same norm the gate compares against,
            # so the retarded time equals t_r exactly even at t_r = 0
            return intensity_trace_2lvl(np.linalg.norm(x) + t_r, x, p, part="rad")

        flux = sphere_integrate(integrand, radius=radius, order=16)
        ref = 0.5 * p.omega0 * p.gamma * np.exp(-p.gamma * t_r)
        worst = max(worst, abs(flux - ref) / ref)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10, f"sphere-integrated intensity residual {worst:.3e} > 1e-10"
    _report(3, "sphere quadrature", f"projector {err_a:.1e}, intensity {worst:.1e}", elapsed, 5.0)


def test_criterion_4_momentum_diffusion_oracle():
    t0 = time.perf_counter()
    p = DipoleParams.from_rates(omega0=100.0, gamma=1.0)
    charge = ChargeParams(q=1.0, m=1.0, r0=np.array([1.0 / 3.0, 0.0, 0.0]))
    r0 = charge.r0_abs
    e_rad = field_coeff(EE, charge.r0, p, "rad")
    e2 = float(np.real(e_rad @ np.conj(e_rad)))

    # vectorized radiation-zone kernel traces at x = x' = r0, independent of
    # the kinetics module (built from the correlator layer + coefficients)
    def g_trace(t, ts):
        return 2.0 * e2 * atomdyn.corr_plus_minus(t - r0, ts - r0, p)

    def d_trace(t, ts):
        return EE.advanced_sign * e2 * np.conj(atomdyn.commutator_expect(ts + r0, t - r0, p))

    # cross-check the vectorized forms against the literal tensor route
    rng = np.random.default_rng(11)
    for _ in range(10):
        t = rng.uniform(0.8, 6.0)
        tp_g = rng.uniform(r0 * 1.01, t)
        tp_d = rng.uniform(0.0, (t - 2.0 * r0) * 0.999)
        lit_g = np.trace(glauber_tensor(EE, EE, Event(t=t, x=charge.r0), Event(t=tp_g, x=charge.r0), p, part="rad"))
        lit_d = np.trace(delta_expect_tensor(EE, EE, Event(t=t, x=charge.r0), Event(t=tp_d, x=charge.r0), p, part="rad"))
        assert abs(g_trace(t, np.array([tp_g]))[0] - lit_g) <= 1e-12 * abs(lit_g)
        assert abs(d_trace(t, np.array([tp_d]))[0] - lit_d) <= 1e-12 * abs(lit_d)

    # integrate each kernel over its exact support segment (empty before its
    # gate, where the integral is 0); the upper Delta endpoint is shrunk by a
    # relative 1e-12 sliver so a one-ulp rounding of the gate comparison cannot
    # zero the boundary node
    sliver = 1e-12
    worst_g = worst_d = 0.0
    for t in np.linspace(0.1, 6.0, 20):
        closed = kinetics.momdiff_source(t, p, charge)
        num = 2.0 * np.real(routes.richardson_trapezoid(lambda ts: g_trace(t, ts), r0 * (1.0 + sliver),
                                                        t, p.omega0, 512))
        worst_g = max(worst_g, abs(num - closed) / max(abs(closed), 1e-12))

        closed = kinetics.momdiff_vacsource(t, p, charge)
        num = 2.0 * np.real(routes.richardson_trapezoid(lambda ts: d_trace(t, ts), 0.0,
                                                        (t - 2.0 * r0) * (1.0 - sliver), p.omega0, 512))
        worst_d = max(worst_d, abs(num - closed) / max(abs(closed), 1e-12))
    elapsed = time.perf_counter() - t0
    assert worst_g < 1e-6, f"source-rate closed form vs kernel quadrature: {worst_g:.3e} >= 1e-6"
    assert worst_d < 1e-6, f"vacsource-rate closed form vs kernel quadrature: {worst_d:.3e} >= 1e-6"
    _report(4, "momentum-diffusion oracle", f"rel err G {worst_g:.1e}, Delta {worst_d:.1e}", elapsed, 30.0)


def test_criterion_5_light_cone_gating():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    p = DipoleParams.from_rates(omega0=100.0, gamma=1.0)
    charge = ChargeParams(q=1.0, m=1.0, r0=np.array([1.0 / 3.0, 0.0, 0.0]))
    r0 = charge.r0_abs
    for t in rng.uniform(0.0, r0, size=200):
        assert kinetics.momdiff_source(t, p, charge) == 0.0
    for t in rng.uniform(0.0, 2.0 * r0, size=200):
        assert kinetics.momdiff_vacsource(t, p, charge) == 0.0

    kinds = (FieldKind.ELECTRIC, FieldKind.MAGNETIC)
    for _ in range(10_000):
        t = rng.uniform(0.0, 8.0)
        ev_x = Event(t=t, x=rng.uniform(-3.0, 3.0, size=3))
        ev_y = Event(t=t, x=rng.uniform(-3.0, 3.0, size=3))
        kx, ky = kinds[rng.integers(2)], kinds[rng.integers(2)]
        vals = delta_expect_tensor(kx, ky, ev_x, ev_y, p)
        assert np.all(vals == 0.0)
    elapsed = time.perf_counter() - t0
    _report(5, "light-cone gating", "all gated values exactly 0.0", elapsed, 1.0)


def test_criterion_6_longtime_slope():
    t0 = time.perf_counter()
    gamma = 1e8
    p = DipoleParams.from_rates(omega0=100.0 * gamma, gamma=gamma)
    charge = ChargeParams(q=1.0, m=1.0, r0=np.array([1.0 / (3.0 * gamma), 0.0, 0.0]))
    times = np.linspace(0.0, 20.0 / gamma, 20_001)
    curve = kinetics.dispersion_change(times, p, charge)
    slope, _ = kinetics.longtime_fit(curve, (10.0 / gamma, 20.0 / gamma))
    rel = abs(slope - gamma) / gamma
    slope_s, _ = kinetics.longtime_fit(curve, (10.0 / gamma, 20.0 / gamma), which="source")
    slope_v, _ = kinetics.longtime_fit(curve, (10.0 / gamma, 20.0 / gamma), which="vacsource")
    elapsed = time.perf_counter() - t0
    assert rel <= 0.02, f"late-time slope {slope:.6e} deviates from gamma by {rel:.2%}"
    assert abs(slope_s) <= 0.02 * gamma, "source curve should flatten at late times"
    assert abs(slope_v - gamma) / gamma <= 0.02, "vacsource curve should carry the full slope"
    _report(6, "late-time diffusion slope", f"slope/gamma - 1 = {slope / gamma - 1.0:+.2e}", elapsed, 10.0)


def test_criterion_7_mode_grid_oracle():
    t0 = time.perf_counter()
    p = DipoleParams.from_rates(omega0=30.0, gamma=1.0)
    grid = build_grid(p, count=400, span_gammas=50.0)

    # population decay; sampled away from the initial transient, where the
    # finite-span mode grid genuinely deviates from pure exponential decay
    times = np.arange(0.5, 3.01, 0.5)
    sz = oracle_sigma_z(times, grid)
    err_z = np.max(np.abs(sz - atomdyn.sigma_z_expect(times, p)))
    assert err_z <= 0.03, f"sigma_z oracle error {err_z:.4f} > 0.03 absolute"

    # two-time prefactor: strip the phase/envelope, compare with exp(gamma*u)-1
    worst_pref = 0.0
    for u, v in ((0.5, 1.0), (1.0, 2.0), (1.5, 2.0)):
        val = oracle_two_time(AtomCorrKind.MINUS_PLUS, u, v, grid)
        envelope = np.exp(1j * p.omega0 * (v - u)) * np.exp(-p.gamma * (u + v) / 2.0)
        prefactor = (val / envelope).real
        ref = np.expm1(p.gamma * u)
        worst_pref = max(worst_pref, abs(prefactor - ref) / ref)
    elapsed = time.perf_counter() - t0
    assert worst_pref <= 0.05, f"MinusPlus prefactor off by {worst_pref:.2%} > 5%"
    _report(7, "mode-grid oracle", f"sigma_z {err_z:.4f} abs, prefactor {worst_pref:.2%}", elapsed, 300.0)


def test_criterion_8_detection_rwa_suppression():
    t0 = time.perf_counter()
    worst_by_ratio = []
    for ratio in (10.0, 30.0, 100.0):
        p = DipoleParams.from_rates(omega0=ratio, gamma=1.0)
        cfg = DetectorConfig(position=np.array([1.0 / 3.0, 0.0, 0.0]), source=p)
        x = cfg.r
        for t in np.linspace(0.05 * x, 1.95 * x, 7):
            assert detection_rate_C(t, cfg) == detection_rate_G(t, cfg)
        rep = suppression_report(cfg, np.linspace(2.0 * x, 2.0 * x + 10.0, 61))
        worst_by_ratio.append(rep.max_ratio)
    elapsed = time.perf_counter() - t0
    assert worst_by_ratio[0] > worst_by_ratio[1] > worst_by_ratio[2], (
        f"advanced-wave contamination should fall with omega0/gamma, got {worst_by_ratio}"
    )
    measures = ", ".join(f"{r:.2e}" for r in worst_by_ratio)
    _report(8, "detection RWA suppression", f"max ratios {measures}", elapsed, 60.0)


def test_criterion_9_consistency_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5150)
    p = DipoleParams.from_rates(omega0=37.0, gamma=1.0)
    ts = rng.uniform(0.0, 6.0, size=1000)
    diag = atomdyn.commutator_expect(ts, ts, p)
    err_diag = np.max(np.abs(diag + atomdyn.sigma_z_expect(ts, p)))
    assert err_diag <= 1e-12, f"commutator diagonal vs -sigma_z: {err_diag:.3e}"

    kinds = (FieldKind.ELECTRIC, FieldKind.MAGNETIC)
    worst = 0.0
    for _ in range(1000):
        ev_x = Event(t=rng.uniform(0.0, 6.0), x=rng.uniform(-2.0, 2.0, size=3))
        ev_y = Event(t=rng.uniform(0.0, 6.0), x=rng.uniform(-2.0, 2.0, size=3))
        kx, ky = kinds[rng.integers(2)], kinds[rng.integers(2)]
        total = sum(commutator_parts(kx, ky, ev_x, ev_y, p))
        ref = delta_expect_tensor(kx, ky, ev_x, ev_y, p)
        scale = max(np.max(np.abs(ref)), np.max(np.abs(total)), 1.0)
        worst = max(worst, np.max(np.abs(total - ref)) / scale)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12, f"commutator reconstruction residual {worst:.3e} > 1e-12"
    _report(9, "consistency identities", f"diag {err_diag:.1e}, reconstruction {worst:.1e}", elapsed, 1.0)
