import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid

from advwave.core import DipoleParams, Event, FieldKind
from advwave.correlations import corr_traces, delta_expect_tensor, glauber_tensor
from advwave.kinetics import (
    ChargeParams,
    CycleAverage,
    _exp,
    _moments,
    _rate_terms,
    cycle_averaged,
    dispersion_change,
    longtime_fit,
    momdiff_source,
    momdiff_vacsource,
    norm_constant,
    posdisp_change,
)
from advwave.photodetect import DetectorConfig, suppression_report

P = DipoleParams.from_rates(omega0=100.0, gamma=1.0)
CH = ChargeParams(q=1.0, m=1.0, r0=np.array([1.0 / 3.0, 0.0, 0.0]))
EE = FieldKind.ELECTRIC


# Independent routes for the closed forms: the rates and the radiation-zone
# kernel integrated numerically.

def _trapezoid_curves(t, params, charge):
    """Cumulative trapezoid of the N-scaled source and vacuum-source rates."""
    n = norm_constant(params, charge)
    return (cumulative_trapezoid(n * momdiff_source(t, params, charge), t, initial=0.0),
            cumulative_trapezoid(n * momdiff_vacsource(t, params, charge), t, initial=0.0))


def _richardson_curves(t, params, charge):
    """Two Richardson steps on cumulative trapezoids with the steps of t, halved and quartered.

    Exact to O(h^6) at the nodes of ``t`` when every kink of the rates (at
    |r0| and 2|r0|) is a node.
    """
    fine = np.linspace(t[0], t[-1], 4 * (t.size - 1) + 1)
    levels = [_trapezoid_curves(fine[::k], params, charge) for k in (4, 2, 1)]
    out = []
    for coarse, mid, finest in zip(*levels):
        r1, r2 = (4.0 * mid[::2] - coarse) / 3.0, (4.0 * finest[::2] - mid) / 3.0
        out.append((16.0 * r2[::2] - r1) / 15.0)
    return out


def _richardson_window_average(t, period, params, charge, n=256):
    """Average of the raw curves over [t - P/2, t + P/2] by a Richardson trapezoid.

    The window is split at 0, |r0| and 2|r0|, so each piece is smooth; each
    piece takes trapezoids with n, 2n and 4n steps and two Richardson steps.
    """
    lo, hi = t - period / 2.0, t + period / 2.0
    cuts = [lo] + [c for c in (0.0, charge.r0_abs, 2.0 * charge.r0_abs) if lo < c < hi] + [hi]
    total = np.zeros(2)
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b <= 0.0:
            continue
        levels = []
        for k in (n, 2 * n, 4 * n):
            x = np.linspace(a, b, k + 1)
            w = np.full(k + 1, (b - a) / k)
            w[0] = w[-1] = (b - a) / (2 * k)
            curve = dispersion_change(x, params, charge)
            levels.append(np.array([w @ curve.cum_source, w @ curve.cum_vacsource]))
        r1, r2 = (4.0 * levels[1] - levels[0]) / 3.0, (4.0 * levels[2] - levels[1]) / 3.0
        total += (16.0 * r2 - r1) / 15.0
    return total / period


def _trapezoid_posdisp(t, params, charge, n):
    """Field part of the position dispersion: uniform tensor-product trapezoid.

    First order in 1/n, because the advanced-wave gate |t3 - t4| >= 2 |r0|
    cuts the grid diagonally.
    """
    ts = np.linspace(0.0, t, n + 1)
    w = np.full(n + 1, t / n)
    w[0] = w[-1] = t / (2 * n)
    wt = w * (t - ts)
    acc = 0.0 + 0.0j
    block = max(1, int(4e6) // (n + 1))
    for lo in range(0, n + 1, block):
        g, d = corr_traces(EE, EE, ts[lo:lo + block, None], charge.r0, ts[None, :], charge.r0,
                           params, part="rad")
        acc += np.einsum("i,ij,j->", wt[lo:lo + block], g + d, wt)
    return charge.q**2 / charge.m**2 * 2.0 * float(np.real(acc))


def _gauss_legendre(lo, hi, n):
    x, w = np.polynomial.legendre.leggauss(n)
    return lo + (hi - lo) * (x + 1.0) / 2.0, w * (hi - lo) / 2.0


def _gauss_legendre_posdisp(t, params, charge):
    """Field part of the position dispersion, each gated segment by Gauss-Legendre.

    The Glauber square t3, t4 in [|r0|, t] is a tensor product; each
    advanced-wave triangle (one time at least 2|r0| after the other) takes
    outer nodes on [2|r0|, t] and inner nodes on [0, outer - 2|r0|].  All
    nodes are interior, so no gate edge is sampled.
    """
    r0 = charge.r0_abs

    def nodes(length):
        return int(0.6 * params.omega0 * length) + 40

    total = 0.0j
    s, w = _gauss_legendre(r0, t, nodes(t - r0))
    g, _ = corr_traces(EE, EE, s[:, None], charge.r0, s[None, :], charge.r0, params, part="rad")
    total += (w * (t - s)) @ g @ (w * (t - s))
    b = t - 2.0 * r0
    if b > 0.0:
        outer, w_out = _gauss_legendre(2.0 * r0, t, nodes(b))
        x, w_in = np.polynomial.legendre.leggauss(nodes(b))
        span = outer[:, None] - 2.0 * r0
        inner = span * (x + 1.0) / 2.0
        weight = w_out[:, None] * (t - outer[:, None]) * (w_in * span / 2.0) * (t - inner)
        for first, second in ((inner, outer[:, None]), (outer[:, None], inner)):
            _, d = corr_traces(EE, EE, first, charge.r0, second, charge.r0, params, part="rad")
            total += np.sum(weight * d)
    return charge.q**2 / charge.m**2 * 2.0 * total.real


def test_charge_validation():
    with pytest.raises(ValueError):
        ChargeParams(q=np.inf, m=1.0, r0=np.ones(3))
    with pytest.raises(ValueError):
        ChargeParams(q=1.0, m=0.0, r0=np.ones(3))
    with pytest.raises(ValueError):
        ChargeParams(q=1.0, m=1.0, r0=np.zeros(3))


def test_norm_constant_scaling():
    n1 = norm_constant(P, CH)
    n2 = norm_constant(P, ChargeParams(q=2.0, m=1.0, r0=CH.r0))
    assert n2 == pytest.approx(n1 / 4.0, rel=1e-14)
    with pytest.raises(ValueError):
        norm_constant(P, ChargeParams(q=0.0, m=1.0, r0=CH.r0))


# regression pins; both rates are cross-checked against quadrature of the
# correlation-kernel traces in the acceptance suite
def test_rate_values_pinned():
    assert norm_constant(P, CH) == pytest.approx(186.17310775740046, rel=1e-12)
    assert momdiff_source(0.5, P, CH) == pytest.approx(-1.6326384513614558, rel=1e-12)
    assert momdiff_vacsource(0.9, P, CH) == pytest.approx(0.41732704690203004, rel=1e-12)


def test_gating_exact_zero():
    assert momdiff_source(0.3, P, CH) == 0.0
    assert momdiff_vacsource(0.6, P, CH) == 0.0
    assert momdiff_source(-1.0, P, CH) == 0.0
    # a time that is not finite has no gate to compare with
    for bad in (np.nan, np.inf, -np.inf, np.array([1.0, np.nan])):
        for rate in (momdiff_source, momdiff_vacsource):
            with pytest.raises(ValueError, match="finite"):
                rate(bad, P, CH)


def test_vacsource_continuous_at_onset():
    onset = 2.0 * CH.r0_abs
    scale = abs(momdiff_vacsource(onset + 0.5, P, CH))
    assert abs(momdiff_vacsource(onset, P, CH)) <= 1e-12 * scale
    assert abs(momdiff_vacsource(onset + 1e-8, P, CH)) <= 1e-4 * scale


def test_rates_vectorized():
    ts = np.array([0.0, 0.4, 1.0, 2.5])
    for rate in (momdiff_source, momdiff_vacsource):
        arr = rate(ts, P, CH)
        assert arr.shape == (4,)
        for i, t in enumerate(ts):
            assert arr[i] == rate(float(t), P, CH)


def _grid(tmax, per_period=60):
    n = int(np.ceil(per_period * P.omega0 * tmax / (2.0 * np.pi)))
    return np.linspace(0.0, tmax, n + 1)


@pytest.mark.parametrize("ratio", [10.0, 100.0, 1000.0])
def test_dispersion_matches_richardson_quadrature(ratio):
    p = DipoleParams.from_rates(omega0=ratio, gamma=1.0)
    ch = ChargeParams(q=1.0, m=1.0, r0=np.array([0.0, 0.25, 0.0]))
    # |r0| = 1/4 and 2|r0| = 1/2 are nodes of a grid on [0, 3] with 12 k steps;
    # 128 or more steps per optical period
    steps = 12 * int(np.ceil(128.0 * ratio * 3.0 / (2.0 * np.pi) / 12.0))
    t = np.linspace(0.0, 3.0, steps + 1)
    curve = dispersion_change(t, p, ch)
    ref_s, ref_v = _richardson_curves(t, p, ch)
    assert np.max(np.abs(curve.cum_source - ref_s)) <= 1e-9 * np.max(np.abs(ref_s))
    assert np.max(np.abs(curve.cum_vacsource - ref_v)) <= 1e-9 * np.max(np.abs(ref_v))


def test_dispersion_is_exact_on_any_grid():
    # a point's value does not depend on the rest of the grid
    coarse = np.linspace(0.0, 3.0, 7)
    fine = np.union1d(coarse, np.linspace(0.0, 3.0, 1001))
    shared = np.isin(fine, coarse)
    for build, names in ((dispersion_change, ("cum_source", "cum_vacsource", "cum_total")),
                         (cycle_averaged, ALL_CYCLE_COLUMNS)):
        a, b = build(coarse, P, CH), build(fine, P, CH)
        for name in names:
            assert np.all(getattr(a, name) == getattr(b, name)[shared]), name
    # and at an optical frequency on a coarse grid
    p = DipoleParams.from_rates(omega0=1e8, gamma=1.0)
    curve = dispersion_change(np.linspace(0.0, 20.0, 101), p, CH)
    assert np.all(np.isfinite(curve.cum_total))
    slope, _ = longtime_fit(curve, (10.0, 20.0))
    assert slope == pytest.approx(1.0, rel=0.02)


def test_moments_match_gauss_legendre():
    # both branches (series below |c b| = 1, recurrence above), including
    # |c b| = 1e-8 where the recurrence alone would cancel catastrophically
    for c in (1.0, -1.0, 1j, complex(-0.5, 100.0), complex(0.5, -3.0)):
        for z in (1e-8, 0.3, 1.0 - 1e-12, 1.0 + 1e-12, 7.0):
            b = z / abs(c)
            s, w = _gauss_legendre(0.0, b, 40)
            for k, m in enumerate(_moments(c, b)):
                assert abs(m - w @ (s**k * np.exp(c * s))) <= 1e-13 * abs(m)
    # a shift merged into the exponent: no overflow where e^{c b} alone would
    m0, _, m2 = _moments(1.0, 1000.0, 1000.0)
    assert m0 == pytest.approx(1.0, rel=1e-15) and np.isfinite(m2)


def test_exp_phase_is_exact_at_optical_phases():
    # reference: the exact product w x (a Fraction) reduced modulo 2 pi with 50
    # digits of pi; a plain np.exp(1j * w * x) is off by up to ulp(w x)/2 ~ 1e-7
    pi = Decimal("3.14159265358979323846264338327950288419716939937510")
    w = 2e16
    x = np.random.default_rng(3).uniform(1e-8, 1e-7, 50)
    got = _exp(1j * w, x)
    with localcontext() as ctx:
        ctx.prec = 60
        for xi, gi in zip(x, got):
            exact = Fraction(w) * Fraction(float(xi))
            phase = float((Decimal(exact.numerator) / Decimal(exact.denominator)) % (2 * pi))
            assert abs(gi - complex(math.cos(phase), math.sin(phase))) <= 1e-15
    # a real exponent stays real, and the shift is merged
    assert _exp(-1.0, np.array([2.0]), 3.0).dtype == float
    assert _exp(-1.0, 2.0, 3.0) == pytest.approx(math.exp(-5.0), rel=1e-15)


def test_dispersion_curve_consistency():
    t = _grid(3.0)
    curve = dispersion_change(t, P, CH)
    assert np.all(curve.cum_total == curve.cum_source + curve.cum_vacsource)
    assert curve.cum_source[0] == 0.0
    assert curve.gamma == P.gamma


def test_dispersion_curves_are_charge_independent():
    t = _grid(1.0)
    a = dispersion_change(t, P, CH)
    b = dispersion_change(t, P, ChargeParams(q=3.0, m=2.0, r0=CH.r0))
    assert np.all(a.cum_total == b.cum_total)


def test_dispersion_grid_validation():
    # any 1-d array of finite times: each point is its own closed form, so an
    # unordered grid, or one that misses 0, returns the ordered grid's bits, permuted
    t = np.linspace(0.0, 6.0, 6_001)
    full = dispersion_change(t, P, CH)
    perm = np.random.default_rng(4).permutation(t.size)
    for pick in (slice(None, None, -7), perm, slice(4_321, 4_322)):
        part = dispersion_change(t[pick], P, CH)
        for name in ("times", "cum_source", "cum_vacsource", "cum_total"):
            assert np.array_equal(getattr(part, name), getattr(full, name)[pick])
    for bad in (np.array([0.0, 1.0, np.nan]), np.array([0.0, np.inf]), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="1-d array of finite times"):
            dispersion_change(bad, P, CH)


def test_longtime_fit_slope():
    t = _grid(13.0)
    curve = dispersion_change(t, P, CH)
    slope, intercept = longtime_fit(curve, (6.0, 13.0))
    assert slope == pytest.approx(P.gamma, rel=0.02)
    with pytest.raises(ValueError, match="5/gamma"):
        longtime_fit(curve, (1.0, 13.0))
    with pytest.raises(ValueError, match="2/gamma"):
        longtime_fit(curve, (6.0, 7.0))
    with pytest.raises(ValueError, match="'total', 'source' or 'vacsource'"):
        longtime_fit(curve, (6.0, 13.0), which="glauber")


def test_longtime_fit_window_must_be_finite():
    curve = dispersion_change(_grid(13.0), P, CH)
    for window in ((6.0, np.inf), (np.nan, 13.0), (6.0, np.nan)):
        with pytest.raises(ValueError, match=r"fit window \(t_lo, t_hi\) must be finite"):
            longtime_fit(curve, window)


def _hand_rate_terms(params, r0):
    # the (c, lam) lists as they were derived by hand, with a = i omega0 - gamma/2
    # and damp (A + i B) = gamma (1 + 2 damp) + 2 i omega0 (1 - 2 damp)
    g, w0 = params.gamma, params.omega0
    a = complex(-g / 2.0, w0)
    damp = float(np.exp(-g * r0))
    return ((r0, ((-4.0 * a, a), (-2.0 * g, -g))),
            (2.0 * r0, ((g, 0.0), (2.0 * g * damp, -g),
                        (-complex(g * (1.0 + 2.0 * damp), 2.0 * w0 * (1.0 - 2.0 * damp)), a))))


@pytest.mark.parametrize("gamma", [1.0, 1e8])
@pytest.mark.parametrize("r0_gamma", [0.02, 1.0 / 3.0, 2.0])
@pytest.mark.parametrize("ratio", [10.0, 1e3, 1e8])
def test_rate_terms_derived_from_atomdyn_match_the_hand_forms(ratio, r0_gamma, gamma):
    # each derived coefficient within 4 ulp of its hand value; the gates, the
    # exponents (their types too) and the order of the terms are the same
    p = DipoleParams.from_rates(omega0=ratio * gamma, gamma=gamma)
    derived, hand = _rate_terms(p, r0_gamma / gamma), _hand_rate_terms(p, r0_gamma / gamma)
    for (gate, terms), (hand_gate, hand_terms) in zip(derived, hand, strict=True):
        assert gate == hand_gate
        for (c, lam), (hand_c, hand_lam) in zip(terms, hand_terms, strict=True):
            assert lam == hand_lam and type(lam) is type(hand_lam) and type(c) is type(hand_c)
            assert abs(c - hand_c) <= 4.0 * np.spacing(abs(hand_c))


def test_posdisp_free_part():
    assert posdisp_change(0.7, P, ChargeParams(q=0.0, m=2.0, r0=CH.r0), delta_p0=1.44) == pytest.approx(
        0.7**2 / (2.0 * 4.0) * 1.44, rel=1e-14
    )
    assert posdisp_change(0.0, P, CH, delta_p0=5.0) == 0.0


def test_posdisp_validation():
    for t in (-0.1, np.inf, np.nan, np.array([0.5, -0.1]), np.array([0.5, np.nan])):
        with pytest.raises(ValueError, match="finite and >= 0"):
            posdisp_change(t, P, CH)


def test_posdisp_against_literal_quadrature():
    # small independent check: literal (t - t3)(t - t4)-weighted double
    # trapezoid over the full correlation trace at the charge position
    p = DipoleParams.from_rates(omega0=40.0, gamma=1.0)
    ch = ChargeParams(q=1.0, m=1.0, r0=np.array([0.02, 0.0, 0.0]))
    t = 0.1
    lib = posdisp_change(t, p, ch)
    n = 161
    ts = np.linspace(0.0, t, n)
    ee = FieldKind.ELECTRIC
    vals = np.empty((n, n), dtype=complex)
    for i, t3 in enumerate(ts):
        for j, t4 in enumerate(ts):
            e3, e4 = Event(t=t3, x=ch.r0), Event(t=t4, x=ch.r0)
            vals[i, j] = np.trace(glauber_tensor(ee, ee, e3, e4, p, part="rad")
                                  + delta_expect_tensor(ee, ee, e3, e4, p, part="rad"))
    w = np.full(n, t / (n - 1))
    w[0] = w[-1] = 0.5 * t / (n - 1)
    wt = w * (t - ts)
    ref = 2.0 * float(np.real(wt @ vals @ wt)) * ch.q**2 / ch.m**2
    assert lib == pytest.approx(ref, rel=0.05)


# off-axis charge, 2|r0| = 0.671: times on both sides of the advanced-wave onset
@pytest.mark.parametrize("ratio,t", [(40.0, 0.5), (40.0, 1.0), (40.0, 2.5), (100.0, 0.5),
                                     (100.0, 0.675), (100.0, 1.0), (100.0, 2.5), (1000.0, 0.5),
                                     (1000.0, 1.0)])
def test_posdisp_matches_gauss_legendre(ratio, t):
    p = DipoleParams.from_rates(omega0=ratio, gamma=1.0)
    ch = ChargeParams(q=1.5, m=0.5, r0=np.array([0.2, -0.1, 0.25]))
    ref = _gauss_legendre_posdisp(t, p, ch)
    assert abs(posdisp_change(t, p, ch) - ref) <= 1e-10 * abs(ref)


def test_posdisp_trapezoid_converges_to_closed_form():
    p = DipoleParams.from_rates(omega0=40.0, gamma=1.0)
    ch = ChargeParams(q=1.0, m=1.0, r0=np.array([0.02, 0.0, 0.0]))
    exact = posdisp_change(0.1, p, ch)
    coarse, fine = (_trapezoid_posdisp(0.1, p, ch, n) for n in (1000, 2000))
    # first-order error: halves with the step, and one Richardson step removes it
    assert 0.4 <= (fine - exact) / (coarse - exact) <= 0.6
    assert abs(2.0 * fine - coarse - exact) <= 5e-5 * exact


def test_posdisp_benchmark_references():
    # converged Gauss-Legendre values at omega0 = 100 gamma, r0 = (1/3, 0, 0) / gamma
    refs = (0.007755788246617296, 0.007878511381536281, 0.007997904640318158,
            0.00811048974475664, 0.008213217328804581, 0.00830365866034825,
            0.00838015961356714, 0.008441947130400777, 0.008489181324548227)
    for k, ref in enumerate(refs):
        assert posdisp_change(1.0 + 0.0025 * (k - 4), P, CH) == pytest.approx(ref, rel=1e-9)
    # all nine as one call: each element is its scalar call, bit for bit
    many = posdisp_change(1.0 + 0.0025 * (np.arange(9) - 4), P, CH)
    assert isinstance(many, np.ndarray) and many.shape == (9,)
    for k in range(9):
        one = posdisp_change(1.0 + 0.0025 * (k - 4), P, CH)
        assert isinstance(one, float) and many[k] == one


@settings(max_examples=60, deadline=None)
@given(log_ratio=st.floats(1.0, 8.0), r0_gamma=st.floats(0.01, 5.0),
       t_gamma=st.floats(0.0, 1e3), gamma=st.sampled_from([1.0, 1e8]))
def test_closed_forms_at_any_ratio_property(log_ratio, r0_gamma, t_gamma, gamma):
    p = DipoleParams.from_rates(omega0=10.0**log_ratio * gamma, gamma=gamma)
    ch = ChargeParams(q=1.0, m=1.0, r0=np.array([r0_gamma / gamma, 0.0, 0.0]))
    onset = 2.0 * ch.r0_abs
    assert np.isfinite(posdisp_change(t_gamma / gamma, p, ch))
    # continuous where the advanced-wave triangles open
    before, at, after = (posdisp_change(onset * f, p, ch) for f in (1.0 - 1e-9, 1.0, 1.0 + 1e-9))
    assert abs(after - before) <= 1e-6 * abs(at)
    t = np.union1d(np.linspace(0.0, max(t_gamma, 2.0 * r0_gamma) / gamma, 101),
                   [ch.r0_abs, onset * (1.0 - 1e-12), onset])
    curve = dispersion_change(t, p, ch)
    for name in ("cum_source", "cum_vacsource", "cum_total"):
        assert np.all(np.isfinite(getattr(curve, name)))
    assert np.all(curve.cum_vacsource[t < onset] == 0.0)
    assert np.all(curve.cum_source[t < ch.r0_abs] == 0.0)


ALL_CYCLE_COLUMNS = tuple(f"{kind}_{part}" for part in ("source", "vacsource", "total")
                          for kind in ("avg", "lo", "hi"))


@pytest.mark.parametrize("ratio", [10.0, 100.0, 1000.0])
def test_cycle_averages_match_richardson_quadrature(ratio):
    p = DipoleParams.from_rates(omega0=ratio, gamma=1.0)
    ch = ChargeParams(q=1.0, m=1.0, r0=np.array([0.2, -0.1, 0.25]))
    period = 2.0 * np.pi / ratio
    # windows straddling each gate at several offsets, and three late windows
    offsets = period * np.array([-0.6, -0.5, -0.3, 0.0, 0.2, 0.5, 0.7])
    t = np.concatenate([ch.r0_abs + offsets, 2.0 * ch.r0_abs + offsets, [1.0, 2.5, 5.0]])
    curves = cycle_averaged(t, p, ch)
    ref = np.array([_richardson_window_average(ti, period, p, ch) for ti in t])
    for k, name in enumerate(("avg_source", "avg_vacsource")):
        got = getattr(curves, name)
        assert np.max(np.abs(got - ref[:, k])) <= 1e-10 * np.max(np.abs(ref[:, k]))
    assert np.all(curves.avg_total == curves.avg_source + curves.avg_vacsource)


def test_straddling_window_width_at_an_optical_ratio():
    # at gamma = 1e8, omega0/gamma = 1e8 and |r0| gamma = 2.5 the rounding of
    # t + P/2 is up to 1e-8 of the part of the window after the gate; the
    # average must follow that part's exact width
    gamma, omega0 = 1e8, 1e16
    p = DipoleParams.from_rates(omega0=omega0, gamma=gamma)
    ch = ChargeParams(q=1.0, m=1.0, r0=np.array([2.5 / gamma, 0.0, 0.0]))
    gate, period = ch.r0_abs, 2.0 * np.pi / omega0
    t = gate + 0.3 * period
    width = float(Fraction(t) - Fraction(gate) + Fraction(period / 2.0))
    # cum_source is 2 |e^{a x} - 1|^2 a time x past its gate, 5 rad of
    # carrier phase over the width: 80 Gauss-Legendre nodes integrate it to
    # rounding (40 and 80 nodes agree to 3e-15)
    x, w = _gauss_legendre(0.0, width, 80)
    cum = 2.0 * (np.expm1(-gamma * x / 2.0) ** 2
                 + 4.0 * np.exp(-gamma * x / 2.0) * np.sin(omega0 * x / 2.0) ** 2)
    ref = (w @ cum) / period
    got = cycle_averaged(np.array([t]), p, ch).avg_source[0]
    assert got == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("ratio", [10.0, 100.0])
def test_envelopes_bound_the_raw_curves(ratio):
    p = DipoleParams.from_rates(omega0=ratio, gamma=1.0)
    ch = ChargeParams(q=1.0, m=1.0, r0=np.array([0.2, -0.1, 0.25]))
    period = 2.0 * np.pi / ratio
    t = np.linspace(0.0, 4.0, int(4.0 / period * 2000) + 1)   # 2 000 points per period
    raw, env = dispersion_change(t, p, ch), cycle_averaged(t, p, ch)
    for part, gate in (("source", ch.r0_abs), ("vacsource", 2.0 * ch.r0_abs),
                       ("total", 2.0 * ch.r0_abs)):
        y, lo, hi = (getattr(raw, "cum_" + part), getattr(env, "lo_" + part),
                     getattr(env, "hi_" + part))
        assert np.all(lo - 1e-12 <= y) and np.all(y <= hi + 1e-12)
        # the raw curve touches both envelopes once per period, to O(gamma/omega0)
        for start in np.arange(gate, t[-1] - period, period):
            sel = (t >= start) & (t < start + period)
            assert np.min(hi[sel] - y[sel]) <= 0.05 / ratio
            assert np.min(y[sel] - lo[sel]) <= 0.05 / ratio


def test_cycle_averaged_slope_at_an_optical_ratio():
    # criterion 6's 2 % on the late-time slope, on 101 points over 20/gamma
    p = DipoleParams.from_rates(omega0=1e8, gamma=1.0)
    curves = cycle_averaged(np.linspace(0.0, 20.0, 101), p, CH)
    slope, _ = longtime_fit(curves, (10.0, 20.0))
    assert slope == pytest.approx(1.0, rel=0.02)
    assert isinstance(curves, CycleAverage) and curves.period == 2.0 * np.pi / 1e8


def test_cycle_averaged_grid_validation():
    for bad in (np.zeros((2, 2)), np.array([0.0, np.nan])):
        with pytest.raises(ValueError, match="1-d array of finite times"):
            cycle_averaged(bad, P, CH)


def test_charge_on_the_dipole_axis():
    # E_rad(r0) = 0 on the axis of the z dipole: N is infinite, the N-scaled
    # curves are those of any charge at the same distance
    on_axis = ChargeParams(q=1.0, m=1.0, r0=np.array([0.0, 0.0, 0.4]))
    off_axis = ChargeParams(q=1.0, m=1.0, r0=np.array([0.4, 0.0, 0.0]))
    with pytest.raises(ValueError, match="E_rad"):
        norm_constant(P, on_axis)
    t = np.linspace(0.0, 3.0, 301)
    for build, names in ((dispersion_change, ("cum_source", "cum_vacsource", "cum_total")),
                         (cycle_averaged, ALL_CYCLE_COLUMNS)):
        on, off = build(t, P, on_axis), build(t, P, off_axis)
        for name in names:
            assert np.array_equal(getattr(on, name), getattr(off, name))
    assert momdiff_source(1.0, P, on_axis) == 0.0 and momdiff_vacsource(1.0, P, on_axis) == 0.0
    assert posdisp_change(1.0, P, on_axis) == 0.0


@settings(max_examples=60, deadline=None)
@given(log_ratio=st.floats(1.0, 8.0), r0_gamma=st.floats(0.01, 5.0),
       t_gamma=st.floats(0.0, 1e3), gamma=st.sampled_from([1.0, 1e8]))
def test_cycle_averages_at_any_ratio_property(log_ratio, r0_gamma, t_gamma, gamma):
    p = DipoleParams.from_rates(omega0=10.0**log_ratio * gamma, gamma=gamma)
    ch = ChargeParams(q=1.0, m=1.0, r0=np.array([r0_gamma / gamma, 0.0, 0.0]))
    half = np.pi / p.omega0
    onset = 2.0 * ch.r0_abs
    edges = [c + f * half for c in (ch.r0_abs, onset) for f in (-1.0 - 1e-9, -1.0, -0.5, 0.0, 1.0)]
    t = np.union1d(np.linspace(0.0, max(t_gamma, 2.0 * r0_gamma) / gamma, 101), edges)
    curves = cycle_averaged(t, p, ch)
    for name in ALL_CYCLE_COLUMNS:
        assert np.all(np.isfinite(getattr(curves, name))), name
    assert np.all(curves.avg_vacsource[t + half <= onset] == 0.0)
    assert np.all(curves.avg_source[t + half <= ch.r0_abs] == 0.0)
    assert np.all(curves.lo_total <= curves.hi_total)


# The dimensional scaling law: omega0 and gamma times k, every time and |r0|
# over k, leave every dimensionless output as it was.  For k a power of two
# every product and quotient of the rates scales exactly, so the curves keep
# their bits; max_ratio goes through the detector's field coefficient, whose
# r**3 and |c| come from libm and can move by an ulp.  For any other k the
# rounding of t/k and k omega0 moves the phases by about eps omega0 t.

def _dimensionless_outputs(ratio, r0_gamma, k):
    """The cum columns of `dispersion_change`, the avg/lo/hi totals of
    `cycle_averaged` (both on 97 points to 12/gamma) and the detector's
    ``max_ratio`` (60 points from |r0| to 2|r0| + 10/gamma), at gamma = k."""
    p = DipoleParams.from_rates(omega0=ratio * k, gamma=k)
    r0 = np.array([0.6, 0.0, 0.8]) * r0_gamma / k
    ch = ChargeParams(q=1.0, m=1.0, r0=r0)
    t = np.linspace(0.0, 12.0, 97) / k
    d, c = dispersion_change(t, p, ch), cycle_averaged(t, p, ch)
    rep = suppression_report(DetectorConfig(position=r0, source=p),
                             np.linspace(r0_gamma, 2.0 * r0_gamma + 10.0, 60) / k)
    return (d.cum_source, d.cum_vacsource, d.cum_total, c.avg_total, c.lo_total, c.hi_total), rep.max_ratio


@settings(max_examples=40, deadline=None)
@given(log_ratio=st.floats(1.0, 8.0), r0_gamma=st.floats(0.02, 5.0), j=st.integers(-30, 30))
# k = 2, 1024 and 2^-20 at omega0/gamma = 1e2, 1e8 and 1e4
@example(log_ratio=2.0, r0_gamma=1.0 / 3.0, j=1)
@example(log_ratio=8.0, r0_gamma=1.0 / 3.0, j=10)
@example(log_ratio=4.0, r0_gamma=1.0 / 3.0, j=-20)
def test_scaling_by_a_power_of_two_keeps_the_bits(log_ratio, r0_gamma, j):
    cols, max_ratio = _dimensionless_outputs(10.0**log_ratio, r0_gamma, 1.0)
    scaled_cols, scaled_max_ratio = _dimensionless_outputs(10.0**log_ratio, r0_gamma, 2.0**j)
    assert abs(scaled_max_ratio - max_ratio) <= 4.0 * np.finfo(float).eps * max_ratio
    for scaled, col in zip(scaled_cols, cols, strict=True):
        assert np.array_equal(scaled, col)


@settings(max_examples=40, deadline=None)
@given(log_ratio=st.floats(1.0, 8.0), r0_gamma=st.floats(0.02, 5.0), log_k=st.floats(-3.0, 8.0))
# k = 3, 0.37 and 1e8 at omega0/gamma = 1e2, 1e4 and 1e8
@example(log_ratio=2.0, r0_gamma=1.0 / 3.0, log_k=math.log10(3.0))
@example(log_ratio=4.0, r0_gamma=1.0 / 3.0, log_k=math.log10(0.37))
@example(log_ratio=8.0, r0_gamma=1.0 / 3.0, log_k=8.0)
def test_scaling_by_any_factor_keeps_the_outputs_to_rounding(log_ratio, r0_gamma, log_k):
    # bounds, each over 3x the worst of 5 000 random draws: 2 eps omega0 t_max
    # of each column's maximum, and for max_ratio, the small difference of two
    # rates, 4 eps omega0 t_max of itself plus 16 eps.  The envelopes jump at
    # the gates |r0| and 2|r0|, where t/k may round to either side, so grid
    # points on a gate are left out.
    ratio, eps = 10.0**log_ratio, np.finfo(float).eps
    cols, max_ratio = _dimensionless_outputs(ratio, r0_gamma, 1.0)
    scaled_cols, scaled_max_ratio = _dimensionless_outputs(ratio, r0_gamma, 10.0**log_k)
    t_max = 2.0 * r0_gamma + 10.0
    assert abs(scaled_max_ratio - max_ratio) <= eps * (4.0 * ratio * t_max * max_ratio + 16.0)
    t = np.linspace(0.0, 12.0, 97)
    off_gate = np.minimum(abs(t - r0_gamma), abs(t - 2.0 * r0_gamma)) > 1e-9
    for scaled, col in zip(scaled_cols, cols, strict=True):
        assert np.max(np.abs(scaled - col)[off_gate]) <= 2.0 * eps * ratio * 12.0 * np.max(np.abs(col))
