"""Discretized-continuum oracle: mode grids, propagation, kernel checks.

The slow pieces (count = 400 grids, long two-time propagations) live in the
acceptance suite; here the grids are small and every run is a few seconds.
"""
import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply as scipy_expm_multiply

from advwave import oracle
from advwave._quad import n_for_oscillation, trapezoid_weights
from advwave.atomdyn import (
    AtomCorrKind,
    commutator_expect,
    corr_minus_plus,
    corr_plus_minus,
    sigma_z_expect,
)
from advwave.core import DipoleParams
from advwave.oracle import (
    ModeGrid,
    _chirp_z,
    angular_reduction_check,
    build_grid,
    markov_kernel_check,
    oracle_sigma_z,
    oracle_two_time,
)
from advwave.radiometry import sphere_integrate

P30 = DipoleParams.from_rates(omega0=30.0, gamma=1.0)
P100 = DipoleParams.from_rates(omega0=100.0, gamma=1.0)


# --- grid construction -------------------------------------------------------

def test_build_grid_spacing_and_couplings():
    g = build_grid(P30, count=400, span_gammas=50.0)
    dw = g.omegas[1] - g.omegas[0]
    assert g.count == 400
    assert dw == 0.125                  # 50 gamma / 400 modes
    assert g.omegas[-1] - g.omegas[0] + dw == 50.0
    # flat density: g_k^2 / dw = gamma / 2 pi for every mode
    assert np.max(np.abs(g.couplings**2 / dw - P30.gamma / (2.0 * np.pi))) < 1e-15
    assert np.allclose(g.detunings, g.omegas - P30.omega0)
    assert abs(g.detunings[0] + g.detunings[-1]) < 1e-12  # symmetric comb


def _cubic_grid(count, span_gammas):
    """A comb whose couplings carry the free-space (omega/omega0)^3 weight."""
    flat = build_grid(P30, count=count, span_gammas=span_gammas)
    return dataclasses.replace(
        flat, couplings=flat.couplings * np.sqrt((flat.omegas / P30.omega0) ** 3))


def test_build_grid_enforcement():
    assert build_grid(P30, count=100, span_gammas=20.0).count == 100  # coarse combs are allowed
    with pytest.raises(ValueError, match="cross zero"):
        build_grid(P30, count=400, span_gammas=80.0)
    with pytest.raises(ValueError, match="count"):
        build_grid(P30, count=1, span_gammas=50.0)


def test_oversized_count_is_refused_before_allocating(monkeypatch):
    def no_comb(*args, **kwargs):
        raise AssertionError("a comb was allocated")

    monkeypatch.setattr(np, "arange", no_comb)
    monkeypatch.setattr(np, "full", no_comb)
    with pytest.raises(ValueError, match="budget"):
        build_grid(P30, count=oracle._SECTOR_DIM_BUDGET, span_gammas=50.0)


def test_mode_grid_validation():
    with pytest.raises(ValueError):
        ModeGrid(omegas=np.array([1.0, 2.0]), couplings=np.array([0.1]), omega0=1.0)
    single = ModeGrid(omegas=np.array([5.0]), couplings=np.array([0.1]), omega0=5.0)
    assert single.count == 1


def _no_fft(*args, **kwargs):
    raise AssertionError("a Chebyshev series was computed")


@pytest.mark.parametrize("span_gammas", [float("nan"), float("inf"), 0.0, -50.0])
def test_bad_span_is_refused_before_any_series(span_gammas, monkeypatch):
    # a NaN span used to reach _chebyshev_coeffs(nan), which doubles its FFT without end
    monkeypatch.setattr(np.fft, "fft", _no_fft)
    with pytest.raises(ValueError, match="span"):
        oracle_sigma_z([1.0], build_grid(P30, count=20, span_gammas=span_gammas))


@pytest.mark.parametrize("field,value", [("omegas", np.array([29.0, np.nan])),
                                         ("couplings", np.array([0.1, np.inf]))])
def test_mode_grid_refuses_non_finite_values(field, value):
    kw = dict(omegas=np.array([29.0, 31.0]), couplings=np.array([0.1, 0.1]), omega0=30.0)
    kw[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ModeGrid(**kw)


def test_non_finite_spectral_interval_is_refused_before_any_series(monkeypatch):
    # a NaN omega0 makes every detuning NaN
    monkeypatch.setattr(np.fft, "fft", _no_fft)
    grid = ModeGrid(omegas=np.array([29.0, 31.0]), couplings=np.array([0.1, 0.1]),
                    omega0=float("nan"))
    with pytest.raises(ValueError, match="spectral interval"):
        oracle_sigma_z([1.0], grid)
    # uncoupled modes take the same path
    uncoupled = dataclasses.replace(grid, couplings=np.zeros(2))
    with pytest.raises(ValueError, match="spectral interval"):
        oracle_sigma_z([1.0], uncoupled)
    # finite couplings whose norm overflows: the ValueError, not numpy's overflow warning
    loud = ModeGrid(omegas=np.array([29.0, 31.0]), couplings=np.array([1e200, 1e200]), omega0=30.0)
    with pytest.raises(ValueError, match="spectral interval"):
        oracle_sigma_z([1.0], loud)


# --- sector Hamiltonians ----------------------------------------------------
#
# The independent route: each sector Hamiltonian assembled as a scipy.sparse
# matrix from its matrix elements, in the packed Fock layout: N=1 as
# (excited, one amplitude per mode), N=2 as (excited with photon k, then the
# pairs k <= l in numpy.triu_indices order).  The package never builds N=2;
# its assembled matrix is the brute-force reference of the two-time route.

def _sparse_h_one(grid):
    n = grid.count
    diag = np.concatenate(([0.0], grid.detunings))
    rows = np.concatenate((np.zeros(n, dtype=int), np.arange(1, n + 1)))
    cols = np.concatenate((np.arange(1, n + 1), np.zeros(n, dtype=int)))
    data = np.concatenate((grid.couplings, grid.couplings))
    h = sp.coo_matrix((data, (rows, cols)), shape=(n + 1, n + 1))
    return (h + sp.diags(diag)).tocsr()


def _sparse_h_two(grid):
    n = grid.count
    n_pairs = n * (n + 1) // 2
    dim = n + n_pairs
    mi, mj = np.triu_indices(n)             # the modes of each pair
    pair_col = n + np.arange(n_pairs)
    diag = np.concatenate((grid.detunings, grid.detunings[mi] + grid.detunings[mj]))
    # <e, 1_i | V | g, {k,l}>: g_l on i=k, g_k on i=l, sqrt(2) g_k on k=l.
    off = mi != mj
    w_first = grid.couplings[mj] * np.where(off, 1.0, np.sqrt(2.0))
    rows = np.concatenate((mi, mj[off]))
    cols = np.concatenate((pair_col, pair_col[off]))
    data = np.concatenate((w_first, grid.couplings[mi[off]]))
    upper = sp.coo_matrix((data, (rows, cols)), shape=(dim, dim))
    return (upper + upper.T + sp.diags(diag)).tocsr()


def _brute_amplitude(t, grid, expm_action=None):
    """<e,0| exp(-i t H1) |e,0> from the assembled N=1 matrix, by ``expm_action``."""
    act = expm_action or (lambda h, tau, vec: expm(-1j * tau * h.toarray()) @ vec)
    return complex(act(_sparse_h_one(grid), t, np.eye(grid.count + 1, dtype=complex)[0])[0])


def _brute_two_time(u, v, grid, expm_action=None):
    """(<s-(u) s+(v)>, <s+(v) s-(u)>) from the assembled N=1 and N=2 matrices.

    ``expm_action(h, tau, vec)`` is exp(-i tau h) vec, dense scipy expm by default.
    """
    act = expm_action or (lambda h, tau, vec: expm(-1j * tau * h.toarray()) @ vec)
    n = grid.count
    h_one = _sparse_h_one(grid)
    psi_u, psi_v = (act(h_one, t, np.eye(n + 1, dtype=complex)[0]) for t in (u, v))
    raised = np.zeros(n + n * (n + 1) // 2, dtype=complex)
    raised[:n] = psi_u[1:]                  # s+ psi(u): |e, 1_k> amplitudes, no pairs
    left = act(_sparse_h_two(grid), v - u, raised)
    phase = np.exp(1j * grid.omega0 * (v - u))
    return (complex(phase * np.vdot(left[:n], psi_v[1:])),
            complex(phase * np.conj(psi_v[0]) * psi_u[0]))


def _close(got, ref):
    # 1e-12 relative; amplitudes below 0.01 keep the 1e-14 absolute rounding of
    # the N=1 amplitudes they are differences of (in every route)
    return abs(got - ref) <= 1e-12 * max(abs(ref), 0.01)


SINGLE_MODE = ModeGrid(omegas=np.array([30.0]), couplings=np.array([0.2]), omega0=30.0)


@pytest.mark.parametrize("grid", [
    build_grid(P30, count=13, span_gammas=8.0),
    _cubic_grid(count=10, span_gammas=8.0),
    SINGLE_MODE,
], ids=["flat", "cubic", "single-mode"])
def test_matrix_free_moments_match_the_assembled_matrix(grid):
    # e . T_m(X) e by the three-term recurrence on X = (H - center) / half, H
    # the assembled matrix, one moment per product
    center, half = grid._interval
    mu, width = oracle._moments(grid, 5.0)
    x = (_sparse_h_one(grid) - center * sp.eye(grid.count + 1)) / half
    prev, cur = np.zeros(grid.count + 1), x[:, [0]].toarray().ravel()
    prev[0] = 1.0
    ref = [1.0, cur[0]]
    while len(ref) < 2 * width:
        prev, cur = cur, 2.0 * (x @ cur) - prev
        ref.append(cur[0])
    assert mu.size == 2 * width
    assert np.max(np.abs(mu - np.array(ref))) <= 1e-13


# --- propagation -------------------------------------------------------------

def test_single_mode_rabi():
    g_c = 0.05
    grid = ModeGrid(omegas=np.array([P30.omega0]), couplings=np.array([g_c]), omega0=P30.omega0)
    ts = np.array([3.0, 7.0])
    sz = oracle_sigma_z(ts, grid)
    np.testing.assert_allclose(sz, np.cos(2.0 * g_c * ts), rtol=0.0, atol=1e-12)


def test_zero_couplings_freeze_the_state():
    # the excited amplitude stays 1, to the rounding of its 2 W t phase
    grid = ModeGrid(omegas=np.array([29.0, 31.0]), couplings=np.zeros(2), omega0=P30.omega0)
    amps = oracle._excited_amplitude([0.0, 2.0, 7.0], grid)
    assert amps[0] == 1.0
    assert np.max(np.abs(amps - 1.0)) <= 1e-15
    assert oracle_sigma_z(2.0, grid) == pytest.approx(1.0, abs=4e-15)


def test_propagate_guards():
    # every propagation runs forward from its start
    grid = build_grid(P30, count=200, span_gammas=25.0)
    with pytest.raises(ValueError, match=">= 0"):
        oracle_sigma_z(-0.5, grid)
    with pytest.raises(ValueError, match="a 1-d grid"):
        oracle_sigma_z(np.array([[0.5, 1.0]]), grid)
    with pytest.raises(ValueError, match="u <= v"):
        oracle_two_time(AtomCorrKind.COMMUTATOR, 1.0, 0.5, grid)
    # a NaN time passes every ordering test; the series length would never converge
    with pytest.raises(ValueError, match="finite"):
        oracle_sigma_z(np.array([0.5, np.nan]), grid)
    with pytest.raises(ValueError, match="finite"):
        oracle_two_time(AtomCorrKind.MINUS_PLUS, 0.5, float("nan"), grid)


def test_propagate_strong_coupling_is_exact():
    # one mode, g = 5, t = 10: far beyond any fixed-step integrator's comfort;
    # on resonance a(t) = cos(g t), and the unitarity check passes at 1e-8
    g_c, t = 5.0, 10.0
    grid = ModeGrid(omegas=np.array([30.0]), couplings=np.array([g_c]), omega0=30.0)
    (amp,) = oracle._excited_amplitude([t], grid)
    assert abs(amp - np.cos(g_c * t)) <= 1e-12
    assert oracle_sigma_z(t, grid) == pytest.approx(np.cos(2.0 * g_c * t), abs=1e-12)


def test_propagate_two_excitation_matches_dense_expm():
    # the hard-core boson route against expm of the assembled N=2 matrix
    grid = build_grid(P30, count=8, span_gammas=8.0)
    for u, v in ((0.4, 1.6), (1.0, 1.0), (0.0, 2.0)):
        minus_plus, plus_minus_rev = _brute_two_time(u, v, grid)
        assert _close(oracle_two_time(AtomCorrKind.MINUS_PLUS, u, v, grid), minus_plus)
        assert _close(oracle_two_time(AtomCorrKind.COMMUTATOR, u, v, grid),
                      minus_plus - plus_minus_rev)


@st.composite
def _combs(draw):
    """Mode grids of up to 12 modes with arbitrary frequencies and couplings."""
    count = draw(st.integers(1, 12))
    detuning = st.floats(-8.0, 8.0, allow_nan=False)
    omegas = 30.0 + np.array(draw(st.lists(detuning, min_size=count, max_size=count)))
    couplings = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=count, max_size=count)))
    return ModeGrid(omegas=omegas, couplings=couplings, omega0=30.0)


@settings(max_examples=40, deadline=None)
@given(grid=_combs(), u=st.floats(0.0, 3.0), tau=st.floats(0.0, 5.0))
def test_two_time_route_matches_expm_on_any_small_comb(grid, u, tau):
    v = u + tau
    minus_plus, plus_minus_rev = _brute_two_time(u, v, grid)
    assert _close(oracle_two_time(AtomCorrKind.MINUS_PLUS, u, v, grid), minus_plus)
    assert _close(oracle_two_time(AtomCorrKind.COMMUTATOR, u, v, grid),
                  minus_plus - plus_minus_rev)
    # the one-excitation values from the same moments: <s+(v) s-(u)> and sigma_z
    assert _close(oracle_two_time(AtomCorrKind.PLUS_MINUS, v, u, grid), plus_minus_rev)
    amps = np.array([_brute_amplitude(t, grid) for t in (u, v)])
    for got, ref in zip(oracle_sigma_z(np.array([u, v]), grid), 2.0 * np.abs(amps) ** 2 - 1.0):
        assert _close(got, ref)


def test_propagate_composes():
    # <e|U(s) U(t)|e> = e^{-i center (s + t)} c(s)^T G c(t), with G the Gram
    # matrix (mu_{l+k} + mu_{|l-k|}) / 2 of the moments: two steps give the
    # amplitude at s + t
    grid = build_grid(P30, count=200, span_gammas=25.0)
    center, half = grid._interval
    mu, _ = oracle._moments(grid, 2.0)
    c_s, c_t = (oracle._chebyshev_coeffs(t * half) for t in (0.5, 1.5))
    two_steps = np.exp(-2j * center) * (c_s @ oracle._gram(mu, 0, c_s.size, c_t.size) @ c_t)
    (one_step,) = oracle._excited_amplitude([2.0], grid)
    assert abs(two_steps - one_step) <= 1e-12


def test_propagate_unitarity_guard(monkeypatch):
    # a non-unitary action (its series scaled by 1 + 1e-6) must be caught
    grid = build_grid(P30, count=200, span_gammas=25.0)
    coeffs = oracle._chebyshev_coeffs
    monkeypatch.setattr(oracle, "_chebyshev_coeffs", lambda a: (1.0 + 1e-6) * coeffs(a))
    with pytest.raises(RuntimeError, match="unitarity residual"):
        oracle_sigma_z(1.0, grid)


def test_unitarity_guard_holds_at_every_output_time(monkeypatch):
    # only the series of tau = 1 drifts; the times around it stay unitary
    grid = build_grid(P30, count=200, span_gammas=25.0)
    _, half = grid._interval
    coeffs = oracle._chebyshev_coeffs
    monkeypatch.setattr(oracle, "_chebyshev_coeffs", lambda a: coeffs(a) * (
        1.0 + 1e-6 * np.isclose(a, half, rtol=1e-12, atol=0.0)))
    oracle_sigma_z(np.array([0.5, 1.5]), grid)
    with pytest.raises(RuntimeError, match="unitarity residual .* at tau = 1 "):
        oracle_sigma_z(np.array([0.5, 1.0, 1.5]), grid)


def _series_product(p, q):
    """The Chebyshev series of f g from those of f and g: T_l T_k = (T_{l+k} + T_{|l-k|}) / 2."""
    l, k = np.ogrid[:p.size, :q.size]
    terms = 0.5 * p[:, None] * q[None, :]
    out = np.zeros(p.size + q.size - 1, dtype=complex)
    np.add.at(out, (l + k).ravel(), terms.ravel())
    np.add.at(out, abs(l - k).ravel(), terms.ravel())
    return out


@pytest.mark.parametrize("which, count", [(1, 400), (2, 120)])
def test_one_recurrence_matches_stepwise_propagation(which, count):
    # one contraction over a grid of times (t = 0 and a repeated time
    # included, out of order) against stepwise weights, each step's series
    # multiplied into the last, and against expm_multiply.  Start 1 is |e, 0>,
    # read at its own amplitude; start 2 the photon part w of psi(0.7), read
    # at <e,0|U(t)|w>: the y0(t) of the two-time identity, whose moment row
    # is G c(0.7) - a(0.7) mu
    grid = build_grid(P30, count=count, span_gammas=50.0)
    center, half = grid._interval
    mu, width = oracle._moments(grid, 2.5)
    start = np.eye(grid.count + 1, dtype=complex)[0]
    row, phase = mu[:width], 0.0
    if which == 2:
        c_u = oracle._chebyshev_coeffs(0.7 * half)
        row = oracle._gram(mu, 0, width, c_u.size) @ c_u - (c_u @ mu[:c_u.size]) * row
        phase = 0.7
        start = scipy_expm_multiply(-0.7j * _sparse_h_one(grid), start)
        start[0] = 0.0
    taus = np.array([1.1, 0.0, 0.4, 2.5, 0.4, 0.0])
    got = oracle._contract(mu, half, width, taus, lambda lo, hi: row[None, lo:hi])[0]
    series, t, stepwise = np.ones(1), 0.0, {}
    for tau in np.unique(taus):
        series = _series_product(series, oracle._chebyshev_coeffs((tau - t) * half))[:width]
        t, stepwise[tau] = tau, series @ row[:series.size]
    h_one = _sparse_h_one(grid)
    for tau, out in zip(taus, got):
        assert abs(out - stepwise[tau]) <= 1e-12
        ref = scipy_expm_multiply(-1j * tau * h_one, start)[0]
        assert abs(np.exp(-1j * center * (tau + phase)) * out - ref) <= 1e-12
    assert got[1] == row[0]     # tau = 0 is exact


def _counting_products(monkeypatch):
    """A list that gains one entry per product of H, from now on.

    Each recurrence ``_moments`` runs leaves a new sequence on the comb, two
    moments per product; a request served from the comb's sequence adds none.
    """
    applied = []
    moments = oracle._moments

    def counting(grid, t):
        before = grid._mu
        out = moments(grid, t)
        if grid._mu is not before:
            applied.extend([1] * (grid._mu.size // 2))
        return out

    monkeypatch.setattr(oracle, "_moments", counting)
    return applied


def test_sigma_z_grid_runs_one_recurrence(monkeypatch):
    # validate's grid, 13 times to 6.5/gamma at count 400, span 50: one
    # one-time call per step applied H 520 times, the one moment recurrence 235
    applied = _counting_products(monkeypatch)
    grid = build_grid(P100, count=400, span_gammas=50.0)
    oracle_sigma_z(np.arange(0.5, 6.51, 0.5), grid)
    assert 0 < len(applied) <= 240


def _bits(value):
    """A value's exact bits: array bytes, or the repr of a number or a tuple of them."""
    return value.tobytes() if isinstance(value, np.ndarray) else repr(value)


@pytest.mark.parametrize("first", ["sigma_z", "two_time"])
def test_one_comb_shares_its_moments_without_changing_a_bit(first, monkeypatch):
    # validate's two oracle rows on one comb, in either order, against a
    # fresh comb for each call: the later call reads the earlier one's moments
    # (or runs the longer recurrence) and every bit is the same
    times = np.arange(0.5, 6.51, 0.5)
    calls = {"sigma_z": lambda g: oracle_sigma_z(times, g),
             "two_time": lambda g: oracle.two_time_route(1.0, 2.0, g)}
    order = [first] + [name for name in calls if name != first]
    fresh = {name: _bits(calls[name](build_grid(P100, count=200, span_gammas=50.0))) for name in order}
    grid = build_grid(P100, count=200, span_gammas=50.0)
    applied = _counting_products(monkeypatch)
    for name in order:
        before = len(applied)
        assert _bits(calls[name](grid)) == fresh[name]
        if name == "two_time" and first == "sigma_z":
            assert len(applied) == before       # sigma_z's sequence reaches t = 6.5 > v = 2
    assert not grid._mu.flags.writeable


def test_interleaved_combs_never_see_each_others_moments():
    # two combs in one process, each asked in turn for times longer and
    # shorter than the last: every value is the fresh-comb value
    combs = {(200, 100.0): build_grid(P100, count=200, span_gammas=50.0),
             (400, 1e3): build_grid(DipoleParams.from_rates(1e3, 1.0), count=400, span_gammas=50.0)}
    steps = [(key, call) for call in (
        lambda g: oracle_sigma_z(np.array([0.5, 3.0]), g),
        lambda g: oracle.two_time_route(1.0, 2.0, g),
        lambda g: oracle_sigma_z(np.array([1.0, 6.5]), g),
        lambda g: oracle_two_time(AtomCorrKind.PLUS_MINUS, 0.7, 0.2, g)) for key in combs]
    for (count, ratio), call in steps:
        fresh = build_grid(DipoleParams.from_rates(ratio, 1.0), count=count, span_gammas=50.0)
        assert _bits(call(combs[count, ratio])) == _bits(call(fresh))
        del fresh       # the next fresh comb, of the other count, may take its address
    mu_a, mu_b = (g._mu for g in combs.values())
    assert not np.shares_memory(mu_a, mu_b)


def _traced_peak(fn):
    """(fn(), the peak of its numpy and Python allocations in bytes)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_long_time_grid_runs_in_a_bounded_working_set():
    # 100 000 times at count 400: the working set is a few arrays of the
    # times and blocks of _BLOCK_BYTES, and each time is its own one-time call
    grid = build_grid(P30, count=400, span_gammas=50.0)
    taus = np.linspace(0.0, 1.0, 100_000)
    amps, peak = _traced_peak(lambda: oracle._excited_amplitude(taus, grid))
    assert peak <= 6 * taus.nbytes + 2 * oracle._BLOCK_BYTES
    for i in range(0, taus.size, 9_973):
        assert abs(amps[i] - oracle._excited_amplitude(taus[i], grid)[0]) <= 1e-14


def test_sigma_z_on_a_long_grid_keeps_a_small_working_set():
    # 2 000 times over [0, 7.2]/gamma at count 200, span 50: one FFT batch of
    # weights and one Gram block at a time, about 1.6 MB
    grid = build_grid(P100, count=200, span_gammas=50.0)
    sz, peak = _traced_peak(lambda: oracle_sigma_z(np.linspace(0.0, 7.2, 2000), grid))
    assert peak <= 4e6
    assert sz[0] == 1.0 and abs(sz[-1] - sigma_z_expect(7.2, P100)) < 0.03


def test_two_time_route_at_late_times_keeps_a_small_working_set():
    # u = 100/gamma: psi(u) and psi(v) have ~2 700 terms each, whose Gram
    # matrix would take 58 MB; in row blocks the route peaks near 2.4 MB
    grid = build_grid(P100, count=200, span_gammas=50.0)
    (value, _, _, correction), peak = _traced_peak(lambda: oracle.two_time_route(100.0, 101.0, grid))
    assert peak <= 16e6
    assert correction <= 1e-8 * abs(value) + 1e-15


@pytest.mark.parametrize("sector, count, tau", [(1, 400, 0.5), (1, 400, 6.5), (2, 200, 1.0)])
def test_chebyshev_action_matches_expm_multiply(sector, count, tau):
    # scipy's Al-Mohy & Higham action is the independent route; in N=2 it acts
    # on the assembled pair sector (20 300 states), against the two-time route
    grid = build_grid(P100, count=count, span_gammas=50.0)
    if sector == 2:
        refs = _brute_two_time(1.0, 1.0 + tau, grid, lambda h, t, vec: scipy_expm_multiply(
            -1j * t * h, vec))
        assert _close(oracle_two_time(AtomCorrKind.MINUS_PLUS, 1.0, 1.0 + tau, grid), refs[0])
        return
    (got,) = oracle._excited_amplitude([tau], grid)
    ref = _brute_amplitude(tau, grid, lambda h, t, vec: scipy_expm_multiply(-1j * t * h, vec))
    assert abs(got - ref) <= 1e-12


@pytest.mark.parametrize("density, count", [("flat", 8), ("flat", 13), ("cubic", 10)])
def test_weyl_interval_encloses_the_spectrum(density, count):
    if density == "flat":
        grid = build_grid(P30, count=count, span_gammas=8.0)
    else:
        grid = _cubic_grid(count=count, span_gammas=8.0)
    h = _sparse_h_one(grid)
    center, half = grid._interval
    eig = np.linalg.eigvalsh(h.toarray())
    assert center - half <= eig[0] and eig[-1] <= center + half
    # the exact coupling norm behind the interval, against the assembled matrix
    diag = h.diagonal()
    off_eig = np.linalg.eigvalsh((h - sp.diags(diag)).toarray())
    assert center + half - np.max(diag) == pytest.approx(np.max(np.abs(off_eig)), rel=1e-13)


def _gershgorin(h):
    diag = h.diagonal()
    radius = np.asarray(abs(h - sp.diags(diag)).sum(axis=1)).ravel()
    return np.min(diag - radius), np.max(diag + radius)


def test_spectral_interval_halves_the_one_excitation_gershgorin_width():
    # row 0 of the N=1 star couples to every mode: its Gershgorin radius is
    # sum_k g_k = 56.4 gamma at count 400, twice the spectrum's +-24.9 gamma
    grid = build_grid(P30, count=400, span_gammas=50.0)
    h = _sparse_h_one(grid)
    center, half = grid._interval
    lo, hi = center - half, center + half
    g_lo, g_hi = _gershgorin(h)
    eig = np.linalg.eigvalsh(h.toarray())
    assert lo <= eig[0] and eig[-1] <= hi
    assert hi - lo <= 0.52 * (g_hi - g_lo)
    assert hi - lo <= 1.2 * (eig[-1] - eig[0])


def test_chebyshev_coefficients_are_bessel_values():
    from scipy.special import jv

    for a in (0.0, 0.3, 37.3, 400.0, 3000.0):
        coeffs = oracle._chebyshev_coeffs(a)
        k = np.arange(coeffs.size)
        ref = np.where(k == 0, 1.0, 2.0) * (-1j) ** k * jv(k, a)
        rounding = np.finfo(float).eps * max(1.0, a)
        assert np.max(np.abs(coeffs - ref)) <= rounding
        # the first dropped term is below the rounding of the sampled phase
        assert coeffs.size > a and 2.0 * abs(jv(coeffs.size, a)) < rounding


def test_sigma_z_start_and_decay():
    grid = build_grid(P30, count=400, span_gammas=50.0)
    ts = np.array([0.0, 1.0])
    sz = oracle_sigma_z(ts, grid)
    assert sz[0] == 1.0
    assert abs(sz[1] - sigma_z_expect(1.0, P30)) < 0.03
    assert oracle_sigma_z(np.array([]), grid).shape == (0,)
    # times in any order: validate's times, reversed and permuted, keep their bits
    ts = np.arange(0.5, 6.51, 0.5)
    sz = oracle_sigma_z(ts, grid)
    for pick in (slice(None, None, -1), np.random.default_rng(2).permutation(ts.size)):
        assert np.array_equal(oracle_sigma_z(ts[pick], grid), sz[pick])


def test_sigma_z_error_halves_with_span():
    # fixed spacing gamma/8: doubling the mode count doubles the covered span
    # and halves the short-time truncation error
    errs = []
    for count, span in ((200, 25.0), (400, 50.0), (800, 100.0)):
        g = build_grid(P100, count=count, span_gammas=span)
        sz = oracle_sigma_z(np.array([0.1]), g)[0]
        errs.append(abs(sz - sigma_z_expect(0.1, P100)))
    assert errs[1] < 0.65 * errs[0]
    assert errs[2] < 0.65 * errs[1]


def test_minus_plus_error_falls_with_span():
    # doubling count and span together cuts the band-truncation error of the
    # two-excitation route (6.3e-3 -> 3.2e-3)
    errs = []
    for count, span in ((200, 50.0), (400, 100.0)):
        g = build_grid(P100, count=count, span_gammas=span)
        val = oracle_two_time(AtomCorrKind.MINUS_PLUS, 1.0, 2.0, g)
        ref = corr_minus_plus(1.0, 2.0, P100)
        errs.append(abs(val - ref) / abs(ref))
    assert errs[1] <= 0.6 * errs[0]


# --- two-time correlators ----------------------------------------------------

@pytest.fixture(scope="module")
def grid120():
    return build_grid(P30, count=120, span_gammas=50.0)


def test_two_time_against_closed_forms(grid120):
    u, v = 1.0, 2.0
    cases = (
        (AtomCorrKind.MINUS_PLUS, corr_minus_plus(u, v, P30)),
        (AtomCorrKind.PLUS_MINUS, corr_plus_minus(u, v, P30)),
        (AtomCorrKind.COMMUTATOR, commutator_expect(u, v, P30)),
    )
    for kind, ref in cases:
        val = oracle_two_time(kind, u, v, grid120)
        assert abs(val - ref) / abs(ref) < 0.05, kind


def test_plus_minus_any_order(grid120):
    val = oracle_two_time(AtomCorrKind.PLUS_MINUS, 2.0, 1.0, grid120)
    ref = corr_plus_minus(2.0, 1.0, P30)
    assert abs(val - ref) / abs(ref) < 0.05


def test_minus_plus_zero_at_origin(grid120):
    # sigma+ psi(0) = 0: the route's photon-part functions vanish exactly
    assert oracle_two_time(AtomCorrKind.MINUS_PLUS, 0.0, 1.0, grid120) == 0.0


def test_unconverged_romberg_table_trips_the_richardson_guard(monkeypatch):
    # a 1e-6 error in every sampled weight of the Volterra kernel, which does
    # not shrink with the step, leaves the table unconverged on a comb where
    # the Volterra term matters
    grid = ModeGrid(omegas=np.array([29.0, 31.0]), couplings=np.array([1.0, 0.5]), omega0=30.0)
    divide = oracle._series_divide
    monkeypatch.setattr(oracle, "_series_divide", lambda r, k: divide(r, k + 1e-6))
    with pytest.raises(RuntimeError, match="last Richardson correction .* exceeds 1e-08"):
        oracle_two_time(AtomCorrKind.MINUS_PLUS, 1.0, 3.0, grid)
    monkeypatch.setattr(oracle, "_series_divide", divide)
    value, _, _, correction = oracle.two_time_route(1.0, 3.0, grid)
    assert correction <= 1e-12 * abs(value)


def test_oversized_pair_sector_is_refused_before_any_work(monkeypatch):
    # the two-excitation budget is the Bessel weights of the Volterra grid:
    # 12 000 grid times over a 4 000 gamma comb are refused before any series
    grid = build_grid(DipoleParams.from_rates(1e4, 1.0), count=20, span_gammas=4000.0)

    def no_work(*args, **kwargs):
        raise AssertionError("propagated or allocated before the budget check")

    monkeypatch.setattr(oracle, "_chebyshev_coeffs", no_work)
    monkeypatch.setattr(oracle, "_moments", no_work)
    monkeypatch.setattr(np.fft, "fft", no_work)
    for kind in (AtomCorrKind.MINUS_PLUS, AtomCorrKind.COMMUTATOR):
        with pytest.raises(ValueError, match="MiB; use a narrower comb or a shorter v - u"):
            oracle_two_time(kind, 0.5, 2.0, grid)


@pytest.mark.parametrize("count", [200, 400, 1998])
def test_two_excitation_working_set(count):
    # the route keeps three N=1 vectors and the Bessel weights of one grid
    # (about 0.5 MB here at every count): linear in count
    grid = build_grid(P30, count=count, span_gammas=50.0)
    tracemalloc.start()
    try:
        oracle_two_time(AtomCorrKind.MINUS_PLUS, 1.0, 2.0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20 + 16 * 16 * count


def test_two_time_guards(grid120):
    with pytest.raises(ValueError, match="u <= v"):
        oracle_two_time(AtomCorrKind.MINUS_PLUS, 2.0, 1.0, grid120)
    with pytest.raises(ValueError, match="population_z"):
        oracle_two_time("population_z", 0.5, 1.0, grid120)   # populations: oracle_sigma_z


# --- Markov kernel checks ----------------------------------------------------

def test_markov_constant_kernel():
    # the collapse at the retarded peak: the packet's action is 2 pi at its
    # centre, up to the mass the band leaves out (the advanced packet's action
    # is its conjugate, see test_markov_chirp_z_matches_dense_action)
    rep = markov_kernel_check(P100, 50.0)
    assert rep.mass_rel_err < 1e-9
    assert rep.mass_rel_err == abs(rep.action - 2.0 * np.pi) / (2.0 * np.pi)
    assert rep.action == pytest.approx(2.0 * np.pi, rel=1e-9)


def test_markov_mass_holds_at_optical_ratios():
    # in the frame rotating at omega0 no sampled phase grows with omega0, so
    # the row reads the band's missing mass, not the rounding of omega t'
    base = markov_kernel_check(DipoleParams.from_rates(1e2, 1.0), 50.0).mass_rel_err
    for ratio in (1e3, 1e8, 1e12, 1e14):
        mass = markov_kernel_check(DipoleParams.from_rates(ratio, 1.0), 50.0).mass_rel_err
        assert base / 1.5 <= mass <= 1.5 * base, ratio


def _dense_action(center, span_gammas, params):
    # the reference: the action as a dense exp(i d s) product, in the frame
    # rotating at omega0 with the packet demodulated at its centre; the product
    # is formed 128 frequency rows at a time (a few MB, not the whole grid), and
    # each row's integral is its own sum
    sigma = 0.25 / params.gamma
    t_r, t_a, half = 2.0 * sigma, 22.0 * sigma, 0.5 * span_gammas * params.gamma
    a, b = t_r - 12.0 * sigma, t_a + 12.0 * sigma
    n_t = n_for_oscillation(half, a, b, 40)
    n_w = n_for_oscillation((b - a) + 12.0 * sigma, -half, half, 40)
    s, ds = np.linspace(a, b, n_t + 1) - center, np.linspace(-half, half, n_w + 1)
    packet = np.exp(-s**2 / (2.0 * sigma**2))
    ghat = np.concatenate([np.trapezoid(np.exp(1j * np.outer(rows, s)) * packet, s, axis=1)
                           for rows in np.split(ds, range(128, ds.size, 128))])
    kernel = (np.exp(-1j * params.omega0 * (t_r - center)) * np.exp(1j * ds * (center - t_r))
              + np.exp(-1j * params.omega0 * (t_a - center)) * np.exp(1j * ds * (center - t_a)))
    return np.trapezoid(kernel * ghat, ds)


def test_markov_chirp_z_matches_dense_action():
    # the packets at t_r and t_a mirror each other about the window's centre,
    # so the dense action at t_a is the conjugate of the one at t_r, and the
    # check transforms the retarded packet alone
    for params, span in ((P100, 50.0), (P30, 10.0), (DipoleParams.from_rates(1e8, 1.0), 50.0)):
        sigma = 0.25 / params.gamma
        retarded, advanced = (_dense_action(c * sigma, span, params) for c in (2.0, 22.0))
        assert abs(advanced - np.conj(retarded)) <= 1e-15 * abs(retarded)
        act = markov_kernel_check(params, span).action
        assert abs(act - retarded) <= 1e-9 * abs(retarded)


def test_markov_chirp_z_matches_dense_kernel_scan():
    # the FWHM scan of |K|: 801 delays around t_r against the kernel samples
    w_lo, w_hi, t_r = 0.0, 300.0, 1.5
    ws = np.linspace(w_lo, w_hi, 4001)
    kf = np.exp(-1j * ws * t_r) + np.exp(-1j * ws * 4.5)
    half_span = 10.0 * np.pi / (w_hi - w_lo)
    td = np.linspace(t_r - half_span, t_r + half_span, 801)
    ref = np.exp(1j * np.outer(td, ws)) @ kf
    got = _chirp_z(kf, w_lo, ws[1] - ws[0], td[0], td[1] - td[0], td.size)
    assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_markov_width_tracks_cutoff():
    # the delta-comparison only sharpens with the band: the FWHM of |K| goes as 1/span
    r1, r2 = (markov_kernel_check(P100, span) for span in (50.0, 100.0))
    assert r2.width / r1.width == pytest.approx(0.5, abs=0.03)


def test_markov_banded_mass():
    assert markov_kernel_check(P100, 50.0).mass_rel_err < 1e-6
    assert markov_kernel_check(P100, 10.0).mass_rel_err > 0.1   # band too narrow for the packet: mass leaks


def _hand_built_weights(a, b, n):
    # the trapezoid weights written out: (b - a) / n inside, half that at both ends
    w = np.full(n + 1, (b - a) / n)
    w[0] = w[-1] = (b - a) / (2 * n)
    return w


def test_trapezoid_weights_keep_the_markov_report_bits(monkeypatch):
    for a, b, n in ((0.0, 1.0, 1), (-1.3, 4.7, 999), (20.0, 40.0, 1234), (75.0, 125.0, 64)):
        assert np.array_equal(trapezoid_weights(a, b, n), _hand_built_weights(a, b, n))
    cases = ((P30, 50.0), (P100, 10.0))
    reports = [markov_kernel_check(*case) for case in cases]
    monkeypatch.setattr(oracle, "trapezoid_weights", _hand_built_weights)
    for case, rep in zip(cases, reports):
        ref = markov_kernel_check(*case)
        assert [repr(v) for v in dataclasses.astuple(rep)] == [repr(v) for v in dataclasses.astuple(ref)]


def test_markov_packets_share_one_frequency_kernel(monkeypatch):
    # one frequency kernel serves both packets: the retarded packet runs
    # through a chirp-z transform, the advanced one's action is its conjugate
    # and takes none, and the width scan runs through the second
    chirp_z, transforms = oracle._chirp_z, []
    monkeypatch.setattr(oracle, "_chirp_z", lambda *args: transforms.append(1) or chirp_z(*args))
    markov_kernel_check(P100, 50.0)
    assert len(transforms) == 2


def test_markov_validation(monkeypatch):
    # a bad span or gamma is refused before any transform
    def no_transform(*args):
        raise AssertionError("ran a transform")

    monkeypatch.setattr(oracle, "_chirp_z", no_transform)
    for span in (np.nan, np.inf, 0.0, -50.0, 200.0):
        with pytest.raises(ValueError, match="span"):
            markov_kernel_check(P100, span)
    for gamma, omega0 in ((1e-160, 1.0), (1e160, 1e163)):
        with pytest.raises(ValueError, match="gamma"):
            markov_kernel_check(DipoleParams(omega0, gamma, (0.0, 0.0, 1.0)), 50.0)


def test_angular_reduction():
    assert angular_reduction_check() < 1e-10


def test_angular_quadrature_matches_the_per_direction_loop():
    # the reference: each direction, z and component as its own sphere_integrate
    # of the cos and sin parts, the integrand called once per node
    z_values, order = (5.0, 1e-3), 24
    xhats = np.random.default_rng(0).normal(size=(3, 3))
    xhats /= np.linalg.norm(xhats, axis=1, keepdims=True)
    num = oracle._transverse_quadrature(xhats, z_values, order)
    for iz, z in enumerate(z_values):
        for d, xhat in enumerate(xhats):
            for i in range(3):
                for j in range(3):
                    def part(khat, fn, i=i, j=j):
                        return (float(i == j) - khat[i] * khat[j]) * fn(z * (khat @ xhat))

                    ref = (sphere_integrate(lambda k: part(k, np.cos), 1.0, order)
                           + 1j * sphere_integrate(lambda k: part(k, np.sin), 1.0, order))
                    assert abs(num[iz, d, i, j] - ref / (4.0 * np.pi)) <= 1e-14


# --- runtime dependencies ----------------------------------------------------

def test_commands_run_without_scipy(tmp_path):
    # scipy serves only the independent routes in these tests, and numpy.random
    # (about 6 MB on import) only their inputs; no command, the oracle
    # included, may import either.  numpy.polynomial (six modules) serves only
    # the sphere rule, so only validate may load it.  The smallest form of each
    # command runs in a fresh interpreter, because this one has imported all three.
    code = (
        "import sys\n"
        "from advwave.cli import main\n"
        f"out = {str(tmp_path)!r}\n"
        "for argv, allowed in (\n"
        "        (['figure', '3', '--omega0-ratio', '10'], (0,)), (['power', 'pert'], (0,)),\n"
        "        (['power', 'nonpert', '--points', '3'], (0,)),\n"
        "        (['corr', '--points', '2'], (0,)), (['detect', '--points', '2'], (0,)),\n"
        "        (['validate', '--full', '--count', '4', '--span', '1'], (0, 2))):\n"
        "    if argv[0] == 'validate':\n"
        "        assert 'numpy.polynomial' not in sys.modules\n"
        "    assert main(argv + ['--out', out]) in allowed, argv\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    src_dir = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src_dir, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
