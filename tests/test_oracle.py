"""Discretized-continuum oracle: mode grids, propagation, kernel checks.

The slow pieces (count = 400 grids, long two-time propagations) live in the
acceptance suite; here the grids are small and every run is a few seconds.
"""
import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import eigsh
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
    _OneSector,
    _TwoSector,
    angular_reduction_check,
    build_grid,
    markov_kernel_check,
    oracle_sigma_z,
    oracle_two_time,
)
from advwave.radiometry import sphere_integrate

P30 = DipoleParams.from_rates(omega0=30.0, gamma=1.0)
P100 = DipoleParams.from_rates(omega0=100.0, gamma=1.0)
CONST = lambda w: np.ones_like(w)  # noqa: E731


# --- grid construction -------------------------------------------------------

def test_build_grid_spacing_and_couplings():
    g = build_grid(P30, count=400, span_gammas=50.0)
    assert g.count == 400
    assert g.spacing == 0.125           # 50 gamma / 400 modes
    assert g.span == 50.0
    # flat density: g_k^2 / dw = gamma / 2 pi for every mode
    assert np.max(np.abs(g.couplings**2 / g.spacing - P30.gamma / (2.0 * np.pi))) < 1e-15
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
        build_grid(P30, count=1)


def test_oversized_count_is_refused_before_allocating(monkeypatch):
    def no_comb(*args, **kwargs):
        raise AssertionError("a comb was allocated")

    monkeypatch.setattr(np, "arange", no_comb)
    monkeypatch.setattr(np, "full", no_comb)
    with pytest.raises(ValueError, match="budget"):
        build_grid(P30, count=oracle._TWO_PHOTON_DIM_BUDGET)


def test_mode_grid_validation():
    with pytest.raises(ValueError):
        ModeGrid(omegas=np.array([1.0, 2.0]), couplings=np.array([0.1]), omega0=1.0)
    single = ModeGrid(omegas=np.array([5.0]), couplings=np.array([0.1]), omega0=5.0)
    assert single.spacing == 0.0


# --- sector Hamiltonians ----------------------------------------------------
#
# The independent route: each sector Hamiltonian assembled as a scipy.sparse
# matrix from its matrix elements, in the packed Fock layout: N=1 as
# (excited, one amplitude per mode), N=2 as (excited with photon k, then the
# pairs k <= l in numpy.triu_indices order).

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


def _sectors(grid):
    """(matrix-free operator, assembled matrix) for N=1 and N=2."""
    return ((_OneSector(grid), _sparse_h_one(grid)), (_TwoSector(grid), _sparse_h_two(grid)))


def _pair_weights(op):
    rows, cols = np.triu_indices(op.n)
    return rows, cols, np.where(rows == cols, 1.0, np.sqrt(0.5))


def _working(op, vec):
    """A packed Fock vector as the operator's state: N=2 pairs c_kl -> symmetric S."""
    if isinstance(op, _OneSector):
        return np.asarray(vec, dtype=complex)
    rows, cols, weights = _pair_weights(op)
    x = np.zeros(op.size, dtype=complex)
    x[:op.n] = vec[:op.n]
    s = x[op.n:].reshape(op.n, op.n)
    s[rows, cols] = s[cols, rows] = vec[op.n:] * weights
    return x


def _packed(op, x):
    """The adjoint of ``_working``, its inverse on symmetric S."""
    if isinstance(op, _OneSector):
        return x
    rows, cols, weights = _pair_weights(op)
    s = x[op.n:].reshape(op.n, op.n)
    return np.concatenate((x[:op.n], 0.5 * (s[rows, cols] + s[cols, rows]) / weights))


def _product(op, vec):
    x = _working(op, vec)
    out = np.empty_like(x)
    op.scaled(1.0, 0.0)(x, out)
    return _packed(op, out)


SINGLE_MODE = ModeGrid(omegas=np.array([30.0]), couplings=np.array([0.2]), omega0=30.0)


@pytest.mark.parametrize("grid", [
    build_grid(P30, count=13, span_gammas=8.0),
    _cubic_grid(count=10, span_gammas=8.0),
    SINGLE_MODE,
], ids=["flat", "cubic", "single-mode"])
def test_matrix_free_product_matches_the_assembled_matrix(grid):
    rng = np.random.default_rng(grid.count)
    for op, h in _sectors(grid):
        vec = rng.normal(size=(h.shape[0], 2)) @ np.array([1.0, 1j])
        ref = h @ vec
        assert np.max(np.abs(_product(op, vec) - ref)) <= 1e-13 * np.max(np.abs(ref))
        # the pair layout keeps the Fock norm and round-trips
        x = _working(op, vec)
        assert x.size == op.size
        assert np.linalg.norm(x) == pytest.approx(np.linalg.norm(vec), rel=1e-14)
        np.testing.assert_allclose(_packed(op, x), vec, rtol=0.0, atol=1e-15)


# --- propagation -------------------------------------------------------------

def test_single_mode_rabi():
    g_c = 0.05
    grid = ModeGrid(omegas=np.array([P30.omega0]), couplings=np.array([g_c]), omega0=P30.omega0)
    ts = np.array([3.0, 7.0])
    sz = oracle_sigma_z(ts, grid)
    np.testing.assert_allclose(sz, np.cos(2.0 * g_c * ts), rtol=0.0, atol=1e-12)


def _excited(times, grid):
    """The N=1 states from |excited, vacuum> at each of ``times``."""
    return oracle._from_excited(times, grid, np.copy)


def test_zero_couplings_freeze_the_state():
    grid = ModeGrid(omegas=np.array([29.0, 31.0]), couplings=np.zeros(2), omega0=P30.omega0)
    (psi,) = _excited([2.0], grid)
    assert np.array_equal(psi, [1.0, 0.0, 0.0])


def test_propagate_guards():
    # every propagation runs forward from its start
    grid = build_grid(P30, count=200, span_gammas=25.0)
    with pytest.raises(ValueError, match=">= 0"):
        oracle_sigma_z(-0.5, grid)
    with pytest.raises(ValueError, match="u <= v"):
        oracle_two_time(AtomCorrKind.COMMUTATOR, 1.0, 0.5, grid)
    # a NaN time passes every ordering test; the series length would never converge
    with pytest.raises(ValueError, match="finite"):
        oracle_sigma_z(np.array([0.5, np.nan]), grid)
    with pytest.raises(ValueError, match="finite"):
        oracle_two_time(AtomCorrKind.MINUS_PLUS, 0.5, float("nan"), grid)


def test_propagate_strong_coupling_is_exact():
    # one mode, g = 5, t = 10: far beyond any fixed-step integrator's comfort
    g_c, t = 5.0, 10.0
    grid = ModeGrid(omegas=np.array([30.0]), couplings=np.array([g_c]), omega0=30.0)
    (psi,) = _excited([t], grid)
    assert 2.0 * abs(psi[0]) ** 2 - 1.0 == pytest.approx(np.cos(2.0 * g_c * t), abs=1e-12)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_propagate_two_excitation_matches_dense_expm():
    grid = build_grid(P30, count=8, span_gammas=8.0)
    op, h = _sectors(grid)[1]
    rng = np.random.default_rng(3)
    amps = np.array([1.0, 1j]) @ rng.normal(size=(2, h.shape[0]))
    amps /= np.linalg.norm(amps)
    (out,) = oracle._chebyshev_expm_many(op, [1.2], _working(op, amps), lambda x: _packed(op, x))
    ref = expm(-1j * 1.2 * h.toarray()) @ amps
    np.testing.assert_allclose(out, ref, rtol=0.0, atol=1e-12)


def test_propagate_composes():
    grid = build_grid(P30, count=200, span_gammas=25.0)
    (half_way, one_step) = _excited([1.0, 2.0], grid)
    (two_steps,) = oracle._chebyshev_expm_many(_OneSector(grid), [1.0], half_way, np.copy)
    np.testing.assert_allclose(two_steps, one_step, rtol=0.0, atol=1e-12)


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
    lo, hi = oracle._spectral_interval(_OneSector(grid))
    half = 0.5 * (hi - lo)
    coeffs = oracle._chebyshev_coeffs
    monkeypatch.setattr(oracle, "_chebyshev_coeffs", lambda a: coeffs(a) * (
        1.0 + 1e-6 * np.isclose(a, half, rtol=1e-12, atol=0.0)))
    oracle_sigma_z(np.array([0.5, 1.5]), grid)
    with pytest.raises(RuntimeError, match="unitarity residual .* at tau = 1 "):
        oracle_sigma_z(np.array([0.5, 1.0, 1.5]), grid)


@pytest.mark.parametrize("sector, count", [(1, 400), (2, 120)])
def test_one_recurrence_matches_stepwise_propagation(sector, count):
    # the grid form against one one-time call per step between its times;
    # t = 0 and a repeated time included, the grid given out of order
    grid = build_grid(P30, count=count, span_gammas=50.0)
    if sector == 1:
        op, (start,) = _OneSector(grid), _excited([0.0], grid)
    else:
        op, (psi,) = _TwoSector(grid), _excited([0.7], grid)
        start = np.zeros(op.size, dtype=complex)
        start[:count] = psi[1:]      # the raised state
    taus = np.array([1.1, 0.0, 0.4, 2.5, 0.4, 0.0])
    got = oracle._chebyshev_expm_many(op, taus, start, np.copy)
    state, t, stepwise = start, 0.0, {}
    for tau in np.unique(taus):
        (state,) = oracle._chebyshev_expm_many(op, [tau - t], state, np.copy)
        t, stepwise[tau] = tau, state
    for tau, out in zip(taus, got):
        assert np.max(np.abs(out - stepwise[tau])) <= 1e-12
    assert np.array_equal(got[1], start)     # tau = 0 is exact


def test_sigma_z_grid_runs_one_recurrence(monkeypatch):
    # validate's grid, 13 times to 6.5/gamma at count 400, span 50: one
    # one-time call per step applied H 520 times, one recurrence 235
    applied = []
    scaled = _OneSector.scaled

    def counting(self, scale, shift):
        apply = scaled(self, scale, shift)

        def counted(x, out):
            applied.append(1)
            apply(x, out)

        return counted

    monkeypatch.setattr(_OneSector, "scaled", counting)
    grid = build_grid(P100, count=400, span_gammas=50.0)
    oracle_sigma_z(np.arange(0.5, 6.51, 0.5), grid)
    assert 0 < len(applied) <= 240


def test_oversized_time_grid_is_refused_before_allocating(monkeypatch):
    # 100 000 sums of 401 amplitudes would take 0.64 GB
    grid = build_grid(P30, count=400, span_gammas=50.0)
    (start,) = _excited([0.0], grid)
    taus = np.linspace(0.0, 1.0, 100_000)

    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated before the size check")

    with monkeypatch.context() as patch:
        patch.setattr(np, "zeros", no_alloc)
        with pytest.raises(ValueError, match="MiB of Chebyshev sums"):
            oracle._chebyshev_expm_many(_OneSector(grid), taus, start, lambda out: out[0])
    with pytest.raises(ValueError, match="fewer times"):
        oracle_sigma_z(taus, grid)


@pytest.mark.parametrize("sector, count, tau", [(1, 400, 0.5), (1, 400, 6.5), (2, 200, 1.0)])
def test_chebyshev_action_matches_expm_multiply(sector, count, tau):
    # scipy's Al-Mohy & Higham action is the independent route
    grid = build_grid(P100, count=count, span_gammas=50.0)
    op, h = _sectors(grid)[sector - 1]
    rng = np.random.default_rng(count + sector)
    vec = rng.normal(size=(h.shape[0], 2)) @ np.array([1.0, 1j])
    states = [vec / np.linalg.norm(vec)]
    if sector == 1:
        states.append(np.eye(h.shape[0], dtype=complex)[0])   # |excited, vacuum>
    for v in states:
        (got,) = oracle._chebyshev_expm_many(op, [tau], _working(op, v),
                                             lambda x: _packed(op, x))
        ref = scipy_expm_multiply(-1j * tau * h, v)
        assert np.max(np.abs(got - ref)) <= 1e-12


@pytest.mark.parametrize("density, count", [("flat", 8), ("flat", 13), ("cubic", 10)])
def test_weyl_interval_encloses_the_spectrum(density, count):
    if density == "flat":
        grid = build_grid(P30, count=count, span_gammas=8.0)
    else:
        grid = _cubic_grid(count=count, span_gammas=8.0)
    for op, h in _sectors(grid):
        _check_interval(op, h)


def _check_interval(op, h):
    lo, hi = oracle._spectral_interval(op)
    eig = np.linalg.eigvalsh(h.toarray())
    assert lo <= eig[0] and eig[-1] <= hi
    # the exact coupling norm behind the interval, against the assembled matrix
    diag = h.diagonal()
    off_eig = np.linalg.eigvalsh((h - sp.diags(diag)).toarray())
    assert op.coupling_norm == pytest.approx(np.max(np.abs(off_eig)), rel=1e-13)


def _gershgorin(h):
    diag = h.diagonal()
    radius = np.asarray(abs(h - sp.diags(diag)).sum(axis=1)).ravel()
    return np.min(diag - radius), np.max(diag + radius)


def test_spectral_interval_halves_the_one_excitation_gershgorin_width():
    # row 0 of the N=1 star couples to every mode: its Gershgorin radius is
    # sum_k g_k = 56.4 gamma at count 400, twice the spectrum's +-24.9 gamma
    grid = build_grid(P30, count=400, span_gammas=50.0)
    h = _sparse_h_one(grid)
    lo, hi = oracle._spectral_interval(_OneSector(grid))
    g_lo, g_hi = _gershgorin(h)
    eig = np.linalg.eigvalsh(h.toarray())
    assert lo <= eig[0] and eig[-1] <= hi
    assert hi - lo <= 0.52 * (g_hi - g_lo)
    assert hi - lo <= 1.2 * (eig[-1] - eig[0])


def test_two_excitation_interval_uses_the_exact_coupling_norm():
    # Weyl with |V|_2 = sqrt(2) |g_w| instead of |V|_F: at count 200, span 50
    # the N=2 half-width is 53.7 gamma (64.9 on the Gershgorin discs alone)
    grid = build_grid(P30, count=200, span_gammas=50.0)
    lo, hi = oracle._spectral_interval(_TwoSector(grid))
    h = _sparse_h_two(grid)
    (eig_lo,) = eigsh(h, k=1, which="SA", return_eigenvectors=False)
    (eig_hi,) = eigsh(h, k=1, which="LA", return_eigenvectors=False)
    assert lo <= eig_lo and eig_hi <= hi
    assert 0.5 * (hi - lo) <= 54.0
    g_lo, g_hi = _gershgorin(h)
    assert 0.5 * (g_hi - g_lo) > 64.0


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
    with pytest.raises(ValueError, match="ascending"):
        oracle_sigma_z(np.array([1.0, 0.5]), grid)


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
    # every comb mode carries pairs, so doubling count and span together cuts
    # the band-truncation error of the N=2 route (6.3e-3 -> 3.2e-3)
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
    assert oracle_two_time(AtomCorrKind.MINUS_PLUS, 0.0, 1.0, grid120) == 0.0


def test_oversized_pair_sector_is_refused_before_any_work(monkeypatch):
    # 2 000 modes: 2 000 + 2 001 000 states > the budget
    grid = build_grid(P30, count=2000, span_gammas=50.0)

    def no_work(*args, **kwargs):
        raise AssertionError("propagated or allocated before the budget check")

    monkeypatch.setattr(oracle, "_chebyshev_expm_many", no_work)
    monkeypatch.setattr(np, "zeros", no_work)
    for kind in (AtomCorrKind.MINUS_PLUS, AtomCorrKind.COMMUTATOR):
        with pytest.raises(ValueError, match="budget"):
            oracle_two_time(kind, 0.5, 1.0, grid)


def test_two_time_guards(grid120):
    with pytest.raises(ValueError, match="u <= v"):
        oracle_two_time(AtomCorrKind.MINUS_PLUS, 2.0, 1.0, grid120)
    with pytest.raises(ValueError, match="population_z"):
        oracle_two_time("population_z", 0.5, 1.0, grid120)   # populations: oracle_sigma_z


# --- Markov kernel checks ----------------------------------------------------

def test_markov_constant_kernel():
    rep = markov_kernel_check(CONST, t_r=1.5, t_a=4.5, params=P30, per_period=16)
    assert rep.max_rel_err < 1e-2
    assert rep.mass_rel_err < 1e-2
    assert rep.weight_retarded == 1.0
    assert rep.weight_advanced == 1.0
    assert rep.max_rel_err == max(rep.rel_err_retarded, rep.rel_err_advanced)


def test_markov_boundary_packet_half_weight():
    # window ending exactly at t_a: half the wave packet is cut off.  The
    # dissipative projection of the action drops to pi (from 2 pi at full
    # weight); the remaining quadrature (principal-value) part is not halved.
    sigma = 10.0 / P30.omega0
    rep = markov_kernel_check(CONST, t_r=1.5, t_a=4.5, params=P30, per_period=16,
                              window=(1.5 - 12.0 * sigma, 4.5))
    assert rep.weight_advanced == 0.5
    full = np.real(np.exp(1j * P30.omega0 * 1.5) * rep.action_retarded)
    half = np.real(np.exp(1j * P30.omega0 * 4.5) * rep.action_advanced)
    assert full == pytest.approx(2.0 * np.pi, rel=0.01)
    assert half == pytest.approx(np.pi, rel=0.02)


def test_markov_absent_packet():
    sigma = 10.0 / P30.omega0
    rep = markov_kernel_check(CONST, t_r=1.5, t_a=40.0, params=P30, per_period=16,
                              window=(1.5 - 12.0 * sigma, 8.0))
    assert rep.weight_advanced == 0.0
    assert rep.action_advanced == 0.0


def _dense_action(t_r, t_a, center, band, window, sigma, per_period):
    # the dense exp(i w t') product that the chirp-z transform replaces
    w0 = P30.omega0
    (a, b), (w_lo, w_hi) = window, band
    n_t = n_for_oscillation(max(w_hi - w0, w0 - w_lo), a, b, per_period)
    rel_scale = (b - a) + 12.0 * sigma + max(0.0, a - min(t_r, t_a)) + max(0.0, max(t_r, t_a) - b)
    n_w = n_for_oscillation(rel_scale, w_lo, w_hi, per_period)
    tp, ws = np.linspace(a, b, n_t + 1), np.linspace(w_lo, w_hi, n_w + 1)
    g = np.exp(-((tp - center) ** 2) / (2.0 * sigma**2)) * np.exp(-1j * w0 * tp)
    ghat = np.trapezoid(np.exp(1j * np.outer(ws, tp)) * g, tp, axis=1)
    return np.trapezoid((np.exp(-1j * ws * t_r) + np.exp(-1j * ws * t_a)) * ghat, ws)


def test_markov_chirp_z_matches_dense_action():
    sigma, per_period = 10.0 / P30.omega0, 8
    kw = dict(t_r=1.0, t_a=2.0, band=(20.0, 40.0), window=(-1.0, 4.0))
    rep = markov_kernel_check(CONST, params=P30, sigma=sigma, per_period=per_period, **kw)
    for center, act in ((1.0, rep.action_retarded), (2.0, rep.action_advanced)):
        ref = _dense_action(center=center, sigma=sigma, per_period=per_period, **kw)
        assert abs(act - ref) <= 1e-9 * abs(ref)


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
    # the delta-comparison only sharpens with the frequency cutoff
    kw = dict(t_r=1.5, t_a=50.0, params=P30, per_period=8, window=(0.5, 2.5))
    r1 = markov_kernel_check(CONST, cutoff=10.0 * P30.omega0, **kw)
    r2 = markov_kernel_check(CONST, cutoff=20.0 * P30.omega0, **kw)
    assert r2.width / r1.width == pytest.approx(0.5, abs=0.03)


def test_markov_banded_mass():
    sigma = 25.0 / P100.omega0
    kw = dict(t_r=2.0 * sigma, t_a=22.0 * sigma, params=P100, sigma=sigma)
    wide = markov_kernel_check(CONST, band=(P100.omega0 - 25.0, P100.omega0 + 25.0), **kw)
    narrow = markov_kernel_check(CONST, band=(P100.omega0 - 5.0, P100.omega0 + 5.0), **kw)
    assert wide.mass_rel_err < 1e-6
    assert narrow.mass_rel_err > 0.1   # band too narrow for the packet: mass leaks
    cubic = markov_kernel_check(lambda w: (w / P100.omega0) ** 3,
                                band=(P100.omega0 - 25.0, P100.omega0 + 25.0), **kw)
    assert cubic.mass_rel_err < 0.02


def _hand_built_weights(a, b, n):
    # the weights markov_kernel_check built inline before the shared helper
    w = np.full(n + 1, (b - a) / n)
    w[0] = w[-1] = (b - a) / (2 * n)
    return w


def test_trapezoid_weights_keep_the_markov_report_bits(monkeypatch):
    for a, b, n in ((0.0, 1.0, 1), (-1.3, 4.7, 999), (20.0, 40.0, 1234), (75.0, 125.0, 64)):
        assert np.array_equal(trapezoid_weights(a, b, n), _hand_built_weights(a, b, n))
    sigma = 25.0 / P100.omega0
    cases = (dict(t_r=1.5, t_a=4.5, params=P30, per_period=16),
             dict(t_r=2.0 * sigma, t_a=22.0 * sigma, params=P100, sigma=sigma))
    reports = [markov_kernel_check(CONST, **kw) for kw in cases]
    monkeypatch.setattr(oracle, "trapezoid_weights", _hand_built_weights)
    for kw, rep in zip(cases, reports):
        ref = markov_kernel_check(CONST, **kw)
        assert [repr(v) for v in dataclasses.astuple(rep)] == [repr(v) for v in dataclasses.astuple(ref)]


def test_markov_validation():
    with pytest.raises(ValueError, match="sign"):
        markov_kernel_check(CONST, t_r=1.0, t_a=2.0, params=P30, sign=2)
    with pytest.raises(ValueError, match="cutoff"):
        markov_kernel_check(CONST, t_r=1.0, t_a=2.0, params=P30, cutoff=P30.omega0)
    with pytest.raises(ValueError, match="band"):
        markov_kernel_check(CONST, t_r=1.0, t_a=2.0, params=P30, band=(5.0, 3.0))
    with pytest.raises(ValueError, match="window"):
        markov_kernel_check(CONST, t_r=1.0, t_a=2.0, params=P30, window=(3.0, 3.0))


def test_angular_reduction():
    assert angular_reduction_check() < 1e-10


def test_angular_quadrature_matches_the_per_direction_loop():
    # the per-node sphere_integrate callbacks the one-pass einsum replaced
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
    # scipy serves only the independent routes in these tests; no command
    # (the oracle included) may import it
    code = (
        "import sys\n"
        "from advwave.cli import main\n"
        f"out = {str(tmp_path)!r}\n"
        "for argv, allowed in (\n"
        "        (['validate', '--full', '--count', '4', '--span', '1'], (0, 2)),\n"
        "        (['figure', '3'], (0,)), (['power', 'pert'], (0,)),\n"
        "        (['corr', '--points', '2'], (0,)), (['detect', '--points', '2'], (0,))):\n"
        "    assert main(argv + ['--out', out]) in allowed, argv\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
    )
    src_dir = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src_dir, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
