import numpy as np
import pytest

from advwave.core import DipoleParams, FieldKind
from advwave.fieldcoeffs import LevelScheme, _cross3, field_coeff, tau_kernel

P = DipoleParams.from_rates(omega0=25.0, gamma=1.0)
X = np.array([0.4, -0.7, 1.1])
E, B = FieldKind.ELECTRIC, FieldKind.MAGNETIC


def test_radiation_coefficient_is_transverse():
    xhat = X / np.linalg.norm(X)
    e_rad, b_rad = field_coeff(E, X, P, "rad"), field_coeff(B, X, P, "rad")
    assert abs(e_rad @ xhat) < 1e-14 * np.linalg.norm(e_rad)
    assert abs(b_rad @ xhat) < 1e-14 * np.linalg.norm(b_rad)
    # near and intermediate zones share the 3n(n.d)-d structure
    longit = 3.0 * xhat * (xhat @ P.dvec) - P.dvec
    e_full = field_coeff(E, X, P, "full")
    assert np.allclose(np.cross(e_full - e_rad, longit), 0.0,
                       atol=1e-14 * np.linalg.norm(e_full) * np.linalg.norm(longit))


def test_cross_product_matches_numpy_exactly():
    rng = np.random.default_rng(11)
    for _ in range(500):
        a, b = rng.normal(size=(2, 3)) * 10.0 ** rng.integers(-8, 9, size=(2, 1))
        assert np.array_equal(_cross3(a, b), np.cross(a, b))
    assert np.array_equal(field_coeff(B, X, P, "rad"), P.omega0**2 / (4.0 * np.pi * np.linalg.norm(X))
                          * np.cross(X / np.linalg.norm(X), P.dvec))


def _near_mid(kind, x):
    """(1/x^3, 1/x^2) zones: the intermediate one is in quadrature with the others."""
    rest = field_coeff(kind, x, P, "full") - field_coeff(kind, x, P, "rad")
    return rest.real, rest.imag


def test_zone_scaling_with_distance():
    assert np.allclose(field_coeff(E, 2.0 * X, P, "rad"), field_coeff(E, X, P, "rad") / 2.0, rtol=1e-13)
    assert np.allclose(field_coeff(B, 2.0 * X, P, "rad"), field_coeff(B, X, P, "rad") / 2.0, rtol=1e-13)
    (n1, m1), (n2, m2) = _near_mid(E, X), _near_mid(E, 2.0 * X)
    assert np.allclose(n2, n1 / 8.0, rtol=1e-13)
    assert np.allclose(m2, m1 / 4.0, rtol=1e-13)
    (_, b1), (_, b2) = _near_mid(B, X), _near_mid(B, 2.0 * X)
    assert np.allclose(b2, b1 / 4.0, rtol=1e-13)


def test_zone_phases():
    assert np.all(field_coeff(E, X, P, "rad").imag == 0.0)
    assert np.all(field_coeff(B, X, P, "rad").imag == 0.0)
    near, mid = _near_mid(E, X)
    assert np.allclose(mid, P.omega0 * np.linalg.norm(X) * near, rtol=1e-13)
    b_near, _ = _near_mid(B, X)
    assert np.allclose(b_near, 0.0, atol=1e-15 * np.max(np.abs(field_coeff(B, X, P, "full"))))


def test_full_coefficients_sum_zones():
    # E and B written out from the fieldcoeffs docstring, zone by zone
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = DipoleParams.from_rates(omega0=10.0 ** rng.uniform(1.0, 8.0), gamma=1.0,
                                    direction=rng.normal(size=3))
        x = rng.normal(size=3) * 10.0 ** rng.uniform(-2.0, 2.0)
        w, d, r = p.omega0, p.dvec, np.linalg.norm(x)
        n = x / r
        e_rad = w**2 / (4.0 * np.pi * r) * (d - n * (n @ d))
        e_rest = (1j * w / (4.0 * np.pi * r**2) + 1.0 / (4.0 * np.pi * r**3)) * (3.0 * n * (n @ d) - d)
        b_rad = w**2 / (4.0 * np.pi * r) * np.cross(n, d)
        b_mid = -1j * w / (4.0 * np.pi * r**2) * np.cross(n, d)
        for kind, part, ref in ((E, "rad", e_rad), (E, "full", e_rad + e_rest),
                                (B, "rad", b_rad), (B, "full", b_rad + b_mid)):
            got = field_coeff(kind, x, p, part)
            assert got.dtype == complex and got.shape == (3,)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), (kind, part)


def test_singular_at_origin():
    for kind in (E, B):
        with pytest.raises(ValueError, match="singular"):
            field_coeff(kind, np.zeros(3), P, "full")


def test_coefficients_frozen():
    # each call returns a fresh array, so a caller writing into one cannot
    # change what the next call returns
    first = field_coeff(E, X, P, "full")
    ref = first.copy()
    first[0] = 1.0
    assert np.array_equal(field_coeff(E, X, P, "full"), ref)


def test_tau_kernel_formula():
    z = 2.0
    n = np.array([0.0, 0.6, 0.8])
    tau = tau_kernel(z, n)
    eye = np.eye(3)
    nn = np.outer(n, n)
    ref = (eye - nn) * np.sin(z) / z + (eye - 3.0 * nn) * (np.cos(z) / z**2 - np.sin(z) / z**3)
    assert np.allclose(tau, ref, atol=1e-15)
    assert np.allclose(tau, tau.T)


def test_tau_kernel_small_z():
    n = np.array([1.0, 0.0, 0.0])
    assert np.allclose(tau_kernel(0.0, n), (2.0 / 3.0) * np.eye(3))
    # series and direct branches agree at the switch point
    lo = tau_kernel(1e-3 * 0.999, n)
    hi = tau_kernel(1e-3 * 1.001, n)
    assert np.allclose(lo, hi, atol=1e-9)


def test_tau_kernel_trace_is_direction_free():
    # trace = 2 sin(z)/z regardless of direction
    z = 3.3
    for n in (np.array([1.0, 0, 0]), np.array([0.3, -0.5, 0.9])):
        assert np.trace(tau_kernel(z, n)) == pytest.approx(2.0 * np.sin(z) / z, rel=1e-12)


def test_tau_kernel_direction_normalized():
    z = 1.7
    n = np.array([0.2, 0.3, -0.1])
    assert np.allclose(tau_kernel(z, n), tau_kernel(z, 5.0 * n))


def test_level_scheme_two_level():
    s = LevelScheme.two_level(P)
    assert s.n_levels == 2
    assert s.omega(1, 0) == P.omega0
    assert s.omega(0, 1) == -P.omega0
    assert np.allclose(s.dipoles[0, 1], P.dvec)


def test_level_scheme_validation():
    good_d = np.zeros((2, 2, 3))
    good_d[0, 1] = good_d[1, 0] = [0.0, 0.0, 0.1]
    with pytest.raises(ValueError, match="ascending"):
        LevelScheme(energies=np.array([1.0, 0.5]), dipoles=good_d)
    with pytest.raises(ValueError, match="at least two"):
        LevelScheme(energies=np.array([1.0]), dipoles=np.zeros((1, 1, 3)))
    bad = good_d.copy()
    bad[0, 1] = [0.0, 0.0, 0.2]
    with pytest.raises(ValueError, match="symmetric"):
        LevelScheme(energies=np.array([0.0, 1.0]), dipoles=bad)
    diag = good_d.copy()
    diag[0, 0] = [0.1, 0.0, 0.0]
    with pytest.raises(ValueError, match="permanent"):
        LevelScheme(energies=np.array([0.0, 1.0]), dipoles=diag)
