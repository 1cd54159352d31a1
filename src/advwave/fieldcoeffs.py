"""Spatial coefficient vectors of the source fields of an oscillating dipole.

For a dipole d at the origin oscillating at frequency w, the positive-frequency
source fields at x factorize into a spatial coefficient times the lowered atom
operator evaluated at the retarded time.  The electric coefficient is

    E(x) = (i w / 4 pi x^2 + 1 / 4 pi x^3) (3 xhat (xhat . d) - d)
         + (w^2 / 4 pi x) (d - xhat (xhat . d))

and the magnetic coefficient is

    B(x) = (w^2 / 4 pi x - i w / 4 pi x^2) (xhat x d),

with x = |x|.  ``field_coeff`` returns either coefficient as plain complex
3-vectors, one per position of a (..., 3) array: all three inverse powers of x
(radiation 1/x, intermediate 1/x^2, near 1/x^3) with ``part="full"``, or the
1/x radiation part alone with ``part="rad"``, which momentum diffusion and
detection at radiation-zone distances contract against.

``tau_kernel`` is the transverse angular average
(1 / 4 pi) Int dOmega_k (delta_ij - khat_i khat_j) exp(i w khat . x),
shared by the vacuum-commutator reductions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DipoleParams, FieldKind, _norm3, _vec3, _vecs3

__all__ = ["LevelScheme", "field_coeff", "tau_kernel"]


_NEXT, _PREV = [1, 2, 0], [2, 0, 1]


def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis, in np.cross's operation order (same bits, less dispatch cost)."""
    return a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]


def _check_part(part: str) -> None:
    if part not in ("full", "rad"):
        raise ValueError(f"part must be 'full' or 'rad', got {part!r}")


def field_coeff(kind: FieldKind, x, params: DipoleParams, part: str) -> np.ndarray:
    """Coefficient of field ``kind`` at ``x``: all zones (``part="full"``) or 1/x alone ("rad").

    ``x`` holds positions along its last axis, shape (..., 3); the result is a
    fresh complex array of the same shape.  Only the zones asked for are
    evaluated.  This function and ``_check_part`` are the one place that knows
    what ``part`` names.  A caller that must reject a bad ``part`` before it
    evaluates any coefficient calls ``_check_part`` itself.
    """
    _check_part(part)
    pos = _vecs3(x, "x")
    r = _norm3(pos)
    if np.any(r == 0.0):
        raise ValueError("source-field coefficients are singular at the dipole position")
    xhat, d = pos / r[..., None], params.dvec
    pre_rad = (params.omega0**2 / (4.0 * np.pi * r))[..., None]
    pre_mid = (params.omega0 / (4.0 * np.pi * r**2))[..., None]
    if kind is FieldKind.ELECTRIC:
        along = np.vecdot(xhat, d)[..., None]
        e_rad = pre_rad * (d - xhat * along) + 0j
        if part == "rad":
            return e_rad
        longit = 3.0 * xhat * along - d          # near/intermediate structure
        e_mid = 1j * pre_mid * longit
        e_near = (1.0 / (4.0 * np.pi * r**3))[..., None] * longit + 0j
        return e_rad + e_mid + e_near
    cross = _cross3(xhat, d)
    b_rad = pre_rad * cross + 0j
    if part == "rad":
        return b_rad
    b_mid = -1j * pre_mid * cross
    return b_rad + b_mid


@dataclass(frozen=True)
class LevelScheme:
    """Multilevel emitter: ascending energies and a real symmetric dipole matrix.

    ``dipoles`` has shape (n, n, 3) with d[n, m] = d[m, n] and zero diagonal
    (permanent moments are not supported; they do not radiate in this model).
    """

    energies: np.ndarray
    dipoles: np.ndarray

    def __post_init__(self):
        en = np.asarray(self.energies, dtype=float)
        if en.ndim != 1 or en.size < 2:
            raise ValueError("need at least two levels")
        if np.any(np.diff(en) <= 0.0):
            raise ValueError("energies must be strictly ascending")
        dp = np.asarray(self.dipoles, dtype=float)
        if dp.shape != (en.size, en.size, 3):
            raise ValueError(f"dipoles must have shape ({en.size}, {en.size}, 3)")
        if not np.allclose(dp, np.swapaxes(dp, 0, 1), rtol=0.0, atol=0.0):
            raise ValueError("dipole matrix must be exactly symmetric")
        if np.any(dp[np.arange(en.size), np.arange(en.size)] != 0.0):
            raise ValueError("diagonal (permanent) dipole moments are not supported")
        en, dp = en.copy(), dp.copy()
        en.flags.writeable = False
        dp.flags.writeable = False
        object.__setattr__(self, "energies", en)
        object.__setattr__(self, "dipoles", dp)

    @property
    def n_levels(self) -> int:
        return int(self.energies.size)

    def omega(self, upper: int, lower: int) -> float:
        """Signed transition frequency E[upper] - E[lower]."""
        return float(self.energies[upper] - self.energies[lower])

    @classmethod
    def two_level(cls, params: DipoleParams) -> "LevelScheme":
        """The scheme {0, omega0} with the given transition dipole."""
        dip = np.zeros((2, 2, 3))
        dip[0, 1] = dip[1, 0] = params.dvec
        return cls(energies=np.array([0.0, params.omega0]), dipoles=dip)


_TAU_SERIES_CUT = 1e-3


def tau_kernel(z: float, xhat) -> np.ndarray:
    """Transverse angular kernel tau_ij(z) for direction ``xhat``.

    tau_ij(z) = (delta_ij - xi xj) sin(z)/z
              + (delta_ij - 3 xi xj) (cos(z)/z^2 - sin(z)/z^3)

    with tau_ij(0) = (2/3) delta_ij.  Below |z| = 1e-3 the two radial
    functions switch to their Taylor series to avoid catastrophic
    cancellation; the series are kept to z^6 (relative error < 1e-24 at the
    switch point, far below double precision).
    """
    n = _vec3(xhat, "xhat")
    norm = np.linalg.norm(n)
    if not np.isclose(norm, 1.0, rtol=0.0, atol=1e-12):
        if norm == 0.0:
            raise ValueError("xhat must be a unit vector")
        n = n / norm
    z = float(z)
    if z < 0.0:
        raise ValueError("z = omega * |x| must be >= 0")
    if z < _TAU_SERIES_CUT:
        z2 = z * z
        j0 = 1.0 - z2 / 6.0 + z2 * z2 / 120.0 - z2 * z2 * z2 / 5040.0
        h = -1.0 / 3.0 + z2 / 30.0 - z2 * z2 / 840.0 + z2 * z2 * z2 / 45360.0
    else:
        j0 = np.sin(z) / z
        h = np.cos(z) / z**2 - np.sin(z) / z**3
    eye = np.eye(3)
    proj = np.outer(n, n)
    return (eye - proj) * j0 + (eye - 3.0 * proj) * h
