"""Shared value types: dipole parameters, spacetime events, field kinds.

Natural units throughout the package: hbar = c = epsilon_0 = 1.  Every time,
frequency and length is therefore expressed in one unit (inverse seconds, say),
and the free-space decay rate of a two-level dipole obeys

    gamma = omega0**3 * |d|**2 / (3 * pi).

Complex 3-vectors and 3x3 tensors are plain ``numpy`` arrays; no wrapper types.
An :class:`Event` holds a batch of spacetime points: times of shape S and
positions of shape S + (3,), where a single event is the batch of shape ().

Every public function of the package keeps one input contract, written once
here and used everywhere else:

* times are finite: NaN or +-inf raises ``ValueError`` (``_finite``), and
  functions defined only from t = 0 also refuse negative times;
* a light-cone gate is a unit step with th(0) = 1: a term gated at ``gate``
  is on from t = gate inclusive and an exact zero before it (``_gated``);
* rates, frequencies and radii are positive and finite (``_positive``);
* a power of a non-time argument that the code forms (omega0^3, q^2, m^2,
  a radius^2, z^3) stays in the float range, or ``_power`` raises
  ``ValueError`` naming the argument;
* a time whose fastest carrier phase 2 omega0 |t| reaches 2^53 rad, before
  t = 0 as after it, raises ``ValueError`` naming it (``_check_carrier``):
  a time's rounding moves that phase by more than a radian there.  The
  correlator layer (the atomic correlators, the tensors and
  ``corr_traces``) checks every time it is given, as kinetics and
  photodetect do;
* a scalar in gives a Python scalar out, and an array keeps its shape
  (``_like``).

Two numerical helpers live here too: Dekker's exact product (``_two_prod``,
with Veltkamp's split ``_split`` of its second factor) and the fixed-seed
stdlib uniform stream (``_uniform_stream``).
"""
from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "DipoleParams",
    "Event",
    "FieldKind",
]

_GAMMA_REL_TOL = 1e-12
_MARKOV_RATIO_WARN = 0.1
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into two 26-bit halves
_HIGH_26 = np.uint64(2**64 - 2**27)  # a double's sign, exponent and 26 leading bits
# Past 2^53 rad a time's rounding (half an ulp) moves the fastest carrier,
# 2 omega0 t, by more than a radian: no phase there has a meaning.
_MAX_PHASE = 2.0**53


def _power(x, k: int, name: str) -> float:
    """x**k as a float; ValueError naming ``name``, not OverflowError or 0, when it
    leaves the float range.  x = 0 gives 0."""
    x = float(x)
    try:
        out = x**k
    except OverflowError:
        raise ValueError(f"{name} = {x:.6g} is too large: {name}^{k} overflows") from None
    if out == 0.0 and x != 0.0:
        raise ValueError(f"{name} = {x:.6g} is too small: {name}^{k} underflows")
    return out


def _cubed(x, name: str) -> float:
    """x**3 for a positive finite x, as `_power` gives it."""
    return _power(_positive(x, name), 3, name)


def _split(a):
    """Veltkamp's split of a into two halves of 26 bits each, hi + lo = a."""
    s = a * _SPLIT
    hi = s - (s - a)
    return hi, a - hi


def _two_prod(a, b, b_halves=None):
    """a b - fl(a b), exactly, where neither the product nor its split leaves the
    normal range: Dekker's exact product (T. J. Dekker, Numer. Math. 18, 224 (1971)).

    a is split by clearing its 27 low mantissa bits, into halves of 26 and 27
    bits, and b by Veltkamp's split into two of 26 bits, or ``b_halves``, its
    ``_split(b)`` read from a table: all four partial products are exact.
    Only one factor may be split by its bits: two 27-bit low halves can need
    54 bits."""
    a = np.asarray(a, float)
    ah = (a.view(np.uint64) & _HIGH_26).view(np.float64)
    al = a - ah
    bh, bl = _split(b) if b_halves is None else b_halves
    return (((ah * bh - a * b) + ah * bl) + al * bh) + al * bl


def _uniform_stream(seed: int):
    """draw(lo, hi, *shape): lo + (hi - lo) u for an array of uniforms u in [0, 1),
    taken in order from ``random.Random(seed)``, so every run draws the same ones."""
    rng = random.Random(seed)

    def draw(lo, hi, *shape):
        return lo + (hi - lo) * np.array([rng.random() for _ in range(math.prod(shape))]).reshape(shape)

    return draw


def _finite(x, name: str, nonneg: bool = False) -> np.ndarray:
    """``x`` as a float array; ValueError unless it is finite (and >= 0 with ``nonneg``)."""
    arr = np.asarray(x, dtype=float)
    ok = (arr >= 0.0) & (arr < np.inf) if nonneg else np.isfinite(arr)     # NaN fails both
    if np.count_nonzero(ok) != arr.size:    # cheaper than ok.all() for a scalar
        raise ValueError(f"{name} must be finite{' and >= 0' if nonneg else ''}")
    return arr


def _check_carrier(omega0: float, *times, subject: str | None = None) -> None:
    """ValueError when 2 omega0 |t| at the time of largest modulus in the arrays
    ``times`` reaches ``_MAX_PHASE``, naming ``subject`` (by default that time).
    Each array costs one min and one max.  Non-finite times are left to ``_finite``."""
    far = 0.0
    for t in times:
        far = max(far, float(np.max(t, initial=0.0)), float(np.min(t, initial=0.0)), key=abs)
    phase = 2.0 * omega0 * abs(far)
    if math.isfinite(far) and not phase < _MAX_PHASE:
        raise ValueError(f"{subject or f't = {far:.6g}'} is too large: the carrier phase 2 omega0 t "
                         f"reaches {phase:.3g} rad in modulus, past 2^53 rad, where a time's rounding "
                         f"moves it by more than a radian")


def _positive(x, name: str):
    """``x`` itself; ValueError unless it is a positive finite number."""
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {x}")
    return x


def _gated(t, gate):
    """(b, on): the time b = t - gate since the gate, clipped at 0, and the mask t >= gate.

    The gate is the unit step th(0) = 1, open from t = gate inclusive; t - gate
    >= 0 exactly where t >= gate, so b and on agree.  Times must be finite.
    """
    t = _finite(t, "times t")
    return np.maximum(t - gate, 0.0), t >= gate


def _like(out, *inputs):
    """``out``, an array or a tuple of arrays, as Python scalars when every input
    is a scalar or a 0-d array; else as is."""
    if any(map(np.ndim, inputs)):
        return out
    return tuple(o.item() for o in out) if isinstance(out, tuple) else out.item()


def _vecs3(value, name: str) -> np.ndarray:
    """A read-only copy of ``value`` as finite 3-vectors, shape (..., 3)."""
    arr = np.array(value, dtype=float)
    if arr.shape[-1:] != (3,):
        raise ValueError(f"{name} must hold 3-vectors along its last axis, got shape {arr.shape}")
    _finite(arr, name)
    arr.flags.writeable = False
    return arr


def _vec3(value, name: str) -> np.ndarray:
    arr = _vecs3(value, name)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 3-vector, got shape {arr.shape}")
    return arr


def _norm3(x: np.ndarray):
    """|x| over the last axis: the same bits as ``np.linalg.norm`` of one 3-vector."""
    return np.sqrt(np.vecdot(x, x))


class FieldKind(Enum):
    """Which Maxwell field a coefficient or correlator slot refers to."""

    ELECTRIC = "E"
    MAGNETIC = "B"

    @property
    def advanced_sign(self) -> int:
        """Sign (-1)**alpha carried by the advanced-wave terms."""
        return 1 if self is FieldKind.ELECTRIC else -1


@dataclass(frozen=True)
class DipoleParams:
    """Two-level emitter: transition frequency, decay rate, dipole vector.

    ``gamma`` may be chosen independently of ``dvec`` for parameter scans;
    ``consistent`` records whether the free-space relation
    gamma = omega0**3 |d|**2 / (3 pi) holds.  The named constructor
    :meth:`from_rates` always produces a consistent parameter set, and every
    cross-check in the test-suite uses it.
    Every path that forms omega0**3 raises ``ValueError`` when it overflows or underflows.
    """

    omega0: float
    gamma: float
    dvec: np.ndarray
    consistent: bool = False

    def __post_init__(self):
        _positive(self.omega0, "omega0")
        _positive(self.gamma, "gamma")
        object.__setattr__(self, "dvec", _vec3(self.dvec, "dvec"))
        if self.consistent:
            derived = _cubed(self.omega0, "omega0") * self.d_abs2 / (3.0 * np.pi)
            if abs(derived - self.gamma) > _GAMMA_REL_TOL * self.gamma:
                raise ValueError(
                    "inconsistent parameters: gamma = "
                    f"{self.gamma!r} but omega0^3 |d|^2 / 3pi = {derived!r}"
                )
        ratio = self.gamma / self.omega0
        if ratio > _MARKOV_RATIO_WARN:
            warnings.warn(
                f"gamma/omega0 = {ratio:.3g} > {_MARKOV_RATIO_WARN}: the Markov / "
                "rotating-wave closed forms used throughout are unreliable here",
                stacklevel=3,
            )

    @classmethod
    def from_rates(cls, omega0: float, gamma: float, direction=(0.0, 0.0, 1.0)) -> "DipoleParams":
        """Build with |d| derived from (omega0, gamma) along ``direction``."""
        n = _vec3(direction, "direction")
        norm = np.linalg.norm(n)
        if norm == 0.0:
            raise ValueError("direction must be nonzero")
        d_abs = np.sqrt(3.0 * np.pi * float(gamma) / _cubed(omega0, "omega0"))
        return cls(omega0=float(omega0), gamma=float(gamma), dvec=n / norm * d_abs, consistent=True)

    @property
    def d_abs2(self) -> float:
        """|d|^2."""
        return float(self.dvec @ self.dvec)


@dataclass(frozen=True)
class Event:
    """Spacetime points (t, x) relative to a dipole fixed at the origin.

    ``t`` has a batch shape S and ``x`` the shape S + (3,); a single event is
    the batch of shape (), with ``t`` a scalar and ``x`` a 3-vector.  ``r``,
    ``t_ret`` and ``t_adv`` have the shape S.  Positions may sit at the dipole;
    ``field_coeff`` refuses them, so a tensor call raises once it needs their
    coefficients.
    """

    t: float | np.ndarray
    x: np.ndarray

    def __post_init__(self):
        t = np.array(_finite(self.t, "t"))
        x = _vecs3(self.x, "x")
        if x.shape != t.shape + (3,):
            raise ValueError(f"x must have shape {t.shape + (3,)} to match t, got {x.shape}")
        t.flags.writeable = False
        object.__setattr__(self, "t", t[()])  # a scalar for the batch of shape ()
        object.__setattr__(self, "x", x)

    @property
    def r(self):
        """Distance |x| from the dipole."""
        return _norm3(self.x)

    @property
    def t_ret(self):
        """Retarded time t - |x| (source time on the past light cone)."""
        return self.t - self.r

    @property
    def t_adv(self):
        """Advanced time t + |x| (source time on the future light cone)."""
        return self.t + self.r
