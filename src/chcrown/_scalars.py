"""Scalar arithmetic that works for both machine precision and mpmath numbers.

Every numerical kernel in this package is written against the helpers below
instead of ``math``/``cmath`` directly, so the same code runs in two modes:

* ``double`` -- ordinary ``float``/``complex`` scalars inside ``complex128``
  numpy arrays (the default, and the only mode exercised by the meshing and
  export paths);
* ``extended`` -- ``mpmath.mpf``/``mpmath.mpc`` scalars inside ``object``
  numpy arrays, for re-running the certification kernels near the edge of
  the parameter interval where double precision starts to fray.

Dispatch is by value type: feed a kernel an ``mpmath.mpf`` parameter and the
whole computation stays in mpmath.
"""

from __future__ import annotations

import cmath
import contextlib
import math

import mpmath
import numpy as np

MP_TYPES = (mpmath.mpf, mpmath.mpc)

#: Decimal digits used by the extended mode (roughly double-double).
EXTENDED_DPS = 40


def is_mp(x) -> bool:
    """True when ``x`` is an mpmath scalar (or an object array of them)."""
    if isinstance(x, np.ndarray):
        return x.dtype == object
    return isinstance(x, MP_TYPES)


def promote(x, extended: bool):
    """Coerce a plain number to the requested scalar mode.

    The extended value carries the working precision in force, so extended
    callers run inside :func:`working_precision`.
    """
    if extended:
        return mpmath.mpf(x) if not isinstance(x, MP_TYPES) else x
    if isinstance(x, MP_TYPES):
        return complex(x) if isinstance(x, mpmath.mpc) else float(x)
    return x


def working_precision(extended: bool):
    """Context that runs extended-mode arithmetic at ``EXTENDED_DPS`` digits.

    A caller already working at more digits keeps them, and the caller's
    precision comes back on exit.  In double mode it does nothing.
    """
    if not extended:
        return contextlib.nullcontext()
    return mpmath.workdps(max(mpmath.mp.dps, EXTENDED_DPS))


def sqrt(x):
    """Square root, staying real for nonnegative real input."""
    if is_mp(x):
        return mpmath.sqrt(x)
    if isinstance(x, complex):
        return cmath.sqrt(x)
    return math.sqrt(x) if x >= 0.0 else cmath.sqrt(x)


def sqrt_clamped(x, floor: float = -1e-12):
    """Real square root of ``x`` where tiny negative dust is clamped to 0.

    Raises ``ValueError`` when ``x`` is more negative than ``floor``; this
    guards radicands that are nonnegative in exact arithmetic but can round
    just below zero at the ends of the parameter interval.
    """
    xr = re(x)
    if xr < floor:
        raise ValueError(f"radicand {xr!r} is negative beyond roundoff")
    zero = xr * 0
    return sqrt(xr if xr > 0 else zero)


def re(x):
    if is_mp(x):
        return x.real if isinstance(x, mpmath.mpc) else x
    return x.real if isinstance(x, complex) else x


def im(x):
    if is_mp(x):
        return x.imag if isinstance(x, mpmath.mpc) else mpmath.mpf(0)
    return x.imag if isinstance(x, complex) else 0.0


def conj(x):
    return x.conjugate() if hasattr(x, "conjugate") else x


def abs2(x):
    """|x|^2 without the square root."""
    xr, xi = re(x), im(x)
    return xr * xr + xi * xi


def make_complex(xr, xi):
    if is_mp(xr) or is_mp(xi):
        return mpmath.mpc(xr, xi)
    return complex(xr, xi)


def to_float(x) -> float:
    return float(re(x))


def to_complex(x) -> complex:
    return complex(re(x), im(x))


def eps_for(x) -> float:
    """Unit roundoff of the arithmetic carrying ``x``."""
    if is_mp(x):
        return float(mpmath.mpf(10) ** (-mpmath.mp.dps + 1))
    return 2.220446049250313e-16


def as_matrix(rows) -> np.ndarray:
    """Stack scalars into a numpy matrix, picking complex128 or object dtype."""
    flat = [x for row in rows for x in (row if np.iterable(row) else [row])]
    dtype = object if any(isinstance(x, MP_TYPES) for x in flat) else complex
    return np.array(rows, dtype=dtype)


def as_vector(entries) -> np.ndarray:
    dtype = object if any(isinstance(x, MP_TYPES) for x in entries) else complex
    return np.array(list(entries), dtype=dtype)


def conj_vec(v: np.ndarray) -> np.ndarray:
    if v.dtype == object:
        return np.array([conj(x) for x in v.ravel()], dtype=object).reshape(v.shape)
    return np.conj(v)


def max_abs(a: np.ndarray) -> float:
    """Largest modulus of the entries, as a float (works for object arrays)."""
    return max(float(abs(x)) for x in np.asarray(a).ravel())
