"""Linear-algebra core for the complex hyperbolic plane.

Points of the complex hyperbolic plane are negative lines in C^{2,1}; its
ideal boundary consists of the null lines.  Everything is measured against
one Hermitian form, the **Siegel** form ``SIEGEL`` of signature (2,1) with
anti-diagonal blocks, where the boundary minus a point at infinity carries
Heisenberg coordinates (see :mod:`chcrown.heisenberg`).  Vectors of C^3 are
plain ``(3,)`` arrays.

This module provides the form, Hermitian/box products, holomorphic
isometries as 3x3 matrices, a closed-form eigensolver for 3x3 complex
matrices, trace-based classification of isometries, boundary fixed points,
complex reflections, and projective comparison of vectors and matrices.
Everything here works in double precision: ``complex128`` arrays and
``float``/``complex`` scalars.
The form, group products, inverses, ``det3``, complex reflections and the
trace discriminant use plain arithmetic only, so they also run on object
arrays of extended-precision scalars; the extended path of
:mod:`chcrown.triangle` relies on that.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

#: unit roundoff of double precision
_EPS = 2.220446049250313e-16

# Tolerance policy (shared across the package):
#   EPS_ALG     algebraic identities that hold exactly in exact arithmetic
#   EPS_CLASS   trace-polynomial discriminant cutoff for classification
EPS_ALG = 1e-10
EPS_CLASS = 1e-8


class GeometryError(ValueError):
    """A geometric precondition failed (wrong norm type, degenerate input, ...)."""


class NearParabolicError(GeometryError):
    """Fixed-point extraction refused because eigenvalue moduli nearly tie."""


class NormType(enum.Enum):
    NEGATIVE = -1
    NULL = 0
    POSITIVE = 1


#: the Siegel Hermitian form J: <v, w> = w^H J v
SIEGEL = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)


def _data(v) -> np.ndarray:
    a = np.asarray(v)
    if a.shape != (3,):
        raise GeometryError(f"expected a 3-vector, got shape {a.shape}")
    return a


def hermitian_product(v, w):
    """<v, w> = w^H J v (linear in v, conjugate-linear in w)."""
    v = _data(v)
    w = _data(w)
    return (np.conj(w) * (SIEGEL @ v)).sum()


def _abs2(x):
    """|x|^2 without the square root, rounded as ``re*re + im*im``."""
    return x.real * x.real + x.imag * x.imag


def _max_abs(a: np.ndarray) -> float:
    """Largest modulus of the entries, one scalar ``abs`` each."""
    return max(float(abs(x)) for x in np.asarray(a).ravel())


def norm_type(v) -> NormType:
    """Sign of <v, v> relative to |v|^2, null within ``EPS_ALG``: point, boundary or polar."""
    v = _data(v)
    s = hermitian_product(v, v)
    scale = sum(_abs2(x) for x in v)
    if scale == 0:
        raise GeometryError("zero vector has no norm type")
    rel = float(s.real) / float(scale)
    if rel > EPS_ALG:
        return NormType.POSITIVE
    if rel < -EPS_ALG:
        return NormType.NEGATIVE
    return NormType.NULL


def box_product(v, w):
    """Hermitian cross product: a vector orthogonal to both v and w.

    For distinct null vectors v, w it is the polar vector of the unique
    complex geodesic joining the two boundary points.
    """
    v = _data(v)
    w = _data(w)
    cross = np.array(
        [
            v[1] * w[2] - v[2] * w[1],
            v[2] * w[0] - v[0] * w[2],
            v[0] * w[1] - v[1] * w[0],
        ],
        dtype=complex,
    )
    return SIEGEL @ np.conj(cross)


@dataclass(frozen=True, eq=False)
class GroupElement:
    """A holomorphic isometry: a matrix preserving the Siegel form."""

    matrix: np.ndarray

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.matrix @ other.matrix)

    def inverse(self) -> "GroupElement":
        # M^H J M = J  gives  M^{-1} = J^{-1} M^H J, and J is involutive.
        mh = np.conj(self.matrix).T
        return GroupElement(SIEGEL @ mh @ SIEGEL)

    def apply(self, v):
        return self.matrix @ _data(v)

    @property
    def trace(self):
        return self.matrix[0, 0] + self.matrix[1, 1] + self.matrix[2, 2]


def identity_element() -> GroupElement:
    return GroupElement(np.eye(3, dtype=complex))


# ---------------------------------------------------------------------------
# Closed-form 3x3 eigensolver


def det3(m: np.ndarray):
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def adjugate3(m: np.ndarray) -> np.ndarray:
    c = [
        [
            m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1],
            -(m[0, 1] * m[2, 2] - m[0, 2] * m[2, 1]),
            m[0, 1] * m[1, 2] - m[0, 2] * m[1, 1],
        ],
        [
            -(m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0]),
            m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0],
            -(m[0, 0] * m[1, 2] - m[0, 2] * m[1, 0]),
        ],
        [
            m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0],
            -(m[0, 0] * m[2, 1] - m[0, 1] * m[2, 0]),
            m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0],
        ],
    ]
    return np.array(c, dtype=complex)


def solve3(m: np.ndarray, b: np.ndarray):
    """Cramer solve of a 3x3 system."""
    d = det3(m)
    if abs(d) == 0:
        raise ZeroDivisionError("singular 3x3 system")
    cols = []
    for j in range(3):
        mj = m.copy()
        mj[:, j] = b
        cols.append(det3(mj) / d)
    return np.array(cols, dtype=complex)


def _cbrt(z):
    """Principal complex cube root, of a scalar or elementwise of an array."""
    if np.ndim(z):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(z == 0, 0.0, np.exp(np.log(z) / 3.0))
    if z == 0:
        return 0.0 + 0.0j
    return cmath.exp(cmath.log(z) / 3.0)


def eigvals3(m: np.ndarray):
    """The three eigenvalues of a 3x3 complex matrix, as a list.

    Solves the cubic characteristic polynomial in closed form (Cardano).
    ``m`` may also hold ``n`` matrices as a ``(3, 3, n)`` array, entry
    ``m[i, j]`` of all of them along the last axis; each eigenvalue is then
    a length-``n`` array, rounded as elementwise numpy arithmetic rounds.
    """
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    minors = (
        m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1]
        + m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0]
        + m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    )
    det = det3(m)
    # lam^3 - tr lam^2 + minors lam - det = 0; depressing with lam = mu + s,
    # s = tr/3, gives mu^3 + p mu + q = 0:
    s = tr / 3
    p = minors - 3 * s * s
    q = minors * s - 2 * s**3 - det
    disc = (q / 2) ** 2 + (p / 3) ** 3
    w = complex(-0.5, math.sqrt(3.0) / 2)
    if np.ndim(disc):
        sq = np.sqrt(disc)
        u = _cbrt(-q / 2 + sq)
        u = np.where(np.abs(u) < 1e-30, _cbrt(-q / 2 - sq), u)
        zero = np.abs(u) < 1e-30
        with np.errstate(divide="ignore", invalid="ignore"):
            v = -p / (3 * u)
        mus = [u + v, w * u + w.conjugate() * v, w.conjugate() * u + w * v]
        return [np.where(zero, 0.0, mu) + s for mu in mus]
    sq = cmath.sqrt(disc)
    u = _cbrt(-q / 2 + sq)
    if abs(u) < 1e-30:
        u = _cbrt(-q / 2 - sq)
    if abs(u) < 1e-30:
        mus = [0 * s, 0 * s, 0 * s]
    else:
        v = -p / (3 * u)
        mus = [u + v, w * u + w.conjugate() * v, w.conjugate() * u + w * v]
    return [mu + s for mu in mus]


def _eigvec(m: np.ndarray, lam) -> np.ndarray:
    """Unit eigenvector of ``m`` for the eigenvalue ``lam``.

    Taken from the adjugate of ``m - lam*I`` and polished by one step of
    shifted inverse iteration; the norm is Euclidean.
    """
    eps = _EPS
    scale = _max_abs(m) + 1.0
    eye = np.eye(3, dtype=complex)
    a = m - lam * eye
    adj = adjugate3(a)
    norms = [float(sum(_abs2(adj[i, j]) for i in range(3))) for j in range(3)]
    jbest = int(np.argmax(norms))
    if norms[jbest] > (eps * scale * scale) ** 2:
        v = adj[:, jbest].copy()
    else:
        # Adjugate vanished: the eigenvalue has a 2-dim eigenspace. Take any
        # vector annihilated by the largest row of a.
        rn = [float(sum(_abs2(a[i, j]) for j in range(3))) for i in range(3)]
        i = int(np.argmax(rn))
        r = a[i]
        if rn[i] <= (eps * scale) ** 2:
            return np.array([1, 0, 0], dtype=complex)  # a ~ 0: anything works
        k = int(np.argmax([_abs2(x) for x in r]))
        v = np.zeros(3, dtype=complex)
        k2 = (k + 1) % 3
        v[k] = -r[k2]
        v[k2] = r[k]
    v = v / math.sqrt(sum(_abs2(x) for x in v))
    # One step of shifted inverse iteration to polish.
    shift = lam + (64 * eps * scale) * (1 if abs(lam) == 0 else lam / abs(lam))
    try:
        y = solve3(m - shift * eye, v)
        v = y / math.sqrt(sum(_abs2(x) for x in y))
    except ZeroDivisionError:
        pass
    return v


# ---------------------------------------------------------------------------
# Classification


class IsometryClass(enum.Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    LOXODROMIC = "loxodromic"


@dataclass(frozen=True)
class Classification:
    kind: IsometryClass
    discriminant: float


def trace_discriminant(tau):
    """Discriminant of the characteristic polynomial of an SU(2,1) matrix.

    For unit determinant the characteristic polynomial is
    ``x^3 - tau x^2 + conj(tau) x - 1`` and its discriminant
    ``|tau|^4 - 8 Re(tau^3) + 18 |tau|^2 - 27`` is real.  It is positive
    exactly for loxodromic classes, negative for regular elliptic ones and
    zero on the parabolic/boundary locus.  It is invariant under replacing
    ``tau`` by a cube root of unity multiple, so it does not depend on the
    choice of matrix lift.  A float for one trace, an array for an array.
    """
    a2 = _abs2(tau)
    t3 = tau * tau * tau
    disc = a2 * a2 - 8 * t3.real + 18 * a2 - 27
    return disc if isinstance(disc, np.ndarray) else float(disc)


def _degenerate_kind(m: np.ndarray) -> IsometryClass:
    """Elliptic or parabolic, from the repeated eigenvalue of ``m``."""
    lams = eigvals3(m)
    scale = _max_abs(m) + 1.0
    gaps = [
        (abs(lams[0] - lams[1]), 2), (abs(lams[1] - lams[2]), 0), (abs(lams[0] - lams[2]), 1),
    ]
    gaps.sort(key=lambda t: float(t[0]))
    spread = float(max(abs(lams[i] - lams[j]) for i in range(3) for j in range(i)))
    eye = np.eye(3, dtype=complex)
    if spread < 1e-5 * scale:
        lam = (lams[0] + lams[1] + lams[2]) / 3
        defect = _max_abs(m - lam * eye)
        return IsometryClass.ELLIPTIC if defect < 1e-8 * scale else IsometryClass.PARABOLIC
    # double root: the two closest eigenvalues
    _, odd = gaps[0]
    lam = sum(lams[i] for i in range(3) if i != odd) / 2
    adj = adjugate3(m - lam * eye)
    diagonalizable = _max_abs(adj) < 1e-6 * scale * scale
    return IsometryClass.ELLIPTIC if diagonalizable else IsometryClass.PARABOLIC


def classify_isometry(g) -> Classification:
    """Classify an isometry as elliptic, parabolic or loxodromic.

    The sign of the trace discriminant decides the regular cases.  On the
    degenerate locus (|disc| <= EPS_CLASS) the repeated eigenvalue is examined:
    a diagonalizable matrix is boundary elliptic (this covers complex
    reflections and reflections in points), a non-diagonalizable one is
    parabolic.

    ``g`` is a :class:`GroupElement`, or an ``(n, 3, 3)`` array of matrices
    classified together: then ``kind`` is a length-``n`` object array of
    :class:`IsometryClass` members and ``discriminant`` a float array.  The
    discriminants of the stack are one array expression; a row off the
    regular cases, a NaN one included, is examined as a single matrix is.
    """
    if isinstance(g, GroupElement):
        disc = trace_discriminant(g.trace)
        if disc > EPS_CLASS:
            return Classification(IsometryClass.LOXODROMIC, disc)
        if disc < -EPS_CLASS:
            return Classification(IsometryClass.ELLIPTIC, disc)
        return Classification(_degenerate_kind(g.matrix), disc)
    stack = np.asarray(g)
    disc = trace_discriminant(stack[:, 0, 0] + stack[:, 1, 1] + stack[:, 2, 2])
    kind = np.where(disc > EPS_CLASS, IsometryClass.LOXODROMIC, IsometryClass.ELLIPTIC)
    for i in np.flatnonzero(~(np.abs(disc) > EPS_CLASS)):
        kind[i] = _degenerate_kind(stack[i])
    return Classification(kind, disc)


#: least gap between the extreme eigenvalue moduli that fixed points need
_MIN_SEPARATION = 1e-6


def fixed_points_boundary(g):
    """Attractive and repulsive boundary fixed points of a loxodromic map.

    Returns ``(attractive, repulsive)`` as null lifts, unit ``(3,)`` arrays.
    Raises :class:`NearParabolicError` when the extreme eigenvalue moduli
    differ by less than ``_MIN_SEPARATION``: so close to the parabolic locus
    the eigenvectors are too ill-conditioned to certify anything.

    ``g`` may also be an ``(n, 3, 3)`` array of matrices, solved together:
    ``attractive`` and ``repulsive`` are then ``(n, 3)`` arrays, and a row
    is NaN where one matrix would raise.  Every check of the single solve is
    made row by row: the separation and null tests, the adjugate column
    (a row whose adjugate vanished takes the single solve's fallback) and
    the Cramer polish step (a row with a singular system keeps its
    unpolished vector).  Elementwise numpy arithmetic rounds unlike the
    scalar arithmetic of one matrix, so the two paths agree to rounding,
    not bit for bit.
    """
    if isinstance(g, GroupElement):
        lams = eigvals3(g.matrix)
        order = sorted(range(3), key=lambda i: -float(abs(lams[i])))
        hi, lo = order[0], order[2]
        sep = float(abs(lams[hi]) - abs(lams[lo]))
        if sep < _MIN_SEPARATION:
            raise NearParabolicError(
                f"eigenvalue moduli differ by {sep:.3e} < {_MIN_SEPARATION:.1e}; "
                "refusing fixed points this close to the parabolic locus"
            )
        att = _eigvec(g.matrix, lams[hi])
        rep = _eigvec(g.matrix, lams[lo])
        for v in (att, rep):
            if norm_type(v) is not NormType.NULL:
                raise GeometryError("loxodromic fixed point lift is not null")
        return att, rep
    stack = np.asarray(g, dtype=complex)
    n = len(stack)
    # 0/0 and inf - inf make NaN rows, which the checks below refuse
    with np.errstate(divide="ignore", invalid="ignore"):
        lams = np.stack(eigvals3(stack.transpose(1, 2, 0)), axis=1)
        mods = np.abs(lams)
        # a stable sort by decreasing modulus, as ``sorted`` orders one matrix
        order = np.argsort(-mods, axis=1, kind="stable")
        rows = np.arange(n)
        hi, lo = order[:, 0], order[:, 2]
        near = mods[rows, hi] - mods[rows, lo] < _MIN_SEPARATION
        # both eigenvectors of every row as one batch: attractive, then repulsive
        mats = np.concatenate([stack, stack])
        lam = np.concatenate([lams[rows, hi], lams[rows, lo]])
        eye = np.eye(3)
        scale = np.max(np.abs(mats), axis=(1, 2)) + 1.0
        a = mats - lam[:, None, None] * eye
        adj = adjugate3(a.transpose(1, 2, 0))
        norms = _abs2(adj).sum(axis=0)
        best = np.argmax(norms, axis=0)
        batch = np.arange(2 * n)
        vecs = adj[:, best, batch].T
        vecs = vecs / np.sqrt(_abs2(vecs).sum(axis=1))[:, None]
        # one step of shifted inverse iteration, by Cramer's rule
        mod = np.abs(lam)
        phase = np.divide(lam, mod, out=np.ones_like(lam), where=mod != 0)
        shift = lam + (64 * _EPS) * scale * phase
        shifted = (mats - shift[:, None, None] * eye).transpose(1, 2, 0)
        det = det3(shifted)
        singular = det == 0
        cols = []
        for j in range(3):
            mj = shifted.copy()
            mj[:, j] = vecs.T
            cols.append(det3(mj) / np.where(singular, 1.0, det))
        y = np.stack(cols, axis=1)
        y = y / np.sqrt(_abs2(y).sum(axis=1))[:, None]
        vecs = np.where(singular[:, None], vecs, y)
        # an adjugate that vanished: the single solve's fallback, row by row
        for k in np.flatnonzero(~(norms[best, batch] > (_EPS * scale * scale) ** 2)):
            vecs[k] = _eigvec(mats[k], lam[k])
        # the null test of ``norm_type``: <v, v> within EPS_ALG of 0 relative to |v|^2
        size = _abs2(vecs).sum(axis=1)
        rel = (np.conj(vecs) * (vecs @ SIEGEL)).sum(axis=1).real / size
        bad = (size == 0) | (np.abs(rel) > EPS_ALG)
        failed = near | bad[:n] | bad[n:]
        vecs[np.concatenate([failed, failed])] = np.nan
    return vecs[:n], vecs[n:]


def complex_reflection_from_polar(c) -> GroupElement:
    """Complex reflection (order 2) fixing the geodesic polar to ``c``.

    ``M = -I + 2 c c^H J / <c,c>``; requires a positive-type polar vector.
    """
    c = _data(c)
    cc = hermitian_product(c, c)
    if cc.real <= 0:
        raise GeometryError("polar vector of a complex reflection must be positive type")
    outer = np.outer(c, np.conj(c) @ SIEGEL)
    return GroupElement(-np.eye(3, dtype=complex) + (2 / cc) * outer)


# ---------------------------------------------------------------------------
# Projective comparison


def projective_distance(v, w) -> float:
    """Scale-invariant distance between lines: ||v x w|| / (||v|| ||w||)."""
    v = _data(v)
    w = _data(w)
    cross = np.array(
        [
            v[1] * w[2] - v[2] * w[1],
            v[2] * w[0] - v[0] * w[2],
            v[0] * w[1] - v[1] * w[0],
        ]
    )
    nv = math.sqrt(sum(_abs2(x) for x in v))
    nw = math.sqrt(sum(_abs2(x) for x in w))
    nc = math.sqrt(sum(_abs2(x) for x in cross))
    return float(nc / (nv * nw))


_CUBE_ROOTS = (1.0 + 0.0j, complex(-0.5, np.sqrt(3) / 2), complex(-0.5, -np.sqrt(3) / 2))


def matrix_phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Distance between SU(2,1) matrices up to a cube-root-of-unity phase."""
    a = np.asarray(a)
    b = np.asarray(b)
    scale = max(_max_abs(a), _max_abs(b), 1e-300)
    return min(_max_abs(a - w * b) for w in _CUBE_ROOTS) / scale

