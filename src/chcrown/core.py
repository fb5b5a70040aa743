"""Linear-algebra core for the complex hyperbolic plane.

Points of the complex hyperbolic plane are negative lines in C^{2,1}; its
ideal boundary consists of the null lines.  Everything is measured against
one Hermitian form, the **Siegel** form ``SIEGEL`` of signature (2,1) with
anti-diagonal blocks, where the boundary minus a point at infinity carries
Heisenberg coordinates (see :mod:`chcrown.heisenberg`).  Vectors of C^3 are
plain ``(3,)`` arrays, and stacks of them ``(n, 3)`` arrays.

This module provides the form, Hermitian/box products, holomorphic
isometries as 3x3 matrices, a closed-form eigensolver for 3x3 complex
matrices, trace-based classification of isometries, boundary fixed points,
complex reflections, and projective comparison of vectors and matrices.
Everything here works in double precision: ``complex128`` arrays and
``float``/``complex`` scalars.  The eigen arithmetic has one path: matrices
are classified and solved as ``(n, 3, 3)`` stacks, and a single
:class:`GroupElement` as the one-row stack of its matrix.  The products and
distances take stacks row by row too, and round each row as they round a
lone vector or matrix.
The form, group products, inverses, ``det3``, complex reflections and the
trace discriminant use plain arithmetic only, so they also run on object
arrays of extended-precision scalars; the extended path of
:mod:`chcrown.triangle` relies on that.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

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
    """Fixed-point extraction refused: the eigenvalue moduli nearly tie, or a lift is not null."""


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


def _vectors(v) -> np.ndarray:
    """``v`` as 3-vectors on the last axis: one ``(3,)`` vector or a stack of them."""
    a = np.asarray(v)
    if a.ndim == 0 or a.shape[-1] != 3:
        raise GeometryError(f"expected 3-vectors, got shape {a.shape}")
    return a


def hermitian_product(v, w):
    """<v, w> = w^H J v (linear in v, conjugate-linear in w).

    Of two 3-vectors, or row by row of two stacks of them.  ``J`` reverses
    the coordinates, so ``J v`` is read off ``v`` without a matrix product.
    """
    return (np.conj(_vectors(w)) * _vectors(v)[..., ::-1]).sum(axis=-1)


def _abs2(x):
    """|x|^2 without the square root, rounded as ``re*re + im*im``."""
    return x.real * x.real + x.imag * x.imag


def _max_abs(a: np.ndarray) -> float:
    """Largest modulus of the entries, one scalar ``abs`` each."""
    return max(float(abs(x)) for x in np.asarray(a).ravel())


#: the norm types by the sign of ``<v, v>``, ``-1`` first
_NORM_TYPES = np.array([NormType.NEGATIVE, NormType.NULL, NormType.POSITIVE], dtype=object)


def norm_type(v):
    """Sign of <v, v> relative to |v|^2, null within ``EPS_ALG``: point, boundary or polar.

    Of one 3-vector, answered with one member, or of each row of an
    ``(n, 3)`` stack, answered with an object array of members.
    """
    rows = _vectors(v).reshape(-1, 3)
    scale = _abs2(rows).sum(axis=1)
    if np.any(scale == 0):
        raise GeometryError("zero vector has no norm type")
    rel = hermitian_product(rows, rows).real / scale
    kind = _NORM_TYPES[(rel > EPS_ALG).astype(int) - (rel < -EPS_ALG) + 1]
    return kind[0] if np.ndim(v) == 1 else kind


def _cross_rows(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The cross product ``v x w`` of each row of two ``(..., 3)`` arrays,
    each product rounded as a product of two complex scalars rounds."""
    ahead, behind = [1, 2, 0], [2, 0, 1]
    return _cmul(v[..., ahead], w[..., behind]) - _cmul(v[..., behind], w[..., ahead])


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex product rounded as a product of two complex scalars rounds.

    numpy's array loop may fuse the multiply-add of a complex product; this
    forms each part from separately rounded real products.
    """
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def box_product(v, w):
    """Hermitian cross product: a vector orthogonal to both v and w.

    For distinct null vectors v, w it is the polar vector of the unique
    complex geodesic joining the two boundary points.  Of two 3-vectors, or
    row by row of two stacks of them.
    """
    return np.conj(_cross_rows(_vectors(v), _vectors(w)))[..., ::-1]


@dataclass(frozen=True, eq=False)
class GroupElement:
    """A holomorphic isometry: a matrix preserving the Siegel form.

    The product, inverse and :meth:`apply` also take an ``(n, 3, 3)`` stack
    of matrices, row by row, each rounding as one matrix does.
    """

    matrix: np.ndarray

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.matrix @ other.matrix)

    def inverse(self) -> "GroupElement":
        # M^H J M = J  gives  M^{-1} = J^{-1} M^H J, and J is involutive.
        mh = np.conj(self.matrix).swapaxes(-1, -2)
        return GroupElement(SIEGEL @ mh @ SIEGEL)

    def apply(self, v):
        """The image of a 3-vector, or of each row of a stack of them."""
        return _apply(self.matrix, _vectors(v))

    @property
    def trace(self):
        return self.matrix[0, 0] + self.matrix[1, 1] + self.matrix[2, 2]


def _apply(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``m @ v`` row by row: a matrix or an ``(n, 3, 3)`` stack applied to a
    ``(3,)`` vector or an ``(n, 3)`` stack; every row is one matrix-vector
    product, so it rounds as a lone vector's does."""
    return (m @ v[..., None])[..., 0]


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


def _cbrt(z: np.ndarray) -> np.ndarray:
    """Principal complex cube root, elementwise; 0 where ``z`` is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(z == 0, 0.0, np.exp(np.log(z) / 3.0))


def eigvals3(m: np.ndarray):
    """The eigenvalues of ``n`` complex 3x3 matrices, as a list of three arrays.

    ``m`` is a ``(3, 3, n)`` array, entry ``m[i, j]`` of all ``n`` matrices
    along the last axis, and each eigenvalue is a length-``n`` array.  The
    cubic characteristic polynomial is solved in closed form (Cardano), in
    elementwise numpy arithmetic.
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
    sq = np.sqrt(disc)
    u = _cbrt(-q / 2 + sq)
    u = np.where(np.abs(u) < 1e-30, _cbrt(-q / 2 - sq), u)
    zero = np.abs(u) < 1e-30
    with np.errstate(divide="ignore", invalid="ignore"):
        v = -p / (3 * u)
    mus = [u + v, w * u + w.conjugate() * v, w.conjugate() * u + w * v]
    return [np.where(zero, 0.0, mu) + s for mu in mus]


def _eigvec(a: np.ndarray, scale: float) -> np.ndarray:
    """An eigenvector where the adjugate of ``a = m - lam*I`` vanished.

    The eigenvalue then has a 2-dim eigenspace, and any vector annihilated
    by the largest row of ``a`` lies in it.  ``scale`` is the largest entry
    modulus of ``m`` plus one.
    """
    rn = _abs2(a).sum(axis=1)
    i = int(np.argmax(rn))
    if rn[i] <= (_EPS * scale) ** 2:
        return np.array([1, 0, 0], dtype=complex)  # a ~ 0: anything works
    r = a[i]
    k = int(np.argmax(_abs2(r)))
    k2 = (k + 1) % 3
    v = np.zeros(3, dtype=complex)
    v[k] = -r[k2]
    v[k2] = r[k]
    return v


# ---------------------------------------------------------------------------
# Classification


class IsometryClass(enum.Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    LOXODROMIC = "loxodromic"


@dataclass(frozen=True)
class Classification:
    #: ``None`` where the matrix is not finite: such a row has no class
    kind: Optional[IsometryClass]
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
    lams = [lam[0] for lam in eigvals3(m[..., None])]
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
    """Classify isometries as elliptic, parabolic or loxodromic.

    ``g`` is an ``(n, 3, 3)`` array of matrices: ``kind`` is then a
    length-``n`` object array of :class:`IsometryClass` members and
    ``discriminant`` a float array.  A :class:`GroupElement` is classified
    as the one-row stack of its matrix, and answered with one member and
    one float.

    The sign of the trace discriminant decides the regular cases, as one
    array expression.  On the degenerate locus (|disc| <= EPS_CLASS, or NaN)
    the repeated eigenvalue of the row is examined: a diagonalizable matrix
    is boundary elliptic (this covers complex reflections and reflections in
    points), a non-diagonalizable one is parabolic.  A row with a NaN or
    infinite entry gets no class: its kind is ``None`` and its discriminant
    NaN, so no test for a class passes on it.
    """
    one = isinstance(g, GroupElement)
    stack = g.matrix[None] if one else np.asarray(g)
    finite = np.isfinite(stack).all(axis=(1, 2))
    disc = trace_discriminant(stack[:, 0, 0] + stack[:, 1, 1] + stack[:, 2, 2])
    disc = np.where(finite, disc, np.nan)
    kind = np.where(disc > EPS_CLASS, IsometryClass.LOXODROMIC, IsometryClass.ELLIPTIC)
    kind[~finite] = None
    for i in np.flatnonzero(finite & ~(np.abs(disc) > EPS_CLASS)):
        kind[i] = _degenerate_kind(stack[i])
    if one:
        return Classification(kind[0], float(disc[0]))
    return Classification(kind, disc)


#: least gap between the extreme eigenvalue moduli that fixed points need
_MIN_SEPARATION = 1e-6


def fixed_points_boundary(g):
    """Attractive and repulsive boundary fixed points of loxodromic maps.

    ``g`` is an ``(n, 3, 3)`` array of matrices, solved together:
    ``attractive`` and ``repulsive`` are ``(n, 3)`` arrays of unit null
    lifts.  A row is NaN where its extreme eigenvalue moduli differ by less
    than ``_MIN_SEPARATION`` (so close to the parabolic locus the
    eigenvectors are too ill-conditioned to certify anything), where a lift
    is not null within ``EPS_ALG``, or where the matrix is not finite.  A
    :class:`GroupElement` is solved as the one-row stack of its matrix and
    answered with two ``(3,)`` arrays, or :class:`NearParabolicError` where
    its row is NaN.

    Each eigenvector is the largest column of the adjugate of ``m - lam*I``,
    or :func:`_eigvec` where that adjugate vanished, polished by one step of
    shifted inverse iteration (a row with a singular system keeps its
    unpolished vector); the norm is Euclidean.
    """
    one = isinstance(g, GroupElement)
    stack = np.asarray(g.matrix[None] if one else g, dtype=complex)
    n = len(stack)
    # 0/0 and inf - inf make NaN rows, which the checks below refuse
    with np.errstate(divide="ignore", invalid="ignore"):
        lams = np.stack(eigvals3(stack.transpose(1, 2, 0)), axis=1)
        mods = np.abs(lams)
        order = np.argsort(-mods, axis=1, kind="stable")
        rows = np.arange(n)
        hi, lo = order[:, 0], order[:, 2]
        near = ~(mods[rows, hi] - mods[rows, lo] >= _MIN_SEPARATION)
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
        for k in np.flatnonzero(norms[best, batch] <= (_EPS * scale * scale) ** 2):
            vecs[k] = _eigvec(a[k], scale[k])
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
        # the null test of ``norm_type``: <v, v> within EPS_ALG of 0 relative to |v|^2
        rel = (np.conj(vecs) * (vecs @ SIEGEL)).sum(axis=1).real / _abs2(vecs).sum(axis=1)
        bad = ~(np.abs(rel) <= EPS_ALG)
        failed = near | bad[:n] | bad[n:]
        vecs[np.concatenate([failed, failed])] = np.nan
    if one:
        return _fixed_row(vecs[:n], vecs[n:], 0)
    return vecs[:n], vecs[n:]


def _fixed_row(att: np.ndarray, rep: np.ndarray, k: int):
    """Row ``k`` of a stacked :func:`fixed_points_boundary`, refusing a NaN row."""
    if np.isnan(att[k]).any() or np.isnan(rep[k]).any():
        raise NearParabolicError(
            f"no boundary fixed points: the extreme eigenvalue moduli differ by less "
            f"than {_MIN_SEPARATION:.1e}, or a fixed point lift is not null"
        )
    return att[k], rep[k]


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


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean length of each row, the squares summed left to right."""
    s = _abs2(v)
    return np.sqrt(s[:, 0] + s[:, 1] + s[:, 2])


def projective_distance(v, w):
    """Scale-invariant distance between lines: ||v x w|| / (||v|| ||w||).

    ``v`` and ``w`` are ``(n, 3)`` stacks, answered with an array of ``n``
    distances, or ``(3,)`` vectors, answered as a one-row stack with a float.
    The cross product is taken in real arithmetic, so each entry rounds as
    a product of two complex scalars does, never fused.
    """
    one = np.ndim(v) == 1 and np.ndim(w) == 1
    v, w = _vectors(v).reshape(-1, 3), _vectors(w).reshape(-1, 3)
    out = _row_norms(_cross_rows(v, w)) / (_row_norms(v) * _row_norms(w))
    return float(out[0]) if one else out


_CUBE_ROOTS = (1.0 + 0.0j, complex(-0.5, np.sqrt(3) / 2), complex(-0.5, -np.sqrt(3) / 2))


def matrix_phase_distance(a, b):
    """Distance between SU(2,1) matrices up to a cube-root-of-unity phase.

    ``a`` and ``b`` are ``(n, 3, 3)`` stacks (one of them may be a single
    matrix, broadcast), answered with an array of ``n`` distances, or two
    ``(3, 3)`` matrices, answered as a one-row stack with a float.  Each
    modulus is ``hypot`` of the parts, as ``abs`` of one complex scalar is,
    and a NaN anywhere in a row makes its distance NaN.
    """
    one = np.ndim(a) == 2 and np.ndim(b) == 2
    a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
    a, b = a.reshape(-1, 3, 3), b.reshape(-1, 3, 3)
    # rows: a, b, then a - w b for the three cube roots w
    m = np.concatenate([a[None], b[None], a - np.reshape(_CUBE_ROOTS, (3, 1, 1, 1)) * b])
    big = np.max(np.hypot(m.real, m.imag), axis=(2, 3))
    scale = np.maximum(np.maximum(big[0], big[1]), 1e-300)
    dist = np.min(big[2:], axis=0)
    out = dist / scale
    return float(out[0]) if one else out
