"""Linear-algebra core for the complex hyperbolic plane.

Points of the complex hyperbolic plane are negative lines in C^{2,1}; its
ideal boundary consists of the null lines.  Everything is measured against
the **Siegel** Hermitian form of signature (2,1), with anti-diagonal blocks,
where the boundary minus a point at infinity carries Heisenberg coordinates
(see :mod:`chcrown.heisenberg`).

This module provides the form, Hermitian/box products, holomorphic
isometries as 3x3 matrices, a closed-form eigensolver for 3x3 complex
matrices, trace-based classification of isometries, boundary fixed points,
complex reflections, and the distance function.  Everything here works in
double precision: ``complex128`` arrays and ``float``/``complex`` scalars.
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
#   EPS_GEO     geometric incidence (memberships, intersections)
#   EPS_TANGENT separating "tangent" from "meets"/"disjoint" in sphere tests
EPS_ALG = 1e-10
EPS_CLASS = 1e-8
EPS_GEO = 1e-9
EPS_TANGENT = 1e-5


class GeometryError(ValueError):
    """A geometric precondition failed (wrong norm type, bad model, ...)."""


class NearParabolicError(GeometryError):
    """Fixed-point extraction refused because eigenvalue moduli nearly tie."""


class Model(enum.Enum):
    BALL = "ball"
    SIEGEL = "siegel"


class NormType(enum.Enum):
    NEGATIVE = -1
    NULL = 0
    POSITIVE = 1


@dataclass(frozen=True)
class HermitianForm:
    """A Hermitian form of signature (2,1) on C^3, tagged with its model."""

    matrix: np.ndarray
    model: Model

    def product(self, v, w):
        """<v, w> = w^H J v (linear in v, conjugate-linear in w)."""
        v = _data(v)
        w = _data(w)
        jv = self.matrix @ v
        return (np.conj(w) * jv).sum()


SIEGEL_FORM = HermitianForm(
    np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex), Model.SIEGEL
)


def _data(v) -> np.ndarray:
    if isinstance(v, Vector3C):
        return v.data
    a = np.asarray(v)
    if a.shape != (3,):
        raise GeometryError(f"expected a 3-vector, got shape {a.shape}")
    return a


@dataclass(frozen=True, eq=False)
class Vector3C:
    """A vector in C^3 together with the form it should be measured against.

    The projective class of a negative vector is a point of the complex
    hyperbolic plane, a null vector is an ideal boundary point, and a
    positive vector is the polar of a complex geodesic.
    """

    data: np.ndarray
    form: HermitianForm = SIEGEL_FORM

    def __post_init__(self):
        object.__setattr__(self, "data", _data(self.data))

    @property
    def norm_type(self) -> NormType:
        return norm_type(self.data, self.form)

    def __array__(self, dtype=None):
        return np.asarray(self.data, dtype=dtype)

    def __repr__(self):
        return f"Vector3C({list(self.data)}, {self.form.model.value})"


def hermitian_product(v, w, form: HermitianForm = SIEGEL_FORM):
    return form.product(v, w)


def _abs2(x):
    """|x|^2 without the square root, rounded as ``re*re + im*im``."""
    return x.real * x.real + x.imag * x.imag


def _max_abs(a: np.ndarray) -> float:
    """Largest modulus of the entries, one scalar ``abs`` each."""
    return max(float(abs(x)) for x in np.asarray(a).ravel())


def norm_type(v, form: HermitianForm = SIEGEL_FORM, tol: float = EPS_ALG) -> NormType:
    v = _data(v)
    s = form.product(v, v)
    scale = sum(_abs2(x) for x in v)
    if scale == 0:
        raise GeometryError("zero vector has no norm type")
    rel = float(s.real) / float(scale)
    if rel > tol:
        return NormType.POSITIVE
    if rel < -tol:
        return NormType.NEGATIVE
    return NormType.NULL


def box_product(v, w, form: HermitianForm = SIEGEL_FORM):
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
    return form.matrix @ np.conj(cross)


@dataclass(frozen=True, eq=False)
class GroupElement:
    """A holomorphic isometry: a matrix preserving the given Hermitian form."""

    matrix: np.ndarray
    form: HermitianForm = SIEGEL_FORM
    word: str = ""

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        if other.form.model is not self.form.model:
            raise GeometryError("cannot compose isometries of different models")
        return GroupElement(self.matrix @ other.matrix, self.form,
                            f"{self.word}{other.word}")

    def inverse(self) -> "GroupElement":
        # M^H J M = J  gives  M^{-1} = J^{-1} M^H J; both forms are involutive.
        j = self.form.matrix
        mh = np.conj(self.matrix).T
        return GroupElement(j @ mh @ j, self.form, _invert_word(self.word))

    def apply(self, v):
        if isinstance(v, Vector3C):
            return Vector3C(self.matrix @ v.data, self.form)
        return self.matrix @ _data(v)

    @property
    def trace(self):
        return self.matrix[0, 0] + self.matrix[1, 1] + self.matrix[2, 2]

    def det(self):
        return det3(self.matrix)

    def __repr__(self):
        tag = self.word or "?"
        return f"GroupElement<{tag}, {self.form.model.value}>"


def _invert_word(word: str) -> str:
    return f"({word})^-1" if word else ""


def identity_element(form: HermitianForm = SIEGEL_FORM) -> GroupElement:
    return GroupElement(np.eye(3, dtype=complex), form, "")


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
    """Principal complex cube root."""
    if z == 0:
        return 0.0 + 0.0j
    return cmath.exp(cmath.log(z) / 3.0)


def eig3(m: np.ndarray):
    """Eigenvalues and eigenvectors of a 3x3 complex matrix.

    The eigenvalues come from :func:`eigvals3`; each eigenvector is taken
    from the adjugate of ``m - lam*I`` and polished by one step of shifted
    inverse iteration.  Returns ``(eigenvalues, eigenvectors)`` as a list of
    3 scalars and a list of 3 unit vectors (Euclidean norm).
    """
    lams = eigvals3(m)
    return lams, [_eigvec(m, lam) for lam in lams]


def eigvals3(m: np.ndarray):
    """The three eigenvalues of a 3x3 complex matrix, as a list.

    Solves the cubic characteristic polynomial in closed form (Cardano).
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
    sq = cmath.sqrt(disc)
    u = _cbrt(-q / 2 + sq)
    if abs(u) < 1e-30:
        u = _cbrt(-q / 2 - sq)
    if abs(u) < 1e-30:
        mus = [0 * s, 0 * s, 0 * s]
    else:
        v = -p / (3 * u)
        w = complex(-0.5, math.sqrt(3.0) / 2)
        mus = [u + v, w * u + w.conjugate() * v, w.conjugate() * u + w * v]
    return [mu + s for mu in mus]


def _eigvec(m: np.ndarray, lam) -> np.ndarray:
    """Unit eigenvector of ``m`` for the eigenvalue ``lam``."""
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
    regular: bool
    discriminant: float
    trace: complex

    def __str__(self):
        reg = "regular " if self.regular else ""
        return f"{reg}{self.kind.value} (disc={self.discriminant:.3e})"


def trace_discriminant(tau) -> float:
    """Discriminant of the characteristic polynomial of an SU(2,1) matrix.

    For unit determinant the characteristic polynomial is
    ``x^3 - tau x^2 + conj(tau) x - 1`` and its discriminant
    ``|tau|^4 - 8 Re(tau^3) + 18 |tau|^2 - 27`` is real.  It is positive
    exactly for loxodromic classes, negative for regular elliptic ones and
    zero on the parabolic/boundary locus.  It is invariant under replacing
    ``tau`` by a cube root of unity multiple, so it does not depend on the
    choice of matrix lift.
    """
    a2 = _abs2(tau)
    t3 = tau * tau * tau
    return float(a2 * a2 - 8 * t3.real + 18 * a2 - 27)


def classify_isometry(g: GroupElement, eps: float = EPS_CLASS) -> Classification:
    """Classify an isometry as elliptic, parabolic or loxodromic.

    The sign of the trace discriminant decides the regular cases.  On the
    degenerate locus (|disc| <= eps) the repeated eigenvalue is examined:
    a diagonalizable matrix is boundary elliptic (this covers complex
    reflections and reflections in points), a non-diagonalizable one is
    parabolic.
    """
    tau = g.trace
    disc = trace_discriminant(tau)
    if disc > eps:
        return Classification(IsometryClass.LOXODROMIC, True, disc, complex(tau))
    if disc < -eps:
        return Classification(IsometryClass.ELLIPTIC, True, disc, complex(tau))

    lams = eigvals3(g.matrix)
    scale = _max_abs(g.matrix) + 1.0
    gaps = [
        (abs(lams[0] - lams[1]), 2), (abs(lams[1] - lams[2]), 0), (abs(lams[0] - lams[2]), 1),
    ]
    gaps.sort(key=lambda t: float(t[0]))
    spread = float(max(abs(lams[i] - lams[j]) for i in range(3) for j in range(i)))
    eye = np.eye(3, dtype=complex)
    if spread < 1e-5 * scale:
        lam = (lams[0] + lams[1] + lams[2]) / 3
        defect = _max_abs(g.matrix - lam * eye)
        kind = IsometryClass.ELLIPTIC if defect < 1e-8 * scale else IsometryClass.PARABOLIC
        return Classification(kind, False, disc, complex(tau))
    # double root: the two closest eigenvalues
    _, odd = gaps[0]
    lam = sum(lams[i] for i in range(3) if i != odd) / 2
    adj = adjugate3(g.matrix - lam * eye)
    diagonalizable = _max_abs(adj) < 1e-6 * scale * scale
    kind = IsometryClass.ELLIPTIC if diagonalizable else IsometryClass.PARABOLIC
    return Classification(kind, False, disc, complex(tau))


def fixed_points_boundary(g: GroupElement, min_separation: float = 1e-6):
    """Attractive and repulsive boundary fixed points of a loxodromic map.

    Returns ``(attractive, repulsive)`` as null :class:`Vector3C` lifts.
    Raises :class:`NearParabolicError` when the extreme eigenvalue moduli
    differ by less than ``min_separation``: so close to the parabolic locus
    the eigenvectors are too ill-conditioned to certify anything.
    """
    lams = eigvals3(g.matrix)
    order = sorted(range(3), key=lambda i: -float(abs(lams[i])))
    hi, lo = order[0], order[2]
    sep = float(abs(lams[hi]) - abs(lams[lo]))
    if sep < min_separation:
        raise NearParabolicError(
            f"eigenvalue moduli differ by {sep:.3e} < {min_separation:.1e}; "
            "refusing fixed points this close to the parabolic locus"
        )
    att = Vector3C(_eigvec(g.matrix, lams[hi]), g.form)
    rep = Vector3C(_eigvec(g.matrix, lams[lo]), g.form)
    for v in (att, rep):
        if v.norm_type is not NormType.NULL:
            raise GeometryError("loxodromic fixed point lift is not null")
    return att, rep


def axis_polar(g: GroupElement):
    """Polar vector of the complex geodesic spanned by a loxodromic axis."""
    att, rep = fixed_points_boundary(g)
    return Vector3C(box_product(att.data, rep.data, g.form), g.form)


def complex_reflection_from_polar(c, form: HermitianForm = SIEGEL_FORM,
                                  word: str = "") -> GroupElement:
    """Complex reflection (order 2) fixing the geodesic polar to ``c``.

    ``M = -I + 2 c c^H J / <c,c>``; requires a positive-type polar vector.
    """
    c = _data(c)
    cc = form.product(c, c)
    if cc.real <= 0:
        raise GeometryError("polar vector of a complex reflection must be positive type")
    j = form.matrix
    outer = np.outer(c, np.conj(c) @ j)
    return GroupElement(-np.eye(3, dtype=complex) + (2 / cc) * outer, form, word)


# ---------------------------------------------------------------------------
# Distance and projective comparison


def distance(p, q, form: HermitianForm = SIEGEL_FORM):
    """Distance between two points, via cosh^2(d/2) = |<p,q>|^2/(<p,p><q,q>).

    Both arguments must be negative-type lifts.  The squared-cosh form is
    used so no intermediate square root of a near-1 quantity is taken; the
    ratio is clamped to [1, inf) before acosh.
    """
    p = _data(p)
    q = _data(q)
    pp = form.product(p, p).real
    qq = form.product(q, q).real
    if pp >= 0 or qq >= 0:
        raise GeometryError("distance needs negative-type lifts")
    pq = form.product(p, q)
    ratio = _abs2(pq) / (pp * qq)
    if ratio < 1.0:
        ratio = 1.0
    return 2.0 * math.acosh(math.sqrt(float(ratio)))


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


def projectively_equal(v, w, tol: float = EPS_ALG) -> bool:
    return projective_distance(v, w) < tol


_CUBE_ROOTS = (1.0 + 0.0j, complex(-0.5, np.sqrt(3) / 2), complex(-0.5, -np.sqrt(3) / 2))


def matrix_phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Distance between SU(2,1) matrices up to a cube-root-of-unity phase."""
    a = np.asarray(a)
    b = np.asarray(b)
    scale = max(_max_abs(a), _max_abs(b), 1e-300)
    return min(_max_abs(a - w * b) for w in _CUBE_ROOTS) / scale

