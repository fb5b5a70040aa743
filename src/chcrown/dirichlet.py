"""Eight-bisector Dirichlet boundary configuration for the deformation family.

The center ``p0`` is the common fixed point of the first two reflections; its
lift ``Q0 = [-1, 0, 1]`` is parameter-independent, so the eight defining
isometries ``w_k`` give spinal spheres ``S_k = {|<p, Q0>| = |<p, w_k Q0>|}``
directly, with no eigenvector extraction anywhere.  Every sphere bisects
this one centre, so ``Q0`` is a module constant here, not sphere data.

The spheres are indexed canonically by their defining words

    w_1, w_3, w_5, w_7 = g2^0 g1, g2^1 g1, g2^2 g1, g2^3 g1
    w_2, w_4, w_6, w_8 = g2^0 g3^-1, g2^1 g3^-1, g2^2 g3^-1, g2^3 g3^-1

so that the rotation g2 acts as k -> k + 2 (mod 8).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from .core import (
    GeometryError,
    SIEGEL,
    _abs2,
    _apply,
    _cmul,
    box_product,
    det3,
    hermitian_product,
    matrix_phase_distance,
    projective_distance,
)
from .triangle import Q0, GeneratorSet, build_generators, involution_word

CANONICAL_INDICES = tuple(range(1, 9))


def canonical_index(k: int) -> int:
    r = k % 8
    return 8 if r == 0 else r


def defining_word(k: int) -> str:
    """Word for the k-th sphere center image, canonical indexing."""
    k = canonical_index(k)
    if k % 2 == 1:
        power = (k - 1) // 2
        return " ".join(["g2"] * power + ["g1"])
    power = (k - 2) // 2
    return " ".join(["g2"] * power + ["g3^-1"])


def _row_form(u: np.ndarray) -> np.ndarray:
    """Row r with <p, u> = r @ p for the Siegel form."""
    return np.conj(u) @ SIEGEL


#: the row form of the centre lift, shared by every sphere
_RU = _row_form(Q0)
_Q0_NORM = complex(hermitian_product(Q0, Q0)).real
#: ``|det[Q0, v_j, v_k]|`` over the product of the three lengths below this
#: puts the two defining points on one complex line with the centre
_COLLINEAR = 1e-9

_SHADOW_PAD = 1.6
_SHADOW_DOUBLINGS = 12
#: error bound of :meth:`DirichletConfig.ring_quadratics`, relative to the
#: absolute sums of its ring coefficients
_RING_GUARD = 1e-10


@dataclass(frozen=True)
class SpinalSphere:
    """Boundary sphere of the bisector between the centre ``Q0`` and ``v``.

    The side function ``|<p,Q0>|^2 - |<p,v>|^2`` is negative on the centre's
    side, positive strictly inside the sphere (the ``v`` side), zero on it.
    ``v`` must have ``Q0``'s self-product for this to be the true
    equidistance locus; the constructor enforces that, and refuses a
    non-finite ``v``, whose self-product is NaN or infinite.
    """

    index: int
    v: np.ndarray
    _rv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        nv = complex(hermitian_product(self.v, self.v)).real
        if not abs(nv - _Q0_NORM) <= 1e-9 * abs(_Q0_NORM):  # NaN fails too
            raise GeometryError("a bisector lift must have the centre's self-product")
        object.__setattr__(self, "_rv", _row_form(self.v))

    def side_of_lifts(self, points: np.ndarray) -> np.ndarray:
        """Side values for an (n, 3) array of lift vectors; column ``index - 1``
        of :meth:`DirichletConfig.side_matrix`, bit for bit."""
        near, far = _norm2_products(np.stack([_RU, self._rv]), points)
        return near - far

    def vertical_quadratic(self, z: np.ndarray):
        """Coefficients (A, B, C) of the side function on vertical lines.

        Restricted to the line over ``z`` the side function of the standard
        lift ``[(-|z|^2 + i v)/2, z, 1]`` is the real quadratic
        ``A v^2 + B(z) v + C(z)``; ``A = (|Q0_3|^2 - |v_3|^2)/4`` is constant,
        and ``A = 0`` exactly when the sphere passes through infinity.
        """
        z = np.asarray(z, dtype=complex)
        au = _RU[0] * (-(z.real**2 + z.imag**2)) / 2.0 + _RU[1] * z + _RU[2]
        av = self._rv[0] * (-(z.real**2 + z.imag**2)) / 2.0 + self._rv[1] * z + self._rv[2]
        A = (abs(_RU[0]) ** 2 - abs(self._rv[0]) ** 2) / 4.0
        B = -(np.conj(au) * _RU[0]).imag + (np.conj(av) * self._rv[0]).imag
        C = (au * np.conj(au) - av * np.conj(av)).real
        return A, B, C

    def spine_endpoints(self) -> Tuple[np.ndarray, np.ndarray]:
        """Null lifts of the sphere's two poles (ideal endpoints of the spine).

        These are the null combinations ``Q0 + c v`` that are also
        equidistant, which forces ``|c| = 1`` and ``Re(c <v,u>) = 2``; they
        lie on the sphere itself, unlike the endpoints of the geodesic
        through the two defining points.
        """
        pairing = complex(hermitian_product(self.v, Q0))
        rho = abs(pairing)
        if rho <= 2.0 + 1e-12:
            raise GeometryError("bisector points coincide or are too close")
        disc = math.sqrt(rho * rho - 4.0)
        cplus = (2.0 + 1j * disc) / pairing
        cminus = (2.0 - 1j * disc) / pairing
        return Q0 + cplus * self.v, Q0 + cminus * self.v

    def shadow_window(self):
        """Axis-aligned (x, y) box containing the sphere's vertical shadow.

        Starts from the spine endpoints, padded by ``_SHADOW_PAD``, and
        doubles, at most ``_SHADOW_DOUBLINGS`` times, until the discriminant
        of the vertical quadratic is negative on the whole window frame.
        """
        pts = []
        for e in self.spine_endpoints():
            if abs(e[2]) < 1e-10 * np.max(np.abs(e)):
                raise GeometryError("sphere passes through infinity; no bounded shadow")
            w = e / e[2]
            pts.append(complex(w[1]))
        zs = np.array(pts)
        cx = float(zs.real.mean())
        cy = float(zs.imag.mean())
        half = max(float(np.max(np.abs(zs - complex(cx, cy)))), 0.25) * _SHADOW_PAD
        for _ in range(_SHADOW_DOUBLINGS):
            frame = _window_frame(cx, cy, half, 65)
            A, B, C = self.vertical_quadratic(frame)
            disc = B * B - 4.0 * A * C
            if np.all(disc < 0.0):
                return cx, cy, half
            half *= 2.0
        raise GeometryError("could not bound the sphere's shadow")


def _window_frame(cx: float, cy: float, half: float, n: int) -> np.ndarray:
    ts = np.linspace(-half, half, n)
    top = (cx + ts) + 1j * (cy + half)
    bot = (cx + ts) + 1j * (cy - half)
    lef = (cx - half) + 1j * (cy + ts)
    rig = (cx + half) + 1j * (cy + ts)
    return np.concatenate([top, bot, lef, rig])


@dataclass(frozen=True)
class DirichletConfig:
    """The eight spheres at one parameter, plus the generators they came from."""

    gens: GeneratorSet
    spheres: Tuple[SpinalSphere, ...]

    @classmethod
    def build(cls, t: float) -> "DirichletConfig":
        gens = build_generators(t)
        return cls(gens, defining_spheres(gens, CANONICAL_INDICES))

    def sphere(self, k: int) -> SpinalSphere:
        return self.spheres[canonical_index(k) - 1]

    @cached_property
    def lifts(self) -> np.ndarray:
        """(8, 3) stack of the spheres' lifts ``v_k``, row ``k - 1``."""
        return np.stack([s.v for s in self.spheres])

    @cached_property
    def involutions(self) -> np.ndarray:
        """(8, 3, 3) stack of the involutions ``A_k`` (:func:`involution_word`),
        row ``k - 1``, evaluated as one stack on first use."""
        return self.gens.evaluate_words([involution_word(k) for k in CANONICAL_INDICES])

    @cached_property
    def _rows(self) -> np.ndarray:
        """(9, 3) row forms: the centre's, then the eight spheres' in order."""
        return np.stack([_RU] + [s._rv for s in self.spheres])

    def side_matrix(self, points: np.ndarray) -> np.ndarray:
        """(n, 8) side values of lift points against all spheres.

        Every sphere is a bisector of the same center lift ``Q0``, so the
        ``|<p, Q0>|^2`` term is evaluated once and shared by all eight
        columns.  Row ``i`` depends on point ``i`` alone, bit for bit
        (:func:`_norm2_products`), so a point's side values do not depend on
        what it is stacked with.  The result is column-major, so per-point
        reductions over the spheres run down contiguous columns.
        """
        norms = _norm2_products(self._rows, points)
        return (norms[0] - norms[1:]).T

    def in_boundary_domain(self, points: np.ndarray) -> np.ndarray:
        """Lift points outside or on every sphere: ``max(side_matrix) <= 0``.

        Every side value is ``near - |<p, v_k>|^2``, and rounding of a
        difference is monotone in what is subtracted, so the largest side
        value is ``near`` minus the smallest ``|<p, v_k>|^2``: one difference
        per point instead of the (n, 8) matrix, equal bit for bit.
        ``np.min`` propagates NaN, so a non-finite row is never free.
        """
        norms = _norm2_products(self._rows, points)
        return norms[0] - np.min(norms[1:], axis=0) <= 0.0

    def ring_quadratics(self, center: complex, height: Tuple[float, float, float],
                        rho: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The side functions on the rings of a polar grid of a lifted plane.

        The grid points are ``z = center + rho_i e`` for unit ``e``, lifted
        at height ``h0 + hx x + hy y`` for ``height = (h0, hx, hy)``.  On
        ring ``i`` the lift's first coordinate ``(-|z|^2 + i v)/2`` is
        ``A0 + A1 e + A-1 conj(e)``, so ``<p, u>`` is
        ``P0 + P1 e + P-1 conj(e)`` and ``|<p, u>|^2`` is the real
        trigonometric quadratic ``D0 + 2 Re(D1 e) + 2 Re(D2 e^2)`` with

            D0 = |P0|^2 + |P1|^2 + |P-1|^2,
            D1 = P0 conj(P-1) + P1 conj(P0),
            D2 = P1 conj(P-1).

        Each side value is the difference of two such quadratics: row
        ``q[k - 1, i]`` of the ``(8, nr, 5)`` result holds sphere ``k``'s on
        ring ``i``, in the basis of :func:`trig_basis`, and no point is
        lifted.  Like :meth:`vertical_quadratic`, this is the side function
        restricted to a curve.  ``err[i]`` bounds how far the values of
        :func:`ring_max` and the bounds of :func:`ring_bounds` on ring ``i``
        can lie from the lifted side values (for :func:`ring_max`, from
        ``np.max(side_matrix(lifts), axis=1)``): all round to a few ulps of
        the coefficients' absolute sums (``D0`` bounds ``|D1|`` and
        ``|D2|``), and ``_RING_GUARD`` is about 10^5 times that.  Non-finite
        input gives NaN coefficients or bounds, which decide no comparison.
        """
        h0, hx, hy = height
        c = complex(center)
        rho = np.asarray(rho, dtype=float)
        rho2 = rho * rho
        # A0 = a0 - rho^2/2, A1 = rho b1 and A-1 = rho bm, so for a row form r
        # P0 = U - r[0] rho^2/2, P1 = rho V and P-1 = rho W, with the ring-free
        # U = r[0] a0 + r[1] c + r[2], V = r[0] b1 + r[1] and W = r[0] bm
        a0 = complex(-(c.real**2 + c.imag**2), h0 + hx * c.real + hy * c.imag) / 2.0
        b1 = (complex(hy, hx) / 2.0 - c.conjugate()) / 2.0
        bm = (complex(-hy, hx) / 2.0 - c) / 2.0
        r = self._rows
        u, v, w = r[:, 0] * a0 + r[:, 1] * c + r[:, 2], r[:, 0] * b1 + r[:, 1], r[:, 0] * bm
        p0 = u[:, None] - (r[:, 0] / 2.0)[:, None] * rho2
        d1 = rho * (p0 * np.conj(w)[:, None] + v[:, None] * np.conj(p0))
        d2 = (v * np.conj(w))[:, None] * rho2
        # (9, nr, 5): the centre's row first, then the eight spheres'
        coef = np.empty(p0.shape + (5,))
        coef[..., 0] = _abs2(p0) + (_abs2(v) + _abs2(w))[:, None] * rho2
        np.multiply(d1.real, 2.0, out=coef[..., 1])
        np.multiply(d1.imag, -2.0, out=coef[..., 2])
        np.multiply(d2.real, 2.0, out=coef[..., 3])
        np.multiply(d2.imag, -2.0, out=coef[..., 4])
        size = np.sum(np.abs(coef), axis=-1)
        return coef[0] - coef[1:], _RING_GUARD * (size[0] + np.max(size[1:], axis=0))


def ring_max(q: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``(nr, nth)`` largest of the spheres' side values ``q`` (rows of
    :meth:`DirichletConfig.ring_quadratics`) at the unit vectors of ``basis``
    (:func:`trig_basis`): one real ``(nr, 5) @ (5, nth)`` product per sphere."""
    top = q[0] @ basis
    buf = np.empty_like(top)
    for k in q[1:]:
        np.maximum(top, np.matmul(k, basis, out=buf), out=top)
    return top


def ring_bounds(q: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Bounds of the side values over each whole ring.

    A quadratic ``a0 + a1 cos + b1 sin + a2 cos 2 + b2 sin 2`` lies within
    ``|(a1, b1)| + |(a2, b2)|`` of ``a0``.  Returns the ``(nr,)`` largest of
    the spheres' lower bounds, which the largest side value never drops
    below, and the ``(8, nr)`` upper bounds of each sphere.
    """
    amp = np.hypot(q[..., 1], q[..., 2]) + np.hypot(q[..., 3], q[..., 4])
    return np.max(q[..., 0] - amp, axis=0), q[..., 0] + amp


def trig_basis(spin: np.ndarray) -> np.ndarray:
    """``(5, nth)`` rows ``1, Re e, Im e, Re e^2, Im e^2`` of unit vectors ``e``:
    a ring's trigonometric quadratic in :meth:`DirichletConfig.ring_quadratics`
    is its ``(5,)`` coefficient row times this basis."""
    spin = np.asarray(spin, dtype=complex)
    sq = spin * spin
    return np.stack([np.ones(spin.shape), spin.real, spin.imag, sq.real, sq.imag])


def _norm2_products(rows: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``(k, n)`` values ``|<p_i, u>|^2 = |r @ p_i|^2`` of the row forms ``r``
    of a ``(k, 3)`` stack against an ``(n, 3)`` stack of lift points.

    Entry ``(k, i)`` depends on row ``k`` and point ``i`` alone, bit for bit:
    ``einsum`` (without ``optimize``) sums the three products of every entry
    in one order whatever the sizes, where a matrix product turns into a dot
    product for one point and a BLAS gemv for several, which round
    differently.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    return _abs2(np.einsum("kj,nj->kn", rows, pts))


def defining_spheres(gens: GeneratorSet, ks: Tuple[int, ...]) -> Tuple[SpinalSphere, ...]:
    """The spheres of the bisectors of ``Q0`` and ``w_k Q0``, their words
    evaluated as one stack."""
    lifts = _apply(gens.evaluate_words([defining_word(k) for k in ks]), Q0)
    return tuple(SpinalSphere(k, v) for k, v in zip(ks, lifts))


def symmetry_certificate(config: DirichletConfig) -> float:
    """Worst projective residual of the order-4 rotation and flip symmetries.

    Checks, for all n and k, that ``g2^n u_k ~ u_{2n+k}`` and
    ``g2^n I2 u_k ~ u_{2n+3-k}`` where ``u_k = w_k Q0``, plus that ``Q0``
    itself is fixed by ``g2`` and flipped to itself by ``I2``.  The eight
    lifts move as one stack, four rotations deep.
    """
    g2 = config.gens.g2.matrix
    i2 = config.gens.i2.matrix
    u = config.lifts
    k = np.arange(8)
    # rows 0-7 rotate u_k, rows 8-15 rotate I2 u_k
    moved = np.concatenate([u, _apply(i2, u)])
    got = [_apply(np.stack([g2, i2]), Q0)]
    want = [np.stack([Q0, Q0])]
    for n in range(4):
        if n > 0:
            moved = _apply(g2, moved)
        got.append(moved)
        want += [u[(2 * n + k) % 8], u[(2 * n + 1 - k) % 8]]
    return float(np.max(projective_distance(np.concatenate(got), np.concatenate(want))))


def involution_certificate(config: DirichletConfig) -> float:
    """The word-level sphere involutions square to 1 and move Q0 like w_k."""
    a = config.involutions
    return float(np.max([matrix_phase_distance(a @ a, np.eye(3, dtype=complex)),
                         projective_distance(_apply(a, Q0), config.lifts)]))


def side_pairing_certificate(config: DirichletConfig) -> float:
    """Certify the four pairings g2^n g1 g2^-n : S_{4+2n} -> S_{1+2n}.

    Each pairing gamma satisfies gamma(Q0) ~ u_target and
    gamma(u_source) ~ Q0, so it carries the source bisector onto the target
    bisector with the two defining points swapped.  The word identity
    ``g1 g2 g3^-1 = g2`` underlies all four.
    """
    gens = config.gens
    g1, g2 = gens.g1, gens.g2
    word = matrix_phase_distance((g1 @ g2 @ gens.g3.inverse()).matrix, g2.matrix)
    g2m, g2inv = g2.matrix, g2.inverse().matrix
    gammas = [g1.matrix]
    for _ in range(3):
        gammas.append(g2m @ gammas[-1] @ g2inv)
    gamma = np.stack(gammas)
    n = np.arange(4)
    u = config.lifts
    return float(np.max([np.full(4, word), projective_distance(_apply(gamma, Q0), u[2 * n]),
                         projective_distance(_apply(gamma, u[(3 + 2 * n) % 8]), Q0)]))


def giraud_order3_certificate(config: DirichletConfig) -> float:
    """(A_k A_{k+1})^3 = 1 up to phase for the eight adjacent pairs."""
    a = config.involutions
    ab = a @ np.roll(a, -1, axis=0)
    return float(np.max(matrix_phase_distance(ab @ ab @ ab, np.eye(3, dtype=complex))))


def _torus_margins(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Giraud's test for the coequidistant bisectors of ``(Q0, p)`` and ``(Q0, r)``.

    ``p`` and ``r`` are ``(n, 3)`` stacks, one pair per row.  A point of both
    bisectors is ``x(a, b) = box(p - e^{ia} Q0, r - e^{ib} Q0)``, which is
    ``b0 - e^{-ia} b1 - e^{-ib} w`` (``box`` is conjugate-bilinear), and the
    closures meet iff ``<x, x> <= 0`` somewhere on the torus.  Over ``b`` its
    minimum is ``h - 2|c|`` with ``h = h0 - 2 Re(h1 e^{ia})``, ``c = c0 - e^{-ia} c1``.
    Where ``h > 0`` that has the sign of ``F = h^2 - 4|c|^2``, a trigonometric
    polynomial ``sum f_n e^{ina}`` of degree 2, least at a unit-circle root of
    ``sum n f_n z^{n+2}``.  The margin, ``(h - 2|c|)/(h + 2|c|)`` there, is free
    of the lifts' scales and positive iff the spheres miss; it is -1 if ``h``
    is somewhere not positive, and NaN on non-finite input.

    The quartics' roots are the eigenvalues of one ``(m, 4, 4)`` companion
    stack, built as :func:`numpy.roots` builds each.  Where the leading
    coefficient ``2 h1^2`` is zero, ``numpy.roots`` strips it (and the
    trailing one, its conjugate) and solves the rest; those rows take its
    roots, padded with zeros, whose unit-circle projection is the candidate
    ``z = 1`` that every row already has.
    """
    q = np.broadcast_to(Q0, p.shape)
    b0, b1, w = box_product(np.stack([p, q, p]), np.stack([r, r, q]))
    b00, b11, ww, h1, c0, c1 = hermitian_product(np.stack([b0, b1, w, b0, b0, b1]),
                                                 np.stack([b0, b1, w, b1, w, w]))
    h0 = (b00 + b11 + ww).real
    out = np.full(h0.shape, math.nan)
    finite = np.isfinite(h0) & np.isfinite(np.stack([h1, c0, c1])).all(axis=0)
    low = finite & (h0 <= 2.0 * np.hypot(h1.real, h1.imag))
    out[low] = -1.0
    rows = finite & ~low
    h0, h1, c0, c1 = h0[rows], h1[rows], c0[rows], c1[rows]
    f1 = _cmul(4.0 * c0, np.conj(c1)) - 2.0 * h0 * h1
    f2 = _cmul(h1, h1)
    poly = np.stack([2.0 * f2, f1, np.zeros_like(f1), -np.conj(f1), -2.0 * np.conj(f2)], axis=1)
    roots = np.zeros((len(poly), 4), dtype=complex)
    companion = np.zeros((len(poly), 4, 4), dtype=complex)
    companion[:, 1:, :-1] = np.eye(3)
    lead = poly[:, 0] != 0.0
    companion[lead, 0] = -poly[lead, 1:] / poly[lead, :1]
    roots[lead] = np.linalg.eigvals(companion[lead])
    for i in np.flatnonzero(~lead):
        found = np.roots(poly[i])
        roots[i, :len(found)] = found
    z = np.concatenate([np.exp(1j * np.angle(roots)), np.ones((len(poly), 1))], axis=1)
    h = h0[:, None] - 2.0 * (h1[:, None] * z).real
    c2 = 2.0 * np.abs(c0[:, None] - c1[:, None] * np.conj(z))
    best = np.arange(len(h)), np.argmin(h * h - c2 * c2, axis=1)
    out[rows] = (h[best] - c2[best]) / (h[best] + c2[best])
    return out


def _interleave_margins(config: DirichletConfig, j: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Pairs of spheres whose defining points lie on one complex line ``L`` with ``Q0``.

    Each bisector is the preimage of its spine under projection to ``L``, so
    the two meet iff the spine endpoints interleave on ``∂L``, where ``X``
    sits at angle ``arg(<X, e> / <X, Q0>)`` for ``e`` the part of ``v_j``
    orthogonal to ``Q0``.  The margin is the least angle between an endpoint
    of each spine, negated if they interleave.  ``j`` and ``k`` are index
    arrays, one pair per row; the four endpoints of every row are placed by
    one stack of Hermitian products.
    """
    v = config.lifts[j - 1]
    e = v - (hermitian_product(v, Q0) / _Q0_NORM)[:, None] * Q0
    ends = np.array([config.sphere(a).spine_endpoints() + config.sphere(b).spine_endpoints()
                     for a, b in zip(j.tolist(), k.tolist())], dtype=complex).reshape(-1, 4, 3)
    angles = np.angle(hermitian_product(ends, e[:, None]) / hermitian_product(ends, Q0))
    out = []
    for lo, hi, *rest in angles.tolist():
        lo, hi = sorted((lo, hi))
        gap = min(abs(math.remainder(x - y, 2.0 * math.pi)) for x in rest for y in (lo, hi))
        out.append(-gap if (lo < rest[0] < hi) != (lo < rest[1] < hi) else gap)
    return np.array(out)


@dataclass(frozen=True)
class PairRelation:
    """How spheres j and k sit: a scale-free margin, positive iff they miss.
    A NaN margin reads as not meeting; a record must fail on the NaN itself.
    Each field holds one pair's value, or an array of them for a stack of pairs."""

    j: int
    k: int
    separation: int  # circular index distance, 1..4
    margin: float

    @property
    def meets(self):
        return self.margin <= 0.0


#: the 28 pairs ``j < k`` in ascending order, as two index arrays
_PAIRS = np.array(list(itertools.combinations(CANONICAL_INDICES, 2))).T


def pair_relation(config: DirichletConfig, j, k) -> PairRelation:
    """Decide whether spheres j and k meet, in closed form.

    ``j`` and ``k`` are two sphere indices, answered with one relation of
    scalars, or two equal-length index arrays, answered with one relation of
    arrays; a single pair is the one-row stack.  Where ``Q0``, ``v_j`` and
    ``v_k`` span one complex line (relative determinant below
    ``_COLLINEAR``) the torus collapses and the spine endpoints decide;
    every other row is one row of :func:`_torus_margins`.  Each pair is
    taken in ascending order, so ``(j, k)`` and ``(k, j)`` give the same
    relation.
    """
    one = np.ndim(j) == 0 and np.ndim(k) == 0
    j, k = ((np.atleast_1d(x) - 1) % 8 + 1 for x in (j, k))
    j, k = np.minimum(j, k), np.maximum(j, k)
    p, r = config.lifts[j - 1], config.lifts[k - 1]
    m = np.stack([np.broadcast_to(Q0, p.shape), p, r], axis=1)
    collinear = (np.abs(det3(m.transpose(1, 2, 0)))
                 < _COLLINEAR * np.prod(np.linalg.norm(m, axis=2), axis=1))
    margin = np.empty(len(j))
    margin[~collinear] = _torus_margins(p[~collinear], r[~collinear])
    margin[collinear] = _interleave_margins(config, j[collinear], k[collinear])
    separation = np.minimum(k - j, 8 - k + j)
    if one:
        return PairRelation(int(j[0]), int(k[0]), int(separation[0]), float(margin[0]))
    return PairRelation(j, k, separation, margin)


def pairwise_relations(config: DirichletConfig) -> List[PairRelation]:
    """All 28 pair relations, in ascending ``(j, k)`` order, from one stack."""
    rel = pair_relation(config, *_PAIRS)
    return [PairRelation(*row) for row in zip(rel.j.tolist(), rel.k.tolist(),
                                              rel.separation.tolist(), rel.margin.tolist())]


def expected_to_meet(separation: int) -> bool:
    """Adjacent spheres (distance 1 or 2) share points; farther ones do not."""
    return separation <= 2


def fixed_point_lifts(config: DirichletConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Closed-form null lifts of the boundary fixed points of g3.

    The first is the attracting one.  With these scales the side values
    against the eight spheres take rational-in-sqrt(8t-3) closed forms,
    reproduced by ``fixed_point_side_forms``.
    """
    t = config.gens.t
    c = config.gens.coeffs
    a, b = c.a, c.b
    mid = math.sqrt(8 * t - 3) / (2 * math.sqrt(3 * t - 1))
    p1 = np.array([complex(t + a, -b) / (2 * a), mid, complex(t - a, -b) / (2 * a)])
    p2 = p1.copy()
    p2[1] = -mid
    return p1, p2


def fixed_point_side_forms(t: float) -> Dict[str, float]:
    """The four closed-form side values at the repelling fixed point of g3.

    Keys are the canonical sphere indices whose side functions realize
    them; the attracting fixed point sees the same four values with the
    sphere pairs (1, 8) and (2, 7) exchanged.
    """
    s = math.sqrt(8 * t - 3)
    return {
        "S1": (8 * t - 3 - s) / (4 * t - 2),
        "S2": ((4 * t - 1) * s - 8 * t + 3) / (2 * (2 * t - 1) ** 2),
        "S7": ((1 - 4 * t) * s - 8 * t + 3) / (2 * (2 * t - 1) ** 2),
        "S8": (8 * t - 3 + s) / (4 * t - 2),
    }


def sphere_mesh(sphere: SpinalSphere, nx: int = 64, ny: int = 64):
    """Triangulated mesh of a spinal sphere for OBJ export.

    Builds both vertical sheets over the shadow and stitches the rim by
    bisecting the discriminant to its zero crossing, all rim edges at once.
    Returns ``(vertices, faces)`` with vertices as (x, y, v) rows and 1-based
    triangular faces.
    """
    cx, cy, half = sphere.shadow_window()
    xs = np.linspace(cx - half, cx + half, nx)
    ys = np.linspace(cy - half, cy + half, ny)
    X, Y = np.meshgrid(xs, ys)
    z = (X + 1j * Y)
    A, B, C = sphere.vertical_quadratic(z.ravel())
    disc = (B * B - 4.0 * A * C).reshape(z.shape)
    Bm = B.reshape(z.shape)
    inside = disc >= 0.0
    if abs(A) < 1e-14:
        raise GeometryError("sphere through infinity is not meshable this way")

    # Sheet vertices: each inside site in row-major order gives its top
    # root, then its bottom root.
    root = np.sqrt(disc[inside])
    zin = z[inside]
    sheets = np.empty((zin.size, 2, 3))
    sheets[:, :, 0] = zin.real[:, None]
    sheets[:, :, 1] = zin.imag[:, None]
    sheets[:, 0, 2] = (-Bm[inside] + root) / (2 * A)
    sheets[:, 1, 2] = (-Bm[inside] - root) / (2 * A)
    index_top = -np.ones(z.shape, dtype=int)
    index_top[inside] = 2 * np.arange(zin.size)

    # Two quads per grid cell whose four corners are inside, top then bottom.
    full = inside[:-1, :-1] & inside[:-1, 1:] & inside[1:, :-1] & inside[1:, 1:]
    t00, t01 = index_top[:-1, :-1][full], index_top[:-1, 1:][full]
    t10, t11 = index_top[1:, :-1][full], index_top[1:, 1:][full]
    b00, b01, b10, b11 = t00 + 1, t01 + 1, t10 + 1, t11 + 1
    quads = np.stack([
        np.stack([t00, t01, t11], axis=1), np.stack([t00, t11, t10], axis=1),
        np.stack([b00, b10, b11], axis=1), np.stack([b00, b11, b01], axis=1),
    ], axis=1).reshape(-1, 3)

    # Rim edges: an inside site and an outside neighbour, per site in the
    # direction order right, down, left, up.  Every edge is bisected along
    # the segment to the discriminant's zero crossing and closed with one
    # thin triangle between the two sheets.
    pad = np.pad(inside, 1, constant_values=True)
    outward = np.stack([
        inside & ~pad[1:-1, 2:], inside & ~pad[2:, 1:-1],
        inside & ~pad[1:-1, :-2], inside & ~pad[:-2, 1:-1],
    ], axis=-1)
    ei, ej, ed = np.nonzero(outward)
    lo = z[ei, ej]
    hi = z[ei + np.array([0, 1, 0, -1])[ed], ej + np.array([1, 0, -1, 0])[ed]]
    for _ in range(60):
        mid = (lo + hi) / 2.0
        _, Bmid, Cmid = sphere.vertical_quadratic(mid)
        met = Bmid * Bmid - 4.0 * A * Cmid >= 0.0
        lo = np.where(met, mid, lo)
        hi = np.where(met, hi, mid)
    _, Brim, _ = sphere.vertical_quadratic(lo)
    rim = np.stack([lo.real, lo.imag, -Brim / (2 * A)], axis=1)
    ridx = 2 * zin.size + np.arange(lo.size)
    # right and down edges wind top -> rim -> bottom, left and up the other way
    top = index_top[ei, ej]
    bot = top + 1
    first, last = np.where(ed < 2, top, bot), np.where(ed < 2, bot, top)
    stitches = np.stack([first, ridx, last], axis=1)

    verts = np.concatenate([sheets.reshape(-1, 3), rim])
    faces = np.concatenate([quads, stitches]) + 1
    return verts, faces

