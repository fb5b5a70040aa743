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

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

import numpy as np

from .core import (
    EPS_TANGENT,
    GeometryError,
    SIEGEL,
    hermitian_product,
    matrix_phase_distance,
    projective_distance,
)
from .triangle import Q0, GeneratorSet, build_generators

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

_SHADOW_PAD = 1.6
_SHADOW_DOUBLINGS = 12


@dataclass(frozen=True)
class SpinalSphere:
    """Boundary sphere of the bisector between the centre ``Q0`` and ``v``.

    The side function ``|<p,Q0>|^2 - |<p,v>|^2`` is negative on the centre's
    side, positive strictly inside the sphere (the ``v`` side), zero on it.
    ``v`` must have ``Q0``'s self-product for this to be the true
    equidistance locus; the constructor enforces that.
    """

    index: int
    v: np.ndarray
    _rv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        nv = complex(hermitian_product(self.v, self.v)).real
        if abs(nv - _Q0_NORM) > 1e-9 * abs(_Q0_NORM):
            raise GeometryError("a bisector lift must have the centre's self-product")
        object.__setattr__(self, "_rv", _row_form(self.v))

    def side_of_lifts(self, points: np.ndarray) -> np.ndarray:
        """Side values for an (n, 3) array of lift vectors."""
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        pu = pts @ _RU
        pv = pts @ self._rv
        out = (pu * np.conj(pu) - pv * np.conj(pv)).real
        return out if out.size > 1 else out.reshape(-1)

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

    def sample_points(self, n: int = 48) -> np.ndarray:
        """Lift samples covering the sphere: both vertical roots per site."""
        cx, cy, half = self.shadow_window()
        xs = np.linspace(cx - half, cx + half, n)
        ys = np.linspace(cy - half, cy + half, n)
        X, Y = np.meshgrid(xs, ys)
        z = (X + 1j * Y).ravel()
        A, B, C = self.vertical_quadratic(z)
        disc = B * B - 4.0 * A * C
        keep = disc >= 0.0
        if not np.any(keep):
            raise GeometryError("no sphere points found in the shadow window")
        z = z[keep]
        B, C = B[keep], C[keep]
        root = np.sqrt(disc[keep])
        if abs(A) < 1e-14:
            vs = [-C / np.where(np.abs(B) < 1e-300, 1.0, B)]
        else:
            vs = [(-B - root) / (2 * A), (-B + root) / (2 * A)]
        blocks = []
        for v in vs:
            lifts = np.empty((z.size, 3), dtype=complex)
            lifts[:, 0] = (-(z.real**2 + z.imag**2) + 1j * v) / 2.0
            lifts[:, 1] = z
            lifts[:, 2] = 1.0
            blocks.append(lifts)
        return np.concatenate(blocks, axis=0)


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
        return cls(gens, tuple(_defining_sphere(gens, k) for k in CANONICAL_INDICES))

    def sphere(self, k: int) -> SpinalSphere:
        return self.spheres[canonical_index(k) - 1]

    def side_matrix(self, points: np.ndarray) -> np.ndarray:
        """(n, 8) side values of lift points against all spheres.

        Every sphere is a bisector of the same center lift ``Q0``, so the
        ``|<p, Q0>|^2`` term is evaluated once and shared by all eight
        columns; each column is otherwise exactly ``side_of_lifts``.  The
        result is column-major, so per-point reductions over the spheres
        run down contiguous columns.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        near = _norm2(pts @ _RU)
        out = np.empty((len(self.spheres), pts.shape[0]))
        for k, s in enumerate(self.spheres):
            out[k] = near - _norm2(pts @ s._rv)
        return out.T

    def in_boundary_domain(self, points: np.ndarray, tol: float = 0.0) -> np.ndarray:
        """Lift points outside or on every sphere: ``max(side_matrix) <= tol``.

        Every side value is ``near - |<p, v_k>|^2``, and rounding of a
        difference is monotone in what is subtracted, so the largest side
        value is ``near`` minus the smallest ``|<p, v_k>|^2``: one difference
        per point instead of the (n, 8) matrix, equal bit for bit.
        ``np.minimum`` propagates NaN, so a non-finite row is never free.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        near = _norm2(pts @ _RU)
        far = _norm2(pts @ self.spheres[0]._rv)
        for s in self.spheres[1:]:
            np.minimum(far, _norm2(pts @ s._rv), out=far)
        return near - far <= tol


def _norm2(w: np.ndarray) -> np.ndarray:
    """``|w|^2`` rounded as ``side_of_lifts`` rounds it.

    numpy's complex product may fuse its multiply-add, so
    ``w.real**2 + w.imag**2`` differs from it in the last bit.
    """
    return (w * np.conj(w)).real


def _defining_sphere(gens: GeneratorSet, k: int) -> SpinalSphere:
    """The sphere of the bisector of ``Q0`` and ``w_k Q0``."""
    return SpinalSphere(k, gens.evaluate_word(defining_word(k)).apply(Q0))


def symmetry_certificate(config: DirichletConfig) -> float:
    """Worst projective residual of the order-4 rotation and flip symmetries.

    Checks, for all n and k, that ``g2^n u_k ~ u_{2n+k}`` and
    ``g2^n I2 u_k ~ u_{2n+3-k}`` where ``u_k = w_k Q0``, plus that ``Q0``
    itself is fixed by ``g2`` and flipped to itself by ``I2``.
    """
    g2 = config.gens.g2
    i2 = config.gens.i2
    us = {k: config.sphere(k).v for k in CANONICAL_INDICES}
    worst = max(projective_distance(g2.apply(Q0), Q0), projective_distance(i2.apply(Q0), Q0))
    for k in CANONICAL_INDICES:
        rotated = us[k]
        flipped = i2.apply(us[k])
        for n in range(4):
            if n > 0:
                rotated = g2.apply(rotated)
                flipped = g2.apply(flipped)
            worst = max(worst, projective_distance(rotated, us[canonical_index(2 * n + k)]))
            worst = max(worst, projective_distance(flipped, us[canonical_index(2 * n + 3 - k)]))
    return worst


def involution_certificate(config: DirichletConfig) -> float:
    """The word-level sphere involutions square to 1 and move Q0 like w_k."""
    gens = config.gens
    worst = 0.0
    for k in CANONICAL_INDICES:
        a = gens.involution_a(k)
        worst = max(worst, matrix_phase_distance((a @ a).matrix, np.eye(3, dtype=complex)))
        worst = max(worst, projective_distance(a.apply(Q0), config.sphere(k).v))
    return worst


def side_pairing_certificate(config: DirichletConfig) -> float:
    """Certify the four pairings g2^n g1 g2^-n : S_{4+2n} -> S_{1+2n}.

    Each pairing gamma satisfies gamma(Q0) ~ u_target and
    gamma(u_source) ~ Q0, so it carries the source bisector onto the target
    bisector with the two defining points swapped.  The word identity
    ``g1 g2 g3^-1 = g2`` underlies all four.
    """
    gens = config.gens
    g1, g2 = gens.g1, gens.g2
    worst = matrix_phase_distance((g1 @ g2 @ gens.g3.inverse()).matrix, g2.matrix)
    gamma = g1
    for n in range(4):
        if n > 0:
            gamma = g2 @ gamma @ g2.inverse()
        src = canonical_index(4 + 2 * n)
        tgt = canonical_index(1 + 2 * n)
        worst = max(worst, projective_distance(gamma.apply(Q0), config.sphere(tgt).v))
        worst = max(worst, projective_distance(gamma.apply(config.sphere(src).v), Q0))
    return worst


def giraud_order3_certificate(config: DirichletConfig) -> float:
    """(A_k A_{k+1})^3 = 1 up to phase for the eight adjacent pairs."""
    gens = config.gens
    worst = 0.0
    for k in CANONICAL_INDICES:
        a = gens.involution_a(k)
        b = gens.involution_a(canonical_index(k + 1))
        ab = a @ b
        worst = max(worst, matrix_phase_distance((ab @ ab @ ab).matrix, np.eye(3, dtype=complex)))
    return worst


@dataclass(frozen=True)
class PairRelation:
    """Outcome of probing sphere j with a sample cloud of sphere k."""

    j: int
    k: int
    separation: int  # circular index distance, 1..4
    meets: bool
    min_side: float
    max_side: float

    @property
    def margin(self) -> float:
        """Distance of the sampled side values from zero (disjoint case)."""
        if self.meets:
            return 0.0
        return min(abs(self.min_side), abs(self.max_side))


def pair_relation(config: DirichletConfig, j: int, k: int,
                  clouds: Mapping[int, np.ndarray]) -> PairRelation:
    """Classify how spheres j and k sit relative to each other.

    Probes each sphere's side function with the other's sample cloud;
    a sign change (or a value within ``EPS_TANGENT`` of zero) in either
    direction means the spheres meet.  Running both directions makes the
    verdict independent of which window covers better.  ``clouds`` maps
    canonical indices to their ``sample_points`` clouds.
    """
    j = canonical_index(j)
    k = canonical_index(k)
    lo = math.inf
    hi = -math.inf
    for a, b in ((j, k), (k, j)):
        vals = config.sphere(a).side_of_lifts(clouds[b])
        lo = min(lo, float(np.min(vals)))
        hi = max(hi, float(np.max(vals)))
    meets = (lo <= EPS_TANGENT and hi >= -EPS_TANGENT)
    d = abs(j - k) % 8
    sep = min(d, 8 - d)
    return PairRelation(j, k, sep, meets, lo, hi)


def pairwise_relations(config: DirichletConfig) -> List[PairRelation]:
    """All 28 pair relations; each sphere is sampled once and probed seven times."""
    clouds = {s.index: s.sample_points() for s in config.spheres}
    out = []
    for j in CANONICAL_INDICES:
        for k in CANONICAL_INDICES:
            if j < k:
                out.append(pair_relation(config, j, k, clouds))
    return out


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

