"""Crown arcs: axis arcs of the conjugate loxodromics and their hat arcs.

Every arc lives on the boundary C-circle of a loxodromic axis.  Once the
circle is normalized to the standard planar circle of radius sqrt(2(8t-3))
at the origin, each spinal sphere cuts the unit-circle chart along a
straight line ``k0 + k1 x + k2 y = 0`` (the side function of a lift that is
affine over the chart stays affine on it), so sphere crossings, hosts, and
clearance margins reduce to line/circle arithmetic.

The crown itself: four alpha arcs (conjugates of the axis of g1 under the
order-4 rotation g2) and four beta arcs (conjugates of the axis of
g2^-1 g3).  Hat arcs are the unique sub-segments outside all eight spinal
spheres; their cutting disks tile the boundary of the crown solid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .core import (
    EPS_ALG,
    GeometryError,
    GroupElement,
    _abs2,
    _fixed_row,
    box_product,
    fixed_points_boundary,
    hermitian_product,
    matrix_phase_distance,
)
from .dirichlet import (
    _Q0_NORM,
    DirichletConfig,
    SpinalSphere,
    canonical_index,
)
from .heisenberg import (
    AffineDisk,
    CCircle,
    ccircle_from_polar,
    dilation_element,
    disk_intersection_segment,
    translation_element,
)
from .triangle import (
    PARAM_MAX,
    PARAM_MIN,
    Q0,
    Coefficients,
    _coefficient_arrays,
    _generator_stacks,
    coefficients,
    validate_param,
)

ARC_NAMES = ("alpha1", "alpha2", "alpha3", "alpha4", "beta1", "beta2", "beta3", "beta4")


# ---------------------------------------------------------------------------
# closed-form polar lifts


def _vectors(x0, y0, x1, y1, x2, y2) -> np.ndarray:
    """Vectors ``[x0 + i y0, x1 + i y1, x2 + i y2]`` on the last axis.

    The parts are floats or float arrays, and each is placed, never summed,
    so a closed form evaluated on floats keeps the bits of
    ``complex(x, y) / d`` when it divides each part by ``d`` itself.
    """
    out = np.empty(np.broadcast(x0, y0, x1, y1, x2, y2).shape + (3,), dtype=complex)
    for k, (x, y) in enumerate(((x0, y0), (x1, y1), (x2, y2))):
        out.real[..., k] = x
        out.imag[..., k] = y
    return out


def _alpha1_polar(c: Coefficients) -> np.ndarray:
    f = math.sqrt(2.0) * c.a
    d = 1.0 - 2.0 * c.t
    return _vectors(-1.0, 0.0, f * c.t / d, -(f * c.b) / d, 1.0, 0.0)


def alpha1_polar(t: float) -> np.ndarray:
    """Axis polar of g1, lifted with last coordinate 1."""
    return _alpha1_polar(coefficients(t))


def alpha2_polar(t: float) -> np.ndarray:
    c = coefficients(t)
    t = c.t
    den = 2.0 * t * c.a + 4.0 * t - 1.0
    return np.array([complex(8.0 * t - 3.0, -2.0 * c.a * c.b) / den, 0.0, 1.0], dtype=complex)


def _alpha4_polar(c: Coefficients) -> np.ndarray:
    den = 4.0 * c.t - 1.0 - 2.0 * c.t * c.a
    return _vectors((8.0 * c.t - 3.0) / den, 2.0 * c.a * c.b / den, 0.0, 0.0, 1.0, 0.0)


def alpha4_polar(t: float) -> np.ndarray:
    return _alpha4_polar(coefficients(t))


def beta_polar_scaled(t: float) -> np.ndarray:
    """Axis polar of g1 g2^-1 (the circle beta_3) at the reference scale.

    This is the lift whose self-product is (16t-6)/(8(1-2t)); linking
    values against ``alpha1_polar`` then take rational closed forms.
    """
    c = coefficients(t)
    t = c.t
    s4 = 2.0 * math.sqrt(1.0 - 2.0 * t)
    return np.array(
        [
            complex(-(t - c.a - 1.0), -c.b) / (2.0 * s4),
            math.sqrt(2.0) * c.a / (2.0 * s4),
            complex(t + c.a - 1.0, c.b) / (2.0 * s4),
        ],
        dtype=complex,
    )


def linking_value(v: np.ndarray, w: np.ndarray) -> float:
    """|<v,w>|^2 - <v,v><w,w>; positive iff the two C-circles are unlinked.

    Scales with |c|^2 in either lift, so only the sign is scale-free; the
    closed-form regressions pin specific lifts.
    """
    vw = complex(hermitian_product(v, w))
    vv = complex(hermitian_product(v, v)).real
    ww = complex(hermitian_product(w, w)).real
    return abs(vw) ** 2 - vv * ww


def linking_alpha_beta_closed(t: float) -> float:
    t = validate_param(t)
    return 2.0 * (1.0 - 3.0 * t) / (2.0 * t - 1.0)


def linking_alpha_alpha_closed(t: float) -> float:
    t = validate_param(t)
    return -2.0 * (15.0 * t * t - 11.0 * t + 2.0) / (2.0 * t - 1.0) ** 2


def crown_circle_polars(config: DirichletConfig,
                        beta: Tuple[np.ndarray, np.ndarray]) -> Dict[str, np.ndarray]:
    """Polar lifts of the eight crown circles, g2-orbits of alpha1/beta1.

    ``beta`` is the fixed-point pair of the beta base map ``g2^-1 g3``.
    """
    g2 = config.gens.g2
    va = alpha1_polar(config.gens.t)
    vb = box_product(*beta)
    out: Dict[str, np.ndarray] = {}
    for i in range(4):
        out[f"alpha{i + 1}"] = va
        out[f"beta{i + 1}"] = vb
        va = g2.apply(va)
        vb = g2.apply(vb)
    return out


@dataclass(frozen=True)
class LinkReport:
    """Linking value of two crown circles: positive iff they are unlinked."""

    first: str
    second: str
    value: float


def linked_pair_report(scene: Scene) -> List[LinkReport]:
    """Linking sign for all 28 pairs of the scene's crown circles."""
    polars = scene.polars
    names = list(polars)
    out = []
    for i, ni in enumerate(names):
        for nj in names[i + 1:]:
            out.append(LinkReport(ni, nj, linking_value(polars[ni], polars[nj])))
    return out


# ---------------------------------------------------------------------------
# chart normalization


def standard_chart_lift(t: float, x, y) -> np.ndarray:
    """Lifts of the standard-circle points over chart positions (x, y).

    Floats give one ``(3,)`` lift, equal-length arrays an ``(n, 3)`` stack.
    """
    r = math.sqrt(2.0 * (8.0 * t - 3.0))
    zx, zy = r * np.asarray(x, dtype=float), r * np.asarray(y, dtype=float)
    return _vectors(-(np.hypot(zx, zy) ** 2) / 2.0, 0.0, zx, zy, 1.0, 0.0)


@dataclass(frozen=True)
class ChartedCircle:
    """A C-circle together with the move that makes it the standard one.

    ``forward`` sends the circle to the origin-centered planar circle of
    radius sqrt(2(8t-3)); the unit-circle coordinates (x, y) of the image
    are the chart.  Any spinal sphere restricts to an affine function
    ``k0 + k1 x + k2 y`` there.
    """

    t: float
    circle: CCircle
    forward: GroupElement
    backward: GroupElement

    @classmethod
    def build(cls, t: float, circle: CCircle) -> "ChartedCircle":
        if circle.vertical:
            raise GeometryError("vertical circles have no planar chart")
        z0 = complex(circle.center.z)
        v0 = float(circle.center.v)
        lam = math.sqrt(2.0 * (8.0 * t - 3.0)) / circle.radius
        # Heisenberg left translation by the group inverse of the center,
        # then the dilation that fixes the target radius.
        move = dilation_element(lam) @ translation_element(-z0, -v0)
        return cls(t, circle, move, move.inverse())

    def to_chart(self, lift: np.ndarray) -> Tuple[float, float]:
        img = self.forward.apply(np.asarray(lift, dtype=complex))
        if abs(img[2]) < 1e-13 * float(np.max(np.abs(img))):
            raise GeometryError("point maps to infinity; not on the chart")
        w = img / img[2]
        r = math.sqrt(2.0 * (8.0 * self.t - 3.0))
        z = complex(w[1]) / r
        return z.real, z.imag

    def chart_angle(self, lift: np.ndarray) -> float:
        x, y = self.to_chart(lift)
        n = math.hypot(x, y)
        if abs(n - 1.0) > 1e-6:
            raise GeometryError(f"point is off the chart circle (|xy| = {n:.6f})")
        return math.atan2(y, x)

    def from_chart(self, x, y) -> np.ndarray:
        """Lifts of the actual boundary points over chart positions (x, y).

        Floats give one ``(3,)`` lift, equal-length arrays an ``(n, 3)`` stack.
        """
        img = self.backward.apply(standard_chart_lift(self.t, x, y))
        return img / img[..., 2:]

    def sphere_lines(self, config: DirichletConfig) -> Tuple["ChartLine", ...]:
        """The chart lines of the eight spheres, sphere ``k`` at index ``k - 1``.

        Each affine side function is read off its values at the chart points
        (1, 0), (-1, 0) and (0, 1): the three are lifted as one stack, and
        one :meth:`DirichletConfig.side_matrix` call evaluates all eight
        spheres there.
        """
        f10, fm10, f01 = config.side_matrix(self.from_chart(_PROBE_X, _PROBE_Y))
        k0 = (f10 + fm10) / 2.0
        k1 = (f10 - fm10) / 2.0
        k2 = f01 - k0
        return tuple(ChartLine(*line) for line in zip(k0.tolist(), k1.tolist(), k2.tolist()))


#: the chart points whose side values give a sphere's chart line
_PROBE_X = np.array([1.0, -1.0, 0.0])
_PROBE_Y = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class ChartLine:
    """The trace k0 + k1 x + k2 y = 0 of a sphere on a circle chart."""

    k0: float
    k1: float
    k2: float

    @property
    def direction_norm(self) -> float:
        return math.hypot(self.k1, self.k2)

    def circle_crossings(self) -> List[float]:
        """Angles where the line meets the unit circle (0, 1, or 2)."""
        r = self.direction_norm
        if r == 0.0:
            return []
        c = -self.k0 / r
        if abs(c) > 1.0:
            return []
        c = min(1.0, max(-1.0, c))
        phi = math.atan2(self.k2, self.k1)
        d = math.acos(c)
        if d == 0.0:
            return [_wrap_angle(phi)]
        return [_wrap_angle(phi - d), _wrap_angle(phi + d)]


def _wrap_angle(theta: float) -> float:
    out = math.fmod(theta + math.pi, 2.0 * math.pi)
    if out < 0:
        out += 2.0 * math.pi
    return out - math.pi


# ---------------------------------------------------------------------------
# crown arcs


@dataclass(frozen=True)
class CrownArc:
    """A fixed-point-to-fixed-point sub-arc of a crown circle.

    Runs from the attracting chart angle through ``sweep`` (signed) to the
    repelling one; ``point_param`` linearly sweeps the angle, so s = 0 is
    the attracting end.
    """

    name: str
    circle: CCircle
    chart: ChartedCircle
    theta_att: float
    sweep: float

    def angle_at(self, s: float) -> float:
        return self.theta_att + s * self.sweep

    def lift_at(self, s: float) -> np.ndarray:
        th = self.angle_at(s)
        return self.chart.from_chart(math.cos(th), math.sin(th))

    def param_of_angle(self, theta: float) -> float:
        """Arc parameter of an angle; in [0, 1] iff the angle is on the arc."""
        delta = _wrap_angle(theta - self.theta_att)
        s = delta / self.sweep
        if s < 0.0:
            s = (delta + math.copysign(2.0 * math.pi, self.sweep)) / self.sweep
        return s


def base_map(gens, family: str) -> GroupElement:
    """The map whose axis carries the family's first arc: g1 for alpha, g2^-1 g3 for beta."""
    return gens.g1 if family == "alpha" else gens.g2.inverse() @ gens.g3


def _crown_arc(config: DirichletConfig, name: str,
               base: Tuple[np.ndarray, np.ndarray]) -> CrownArc:
    """The named arc: counterclockwise from the attracting end.

    The two fixed points sit antipodally on the chart circle, and every
    sphere's chart line is perpendicular to that diameter, so the side
    functions are exactly mirror-symmetric about it: both half-arcs relate
    to the spheres identically, and picking one is a normalization, not a
    finding.  The counterclockwise half is the one the symmetry transports
    consistently (``g2`` images match, and the carried beta hat abuts the
    alpha hat); :func:`hat_arc` certifies it holds a single in-domain
    segment.  ``base`` is the fixed-point pair of the family's
    :func:`base_map`, which ``g2`` carries to the named arc.
    """
    if name not in ARC_NAMES:
        raise GeometryError(f"unknown arc name {name!r}")
    gens = config.gens
    idx = int(name[-1])
    att, rep = base
    polar = box_product(att, rep)
    for _ in range(idx - 1):
        att = gens.g2.apply(att)
        rep = gens.g2.apply(rep)
        polar = gens.g2.apply(polar)
    circle = ccircle_from_polar(polar)
    chart = ChartedCircle.build(gens.t, circle)
    theta_att = chart.chart_angle(att)
    ccw = (chart.chart_angle(rep) - theta_att) % (2.0 * math.pi)
    return CrownArc(name, circle, chart, theta_att, ccw)


def _sphere_crossing_params(arc: CrownArc, config: DirichletConfig):
    """Sorted arc parameters of on-arc sphere crossings, with sphere index."""
    hits: List[Tuple[float, int]] = []
    for sphere, line in zip(config.spheres, arc.chart.sphere_lines(config)):
        for theta in line.circle_crossings():
            s = arc.param_of_angle(theta)
            if 0.0 <= s <= 1.0:
                hits.append((s, sphere.index))
    hits.sort()
    return hits


def _in_domain_segments(arc: CrownArc, config: DirichletConfig,
                        hits: List[Tuple[float, int]]) -> List[Tuple[float, float]]:
    """Maximal sub-intervals of the arc outside all eight spheres.

    ``hits`` are the arc's sphere crossings from ``_sphere_crossing_params``;
    a piece is outside when its midpoint's largest side value is below
    ``-1e-12``.  The midpoints of all pieces are lifted and evaluated as one
    stack.
    """
    cuts = [0.0] + [s for s, _ in hits] + [1.0]
    pieces = [(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]) if hi - lo >= 1e-12]
    theta = arc.angle_at(np.array([(lo + hi) / 2.0 for lo, hi in pieces]))
    sides = config.side_matrix(arc.chart.from_chart(np.cos(theta), np.sin(theta)))
    segments = [piece for piece, top in zip(pieces, np.max(sides, axis=1)) if top < -1e-12]
    # merge adjacent segments split by a crossing that does not change sign
    merged: List[Tuple[float, float]] = []
    for seg in segments:
        if merged and abs(merged[-1][1] - seg[0]) < 1e-12:
            merged[-1] = (merged[-1][0], seg[1])
        else:
            merged.append(seg)
    return [tuple(seg) for seg in merged]


@dataclass(frozen=True)
class HatArc:
    """The in-domain segment of a crown arc, with its two host spheres."""

    arc: CrownArc
    s_minus: float
    s_plus: float
    host_minus: int
    host_plus: int
    interior_margin: float

    @property
    def hosts(self) -> Tuple[int, int]:
        return self.host_minus, self.host_plus

    def endpoint_lift(self, side: str) -> np.ndarray:
        s = self.s_minus if side == "-" else self.s_plus
        return self.arc.lift_at(s)

    def endpoint_chart(self, side: str) -> Tuple[float, float]:
        th = self.arc.angle_at(self.s_minus if side == "-" else self.s_plus)
        return math.cos(th), math.sin(th)

    def sample_lifts(self, n: int) -> np.ndarray:
        """``(n, 3)`` lifts of ``n`` evenly spaced hat points, lifted as one stack."""
        theta = self.sample_angles(n)
        return self.arc.chart.from_chart(np.cos(theta), np.sin(theta))

    def sample_angles(self, n: int) -> np.ndarray:
        """Chart angles of the points of :meth:`sample_lifts`, without lifting."""
        return self.arc.angle_at(np.linspace(self.s_minus, self.s_plus, n))


def hat_arc(arc: CrownArc, config: DirichletConfig,
            hits: List[Tuple[float, int]]) -> HatArc:
    """Cut the arc by all spheres and keep the unique in-domain segment.

    The endpoints are sphere crossings; their spheres are the hosts.  The
    minus end is the one hosted by the odd-indexed sphere of the pair
    (canonical 2i+1 for both arc families).  ``hits`` are the arc's sphere
    crossings from ``_sphere_crossing_params``.
    """
    segs = _in_domain_segments(arc, config, hits)
    if len(segs) != 1:
        raise GeometryError(f"{arc.name}: expected one in-domain segment, got {len(segs)}")
    lo, hi = segs[0]
    host_of = {}
    for s, k in hits:
        host_of[round(s, 12)] = k
    try:
        h_lo = host_of[round(lo, 12)]
        h_hi = host_of[round(hi, 12)]
    except KeyError:
        raise GeometryError(f"{arc.name}: in-domain segment not bounded by crossings")
    mid_vals = config.side_matrix(arc.lift_at((lo + hi) / 2.0))
    margin = float(-np.max(mid_vals))
    if h_lo % 2 == 1:
        return HatArc(arc, lo, hi, h_lo, h_hi, margin)
    return HatArc(arc, hi, lo, h_hi, h_lo, margin)


def expected_hosts(name: str) -> Tuple[int, int]:
    """Canonical host pattern: alpha_i -> (2i+1, 2i), beta_i -> (2i+1, 2i+2)."""
    kind, idx = name[:-1], int(name[-1])
    if kind == "alpha":
        return canonical_index(2 * idx + 1), canonical_index(2 * idx)
    return canonical_index(2 * idx + 1), canonical_index(2 * idx + 2)


def expected_relevant_spheres(name: str) -> Tuple[int, ...]:
    kind, idx = name[:-1], int(name[-1])
    if kind == "alpha":
        ks = (2 * idx - 1, 2 * idx, 2 * idx + 1, 2 * idx + 2)
    else:
        ks = (2 * idx, 2 * idx + 1, 2 * idx + 2, 2 * idx + 3)
    return tuple(sorted(canonical_index(k) for k in ks))


@dataclass(frozen=True)
class ArcReport:
    name: str
    hosts: Tuple[int, int]
    crossing_counts: Dict[int, int]
    hat: HatArc

    @property
    def pattern_ok(self) -> bool:
        if tuple(sorted(self.hosts)) != tuple(sorted(expected_hosts(self.name))):
            return False
        want = expected_relevant_spheres(self.name)
        for k in range(1, 9):
            expected = 1 if k in want else 0
            if self.crossing_counts.get(k, 0) != expected:
                return False
        return True


def arc_report(config: DirichletConfig, name: str,
               base: Tuple[np.ndarray, np.ndarray]) -> ArcReport:
    """Hat, hosts and crossing counts of one arc from a single crossing list.

    ``base`` is the fixed-point pair of the family's :func:`base_map`;
    :func:`hat_arc` certifies the one in-domain segment.
    """
    arc = _crown_arc(config, name, base)
    hits = _sphere_crossing_params(arc, config)
    hat = hat_arc(arc, config, hits)
    counts: Dict[int, int] = {k: 0 for k in range(1, 9)}
    for _s, k in hits:
        counts[k] += 1
    return ArcReport(name, hat.hosts, counts, hat)


def table1(scene: "Scene") -> Dict[str, Tuple[int, int]]:
    """Host matrix: arc name -> (minus host, plus host), canonical indices."""
    return {name: scene.arc_report(name).hosts for name in ARC_NAMES}


class Scene:
    """The pipeline of one parameter, shared by everything that reads ``t``.

    The configuration, the fixed points of the two base maps, the
    crown-circle polars and each crown arc's report are computed on first
    use and at most once; a sweep builds one scene per ``t`` and drops it
    when the point is done.
    """

    def __init__(self, t: float):
        self.t = t
        self._arcs: Dict[str, ArcReport] = {}

    @cached_property
    def config(self) -> DirichletConfig:
        return DirichletConfig.build(self.t)

    @cached_property
    def _base_fixed(self) -> Tuple[np.ndarray, np.ndarray]:
        """Both base maps solved as one two-row stack: alpha, then beta."""
        gens = self.config.gens
        return fixed_points_boundary(np.stack([base_map(gens, family).matrix
                                               for family in ("alpha", "beta")]))

    def fixed_points(self, family: str) -> Tuple[np.ndarray, np.ndarray]:
        """Attracting and repelling fixed points of the family's :func:`base_map`,
        or ``NearParabolicError`` where its row of the stack is NaN."""
        return _fixed_row(*self._base_fixed, 0 if family == "alpha" else 1)

    @cached_property
    def polars(self) -> Dict[str, np.ndarray]:
        """:func:`crown_circle_polars` of the configuration."""
        return crown_circle_polars(self.config, self.fixed_points("beta"))

    def arc_report(self, name: str) -> ArcReport:
        if name not in self._arcs:
            self._arcs[name] = arc_report(self.config, name, self.fixed_points(name[:-1]))
        return self._arcs[name]


# ---------------------------------------------------------------------------
# clearance of the never-touched sphere


def alpha4_chart(t: float) -> ChartedCircle:
    t = validate_param(t)
    circle = ccircle_from_polar(alpha4_polar(t))
    return ChartedCircle.build(t, circle)


def clearance_objective(t):
    """Squared chart distance of sphere 5's line from the alpha4 chart origin.

    Greater than 1 means the sphere misses the whole alpha4 circle.  The
    closed-form alpha4 polar keeps this well-defined arbitrarily close to
    the parabolic endpoint of the family.  ``t`` is a float, answered with
    a float, or a 1-d array of parameters, answered with an array, and both
    take one pass over the generator stacks: sphere 5's side values at the
    chart points (1, 0), (-1, 0) and (0, 1) give its chart line, as in
    :meth:`ChartedCircle.sphere_lines`.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    co = _coefficient_arrays(ts)
    g1, g2 = _generator_stacks(co)
    v5 = _sphere_lifts(g2 @ g2 @ g1)
    z0, v0, r2 = _finite_circles(_alpha4_polar(co))
    # the three chart points on the standard circle scaled to radius R,
    # then translated by the centre
    zr = np.sqrt(r2)[:, None] * np.array([1.0, -1.0, 1j])
    z = z0[:, None] + zr
    h = v0[:, None] + 2.0 * (z0[:, None] * np.conj(zr)).imag
    f10, fm10, f01 = _sides(v5, z, h).T
    k0 = (f10 + fm10) / 2.0
    k1 = (f10 - fm10) / 2.0
    k2 = f01 - k0
    with np.errstate(divide="ignore"):
        out = k0 ** 2 / (k1 ** 2 + k2 ** 2)
    return out if np.ndim(t) else float(out[0])


#: points of the coarse scan of :func:`golden_minimize`
_GOLDEN_GRID = 256
#: bracket width at which the golden-section refinement stops
_GOLDEN_TOL = 1e-10
#: windows of the two searches: the clearance one starts just off the
#: parabolic end, the blocking one at the tangency parameter 2/5
_CLEARANCE_WINDOW = (PARAM_MIN + 1e-7, PARAM_MAX)
_BLOCKING_WINDOW = (0.4, PARAM_MAX)


def golden_minimize(f, lo: float, hi: float) -> Tuple[float, float]:
    """Coarse grid scan followed by golden-section refinement.

    ``f`` takes a float or an array of parameters: one call evaluates the
    whole grid, and the refinement calls it one parameter at a time.  Any
    NaN or infinite value, on the grid or in the refinement, returns
    ``(nan, nan)``: the argmin would pick a NaN and every comparison after
    one would steer the bracket blindly.
    """
    ts = np.linspace(lo, hi, _GOLDEN_GRID)
    vals = f(ts)
    if not np.all(np.isfinite(vals)):
        return math.nan, math.nan
    i = int(np.argmin(vals))
    a = float(ts[max(0, i - 1)])
    b = float(ts[min(_GOLDEN_GRID - 1, i + 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > _GOLDEN_TOL and math.isfinite(fc) and math.isfinite(fd):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    xm = (a + b) / 2.0
    fm = f(xm)
    if not (math.isfinite(fc) and math.isfinite(fd) and math.isfinite(fm)):
        return math.nan, math.nan
    return xm, fm


def minimize_clearance() -> Tuple[float, float]:
    """Global minimum of the clearance over the family, just off t = 3/8."""
    return golden_minimize(clearance_objective, *_CLEARANCE_WINDOW)


def _self_products(v: np.ndarray) -> np.ndarray:
    """``<v, v>`` of each row of an ``(n, 3)`` array."""
    return 2.0 * (v[:, 0] * np.conj(v[:, 2])).real + _abs2(v[:, 1])


def _sphere_lifts(words: np.ndarray) -> np.ndarray:
    """``w Q0`` for a stack of words ``w``: the lifts ``v`` of their spheres.

    Refused, as :class:`SpinalSphere` refuses one, when a lift misses
    ``Q0``'s self-product.  The words are not renormalized to determinant 1:
    that divides by a cube root of a unit-modulus determinant, a phase that
    no side value ``|<p, v>|^2`` can see.
    """
    v = words @ Q0
    if not np.all(np.abs(_self_products(v) - _Q0_NORM) <= 1e-9 * abs(_Q0_NORM)):
        raise GeometryError("a bisector lift must have the centre's self-product")
    return v


def _sides(v: np.ndarray, z: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Side values ``|<p, Q0>|^2 - |<p, v>|^2``, row ``i`` against lift ``v[i]``.

    ``p`` runs over the standard lifts ``[(-|z|^2 + i h)/2, z, 1]`` of the
    Heisenberg points ``(z, h)``, an ``(n, m)`` array each.
    """
    p0 = (-(z.real ** 2 + z.imag ** 2) + 1j * h) / 2.0

    def product(u):  # <p, u> = u^H J p
        return np.conj(u[..., :1]) + np.conj(u[..., 1:2]) * z + np.conj(u[..., 2:]) * p0

    return _abs2(product(Q0)) - _abs2(product(v))


def _finite_circles(polar: np.ndarray):
    """Centres ``(z0, v0)`` and squared radii of the C-circles of ``(n, 3)``
    polar lifts, refused as :func:`ccircle_from_polar` refuses one."""
    if not np.all(_self_products(polar) > EPS_ALG * _abs2(polar).sum(axis=1)):
        raise GeometryError("polar vector of a C-circle must be positive type")
    w = polar / polar[:, 2:]
    z0 = w[:, 1]
    r2 = 2.0 * w[:, 0].real + _abs2(z0)
    if not np.all(r2 > 0.0):
        raise GeometryError("polar vector encodes no real circle")
    return z0, 2.0 * w[:, 0].imag, r2


# ---------------------------------------------------------------------------
# chord between the alpha1 and alpha2 disks, and its blocking sphere


def _chord_line(c: Coefficients):
    """Slope and intercept of the alpha1/alpha2 plane-intersection line.

    Subtracting the two contact-plane equations leaves a line in the
    z-plane, y = k1 x + k2.  At the real point of the family b vanishes
    and the line collapses onto the real axis.  ``c`` holds floats or
    arrays.
    """
    t = c.t
    den = 2.0 * t * c.a + 4.0 * t - 1.0
    k1 = -c.b / t
    k2 = -math.sqrt(2.0) * (2.0 * t - 1.0) * c.b / (t * den)
    return k1, k2


def _chord_bounds(c: Coefficients):
    """Chart-x extent of the affine segment shared by the alpha1/alpha2 disks.

    Intersecting the line of :func:`_chord_line` with each projected circle
    gives one x-interval per circle; the shared segment is their overlap,
    so the bounds are the alpha1 circle's lower root and the alpha2
    circle's upper root (an inverted pair means no shared segment, which
    happens exactly below the tangency parameter 2/5).  Discriminants are
    clamped at zero so the tangency itself stays inside the domain.
    """
    t, a, b = c.t, c.a, c.b
    k1, k2 = _chord_line(c)
    q = 1.0 + k1 * k1
    den = 2.0 * t * a + 4.0 * t - 1.0
    r2sq = (16.0 * t - 6.0) / den
    disc2 = np.maximum(0.0, q * r2sq - k2 * k2)
    lo2 = (-k1 * k2 - np.sqrt(disc2)) / q
    up2 = (-k1 * k2 + np.sqrt(disc2)) / q
    x1 = math.sqrt(2.0) * a * t / (1.0 - 2.0 * t)
    y1 = -math.sqrt(2.0) * a * b / (1.0 - 2.0 * t)
    r1sq = (6.0 - 16.0 * t) / (2.0 * t - 1.0)
    lead = x1 + k1 * (y1 - k2)
    disc1 = np.maximum(0.0, lead * lead - q * (x1 * x1 + (y1 - k2) ** 2 - r1sq))
    lo1 = (lead - np.sqrt(disc1)) / q
    up1 = (lead + np.sqrt(disc1)) / q
    return np.maximum(lo1, lo2), np.minimum(up1, up2)


#: chord abscissae of the five samples that pin the blocking quartic
_QUARTIC_XS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


def blocking_minimum_at(t):
    """Minimum over the shared segment of the halved side value vs sphere 3.

    Positive means the whole segment sits strictly inside the blocking
    sphere, so the alpha1/alpha2 cutting disks - which exclude every
    sphere's interior - cannot meet along it.  The halving reports the
    value in the normalization where the domain center's lift has Lorentz
    square -1; the raw side function doubles it because the standard
    center lift [-1, 0, 1] has square -2.  ``t`` is a float or a 1-d
    array, as for :func:`clearance_objective`.

    The probe point rides the contact-plane line of the alpha1/alpha2
    disks, z = x + i(k1 x + k2) with the height read off the alpha1 plane,
    so the side function against sphere 3 is an exact quartic in x.  It is
    solved exactly through five samples, and its critical points are the
    companion-matrix eigenvalues of its derivative, as ``np.roots`` finds
    them.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    co = _coefficient_arrays(ts)
    lo, hi = _chord_bounds(co)
    if not np.all(lo <= hi + 1e-12):
        raise GeometryError("the disks share no affine segment below the tangency")
    hi = np.maximum(hi, lo)
    k1, k2 = _chord_line(co)
    z = _QUARTIC_XS + 1j * (k1[:, None] * _QUARTIC_XS + k2[:, None])
    # heights on the alpha1 contact plane, as ContactPlane.height_at reads them
    z0, v0, _r2 = _finite_circles(_alpha1_polar(co))
    h = v0[:, None] - 2.0 * z0.real[:, None] * z.imag + 2.0 * z0.imag[:, None] * z.real
    g1, g2 = _generator_stacks(co)
    side = _sides(_sphere_lifts(g2 @ g1), z, h)
    poly = np.linalg.solve(np.vander(_QUARTIC_XS), side.T).T
    deriv = poly[:, :4] * np.array([4.0, 3.0, 2.0, 1.0])
    comp = np.zeros((len(poly), 3, 3))
    comp[:, 0, :] = -deriv[:, 1:] / deriv[:, :1]
    comp[:, 1, 0] = comp[:, 2, 1] = 1.0
    finite = np.isfinite(comp).all(axis=(1, 2))
    roots = np.linalg.eigvals(np.where(finite[:, None, None], comp, 0.0))
    x = np.concatenate([lo[:, None], hi[:, None], roots.real], axis=1)
    keep = np.ones(x.shape, dtype=bool)
    keep[:, 2:] = (np.abs(roots.imag) < 1e-9) & (lo[:, None] <= roots.real) & (roots.real <= hi[:, None])
    vals = poly[:, :1]
    for k in range(1, 5):
        vals = vals * x + poly[:, k:k + 1]
    best = np.min(np.where(keep, vals, np.inf), axis=1) / 2.0
    out = np.where(finite, best, np.nan)
    return out if np.ndim(t) else float(out[0])


def minimize_blocking() -> Tuple[float, float]:
    """Global minimum of the blocking value over the linked range.

    The minimum sits on the t = 2/5 boundary, where the shared segment
    degenerates to the tangency point of the two projected circles.
    """
    return golden_minimize(blocking_minimum_at, *_BLOCKING_WINDOW)


def honest_chord_blocking(t: float, sphere3: SpinalSphere) -> Optional[float]:
    """Cross-check: sample the true 3D chord and test it against sphere 3.

    Independent of the closed forms above: the chord comes from
    :func:`disk_intersection_segment` on the two affine disks at ``t``,
    sampled at 513 points, and the returned minimum is the raw (unhalved)
    side value against ``sphere3``, the configuration's sphere 3 at ``t``,
    so it should land on twice :func:`blocking_minimum_at`.  ``None`` when
    there is no chord.
    """
    c1 = ccircle_from_polar(alpha1_polar(t))
    c2 = ccircle_from_polar(alpha2_polar(t))
    seg = disk_intersection_segment(AffineDisk(c1), AffineDisk(c2))
    if seg is None:
        return None
    return float(np.min(sphere3.side_of_lifts(seg.sample_lifts(513))))


# ---------------------------------------------------------------------------
# cutting-disk disjointness across all pairs


@dataclass(frozen=True)
class VisibleComponent:
    """Hat-reachable free region of one affine disk, on a polar grid.

    ``reach[i, j]`` marks cells (radius row i, angle column j) that lie
    outside all eight spheres and connect to the hat arc through free
    cells.  The cutting disk is exactly the hat-adjacent visible part of
    the affine disk, so a point failing :meth:`reachable` lies beyond the
    disk's sphere-cap boundary, up to grid resolution.  A non-finite point
    is never reachable.
    """

    center: complex
    radius: float
    reach: np.ndarray

    def reachable(self, z: complex) -> bool:
        nr, nth = self.reach.shape
        offset = complex(z) - self.center
        rho = abs(offset)
        if not rho <= self.radius * (1.0 + 1e-9):  # NaN fails too
            return False
        i = min(nr - 1, int(rho / self.radius * nr))
        j = int((math.atan2(offset.imag, offset.real) % _TWO_PI) / _TWO_PI * nth) % nth
        return bool(self.reach[i, j])


_TWO_PI = 2.0 * math.pi


def visible_component(config: DirichletConfig, hat: HatArc,
                      nr: int, nth: int) -> VisibleComponent:
    """Flood-fill the affine disk of ``hat``'s circle from the hat arc.

    The grid has ``nr`` radius rows and ``nth`` angle columns.  Cells are
    seeded at the outermost free ring (of the last five) under each angle
    column one of 400 hat samples passes through (the hat itself lies on
    the circle), then grown through the 4-neighborhood of sphere-free cells
    by :func:`seeded_components`.  The chart's backward map is a Heisenberg
    translation by the circle centre and a positive dilation, so a hat
    point's angle about the centre is its chart angle, read off the arc
    without lifting the point.
    """
    circle = hat.arc.circle
    plane = AffineDisk(circle).plane
    center = complex(circle.center.z)
    radius = float(circle.radius)
    rho = (np.arange(nr) + 0.5) / nr * radius
    ang = (np.arange(nth) + 0.5) / nth * _TWO_PI
    spin = np.exp(1j * ang)
    height = (-plane.coeff_const, -plane.coeff_x, -plane.coeff_y)
    top, err = config.ring_side_max(center, height, rho, spin)
    free = top < -err[:, None]
    unsure = ~(free | (top > err[:, None]))
    # blocks holding a cell within the guard band are decided on the lifts,
    # exactly as in_boundary_domain decides them
    for r0 in range(0, nr, _FLOOD_BLOCK_ROWS):
        if not unsure[r0:r0 + _FLOOD_BLOCK_ROWS].any():
            continue
        z = center + rho[r0:r0 + _FLOOD_BLOCK_ROWS, None] * spin
        v = -(plane.coeff_const + plane.coeff_x * z.real + plane.coeff_y * z.imag)
        lifts = np.empty(z.shape + (3,), dtype=complex)
        lifts[..., 0] = (-np.abs(z) ** 2 + 1j * v) / 2.0
        lifts[..., 1] = z
        lifts[..., 2] = 1.0
        block = config.in_boundary_domain(lifts.reshape(-1, 3))
        free[r0:r0 + _FLOOD_BLOCK_ROWS] = block.reshape(z.shape)

    cols = np.unique(_angle_columns(hat.sample_angles(400), nth))
    rings = free[max(nr - 5, 0):, cols][::-1]
    rows = nr - 1 - np.argmax(rings, axis=0)
    hit = rings.any(axis=0)
    return VisibleComponent(center, radius, seeded_components(free, zip(rows[hit], cols[hit])))


def _angle_columns(theta: np.ndarray, nth: int) -> np.ndarray:
    """Column of each angle on a polar grid of ``nth`` equal angle columns."""
    return (np.mod(theta, _TWO_PI) / _TWO_PI * nth).astype(int) % nth


def seeded_components(free: np.ndarray, seeds: Iterable[Tuple[int, int]]) -> np.ndarray:
    """Cells of ``free`` 4-connected to a seed cell; columns wrap, rows do not.

    ``free[i, j]`` is radius row ``i`` and angle column ``j``, so column
    ``nth - 1`` neighbours column 0.  A run-length fill: every row splits
    into runs of free cells, runs sharing a column in adjacent rows are
    joined, and so are a row's first and last runs when they meet across
    the angular seam.  The components holding a seed are kept; seeds on
    blocked cells are ignored.
    """
    free = np.asarray(free, dtype=bool)
    starts = free.copy()
    starts[:, 1:] &= ~free[:, :-1]
    n_runs = int(np.count_nonzero(starts))
    if n_runs == 0:
        return np.zeros_like(free)
    # run id of every free cell; a run never spans two rows
    run = (np.cumsum(starts.ravel()) - 1).reshape(free.shape)
    # vertical links, one per stretch of columns joining the same two runs
    link = free[:-1] & free[1:]
    link[:, 1:] &= ~(free[:-1, :-1] & free[1:, :-1])
    seam = free[:, 0] & free[:, -1]
    edges = np.concatenate([run[:-1][link] * n_runs + run[1:][link],
                            run[seam, 0] * n_runs + run[seam, -1]])

    parent = list(range(n_runs))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for edge in edges.tolist():
        ra, rb = find(edge // n_runs), find(edge % n_runs)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    root = np.array([find(a) for a in range(n_runs)])
    seeded = np.zeros(n_runs, dtype=bool)
    for i, j in seeds:
        if free[i, j]:
            seeded[root[run[i, j]]] = True
    return free & seeded[root[run]]


@dataclass(frozen=True)
class DiskPairCert:
    """Disjointness evidence for one pair of cutting disks.

    Modes, strongest first (margin semantics in parentheses):

    - ``unlinked``: circles unlinked and the affine disks share no
      segment (margin = linking value, positive);
    - ``parallel-planes`` / ``no-chord``: the disks share no segment even
      though the circles link (margin = linking value);
    - ``blocked``: a single sphere contains the whole shared segment, so
      neither cutting disk reaches it (margin = min side vs the blocker);
    - ``covered``: every segment sample lies inside the sphere union
      though no single sphere takes all of it (margin = min over samples
      of the best covering side);
    - ``separated``: the segment pokes outside the union, but no exposed
      point connects to both hat arcs through the visible disk regions
      (margin = deepest exposure, negative; grid-resolution evidence);
    - ``overlapping``: an exposed segment point is reachable from both
      hats, i.e. the two cutting disks genuinely meet (margin = the
      witness's exposure, negative).
    """

    first: str
    second: str
    linking: float
    mode: str
    margin: float
    blocker: Optional[int] = None
    witness: Optional[Tuple[float, float, float]] = None

    @property
    def disjoint(self) -> bool:
        return self.mode != "overlapping"


#: samples along each shared chord segment of the disk ladder
_CHORD_SAMPLES = 257
#: a chord sample counts as exposed when no sphere covers it by this much
_VISIBLE_TOL = 1e-8
#: radius rows and angle columns of the flood-fill grid of each affine disk
_FLOOD_NR = 128
_FLOOD_NTH = 512
#: radius rows of the flood-fill grid decided together on the lifts when one
#: of them holds a cell within the ring kernel's guard band (4096 cells)
_FLOOD_BLOCK_ROWS = 8


def disk_disjointness_certificates(scene: Scene) -> List[DiskPairCert]:
    """Per-pair disjointness ladder over all 28 cutting-disk pairs.

    Unlinked circles settle a pair outright (with the empty segment
    verified rather than assumed).  Linked disks can only meet along the
    segment where their contact planes cross, so the certificate climbs:
    whole segment inside one sphere, then inside the union pointwise, then
    a flood-fill check that no exposed segment point is visible from both
    hat arcs.  Pairs failing every rung are reported as overlapping with
    an explicit witness point.  The hats come from ``scene``.
    """
    config = scene.config
    polars = scene.polars
    names = list(polars)
    links = {(r.first, r.second): r.value for r in linked_pair_report(scene)}
    disks = {name: AffineDisk(ccircle_from_polar(polars[name])) for name in names}
    comps: Dict[str, VisibleComponent] = {}

    def comp(name: str) -> VisibleComponent:
        if name not in comps:
            comps[name] = visible_component(config, scene.arc_report(name).hat,
                                            _FLOOD_NR, _FLOOD_NTH)
        return comps[name]

    out: List[DiskPairCert] = []
    for i, ni in enumerate(names):
        for nj in names[i + 1:]:
            link = links[(ni, nj)]
            try:
                seg = disk_intersection_segment(disks[ni], disks[nj])
                parallel = False
            except GeometryError:
                seg, parallel = None, True
            if seg is None:
                if link > 0.0:
                    mode = "unlinked"
                else:
                    mode = "parallel-planes" if parallel else "no-chord"
                out.append(DiskPairCert(ni, nj, link, mode, link))
                continue
            lifts = seg.sample_lifts(_CHORD_SAMPLES)
            side = config.side_matrix(lifts)
            per_sphere = np.min(side, axis=0)
            best = int(np.argmax(per_sphere))
            if per_sphere[best] > 0.0:
                out.append(DiskPairCert(ni, nj, link, "blocked",
                                        float(per_sphere[best]), best + 1))
                continue
            cover = np.max(side, axis=1)
            if float(np.min(cover)) >= -_VISIBLE_TOL:
                out.append(DiskPairCert(ni, nj, link, "covered", float(np.min(cover))))
                continue
            exposed = np.nonzero(cover < -_VISIBLE_TOL)[0]
            ci, cj = comp(ni), comp(nj)
            zs = lifts[:, 1].tolist()
            shared = [int(k) for k in exposed if ci.reachable(zs[k]) and cj.reachable(zs[k])]
            pool = shared if shared else [int(k) for k in exposed]
            k = min(pool, key=lambda idx: float(cover[idx]))
            witness = (zs[k].real, zs[k].imag, float(2.0 * lifts[k, 0].imag))
            mode = "overlapping" if shared else "separated"
            out.append(DiskPairCert(ni, nj, link, mode, float(cover[k]), None, witness))
    return out


# ---------------------------------------------------------------------------
# fundamental interval of the crown circle


def crown_fundamental_certificate(scene: Scene) -> Dict[str, float]:
    """g2 g1 carries the beta1 hat onto the alpha1 circle, abutting alpha1's hat.

    Certifies the word identity (g2 g1)(g2^-1 g3)(g2 g1)^-1 = g1, that the
    transported hat shares exactly one endpoint with the alpha1 hat, and
    that g1 translates the union's far ends onto each other, so the
    translates tile the whole arc between the fixed points of g1.
    """
    gens = scene.config.gens
    g1, g2 = gens.g1, gens.g2
    carrier = g2 @ g1
    conj = carrier @ (g2.inverse() @ gens.g3) @ carrier.inverse()
    word_res = matrix_phase_distance(conj.matrix, g1.matrix)

    alpha = scene.arc_report("alpha1").hat
    beta = scene.arc_report("beta1").hat
    chart = alpha.arc.chart
    angle_of = chart.chart_angle

    bm = angle_of(carrier.apply(beta.endpoint_lift("-")))
    bp = angle_of(carrier.apply(beta.endpoint_lift("+")))
    am = angle_of(alpha.endpoint_lift("-"))
    ap = angle_of(alpha.endpoint_lift("+"))

    gaps = {
        ("b-", "a-"): abs(_wrap_angle(bm - am)),
        ("b-", "a+"): abs(_wrap_angle(bm - ap)),
        ("b+", "a-"): abs(_wrap_angle(bp - am)),
        ("b+", "a+"): abs(_wrap_angle(bp - ap)),
    }
    (shared_b, shared_a), abut = min(gaps.items(), key=lambda kv: kv[1])
    far_b = bm if shared_b == "b+" else bp
    far_a = am if shared_a == "a+" else ap
    img = angle_of(g1.apply(chart.from_chart(math.cos(far_b), math.sin(far_b))))
    translate_res = abs(_wrap_angle(img - far_a))
    img2 = angle_of(g1.inverse().apply(chart.from_chart(math.cos(far_a), math.sin(far_a))))
    translate_res = min(translate_res, abs(_wrap_angle(img2 - far_b)))
    return {
        "word_residual": word_res,
        "abutment_gap": abut,
        "translate_residual": translate_res,
    }
