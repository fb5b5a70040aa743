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
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from .core import (
    GeometryError,
    GroupElement,
    axis_polar,
    box_product,
    fixed_points_boundary,
    hermitian_product,
    matrix_phase_distance,
)
from .dirichlet import DirichletConfig, SpinalSphere, canonical_index, sphere_at
from .heisenberg import (
    AffineDisk,
    CCircle,
    HeisenbergPoint,
    ccircle_from_polar,
    dilation_element,
    disk_intersection_segment,
    translation_element,
)
from .triangle import PARAM_MAX, coefficients

ARC_NAMES = ("alpha1", "alpha2", "alpha3", "alpha4", "beta1", "beta2", "beta3", "beta4")


# ---------------------------------------------------------------------------
# closed-form polar lifts


def alpha1_polar(t: float) -> np.ndarray:
    """Axis polar of g1, lifted with last coordinate 1."""
    c = coefficients(t)
    mid = math.sqrt(2.0) * c.a * complex(t, -c.b) / (1.0 - 2.0 * t)
    return np.array([-1.0, mid, 1.0], dtype=complex)


def alpha2_polar(t: float) -> np.ndarray:
    c = coefficients(t)
    den = 2.0 * t * c.a + 4.0 * t - 1.0
    return np.array([complex(8.0 * t - 3.0, -2.0 * c.a * c.b) / den, 0.0, 1.0], dtype=complex)


def alpha4_polar(t: float) -> np.ndarray:
    c = coefficients(t)
    den = 4.0 * t - 1.0 - 2.0 * t * c.a
    return np.array([complex(8.0 * t - 3.0, 2.0 * c.a * c.b) / den, 0.0, 1.0], dtype=complex)


def beta_polar_scaled(t: float) -> np.ndarray:
    """Axis polar of g1 g2^-1 (the circle beta_3) at the reference scale.

    This is the lift whose self-product is (16t-6)/(8(1-2t)); linking
    values against ``alpha1_polar`` then take rational closed forms.
    """
    c = coefficients(t)
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
    return 2.0 * (1.0 - 3.0 * t) / (2.0 * t - 1.0)


def linking_alpha_alpha_closed(t: float) -> float:
    return -2.0 * (15.0 * t * t - 11.0 * t + 2.0) / (2.0 * t - 1.0) ** 2


def crown_circle_polars(config: DirichletConfig) -> Dict[str, np.ndarray]:
    """Polar lifts of the eight crown circles, g2-orbits of alpha1/beta1."""
    g2 = config.gens.g2
    va = alpha1_polar(config.gens.t)
    vb = axis_polar(config.gens.g2.inverse() @ config.gens.g3)
    out: Dict[str, np.ndarray] = {}
    for i in range(4):
        out[f"alpha{i + 1}"] = va
        out[f"beta{i + 1}"] = vb
        va = g2.apply(va)
        vb = g2.apply(vb)
    return out


@dataclass(frozen=True)
class LinkReport:
    first: str
    second: str
    value: float

    @property
    def unlinked(self) -> bool:
        return self.value > 0.0


def linked_pair_report(config: DirichletConfig) -> List[LinkReport]:
    """Linking sign for all 28 pairs of crown circles."""
    polars = crown_circle_polars(config)
    names = list(polars)
    out = []
    for i, ni in enumerate(names):
        for nj in names[i + 1:]:
            out.append(LinkReport(ni, nj, linking_value(polars[ni], polars[nj])))
    return out


# ---------------------------------------------------------------------------
# chart normalization


def standard_chart_lift(t: float, x: float, y: float) -> np.ndarray:
    """Lift of the standard-circle point over chart position (x, y)."""
    r = math.sqrt(2.0 * (8.0 * t - 3.0))
    z = r * complex(x, y)
    return np.array([(-(abs(z) ** 2)) / 2.0, z, 1.0], dtype=complex)


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

    def to_chart(self, p) -> Tuple[float, float]:
        lift = p.lift() if isinstance(p, HeisenbergPoint) else np.asarray(p, dtype=complex)
        img = self.forward.apply(lift)
        if abs(img[2]) < 1e-13 * float(np.max(np.abs(img))):
            raise GeometryError("point maps to infinity; not on the chart")
        w = img / img[2]
        r = math.sqrt(2.0 * (8.0 * self.t - 3.0))
        z = complex(w[1]) / r
        return z.real, z.imag

    def chart_angle(self, p) -> float:
        x, y = self.to_chart(p)
        n = math.hypot(x, y)
        if abs(n - 1.0) > 1e-6:
            raise GeometryError(f"point is off the chart circle (|xy| = {n:.6f})")
        return math.atan2(y, x)

    def from_chart(self, x: float, y: float) -> np.ndarray:
        """Lift of the actual boundary point over chart position (x, y)."""
        img = self.backward.apply(standard_chart_lift(self.t, x, y))
        return img / img[2]

    def line_of_sphere(self, sphere: SpinalSphere) -> "ChartLine":
        f = lambda x, y: float(sphere.side_of_lifts(self.from_chart(x, y))[0])
        f10, fm10, f01 = f(1.0, 0.0), f(-1.0, 0.0), f(0.0, 1.0)
        k0 = (f10 + fm10) / 2.0
        k1 = (f10 - fm10) / 2.0
        k2 = f01 - k0
        return ChartLine(k0, k1, k2)

    def affinity_residual(self, sphere: SpinalSphere, n: int = 7) -> float:
        """Check the affine model against fresh chart points."""
        line = self.line_of_sphere(sphere)
        worst = 0.0
        for theta in np.linspace(0.3, 2.0 * math.pi, n, endpoint=False):
            x, y = math.cos(theta), math.sin(theta)
            val = float(sphere.side_of_lifts(self.from_chart(x, y))[0])
            worst = max(worst, abs(val - line.value(x, y)))
        return worst


@dataclass(frozen=True)
class ChartLine:
    """The trace k0 + k1 x + k2 y = 0 of a sphere on a circle chart."""

    k0: float
    k1: float
    k2: float

    def value(self, x: float, y: float) -> float:
        return self.k0 + self.k1 * x + self.k2 * y

    @property
    def direction_norm(self) -> float:
        return math.hypot(self.k1, self.k2)

    def clearance2(self) -> float:
        """Squared distance of the line from the chart origin."""
        d = self.direction_norm
        if d == 0.0:
            return math.inf
        return self.k0 ** 2 / (self.k1 ** 2 + self.k2 ** 2)

    def circle_crossings(self, tol: float = 0.0) -> List[float]:
        """Angles where the line meets the unit circle (0, 1, or 2)."""
        r = self.direction_norm
        if r == 0.0:
            return []
        c = -self.k0 / r
        if abs(c) > 1.0 + tol:
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
    word: GroupElement
    circle: CCircle
    chart: ChartedCircle
    theta_att: float
    theta_rep: float
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


def _axis_circle(t: float, polar: np.ndarray) -> Tuple[CCircle, ChartedCircle]:
    circle = ccircle_from_polar(polar)
    return circle, ChartedCircle.build(t, circle)


def _crown_arc(config: DirichletConfig, name: str) -> CrownArc:
    """The named arc: counterclockwise from the attracting end.

    The two fixed points sit antipodally on the chart circle, and every
    sphere's chart line is perpendicular to that diameter, so the side
    functions are exactly mirror-symmetric about it: both half-arcs relate
    to the spheres identically, and picking one is a normalization, not a
    finding.  The counterclockwise half is the one the symmetry transports
    consistently (``g2`` images match, and the carried beta hat abuts the
    alpha hat); :func:`hat_arc` certifies it holds a single in-domain
    segment.
    """
    if name not in ARC_NAMES:
        raise GeometryError(f"unknown arc name {name!r}")
    gens = config.gens
    kind, idx = name[:-1], int(name[-1])
    base = gens.g1 if kind == "alpha" else gens.g2.inverse() @ gens.g3
    att, rep = fixed_points_boundary(base)
    polar = box_product(att, rep)
    word = base
    for _ in range(idx - 1):
        att = gens.g2.apply(att)
        rep = gens.g2.apply(rep)
        polar = gens.g2.apply(polar)
        word = gens.g2 @ word @ gens.g2.inverse()
    circle, chart = _axis_circle(gens.t, polar)
    theta_att = chart.chart_angle(att)
    theta_rep = chart.chart_angle(rep)
    ccw = (theta_rep - theta_att) % (2.0 * math.pi)
    return CrownArc(name, word, circle, chart, theta_att, theta_rep, ccw)


def mirror_symmetry_residual(arc: CrownArc, config: DirichletConfig) -> float:
    """How exactly the complementary half-arc mirrors the chosen one.

    Every sphere line is perpendicular to the fixed-point diameter, so the
    two halves carry crossings at equal arc parameters and equal side
    values.  Returns the worst parameter/segment mismatch between them.
    """
    other = CrownArc(arc.name, arc.word, arc.circle, arc.chart,
                     arc.theta_att, arc.theta_rep, arc.sweep - 2.0 * math.pi)
    mine = _sphere_crossing_params(arc, config)
    theirs = _sphere_crossing_params(other, config)
    if len(mine) != len(theirs):
        return math.inf
    worst = max((abs(a - b) + (ka != kb) for (a, ka), (b, kb) in zip(mine, theirs)),
                default=math.inf)
    segs_a = _in_domain_segments(arc, config, mine)
    segs_b = _in_domain_segments(other, config, theirs)
    if len(segs_a) != len(segs_b):
        return math.inf
    for (a0, a1), (b0, b1) in zip(segs_a, segs_b):
        worst = max(worst, abs(a0 - b0), abs(a1 - b1))
    return worst


def _sphere_crossing_params(arc: CrownArc, config: DirichletConfig):
    """Sorted arc parameters of on-arc sphere crossings, with sphere index."""
    hits: List[Tuple[float, int]] = []
    for sphere in config.spheres:
        line = arc.chart.line_of_sphere(sphere)
        for theta in line.circle_crossings():
            s = arc.param_of_angle(theta)
            if 0.0 <= s <= 1.0:
                hits.append((s, sphere.index))
    hits.sort()
    return hits


def _in_domain_segments(arc: CrownArc, config: DirichletConfig,
                        hits: List[Tuple[float, int]],
                        guard: float = 1e-12) -> List[Tuple[float, float]]:
    """Maximal sub-intervals of the arc outside all eight spheres.

    ``hits`` are the arc's sphere crossings from ``_sphere_crossing_params``.
    """
    cuts = [0.0] + [s for s, _ in hits] + [1.0]
    segments = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo < 1e-12:
            continue
        mid = (lo + hi) / 2.0
        vals = config.side_matrix(arc.lift_at(mid))
        if float(np.max(vals)) < -guard:
            segments.append((lo, hi))
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

    def sample_lifts(self, n: int = 33) -> np.ndarray:
        ss = np.linspace(self.s_minus, self.s_plus, n)
        return np.stack([self.arc.lift_at(float(s)) for s in ss])

    def sample_angles(self, n: int = 33) -> np.ndarray:
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
    relevant: Tuple[int, ...]
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


def arc_report(config: DirichletConfig, name: str) -> ArcReport:
    """Hat, hosts and crossing counts of one arc from a single crossing list.

    :func:`hat_arc` certifies the one in-domain segment.
    """
    arc = _crown_arc(config, name)
    hits = _sphere_crossing_params(arc, config)
    hat = hat_arc(arc, config, hits)
    counts: Dict[int, int] = {k: 0 for k in range(1, 9)}
    for _s, k in hits:
        counts[k] += 1
    return ArcReport(name, hat.hosts, expected_relevant_spheres(name), counts, hat)


def table1(config: DirichletConfig) -> Dict[str, Tuple[int, int]]:
    """Host matrix: arc name -> (minus host, plus host), canonical indices."""
    return {name: arc_report(config, name).hosts for name in ARC_NAMES}


# ---------------------------------------------------------------------------
# clearance of the never-touched sphere and line parallelism


def alpha4_chart(t: float) -> ChartedCircle:
    circle = ccircle_from_polar(alpha4_polar(t))
    return ChartedCircle.build(t, circle)


def chart_line_coeffs(config: DirichletConfig, k: int,
                      chart: Optional[ChartedCircle] = None) -> ChartLine:
    """Line of the canonical sphere k on the alpha4 chart (or a given chart)."""
    chart = chart or alpha4_chart(config.gens.t)
    return chart.line_of_sphere(config.sphere(k))


def clearance_objective(t: float, config: Optional[DirichletConfig] = None) -> float:
    """Squared chart distance of sphere 5's line from the alpha4 chart origin.

    Greater than 1 means the sphere misses the whole alpha4 circle.  The
    closed-form alpha4 polar keeps this well-defined arbitrarily close to
    the parabolic endpoint of the family.  ``config`` is the configuration
    at ``t`` when the caller has it already; without it only sphere 5 is
    built.
    """
    sphere = config.sphere(5) if config is not None else sphere_at(t, 5)
    return alpha4_chart(t).line_of_sphere(sphere).clearance2()


def golden_minimize(f, lo: float, hi: float, tol: float = 1e-10,
                    grid: int = 512) -> Tuple[float, float]:
    """Coarse grid scan followed by golden-section refinement."""
    ts = np.linspace(lo, hi, grid)
    vals = [f(float(t)) for t in ts]
    i = int(np.argmin(vals))
    a = float(ts[max(0, i - 1)])
    b = float(ts[min(grid - 1, i + 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    xm = (a + b) / 2.0
    return xm, f(xm)


def minimize_clearance(lo: float = 0.375 + 1e-7, hi: float = PARAM_MAX,
                       grid: int = 512) -> Tuple[float, float]:
    return golden_minimize(clearance_objective, lo, hi, grid=grid)


def parallel_lines_certificate(config: DirichletConfig) -> Dict[str, float]:
    """Spheres 1 and 2 trace parallel lines on the alpha4 chart.

    Returns the cross-product residual of the two directions and the
    mismatch of the closed-form ratios (1-2t)/(4t-1) for the direction and
    (1-2t) for the constant term.
    """
    t = config.gens.t
    chart = alpha4_chart(t)
    l1 = chart_line_coeffs(config, 1, chart)
    l2 = chart_line_coeffs(config, 2, chart)
    cross = l1.k1 * l2.k2 - l1.k2 * l2.k1
    scale = max(l1.direction_norm * l2.direction_norm, 1e-30)
    ratio_dir = (1.0 - 2.0 * t) / (4.0 * t - 1.0)
    ratio_res = max(abs(l1.k1 - ratio_dir * l2.k1), abs(l1.k2 - ratio_dir * l2.k2))
    const_res = abs(l1.k0 - (1.0 - 2.0 * t) * l2.k0)
    return {
        "parallel_residual": abs(cross) / scale,
        "direction_ratio_residual": ratio_res,
        "constant_ratio_residual": const_res,
    }


def printed_k0_sphere1(t: float) -> float:
    """Closed form of the sphere-1 line's constant term on the alpha4 chart."""
    return (6.0 * t - 2.0) * (8.0 * t - 3.0) / (2.0 * t - 1.0)


# ---------------------------------------------------------------------------
# chord between the alpha1 and alpha2 disks, and its blocking sphere


def chord_line(t: float) -> Tuple[float, float]:
    """Slope and intercept of the alpha1/alpha2 plane-intersection line.

    Subtracting the two contact-plane equations leaves a line in the
    z-plane, y = k1 x + k2.  At the real point of the family b vanishes
    and the line collapses onto the real axis.
    """
    c = coefficients(t)
    den = 2.0 * t * c.a + 4.0 * t - 1.0
    k1 = -c.b / t
    k2 = -math.sqrt(2.0) * (2.0 * t - 1.0) * c.b / (t * den)
    return k1, k2


def chord_bounds(t: float) -> Tuple[float, float]:
    """Chart-x extent of the affine segment shared by the alpha1/alpha2 disks.

    Intersecting the line of :func:`chord_line` with each projected circle
    gives one x-interval per circle; the shared segment is their overlap,
    so the bounds are the alpha1 circle's lower root and the alpha2
    circle's upper root (an inverted pair means no shared segment, which
    happens exactly below the tangency parameter 2/5).  Discriminants are
    clamped at zero so the tangency itself stays inside the domain.
    """
    c = coefficients(t)
    a, b = c.a, c.b
    k1, k2 = chord_line(t)
    q = 1.0 + k1 * k1
    den = 2.0 * t * a + 4.0 * t - 1.0
    r2sq = (16.0 * t - 6.0) / den
    disc2 = max(0.0, q * r2sq - k2 * k2)
    lo2 = (-k1 * k2 - math.sqrt(disc2)) / q
    up2 = (-k1 * k2 + math.sqrt(disc2)) / q
    x1 = math.sqrt(2.0) * a * t / (1.0 - 2.0 * t)
    y1 = -math.sqrt(2.0) * a * b / (1.0 - 2.0 * t)
    r1sq = (6.0 - 16.0 * t) / (2.0 * t - 1.0)
    lead = x1 + k1 * (y1 - k2)
    disc1 = max(0.0, lead * lead - q * (x1 * x1 + (y1 - k2) ** 2 - r1sq))
    lo1 = (lead - math.sqrt(disc1)) / q
    up1 = (lead + math.sqrt(disc1)) / q
    return max(lo1, lo2), min(up1, up2)


def blocking_side_quartic(t: float, blocker: SpinalSphere) -> np.ndarray:
    """Coefficients (degree 4 down to 0) of x -> ``blocker``'s side along the chord line.

    The probe point rides the contact-plane line of the alpha1/alpha2
    disks, z = x + i(k1 x + k2) with the height read off the alpha1 plane,
    so the side function against sphere 3 at ``t`` (the blocker separating
    those two cutting disks) is an exact quartic in x and five samples pin it.
    """
    k1, k2 = chord_line(t)
    plane = AffineDisk(ccircle_from_polar(alpha1_polar(t))).plane
    xs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    pts = []
    for x in xs:
        z = complex(x, k1 * x + k2)
        pts.append(HeisenbergPoint(z, plane.height_at(z)).lift())
    vals = blocker.side_of_lifts(np.stack(pts))
    return np.polyfit(xs, vals, 4)


def blocking_minimum_at(t: float, config: Optional[DirichletConfig] = None) -> float:
    """Minimum over the shared segment of the halved side value vs sphere 3.

    Positive means the whole segment sits strictly inside the blocking
    sphere, so the alpha1/alpha2 cutting disks - which exclude every
    sphere's interior - cannot meet along it.  The halving reports the
    value in the normalization where the domain center's lift has Lorentz
    square -1; the raw side function doubles it because the standard
    center lift [-1, 0, 1] has square -2.  ``config`` is the configuration
    at ``t`` when the caller has it already; without it only sphere 3 is
    built.
    """
    lo, hi = chord_bounds(t)
    if lo > hi + 1e-12:
        raise GeometryError("the disks share no affine segment below the tangency")
    hi = max(hi, lo)
    blocker = config.sphere(3) if config is not None else sphere_at(t, 3)
    poly = blocking_side_quartic(t, blocker)
    deriv = np.polyder(poly)
    cand = [lo, hi]
    for r in np.roots(deriv):
        if abs(r.imag) < 1e-9 and lo <= r.real <= hi:
            cand.append(float(r.real))
    return min(float(np.polyval(poly, x)) for x in cand) / 2.0


def minimize_blocking(lo: float = 0.4, hi: float = PARAM_MAX,
                      grid: int = 512) -> Tuple[float, float]:
    """Global minimum of the blocking value over the linked range.

    The minimum sits on the lo = 2/5 boundary, where the shared segment
    degenerates to the tangency point of the two projected circles.
    """
    return golden_minimize(blocking_minimum_at, lo, hi, grid=grid)


def honest_chord_blocking(t: float, n: int = 513,
                          config: Optional[DirichletConfig] = None) -> Optional[float]:
    """Cross-check: sample the true 3D chord and test it against sphere 3.

    Independent of the closed forms above: the chord comes from
    :func:`disk_intersection_segment` on the two affine disks, and the
    returned minimum is the raw (unhalved) side value, so it should land
    on twice :func:`blocking_minimum_at`.  ``None`` when there is no chord.
    ``config`` is the configuration at ``t`` when the caller has it already;
    without it only sphere 3 is built.
    """
    c1 = ccircle_from_polar(alpha1_polar(t))
    c2 = ccircle_from_polar(alpha2_polar(t))
    seg = disk_intersection_segment(AffineDisk(c1), AffineDisk(c2))
    if seg is None:
        return None
    blocker = config.sphere(3) if config is not None else sphere_at(t, 3)
    return float(np.min(blocker.side_of_lifts(seg.sample_lifts(n))))


# ---------------------------------------------------------------------------
# cutting-disk disjointness across all pairs


@dataclass(frozen=True)
class VisibleComponent:
    """Hat-reachable free region of one affine disk, on a polar grid.

    ``reach[i, j]`` marks cells (radius row i, angle column j) that lie
    outside all eight spheres and connect to the hat arc through free
    cells.  The cutting disk is exactly the hat-adjacent visible part of
    the affine disk, so a point failing :meth:`reachable` lies beyond the
    disk's sphere-cap boundary, up to grid resolution.
    """

    center: complex
    radius: float
    reach: np.ndarray

    def reachable(self, z: complex) -> bool:
        nr, nth = self.reach.shape
        offset = complex(z) - self.center
        rho = abs(offset)
        if rho > self.radius * (1.0 + 1e-9):
            return False
        i = min(nr - 1, int(rho / self.radius * nr))
        j = int((math.atan2(offset.imag, offset.real) % _TWO_PI) / _TWO_PI * nth) % nth
        return bool(self.reach[i, j])


_TWO_PI = 2.0 * math.pi


def visible_component(config: DirichletConfig, hat: HatArc,
                      nr: int = 128, nth: int = 512,
                      hat_samples: int = 400) -> VisibleComponent:
    """Flood-fill the affine disk of ``hat``'s circle from the hat arc.

    Cells are seeded at the outermost free ring (of the last five) under
    each angle column the hat passes through (the hat itself lies on the
    circle), then grown through the 4-neighborhood of sphere-free cells by
    :func:`seeded_components`.  The chart's backward map is a Heisenberg
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
    z = center + rho[:, None] * np.exp(1j * ang)[None, :]
    v = -(plane.coeff_const + plane.coeff_x * z.real + plane.coeff_y * z.imag)
    lifts = np.empty((nr, nth, 3), dtype=complex)
    lifts[..., 0] = (-np.abs(z) ** 2 + 1j * v) / 2.0
    lifts[..., 1] = z
    lifts[..., 2] = 1.0
    free = config.in_boundary_domain(lifts.reshape(-1, 3)).reshape(nr, nth)

    cols = np.unique(_angle_columns(hat.sample_angles(hat_samples), nth))
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


def disk_disjointness_certificates(config: DirichletConfig, n: int = 257,
                                   nr: int = 128, nth: int = 512,
                                   visible_tol: float = 1e-8,
                                   hats: Optional[Callable[[str], HatArc]] = None,
                                   ) -> List[DiskPairCert]:
    """Per-pair disjointness ladder over all 28 cutting-disk pairs.

    Unlinked circles settle a pair outright (with the empty segment
    verified rather than assumed).  Linked disks can only meet along the
    segment where their contact planes cross, so the certificate climbs:
    whole segment inside one sphere, then inside the union pointwise, then
    a flood-fill check that no exposed segment point is visible from both
    hat arcs.  Pairs failing every rung are reported as overlapping with
    an explicit witness point.  ``hats`` looks up an arc's hat by name when
    the caller holds them; otherwise hats are built here on demand.
    """
    if hats is None:
        hats = lambda name: arc_report(config, name).hat  # noqa: E731
    polars = crown_circle_polars(config)
    names = list(polars)
    links = {(r.first, r.second): r.value for r in linked_pair_report(config)}
    disks = {name: AffineDisk(ccircle_from_polar(polars[name])) for name in names}
    comps: Dict[str, VisibleComponent] = {}

    def comp(name: str) -> VisibleComponent:
        if name not in comps:
            comps[name] = visible_component(config, hats(name), nr, nth)
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
            lifts = seg.sample_lifts(n)
            side = config.side_matrix(lifts)
            per_sphere = np.min(side, axis=0)
            best = int(np.argmax(per_sphere))
            if per_sphere[best] > 0.0:
                out.append(DiskPairCert(ni, nj, link, "blocked",
                                        float(per_sphere[best]), best + 1))
                continue
            cover = np.max(side, axis=1)
            if float(np.min(cover)) >= -visible_tol:
                out.append(DiskPairCert(ni, nj, link, "covered", float(np.min(cover))))
                continue
            exposed = np.nonzero(cover < -visible_tol)[0]
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


def crown_fundamental_certificate(config: DirichletConfig,
                                  hats: Optional[Callable[[str], HatArc]] = None,
                                  ) -> Dict[str, float]:
    """g2 g1 carries the beta1 hat onto the alpha1 circle, abutting alpha1's hat.

    Certifies the word identity (g2 g1)(g2^-1 g3)(g2 g1)^-1 = g1, that the
    transported hat shares exactly one endpoint with the alpha1 hat, and
    that g1 translates the union's far ends onto each other, so the
    translates tile the whole arc between the fixed points of g1.  ``hats``
    looks up an arc's hat by name when the caller holds them.
    """
    if hats is None:
        hats = lambda name: arc_report(config, name).hat  # noqa: E731
    gens = config.gens
    g1, g2 = gens.g1, gens.g2
    carrier = g2 @ g1
    conj = carrier @ (g2.inverse() @ gens.g3) @ carrier.inverse()
    word_res = matrix_phase_distance(conj.matrix, g1.matrix)

    alpha = hats("alpha1")
    beta = hats("beta1")
    chart = alpha.arc.chart

    def angle_of(lift: np.ndarray) -> float:
        return chart.chart_angle(lift)

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
