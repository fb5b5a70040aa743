"""Certificate sweeps, deterministic reports, and figure-data exports.

This module is deliberately plumbing, not geometry: every numerical claim
lives in :mod:`triangle`, :mod:`dirichlet` or :mod:`crown`.  Here each
claim is evaluated over a parameter sweep and flattened into records of
the shape ``(suite, t, key, value, margin, pass)``, so runs can be
sharded across processes, merged, and compared bytewise.

Determinism rules, which the JSON/CSV/OBJ writers all follow:

- floats are always rendered with ``format(x, ".17g")`` (round-trip
  exact for doubles);
- records are sorted by ``(suite, t, key)`` before writing;
- no timestamps, hostnames or other run-specific data appear anywhere,
  so identical configuration means identical output bytes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import crown
from .core import (
    GeometryError,
    IsometryClass,
    NearParabolicError,
    classify_isometry,
    fixed_points_boundary,
    matrix_phase_distance,
)
from .dirichlet import (
    DirichletConfig,
    expected_to_meet,
    fixed_point_lifts,
    fixed_point_side_forms,
    giraud_order3_certificate,
    involution_certificate,
    pairwise_relations,
    side_pairing_certificate,
    sphere_mesh,
    symmetry_certificate,
)
from .heisenberg import AffineDisk, HeisenbergPoint, ccircle_from_polar
from .triangle import (
    PARAM_MAX,
    PARAM_MIN,
    T_REAL,
    build_generators,
    max_imag_entry,
    real_point_matrices,
    relation_values,
    validate_param,
)

SUITE_NAMES = ("relations", "dirichlet", "arcs", "disks", "minima")
EXPORT_KINDS = ("spheres", "arcs", "disks", "limitset")

#: default sweep floor: just off the parabolic endpoint
SWEEP_T_MIN = PARAM_MIN + 1e-4


# ---------------------------------------------------------------------------
# sweep configuration


@dataclass(frozen=True)
class SweepConfig:
    """Where and how densely to sample the parameter interval."""

    t_min: float = SWEEP_T_MIN
    t_max: float = PARAM_MAX
    steps: int = 101
    spacing: str = "uniform"
    precision: str = "double"

    def __post_init__(self):
        validate_param(self.t_min)
        validate_param(self.t_max)
        if not self.t_min < self.t_max:
            raise GeometryError(
                f"empty sweep: t_min={self.t_min!r} must be < t_max={self.t_max!r}"
            )
        if self.steps < 2:
            raise GeometryError("a sweep needs at least 2 steps")
        if self.spacing not in ("uniform", "chebyshev"):
            raise GeometryError(f"unknown spacing {self.spacing!r}")
        if self.precision not in ("double", "extended"):
            raise GeometryError(f"unknown precision {self.precision!r}")

    def points(self) -> List[float]:
        """Sample parameters, ascending."""
        if self.spacing == "uniform":
            return [float(x) for x in np.linspace(self.t_min, self.t_max, self.steps)]
        mid = (self.t_min + self.t_max) / 2.0
        half = (self.t_max - self.t_min) / 2.0
        ks = np.arange(self.steps)
        nodes = mid + half * np.cos(math.pi * (2 * ks + 1) / (2 * self.steps))
        return sorted(float(x) for x in nodes)


# ---------------------------------------------------------------------------
# records and reports


@dataclass(frozen=True)
class Record:
    """One checked (or logged) value at one parameter."""

    suite: str
    t: float
    key: str
    value: float
    margin: float
    passed: bool


def _rec(suite: str, t: float, key: str, value, margin, passed) -> Record:
    """A record that fails whenever its value or margin is NaN or infinite."""
    value, margin = float(value), float(margin)
    ok = bool(passed) and math.isfinite(value) and math.isfinite(margin)
    return Record(suite, float(t), key, value, margin, ok)


def _member(obj, key: str, kind: type):
    """``obj[key]`` as a ``kind``, else ``GeometryError``; a float may also be
    one of the strings ``_emit_json`` writes for NaN and the infinities."""
    if not isinstance(obj, dict) or key not in obj:
        raise GeometryError(f"malformed report: missing key {key!r}")
    value = obj[key]
    if kind is float and not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    elif isinstance(value, kind):
        return value
    raise GeometryError(f"malformed report: {key!r} is not a {kind.__name__}: {value!r}")


def _residual_rec(suite: str, t: float, key: str, value, tol: float) -> Record:
    v = float(value)
    return _rec(suite, t, key, v, tol - v, v < tol)


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def _worst(margins: Sequence[float]) -> float:
    """Smallest margin, where NaN counts as the smallest of all."""
    return min(margins, key=lambda m: (not math.isnan(m), m))


def _emit_json(obj, indent: int = 0) -> str:
    """Render ``obj`` with 17-significant-digit floats, preserving dict order."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {_emit_json(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_emit_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        # JSON has no NaN or infinity: those go out as the strings "nan",
        # "inf" and "-inf", which float() reads back
        return _f17(obj) if math.isfinite(obj) else json.dumps(_f17(obj))
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


@dataclass
class Report:
    """A flat pile of records plus the configuration that produced them."""

    config: Dict[str, object]
    records: List[Record] = field(default_factory=list)

    def sorted_records(self) -> List[Record]:
        return sorted(self.records, key=lambda r: (r.suite, r.t, r.key))

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def summary(self) -> Dict[str, object]:
        by_suite: Dict[str, List[Record]] = {}
        for r in self.sorted_records():
            by_suite.setdefault(r.suite, []).append(r)
        suites = {
            name: {
                "failed": sum(not r.passed for r in recs),
                "records": len(recs),
                "worst_margin": _worst([r.margin for r in recs]),
            }
            for name, recs in by_suite.items()
        }
        return {
            "failed": sum(int(c["failed"]) for c in suites.values()),
            "records": len(self.records),
            "suites": dict(sorted(suites.items())),
        }

    def to_json(self) -> str:
        body = {
            "config": dict(sorted(self.config.items())),
            "summary": self.summary(),
            "records": [
                {
                    "suite": r.suite,
                    "t": r.t,
                    "key": r.key,
                    "value": r.value,
                    "margin": r.margin,
                    "pass": r.passed,
                }
                for r in self.sorted_records()
            ],
        }
        return _emit_json(body) + "\n"

    def to_csv(self) -> str:
        lines = ["suite,t,key,value,margin,pass"]
        for r in self.sorted_records():
            lines.append(
                f"{r.suite},{_f17(r.t)},{r.key},{_f17(r.value)},{_f17(r.margin)},"
                + ("true" if r.passed else "false")
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Report":
        """Read a report back, failing closed: ``GeometryError`` on text that
        is not JSON, a missing key or a ``pass`` that is no JSON boolean.
        Records go through ``_rec``, so a NaN or infinite value never passes.
        """
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GeometryError(f"malformed report: not JSON ({exc})") from None
        config = _member(data, "config", dict)
        records = [
            _rec(_member(d, "suite", str), _member(d, "t", float), _member(d, "key", str),
                 _member(d, "value", float), _member(d, "margin", float),
                 _member(d, "pass", bool))
            for d in _member(data, "records", list)
        ]
        return cls(config, records)

    @classmethod
    def merge(cls, reports: Sequence["Report"]) -> "Report":
        merged: Dict[Tuple[str, float, str], Record] = {}
        for rep in reports:
            for r in rep.records:
                merged[(r.suite, r.t, r.key)] = r
        config = {"merged": [dict(sorted(rep.config.items())) for rep in reports]}
        return cls(config, list(merged.values()))


# ---------------------------------------------------------------------------
# per-parameter suite cells


EPS_REL = 1e-10
EPS_TRACE = 1e-12


def _relations_cell(scene: crown.Scene, extended: bool) -> List[Record]:
    # generators at the requested precision, not the scene's double ones
    t = scene.t
    rel = relation_values(t, extended)
    out = []
    for word in sorted(rel.relations):
        out.append(_residual_rec("relations", t, f"relation:{word}", rel.relations[word], EPS_REL))
    out.append(_residual_rec("relations", t, "trace-identity", rel.trace_identity, EPS_TRACE))
    out.append(_residual_rec("relations", t, "conjugate-g3", rel.conjugation, EPS_REL))
    if t >= SWEEP_T_MIN - 1e-12:
        out.append(_rec("relations", t, "g1-loxodromic", rel.g1_discriminant,
                        rel.g1_discriminant, rel.g1_loxodromic))
    return out


def _relations_global(extended: bool) -> List[Record]:
    out = []
    disc = abs(relation_values(PARAM_MIN, extended).g1_discriminant)
    out.append(_residual_rec("relations", PARAM_MIN, "g1-parabolic-at-left", disc, 1e-8))
    # reading entries and converting them to complex128 needs no 40-digit context
    real = build_generators(T_REAL, extended)
    out.append(_residual_rec("relations", T_REAL, "real-point-max-imag",
                             max_imag_entry(real), 1e-12))
    reference = real_point_matrices()
    for name in ("g1", "g2", "g3"):
        got = np.asarray(getattr(real, name).matrix, dtype=complex)
        dist = matrix_phase_distance(got, reference[name])
        out.append(_residual_rec("relations", T_REAL, f"real-point-{name}", dist, 1e-12))
    return out


def _dirichlet_cell(scene: crown.Scene) -> List[Record]:
    t, config = scene.t, scene.config
    out = []
    rels = pairwise_relations(config)
    for rel in rels:
        ok = rel.meets == expected_to_meet(rel.separation)
        out.append(_rec("dirichlet", t, f"sphere-pair:{rel.j}-{rel.k}",
                        rel.min_side, rel.margin, ok))
    sep3 = min(r.margin for r in rels if r.separation == 3)
    out.append(_rec("dirichlet", t, "sep3-min-margin", sep3, sep3, sep3 > 0.0))
    for key, fn in (
        ("symmetry-rotation", symmetry_certificate),
        ("involution-squares", involution_certificate),
        ("side-pairing", side_pairing_certificate),
        ("giraud-order3", giraud_order3_certificate),
    ):
        out.append(_residual_rec("dirichlet", t, key, fn(config), EPS_REL))
    forms = fixed_point_side_forms(t)
    _p_attract, p_repel = fixed_point_lifts(config)
    sides = config.side_matrix(p_repel)[0]
    res = max(abs(sides[int(k[1:]) - 1] - v) for k, v in forms.items())
    out.append(_residual_rec("dirichlet", t, "fixed-point-side-forms", res, 1e-8))
    return out


def _dirichlet_global(cell_records: Sequence[Record]) -> List[Record]:
    seq = sorted((r.t, r.value) for r in cell_records if r.key == "sep3-min-margin")
    if len(seq) < 2:
        return []
    worst_step = min(b[1] - a[1] for a, b in zip(seq, seq[1:]))
    # Observed across the family: this margin only grows with t (it
    # collapses toward the parabolic end).  Logged, never asserted.
    return [_rec("dirichlet", seq[0][0], "sep3-margin-growth-log", worst_step, worst_step, True)]


def _arcs_cell(scene: crown.Scene) -> List[Record]:
    t = scene.t
    out = []
    for name in crown.ARC_NAMES:
        rep = scene.arc_report(name)
        m = rep.hat.interior_margin
        out.append(_rec("arcs", t, f"host-pattern:{name}", m, m, rep.pattern_ok))
    cert = crown.crown_fundamental_certificate(scene)
    out.append(_residual_rec("arcs", t, "crown-word", cert["word_residual"], EPS_REL))
    out.append(_residual_rec("arcs", t, "crown-abutment", cert["abutment_gap"], 1e-9))
    out.append(_residual_rec("arcs", t, "crown-translate", cert["translate_residual"], 1e-9))
    return out


def _arcs_global() -> List[Record]:
    t0 = T_REAL
    scene = crown.Scene(t0)
    config = scene.config
    chart = crown.alpha4_chart(t0)
    r2 = math.sqrt(2.0)
    u0 = math.sqrt(3.0 * r2 - 4.0)
    w0 = math.sqrt(2.0 * r2 - 1.0)
    x1 = math.sqrt(8.0 * r2 - 11.0)
    y1 = 2.0 * r2 - 2.0
    x2 = math.sqrt(16.0 * r2 + 13.0) / 7.0
    y2 = (4.0 * r2 - 2.0) / 7.0
    out = []
    # closed-form crossing points of the alpha4 circle with four spheres,
    # upper-half representatives on the chart
    for k, wx, wy in ((1, x1, y1), (2, x2, y2), (7, -x2, y2), (8, -x1, y1)):
        line = chart.line_of_sphere(config.sphere(k))
        pts = [(math.cos(th), math.sin(th)) for th in line.circle_crossings()]
        px, py = max(pts, key=lambda p: p[1])
        res = max(abs(px - wx), abs(py - wy))
        out.append(_residual_rec("arcs", t0, f"real-point-crossing:sphere{k}", res, 1e-10))
    hat4 = scene.arc_report("alpha4").hat
    em = hat4.endpoint_chart("-")
    ep = hat4.endpoint_chart("+")
    res = max(abs(em[0] - x1), abs(em[1] + y1), abs(ep[0] + x1), abs(ep[1] + y1))
    out.append(_residual_rec("arcs", t0, "real-point-alpha4-chart-endpoints", res, 1e-9))
    first = -(9.0 + 4.0 * r2 + 12.0 * u0 + 10.0 * r2 * u0) / 7.0
    mid = complex(2.0 - r2 + 2.0 * u0, (4.0 - 6.0 * r2 - 4.0 * u0 - 8.0 * r2 * u0) * w0 / 7.0)
    minus = np.array([first, mid, 1.0], dtype=complex)
    plus = np.array([first, complex(-mid.real, mid.imag), 1.0], dtype=complex)
    lm = hat4.endpoint_lift("-")
    lp = hat4.endpoint_lift("+")
    res = max(
        float(np.max(np.abs(lm / lm[2] - minus))),
        float(np.max(np.abs(lp / lp[2] - plus))),
    )
    out.append(_residual_rec("arcs", t0, "real-point-alpha4-endpoint-lifts", res, 1e-9))
    hatb = scene.arc_report("beta1").hat
    circle = hatb.arc.circle
    c = complex(circle.center.z)
    res = max(
        abs(c.real - 0.768220064233),
        abs(c.imag),
        abs(float(circle.center.v)),
        abs(circle.radius - 0.873508176574),
    )
    out.append(_residual_rec("arcs", t0, "real-point-beta1-circle", res, 1e-9))
    depth = 18.0 * r2 * u0 + 26.0 * u0 - 9.0 * r2 - 13.0
    out.append(_residual_rec("arcs", t0, "real-point-beta1-depth",
                             abs(depth + circle.radius ** 2 / 2.0), 1e-9))
    ends = []
    for side in ("-", "+"):
        lift = hatb.endpoint_lift(side)
        z = complex((lift / lift[2])[1]) - c
        ends.append((z.real, z.imag))
    want = sorted([(-0.787579577059, -0.377802784984), (-0.184885413857, -0.853717704095)])
    got = sorted(ends)
    res = max(max(abs(g[0] - w[0]), abs(g[1] - w[1])) for g, w in zip(got, want))
    out.append(_residual_rec("arcs", t0, "real-point-beta1-endpoints", res, 1e-9))
    # which printed endpoint is the minus-side one is a convention with no
    # downstream consumer; log the realized order instead of asserting one
    order = 1.0 if ends[0] <= ends[1] else 0.0
    out.append(_rec("arcs", t0, "beta1-endpoint-order-log", order, 0.0, True))
    return out


def _disks_cell(scene: crown.Scene) -> List[Record]:
    out = []
    t, config = scene.t, scene.config
    va = crown.alpha1_polar(t)
    vb = crown.alpha2_polar(t)
    vbeta = crown.beta_polar_scaled(t)
    # the alpha-alpha closed form pins the neighbor lift g2(alpha1)/(2 sqrt 2)
    v_nbr = config.gens.g2.apply(va) / (2.0 * math.sqrt(2.0))
    res = abs(crown.linking_value(va, v_nbr) - crown.linking_alpha_alpha_closed(t))
    out.append(_residual_rec("disks", t, "linking-closed-alpha-alpha", res, 1e-11))
    res = abs(crown.linking_value(va, vbeta) - crown.linking_alpha_beta_closed(t))
    out.append(_residual_rec("disks", t, "linking-closed-alpha-beta", res, 1e-11))
    r1 = ccircle_from_polar(va).radius
    r2 = ccircle_from_polar(vb).radius
    den = 2.0 * t * math.sqrt(6.0 * t - 2.0) + 4.0 * t - 1.0
    out.append(_residual_rec("disks", t, "radius-form-alpha1",
                             abs(r1 - math.sqrt((6.0 - 16.0 * t) / (2.0 * t - 1.0))), 1e-9))
    out.append(_residual_rec("disks", t, "radius-form-alpha2",
                             abs(r2 - math.sqrt((16.0 * t - 6.0) / den)), 1e-9))
    certs = crown.disk_disjointness_certificates(scene)
    if t < 0.4 - 1e-12:
        # each certificate carries its pair's linking value
        weakest = min(c.linking for c in certs)
        out.append(_rec("disks", t, "all-pairs-unlinked", weakest, weakest, weakest > 0.0))
    else:
        blocked = crown.blocking_minimum_at(t)
        out.append(_rec("disks", t, "chord-blocking-minimum", blocked, blocked, blocked > 0.0))
        honest = crown.honest_chord_blocking(config)
        if honest is not None:
            res = abs(honest - 2.0 * blocked)
            out.append(_residual_rec("disks", t, "chord-blocking-dual-route", res, 1e-8))
    for cert in certs:
        out.append(_rec("disks", t, f"disk-pair:{cert.first}|{cert.second}",
                        cert.linking, cert.margin, cert.disjoint))
    return out


def _minima_cell(scene: crown.Scene) -> List[Record]:
    v = crown.clearance_objective(scene.t)
    return [_rec("minima", scene.t, "clearance", v, v - 1.0, v > 1.0)]


def _minima_global() -> List[Record]:
    out = []
    _t_star, v = crown.minimize_clearance()
    out.append(_residual_rec("minima", PARAM_MIN, "clearance-minimum",
                             abs(v - 6.5907), 1e-3))
    out.append(_rec("minima", PARAM_MIN, "clearance-minimum-above-1", v, v - 1.0, v > 1.0))
    t_star, blocked = crown.minimize_blocking()
    out.append(_residual_rec("minima", 0.4, "blocking-minimum",
                             abs(blocked - 0.3616753), 1e-4))
    out.append(_residual_rec("minima", 0.4, "blocking-argmin", abs(t_star - 0.4), 1e-3))
    for t in (0.405, 0.41, T_REAL):
        honest = crown.honest_chord_blocking(DirichletConfig.build(t))
        quartic = crown.blocking_minimum_at(t)
        res = abs(honest - 2.0 * quartic) if honest is not None else math.inf
        out.append(_residual_rec("minima", t, "blocking-dual-route", res, 1e-8))
    return out


_CELLS = {
    "relations": _relations_cell,
    "dirichlet": _dirichlet_cell,
    "arcs": _arcs_cell,
    "disks": _disks_cell,
    "minima": _minima_cell,
}


def _run_point(t: float, suites: Tuple[str, ...], extended: bool) -> Dict[str, List[Record]]:
    """Every requested suite cell at one parameter, reading one shared scene;
    ``extended`` goes to the ``relations`` cell, its only reader."""
    scene = crown.Scene(t)
    return {suite: (_CELLS[suite](scene, extended) if suite == "relations"
                    else _CELLS[suite](scene))
            for suite in suites}


def _run_globals(suites: Tuple[str, ...], extended: bool) -> Dict[str, List[Record]]:
    """The global checks that need no per-point records, by suite."""
    out = {}
    if "relations" in suites:
        out["relations"] = _relations_global(extended)
    if "arcs" in suites:
        out["arcs"] = _arcs_global()
    if "minima" in suites:
        out["minima"] = _minima_global()
    return out


def _expand_suites(name: str) -> Tuple[str, ...]:
    if name == "all":
        return SUITE_NAMES
    if name not in SUITE_NAMES:
        raise GeometryError(f"unknown suite {name!r}; expected one of {SUITE_NAMES + ('all',)}")
    return (name,)


def run_suite(
    name: str,
    config: Optional[SweepConfig] = None,
    points: Optional[Sequence[float]] = None,
    jobs: int = 1,
) -> Report:
    """Run one certificate suite (or ``all``) over a sweep.

    ``points`` overrides the sweep grid (single-parameter runs pass a
    one-element list).  Each parameter is one task covering every requested
    suite.  With ``jobs > 1`` those tasks go to a pool of
    ``min(jobs, len(points))`` processes one at a time, linked parameters
    (``t > 2/5``, where the disk ladder does most of its work) first, while
    this process runs the global checks; records are sorted before writing,
    so parallelism never changes the output bytes.  Extended precision is a
    cross-check of the ``relations`` suite alone; asking for it with any
    other suite raises ``GeometryError``, as does ``jobs < 1``.
    """
    if jobs < 1:
        raise GeometryError(f"jobs must be at least 1, got {jobs}")
    suites = _expand_suites(name)
    cfg = config or SweepConfig()
    extended = cfg.precision == "extended"
    if extended and name != "relations":
        raise GeometryError(
            f"extended precision applies to the relations suite only, not {name!r}")
    pts = [validate_param(t) for t in points] if points is not None else cfg.points()
    # linked points carry the disk ladder, the costliest cells: start them first
    order = sorted(range(len(pts)), key=lambda i: pts[i] <= 0.4)
    if jobs > 1 and pts:
        # imported here so that a serial run never loads the pool machinery
        from concurrent.futures import ProcessPoolExecutor

        # the pool forks all its workers up front: no more than there are tasks
        with ProcessPoolExecutor(max_workers=min(jobs, len(pts))) as pool:
            futures = [pool.submit(_run_point, pts[i], suites, extended) for i in order]
            # the global checks run here while the workers take the points
            globs = _run_globals(suites, extended)
            cells = {i: fut.result() for i, fut in zip(order, futures)}
    else:
        globs = _run_globals(suites, extended)
        cells = {i: _run_point(pts[i], suites, extended) for i in order}
    records: List[Record] = [r for suite in suites for i in range(len(pts))
                             for r in cells[i][suite]]
    records.extend(globs.get("relations", []))
    if "dirichlet" in suites:
        records.extend(_dirichlet_global([r for r in records if r.suite == "dirichlet"]))
    records.extend(globs.get("arcs", []))
    records.extend(globs.get("minima", []))
    report_cfg = asdict(cfg)
    report_cfg["suite"] = name
    if points is not None:
        report_cfg["points"] = [float(t) for t in pts]
    return Report(report_cfg, records)


# ---------------------------------------------------------------------------
# geometry exports (OBJ + JSON manifest)


def _obj_vertex(x: float, y: float, v: float) -> str:
    return f"v {_f17(x)} {_f17(y)} {_f17(v)}"


def _require_size(name: str, value: int, least: int) -> None:
    """Reject an export size too small to make geometry."""
    if value < least:
        raise GeometryError(f"{name} must be at least {least}, got {value}")


def _write(path: str, text: str) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _manifest(out_dir: str, kind: str, t: float, files: Sequence[str],
              extra: Dict[str, object]) -> str:
    body = {
        "kind": kind,
        "t": float(t),
        "files": sorted(os.path.basename(f) for f in files),
        "parameters": dict(sorted(extra.items())),
    }
    return _write(os.path.join(out_dir, f"{kind}_manifest.json"), _emit_json(body) + "\n")


def export_spheres(t: float, out_dir: str, nx: int = 64, ny: int = 64) -> List[str]:
    """All eight spinal spheres as one multi-object OBJ mesh."""
    _require_size("nx", nx, 2)
    _require_size("ny", ny, 2)
    config = DirichletConfig.build(t)
    lines = []
    offset = 0
    for k in range(1, 9):
        verts, faces = sphere_mesh(config.sphere(k), nx=nx, ny=ny)
        lines.append(f"o sphere-{k}")
        for x, y, v in np.asarray(verts, dtype=float):
            lines.append(_obj_vertex(x, y, v))
        for a, b, c in np.asarray(faces, dtype=int):
            lines.append(f"f {a + offset} {b + offset} {c + offset}")
        offset += len(verts)
    obj = _write(os.path.join(out_dir, "spheres.obj"), "\n".join(lines) + "\n")
    man = _manifest(out_dir, "spheres", t, [obj], {"nx": nx, "ny": ny, "objects": 8})
    return [obj, man]


def export_arcs(t: float, out_dir: str, samples: int = 257) -> List[str]:
    """The eight hat arcs as OBJ polylines, plus their host spheres."""
    _require_size("samples", samples, 2)
    validate_param(t, strict_interior=True)
    scene = crown.Scene(t)
    lines = []
    hosts: Dict[str, object] = {}
    offset = 0
    for name in crown.ARC_NAMES:
        hat = scene.arc_report(name).hat
        hosts[name] = list(hat.hosts)
        lines.append(f"o hat-{name}")
        for lift in hat.sample_lifts(samples):
            p = HeisenbergPoint.from_lift(lift)
            lines.append(_obj_vertex(p.z.real, p.z.imag, p.v))
        chain = " ".join(str(offset + i + 1) for i in range(samples))
        lines.append(f"l {chain}")
        offset += samples
    obj = _write(os.path.join(out_dir, "arcs.obj"), "\n".join(lines) + "\n")
    man = _manifest(out_dir, "arcs", t, [obj], {"hosts": hosts, "samples": samples})
    return [obj, man]


def export_disks(t: float, out_dir: str, rim: int = 96) -> List[str]:
    """Affine-disk fans for the eight crown circles, plus pair certificates."""
    _require_size("rim", rim, 3)
    validate_param(t, strict_interior=True)
    scene = crown.Scene(t)
    polars = scene.polars
    lines = []
    offset = 0
    for name in crown.ARC_NAMES:
        disk = AffineDisk(ccircle_from_polar(polars[name]))
        c = complex(disk.circle.center.z)
        r = disk.circle.radius
        plane = disk.plane
        lines.append(f"o disk-{name}")
        lines.append(_obj_vertex(c.real, c.imag, plane.height_at(c)))
        for i in range(rim):
            z = c + r * complex(math.cos(2 * math.pi * i / rim), math.sin(2 * math.pi * i / rim))
            lines.append(_obj_vertex(z.real, z.imag, plane.height_at(z)))
        for i in range(rim):
            a = offset + 2 + i
            b = offset + 2 + (i + 1) % rim
            lines.append(f"f {offset + 1} {a} {b}")
        offset += rim + 1
    obj = _write(os.path.join(out_dir, "disks.obj"), "\n".join(lines) + "\n")
    certs = crown.disk_disjointness_certificates(scene)
    rows = []
    for cert in sorted(certs, key=lambda cr_: (cr_.first, cr_.second)):
        rows.append(_emit_json({
            "certificate": f"disk-disjointness[{cert.mode}]",
            "t": float(t),
            "pair": f"{cert.first}|{cert.second}",
            "margin": float(cert.margin),
            "pass": cert.disjoint,
        }).replace("\n", " ").replace("  ", " "))
    jsonl = _write(os.path.join(out_dir, "disk_certificates.jsonl"), "\n".join(rows) + "\n")
    man = _manifest(out_dir, "disks", t, [obj, jsonl], {"rim": rim})
    return [obj, jsonl, man]


_LIMITSET_TOKENS = ("g1", "g1^-1", "g2", "g2^-1", "g3", "g3^-1")
_INVERSE_TOKEN = {
    "g1": "g1^-1", "g1^-1": "g1",
    "g2": "g2^-1", "g2^-1": "g2",
    "g3": "g3^-1", "g3^-1": "g3",
}


def limit_set_points(t: float, depth: int = 5) -> np.ndarray:
    """Boundary fixed points of all reduced words up to ``depth`` letters.

    Loxodromic fixed points accumulate on the limit set, so this cloud is
    a cheap, fully deterministic sketch of it.  Points at infinity and
    near-parabolic words are skipped; duplicates are collapsed on a 1e-9
    grid.  A word and its inverse share their fixed pair (swapped), so only
    the first of the two to be visited is solved.  Rows are ``(x, y, v)``
    Heisenberg coordinates, sorted.
    """
    _require_size("depth", depth, 1)
    gens = build_generators(t)
    elements = {token: gens.element(token) for token in _LIMITSET_TOKENS}
    solved = set()
    seen = set()
    rows = []

    def visit(element, word: Tuple[str, ...], remaining: int):
        inverse = tuple(_INVERSE_TOKEN[token] for token in reversed(word))
        if inverse not in solved and classify_isometry(element).kind is IsometryClass.LOXODROMIC:
            solved.add(word)
            try:
                for u in fixed_points_boundary(element):
                    if abs(u[2]) > 1e-9 * float(np.max(np.abs(u))):
                        p = HeisenbergPoint.from_lift(u)
                        x, y, v = p.z.real, p.z.imag, p.v
                        key = (round(x, 9), round(y, 9), round(v, 9))
                        if key not in seen:
                            seen.add(key)
                            rows.append((x, y, v))
            except (NearParabolicError, GeometryError):
                pass
        if remaining == 0:
            return
        for token in _LIMITSET_TOKENS:
            if token == _INVERSE_TOKEN[word[-1]]:
                continue
            visit(element @ elements[token], word + (token,), remaining - 1)

    for token in _LIMITSET_TOKENS:
        visit(elements[token], (token,), depth - 1)
    return np.array(sorted(rows), dtype=float).reshape(-1, 3)


def export_limitset(t: float, out_dir: str, depth: int = 5) -> List[str]:
    points = limit_set_points(t, depth=depth)
    lines = [_obj_vertex(x, y, v) for x, y, v in points]
    lines.append("p " + " ".join(str(i + 1) for i in range(len(points))))
    obj = _write(os.path.join(out_dir, "limitset.obj"), "\n".join(lines) + "\n")
    man = _manifest(out_dir, "limitset", t, [obj], {"depth": depth, "points": len(points)})
    return [obj, man]


def export_geometry(kind: str, t: float, out_dir: str, **kwargs) -> List[str]:
    """Dispatch to one of the OBJ exporters; returns the written paths.

    Bad arguments raise ``GeometryError`` before anything, ``out_dir``
    included, is created.
    """
    validate_param(t)
    table = {
        "spheres": export_spheres,
        "arcs": export_arcs,
        "disks": export_disks,
        "limitset": export_limitset,
    }
    if kind not in table:
        raise GeometryError(f"unknown export kind {kind!r}; expected one of {EXPORT_KINDS}")
    return table[kind](t, out_dir, **kwargs)
