"""Acceptance gate: every headline numerical claim, one test each.

Each test prints a single summary line (visible with ``pytest -v -s`` or
in this file's captured output), and asserts the claim at its stated
tolerance.  Sweeps use the same default grid as ``chcrown verify``:
101 uniform points on [3/8 + 1e-4, sqrt(2) - 1].
"""

import math
import time
import numpy as np
import pytest

from chcrown import (
    DirichletConfig,
    IsometryClass,
    PARAM_MAX,
    PARAM_MIN,
    Scene,
    T_REAL,
    build_generators,
    classify_isometry,
    clearance_objective,
    expected_to_meet,
    linked_pair_report,
    minimize_blocking,
    minimize_clearance,
    pairwise_relations,
    relation_certificate,
    run_suite,
    table1,
)
from chcrown import crown
from chcrown.dirichlet import giraud_order3_certificate, side_pairing_certificate, \
    involution_certificate, symmetry_certificate
from chcrown.triangle import max_imag_entry, real_point_matrices, trace_identity_residual
from chcrown.verify import SweepConfig

SWEEP = SweepConfig().points()
R2 = math.sqrt(2.0)


def test_a01_defining_relations_across_sweep():
    start = time.perf_counter()
    worst = 0.0
    for t in SWEEP:
        report = relation_certificate(build_generators(t))
        worst = max(worst, report.max_residual)
        assert report.passed, (t, report.residuals)
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 5.0, f"sweep took {elapsed:.2f}s"
    print(f"relations across {len(SWEEP)} points: PASS "
          f"(worst residual {worst:.2e}, {elapsed:.2f}s)")


def test_a02_trace_identity_and_boundary_classes():
    worst = 0.0
    for t in SWEEP:
        gens = build_generators(t)
        worst = max(worst, trace_identity_residual(gens))
        assert classify_isometry(gens.g1).kind is IsometryClass.LOXODROMIC, t
    assert worst < 1e-12
    disc = classify_isometry(build_generators(PARAM_MIN).g1).discriminant
    assert abs(disc) < 1e-8
    print(f"trace identity: PASS (worst {worst:.2e}; left-endpoint disc {disc:.1e})")


def test_a03_real_point_matrices():
    gens = build_generators(T_REAL)
    imag = max_imag_entry(gens)
    assert imag < 1e-12
    worst = 0.0
    for name, want in real_point_matrices().items():
        got = np.asarray(getattr(gens, name).matrix, dtype=complex)
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst < 1e-12
    print(f"real-point matrices: PASS (max imag {imag:.1e}, entrywise {worst:.1e})")


def test_a04_alpha4_crossing_closed_forms():
    config = DirichletConfig.build(T_REAL)
    chart = crown.alpha4_chart(T_REAL)
    targets = (
        (1, math.sqrt(8.0 * R2 - 11.0), 2.0 * R2 - 2.0),
        (7, -math.sqrt(16.0 * R2 + 13.0) / 7.0, (4.0 * R2 - 2.0) / 7.0),
    )
    worst = 0.0
    for k, wx, wy in targets:
        line = chart.line_of_sphere(config.sphere(k))
        pts = [(math.cos(th), math.sin(th)) for th in line.circle_crossings()]
        px, py = max(pts, key=lambda p: p[1])
        worst = max(worst, abs(px - wx), abs(py - wy))
    assert worst < 1e-10
    print(f"alpha4 crossing closed forms: PASS (worst {worst:.1e})")


def test_a05_host_table_and_sweep_stability():
    start = time.perf_counter()
    expected = {
        "alpha1": (3, 2), "alpha2": (5, 4), "alpha3": (7, 6), "alpha4": (1, 8),
        "beta1": (3, 4), "beta2": (5, 6), "beta3": (7, 8), "beta4": (1, 2),
    }
    assert table1(DirichletConfig.build(T_REAL)) == expected
    for t in SWEEP:
        assert table1(DirichletConfig.build(t)) == expected, t
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"stability sweep took {elapsed:.1f}s"
    print(f"host table stable across {len(SWEEP)} points: PASS ({elapsed:.1f}s)")


def test_a06_clearance_minimum():
    _t, value = minimize_clearance()
    assert value == pytest.approx(6.5907, abs=1e-3)
    assert value > 1.0
    floor = min(clearance_objective(t) for t in SWEEP)
    assert floor > 1.0
    print(f"clearance minimum: PASS ({value:.7f}, sweep floor {floor:.4f})")


def test_a07_blocking_minimum():
    t_star, value = minimize_blocking()
    assert value == pytest.approx(0.3616753, abs=1e-4)
    assert value > 0.0
    print(f"blocking minimum: PASS ({value:.9f} at t={t_star:.6f})")


def test_a08_linking_closed_forms_and_unlinked_range():
    worst = 0.0
    for t in SWEEP:
        gens = build_generators(t)
        va = crown.alpha1_polar(t)
        nbr = gens.g2.apply(va) / (2.0 * R2)
        worst = max(worst, abs(crown.linking_value(va, nbr)
                               - crown.linking_alpha_alpha_closed(t)))
        worst = max(worst, abs(crown.linking_value(va, crown.beta_polar_scaled(t))
                               - crown.linking_alpha_beta_closed(t)))
    assert worst < 1e-11
    below = [t for t in SWEEP if t < 0.4]
    for t in below:
        assert all(r.value > 0.0 for r in linked_pair_report(Scene(t))), t
    print(f"linking closed forms: PASS (worst {worst:.1e}; "
          f"all 28 pairs unlinked at {len(below)} points below 2/5)")


def test_a09_sphere_pair_table_and_giraud():
    ts = [float(x) for x in np.linspace(SWEEP[0], SWEEP[-1], 21)]
    margins = []
    worst_giraud = 0.0
    for t in ts:
        config = DirichletConfig.build(t)
        rels = pairwise_relations(config)
        for rel in rels:
            assert rel.meets == expected_to_meet(rel.separation), (t, rel.j, rel.k)
        margins.append(min(r.margin for r in rels if r.separation == 3))
        worst_giraud = max(worst_giraud, giraud_order3_certificate(config))
    assert worst_giraud < 1e-10
    assert margins[0] > 0.0
    monotone = all(a <= b + 1e-12 for a, b in zip(margins, margins[1:]))
    # logged, not asserted: the sep-3 margin is small at the left end and
    # observed to grow with t (it collapses toward the parabolic point)
    print(f"sphere pair table at 21 points: PASS (giraud {worst_giraud:.1e}; "
          f"sep-3 margin {margins[0]:.4f} -> {margins[-1]:.4f}, "
          f"monotone={monotone})")


def test_a10_side_pairing_certificates_every_sweep_point():
    worst = 0.0
    for t in SWEEP:
        config = DirichletConfig.build(t)
        worst = max(worst, symmetry_certificate(config), involution_certificate(config),
                    side_pairing_certificate(config))
    assert worst < 1e-10
    print(f"side-pairing certificates at {len(SWEEP)} points: PASS (worst {worst:.1e})")


def test_a11_verify_all_is_deterministic():
    cfg = SweepConfig(t_min=0.3751, t_max=PARAM_MAX, steps=3)
    first = run_suite("all", cfg).to_json()
    second = run_suite("all", cfg).to_json()
    parallel = run_suite("all", cfg, jobs=2).to_json()
    assert first == second == parallel
    print(f"verify-all determinism: PASS ({len(first)} bytes, serial == repeat == 2 jobs)")
