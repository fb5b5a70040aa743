"""Generator matrices, presentation relations, and the parameter interval."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chcrown import (
    GeometryError,
    IsometryClass,
    PARAM_MAX,
    PARAM_MIN,
    RELATION_WORDS,
    T_REAL,
    build_generators,
    classify_isometry,
    relation_certificate,
    validate_param,
)
from chcrown import dirichlet
from chcrown.core import SIEGEL, hermitian_product
from chcrown.triangle import (
    Q0,
    coefficients,
    conjugation_residual,
    relation_values,
    max_imag_entry,
    real_point_matrices,
    trace_identity_residual,
)

params = st.floats(min_value=PARAM_MIN, max_value=PARAM_MAX,
                   allow_nan=False, allow_infinity=False)


def test_validate_param_bounds():
    validate_param(PARAM_MIN)
    validate_param(PARAM_MAX)
    with pytest.raises(GeometryError):
        validate_param(PARAM_MIN - 1e-6)
    with pytest.raises(GeometryError):
        validate_param(PARAM_MAX + 1e-6)
    with pytest.raises(GeometryError):
        validate_param(PARAM_MIN, strict_interior=True)


def test_float32_parameter_builds_in_double():
    # a narrower input type must not leak into the arithmetic: the build at
    # np.float32(0.39) is the double build at the same value, bit for bit
    narrow = np.float32(0.39)
    wide = float(narrow)
    got, want = build_generators(narrow), build_generators(wide)
    assert type(got.t) is float and got.t == want.t
    for name in ("n1", "n2", "n3"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for name in ("i1", "i2", "i3", "g1", "g2", "g3"):
        assert np.array_equal(getattr(got, name).matrix, getattr(want, name).matrix), name
    assert coefficients(narrow) == coefficients(wide)
    assert relation_values(narrow) == relation_values(wide)


@given(params)
@settings(max_examples=40, deadline=None)
def test_polar_vectors_are_unit(t):
    gens = build_generators(t)
    for n in (gens.n1, gens.n2, gens.n3):
        assert abs(complex(hermitian_product(n, n)) - 1.0) < 1e-12


@given(params)
@settings(max_examples=40, deadline=None)
def test_coefficients_ranges(t):
    co = coefficients(t)
    assert co.a >= 0.0 and co.b >= 0.0 and co.c >= 0.0
    assert 1.0 - 1e-12 <= co.ball_a <= (math.sqrt(2.0) + 1.0) / 2.0 + 1e-12


@given(params)
@settings(max_examples=25, deadline=None)
def test_defining_relations_hold(t):
    report = relation_certificate(build_generators(t))
    assert report.passed, report.residuals
    assert set(report.residuals) == set(RELATION_WORDS)


@given(params)
@settings(max_examples=25, deadline=None)
def test_trace_identity_and_conjugation(t):
    gens = build_generators(t)
    assert trace_identity_residual(gens) < 1e-12
    assert conjugation_residual(gens) < 1e-10


def test_reflections_are_involutions():
    gens = build_generators(0.39)
    eye = np.eye(3)
    for el in (gens.i1, gens.i2, gens.i3):
        assert np.max(np.abs((el @ el).matrix - eye)) < 1e-12


def test_g1_parabolic_at_left_endpoint():
    cls = classify_isometry(build_generators(PARAM_MIN).g1)
    assert abs(cls.discriminant) < 1e-8


@pytest.mark.parametrize("t", [PARAM_MIN + 1e-4, 0.39, 0.41, T_REAL])
def test_g1_loxodromic_inside(t):
    cls = classify_isometry(build_generators(t).g1)
    assert cls.kind is IsometryClass.LOXODROMIC
    assert cls.discriminant > 0.0


def test_g2_is_elliptic_of_order_eight():
    gens = build_generators(0.40)
    assert classify_isometry(gens.g2).kind is IsometryClass.ELLIPTIC
    eighth = gens.evaluate_word(["g2"] * 8)
    from chcrown import matrix_phase_distance

    assert matrix_phase_distance(np.asarray(eighth.matrix, complex), np.eye(3)) < 1e-12


def test_real_point_matrices_match_computed():
    gens = build_generators(T_REAL)
    assert max_imag_entry(gens) < 1e-12
    reference = real_point_matrices()
    for name in ("g1", "g2", "g3"):
        got = np.asarray(getattr(gens, name).matrix, dtype=complex)
        assert np.max(np.abs(got - reference[name])) < 1e-12


def test_real_point_matrices_have_unit_det_and_su21():
    j = np.asarray(SIEGEL, dtype=complex)
    for m in real_point_matrices().values():
        assert abs(np.linalg.det(m) - 1.0) < 1e-12
        assert np.max(np.abs(m.conj().T @ j @ m - j)) < 1e-12


def test_q0_is_shared_read_only():
    # every sphere bisects this one array; dirichlet reads it, not a copy
    q0 = dirichlet.Q0
    assert q0 is Q0
    with pytest.raises(ValueError):
        q0[0] = 2.0
    with pytest.raises(ValueError):
        q0 *= 2.0
    assert Q0.tolist() == [-1.0, 0.0, 1.0]


def test_q0_is_negative_and_g2_fixed():
    gens = build_generators(0.41)
    q = Q0
    assert complex(hermitian_product(q, q)).real == pytest.approx(-2.0)
    moved = gens.g2.apply(q)
    # fixed projectively: moved is proportional to q
    cross = moved[0] * q[2] - moved[2] * q[0]
    assert abs(cross) < 1e-12 and abs(moved[1]) < 1e-12


def test_evaluate_word_inverses_and_errors():
    gens = build_generators(0.39)
    el = gens.evaluate_word("g2^-1 g1 g2")
    from chcrown import matrix_phase_distance

    assert matrix_phase_distance(np.asarray(el.matrix, complex),
                                 np.asarray(gens.g3.matrix, complex)) < 1e-10
    assert np.max(np.abs(gens.evaluate_word("").matrix - np.eye(3))) == 0.0
    with pytest.raises(GeometryError):
        gens.evaluate_word("g4")


def test_extended_precision_path():
    gens = build_generators(0.39, extended=True)
    report = relation_certificate(gens)
    assert report.max_residual < 1e-10


def test_extended_build_restores_mpmath_precision():
    # the 40-digit work happens inside the call; the caller's precision stays
    with mpmath.workdps(15):
        gens = build_generators(0.39, extended=True)
        assert mpmath.mp.dps == 15
    # the square-root coefficients still carry about 40 digits of mantissa
    assert gens.coeffs.a._mpf_[3] > 120
