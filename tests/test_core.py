"""Kernels: Hermitian form, 3x3 eigen machinery, classification."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chcrown import (
    PARAM_MIN,
    GroupElement,
    IsometryClass,
    NearParabolicError,
    build_generators,
    classify_isometry,
    fixed_points_boundary,
    hermitian_product,
    matrix_phase_distance,
)
from chcrown.core import (
    EPS_ALG,
    NormType,
    SIEGEL,
    adjugate3,
    box_product,
    det3,
    eigvals3,
    norm_type,
    projective_distance,
    trace_discriminant,
)

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


@given(finite, finite, finite, finite, finite, finite)
@settings(max_examples=60)
def test_hermitian_product_is_sesquilinear(a, b, c, d, e, f):
    v = np.array([complex(a, b), complex(c, d), complex(e, f)])
    w = np.array([complex(c, -a), complex(e, b), complex(f, d)])
    vw = complex(hermitian_product(v, w))
    wv = complex(hermitian_product(w, v))
    assert vw == pytest.approx(wv.conjugate(), abs=1e-9)
    assert complex(hermitian_product(2j * v, w)) == pytest.approx(2j * vw, abs=1e-9)


def test_siegel_form_signature():
    j = np.asarray(SIEGEL, dtype=complex)
    eigs = sorted(np.linalg.eigvalsh(j).real)
    assert eigs[0] < 0 < eigs[1] <= eigs[2]


def test_norm_type_trichotomy():
    assert norm_type(np.array([0, 1, 0], dtype=complex)) is NormType.POSITIVE
    assert norm_type(np.array([1, 0, 0], dtype=complex)) is NormType.NULL
    assert norm_type(np.array([-1, 0, 1], dtype=complex)) is NormType.NEGATIVE


@given(finite, finite, finite, finite, finite, finite)
@settings(max_examples=40)
def test_box_product_is_orthogonal_to_both(a, b, c, d, e, f):
    v = np.array([complex(a, b), complex(c, d), 1.0 + 0j])
    w = np.array([complex(d, -a), 1.0 + 0j, complex(b, e)])
    x = box_product(v, w)
    assert abs(complex(hermitian_product(x, v))) < 1e-8
    assert abs(complex(hermitian_product(x, w))) < 1e-8


def test_det_and_adjugate_agree_with_numpy():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert complex(det3(m)) == pytest.approx(complex(np.linalg.det(m)), rel=1e-10)
        assert np.max(np.abs(m @ adjugate3(m) - det3(m) * np.eye(3))) < 1e-10


def test_eig3_reproduces_eigenpairs():
    # the closed-form eigenvalues of a (3, 3, n) stack, against LAPACK's;
    # diag(4, 4, 1/4) has a double root
    rng = np.random.default_rng(11)
    m = rng.normal(size=(20, 3, 3)) + 1j * rng.normal(size=(20, 3, 3))
    m[-1] = np.diag([4.0, 4.0, 0.25])
    got = np.stack(eigvals3(m.transpose(1, 2, 0)), axis=1)
    want = np.linalg.eigvals(m)
    gap = np.abs(got[:, :, None] - want[:, None, :])
    tol = 1e-12 * np.linalg.norm(m, axis=(1, 2))[:, None]
    assert (gap.min(axis=2) < tol).all() and (gap.min(axis=1) < tol).all()


def test_trace_discriminant_signs():
    # tau = 3 is the identity: boundary case, discriminant zero
    assert trace_discriminant(3.0 + 0j) == pytest.approx(0.0, abs=1e-12)
    gens = build_generators(0.41)
    assert trace_discriminant(gens.g1.trace) > 0.0


def test_classification_of_family_elements():
    gens = build_generators(0.39)
    assert classify_isometry(gens.g1).kind is IsometryClass.LOXODROMIC
    assert classify_isometry(gens.g2).kind is IsometryClass.ELLIPTIC
    ident = gens.evaluate_word("I1 I1")
    assert classify_isometry(ident).kind is not IsometryClass.LOXODROMIC


def test_fixed_points_are_fixed_and_null():
    gens = build_generators(0.41)
    att, rep = fixed_points_boundary(gens.g1)
    for vec in (att, rep):
        u = np.asarray(vec, dtype=complex)
        assert abs(complex(hermitian_product(u, u))) < 1e-8
        moved = gens.g1.apply(u)
        assert projective_distance(moved, u) < 1e-8
    assert projective_distance(att, rep) > 1e-3


def test_fixed_points_near_parabolic_raises():
    gens = build_generators(0.375)
    with pytest.raises(NearParabolicError):
        fixed_points_boundary(gens.g1)


def _stack(elements):
    return np.stack([g.matrix for g in elements])


def test_stacked_classification_matches_one_matrix_at_a_time():
    # the stack's regular rows are read off its discriminant array; the
    # degenerate ones (the identity, the parabolic endpoint, NaN) are
    # examined row by row; the discriminant is prod (lam_i - lam_j)^2 of
    # LAPACK's eigenvalues
    gens = build_generators(0.39)
    elements = [gens.g1, gens.g2, gens.evaluate_word("I1 I1"), build_generators(PARAM_MIN).g1,
                gens.g1 @ gens.g3, gens.g2 @ gens.g3.inverse(),
                GroupElement(np.full((3, 3), np.nan, dtype=complex))]
    got = classify_isometry(_stack(elements))
    lox, ell, par = IsometryClass.LOXODROMIC, IsometryClass.ELLIPTIC, IsometryClass.PARABOLIC
    assert list(got.kind) == [lox, ell, ell, par, lox, lox, par]
    lam = np.linalg.eigvals(_stack(elements[:-1]))
    want = ((lam[:, 0] - lam[:, 1]) * (lam[:, 1] - lam[:, 2]) * (lam[:, 0] - lam[:, 2])) ** 2
    assert np.allclose(got.discriminant[:-1], want.real, rtol=0.0, atol=1e-12)
    assert np.isnan(got.discriminant[-1])
    for k, g in enumerate(elements):
        one = classify_isometry(g)
        assert one.kind is got.kind[k]
        assert one.discriminant == got.discriminant[k] or np.isnan(one.discriminant)


def test_stacked_fixed_points_match_one_matrix_at_a_time():
    # the fixed points are LAPACK's eigenvectors of the extreme-modulus
    # eigenvalues; a refused row (an elliptic word, the near-parabolic g1) is
    # NaN, and raises as a single matrix; diag(4, 4, 1/4) has a vanished
    # adjugate and takes the fallback vector
    gens = build_generators(0.41)
    elements = [gens.g1, gens.g1 @ gens.g3, gens.g3.inverse() @ gens.g1 @ gens.g2,
                build_generators(0.375).g1, GroupElement(np.diag([4.0, 4.0, 0.25]).astype(complex))]
    att, rep = fixed_points_boundary(_stack(elements))
    assert att.shape == rep.shape == (len(elements), 3)
    lam, vec = np.linalg.eig(_stack(elements))
    for k in (0, 1, 4):
        mods = np.abs(lam[k])
        assert projective_distance(att[k], vec[k][:, np.argmax(mods)]) < 1e-10
        assert projective_distance(rep[k], vec[k][:, np.argmin(mods)]) < 1e-10
        one = fixed_points_boundary(elements[k])
        assert np.array_equal(one[0], att[k]) and np.array_equal(one[1], rep[k])
    for k in (2, 3):
        assert np.isnan(att[k]).all() and np.isnan(rep[k]).all()
        with pytest.raises(NearParabolicError):
            fixed_points_boundary(elements[k])


def test_box_product_of_fixed_points_is_orthogonal_to_them():
    gens = build_generators(0.41)
    att, rep = fixed_points_boundary(gens.g1)
    pol = box_product(att, rep)
    assert abs(complex(hermitian_product(pol, att))) < 1e-8
    assert abs(complex(hermitian_product(pol, rep))) < 1e-8


def test_matrix_phase_distance_ignores_cube_root_phases():
    # the ambiguity of an SU(2,1) lift is a cube root of unity, nothing more
    gens = build_generators(0.40)
    m = np.asarray(gens.g1.matrix, dtype=complex)
    for k in range(3):
        w = cmath.exp(2j * cmath.pi * k / 3.0)
        assert matrix_phase_distance(m, w * m) < 1e-12
    assert matrix_phase_distance(m, 1j * m) > 0.1
    assert matrix_phase_distance(m, 2.0 * m) > 0.1


def test_projectively_equal_scales():
    v = np.array([1.0, 2.0j, -3.0])
    assert projective_distance(v, (0.3 - 0.4j) * v) < EPS_ALG
    assert not projective_distance(v, v + np.array([0, 0, 1.0])) < EPS_ALG
