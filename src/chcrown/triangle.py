"""The one-parameter family of (3,3,4) complex reflection triangle groups.

Everything is driven by a single real parameter ``t`` in ``[3/8, sqrt(2)-1]``.
Three positive polar vectors ``n1, n2, n3`` determine complex reflections
``I1, I2, I3`` in the Siegel model; the even subgroup is generated by

    g1 = I3 I2 I1 I2,    g2 = I2 I1,    g3 = I1 I2 I3 I2 = g2^-1 g1 g2.

At the right endpoint of the interval every matrix entry is real and the
group sits inside SO(2,1); at the left endpoint ``g1`` degenerates from
loxodromic to parabolic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _scalars as sc
from .core import (
    EPS_ALG,
    GeometryError,
    GroupElement,
    SIEGEL_FORM,
    Vector3C,
    complex_reflection_from_polar,
    det3,
    identity_element,
    matrix_phase_distance,
)

PARAM_MIN = 0.375
PARAM_MAX = math.sqrt(2.0) - 1.0
#: parameter at which all generator matrices become real
T_REAL = PARAM_MAX

_RANGE_SLACK = 1e-12


def validate_param(t: float, strict_interior: bool = False) -> float:
    """Check ``t`` against the closed parameter interval and return it.

    ``strict_interior`` additionally rejects the left endpoint, where the
    word ``g1`` is parabolic and axis-based constructions degenerate.
    """
    tf = sc.to_float(t)
    if not (PARAM_MIN - _RANGE_SLACK <= tf <= PARAM_MAX + _RANGE_SLACK):
        raise GeometryError(
            f"parameter t={tf!r} outside [{PARAM_MIN}, {PARAM_MAX:.17g}]"
        )
    if strict_interior and tf <= PARAM_MIN + _RANGE_SLACK:
        raise GeometryError(
            "t = 3/8 is the parabolic degeneration; this operation needs t > 3/8"
        )
    return t


@dataclass(frozen=True)
class Coefficients:
    """The scalar functions of ``t`` every matrix entry is built from.

    ``a``, ``b``, ``c`` are the square-root coefficients; ``ball_a`` is the
    ball-model normal-form parameter ``1/(2 sqrt(1-2t))``, which runs over
    ``[1, (sqrt(2)+1)/2]`` as ``t`` runs over the interval.
    """

    t: object
    a: object
    b: object
    c: object
    ball_a: object


def coefficients(t: float, extended: bool = False) -> Coefficients:
    validate_param(t)
    with sc.working_precision(extended):
        tt = sc.promote(t, extended)
        a = sc.sqrt_clamped(6 * tt - 2)
        b = sc.sqrt_clamped(-tt * tt - 2 * tt + 1)
        c = sc.sqrt_clamped((8 * tt - 3) / (4 * tt - 1 - 2 * tt * a))
        ball_a = 1 / (2 * sc.sqrt(1 - 2 * tt))
    return Coefficients(tt, a, b, c, ball_a)


def polar_vectors(t: float, extended: bool = False):
    """Polar vectors of the three mirrors, in the Siegel model.

    All three are unit vectors: <n_i, n_i> = 1.  ``n1`` and ``n2`` do not
    depend on ``t``; ``n3`` carries the deformation.
    """
    co = coefficients(t, extended)
    tt, a, b = co.t, co.a, co.b
    with sc.working_precision(extended):
        one = tt * 0 + 1
        r2 = sc.sqrt(one * 2)
        s = 1 / (2 * sc.sqrt(1 - 2 * tt))
        n1 = sc.as_vector([one * 0, one, one * 0])
        n2 = sc.as_vector([one / 2, r2 / 2, one / 2])
        n3 = sc.as_vector(
            [
                s * r2 / 2 * (a + 1),
                s * sc.make_complex(-tt, b),
                s * r2 / 2 * (1 - a),
            ]
        )
    return (
        Vector3C(n1, SIEGEL_FORM),
        Vector3C(n2, SIEGEL_FORM),
        Vector3C(n3, SIEGEL_FORM),
    )


# Lift of the common fixed point of I1 and I2 (the rotation center of g2).
# It is orthogonal to both n1 and n2, hence box_product(n1, n2) up to scale,
# and does not depend on t.  <q0, q0> = -2.
Q0 = Vector3C(np.array([-1.0, 0.0, 1.0], dtype=complex), SIEGEL_FORM)

#: the six defining relations of the reflection presentation
RELATION_WORDS = (
    "I1 I1",
    "I2 I2",
    "I3 I3",
    "I1 I2 I1 I2 I1 I2 I1 I2",
    "I1 I3 I1 I3 I1 I3",
    "I2 I3 I2 I3 I2 I3",
)


@dataclass(frozen=True)
class GeneratorSet:
    """Mirrors, reflections and even-subgroup generators at one parameter."""

    t: float
    coeffs: Coefficients
    n1: Vector3C
    n2: Vector3C
    n3: Vector3C
    i1: GroupElement
    i2: GroupElement
    i3: GroupElement
    g1: GroupElement
    g2: GroupElement
    g3: GroupElement

    @property
    def q0(self) -> Vector3C:
        """Negative lift of the Dirichlet center (fixed point of g2)."""
        if sc.is_mp(self.coeffs.t):
            one = self.coeffs.t * 0 + 1
            return Vector3C(sc.as_vector([-one, one * 0, one]), SIEGEL_FORM)
        return Q0

    def element(self, token: str) -> GroupElement:
        """Look up a single generator token like ``g2`` or ``g2^-1``."""
        base, inv = _parse_token(token)
        table = {
            "I1": self.i1, "I2": self.i2, "I3": self.i3,
            "g1": self.g1, "g2": self.g2, "g3": self.g3,
        }
        if base not in table:
            raise GeometryError(f"unknown generator token {token!r}")
        el = table[base]
        return el.inverse() if inv else el

    def evaluate_word(self, word: str | Sequence[str]) -> GroupElement:
        """Left-to-right product of generator tokens.

        Accepts a whitespace-separated string (``"g2^-1 g1 g2"``) or any
        iterable of tokens.  The empty word gives the identity.  The result
        is renormalized to determinant 1, which can matter for long words.
        """
        tokens = word.split() if isinstance(word, str) else list(word)
        out = identity_element(SIEGEL_FORM)
        for tok in tokens:
            out = out @ self.element(tok)
        return _renormalize_det(out)

    def involution_a(self, k: int) -> GroupElement:
        """The k-th of the eight involutions bounding the Dirichlet domain.

        Indices are cyclic mod 8 (k = 1..8 after reduction).  Odd k gives
        ``g2^((k-1)/2) I3 g2^-((k-1)/2)``, written out in reflections; even k
        conjugates ``I2 I3 I2`` instead.
        """
        k = (int(k) - 1) % 8 + 1
        if k % 2 == 1:
            half = (k - 1) // 2
            core = ["I3"]
        else:
            half = (k - 2) // 2
            core = ["I2", "I3", "I2"]
        word = ["I2", "I1"] * half + core + ["I1", "I2"] * half
        return self.evaluate_word(word)


def _parse_token(token: str):
    token = token.strip()
    if token.endswith("^-1"):
        return token[:-3], True
    return token, False


def _renormalize_det(g: GroupElement) -> GroupElement:
    d = det3(g.matrix)
    # d is a unit-modulus complex number for exact group elements; divide by
    # its cube root to pin det = 1 without disturbing the projective class.
    from .core import _cbrt

    r = _cbrt(d)
    return GroupElement(g.matrix / r, g.form, g.word)


def build_generators(t: float, extended: bool = False) -> GeneratorSet:
    """Construct the full generator set at parameter ``t``.

    Extended mode computes at ``_scalars.EXTENDED_DPS`` digits and leaves the
    caller's mpmath precision as it found it.
    """
    co = coefficients(t, extended)
    n1, n2, n3 = polar_vectors(t, extended)
    with sc.working_precision(extended):
        i1 = complex_reflection_from_polar(n1, SIEGEL_FORM, "I1")
        i2 = complex_reflection_from_polar(n2, SIEGEL_FORM, "I2")
        i3 = complex_reflection_from_polar(n3, SIEGEL_FORM, "I3")
        g1 = GroupElement((i3 @ i2 @ i1 @ i2).matrix, SIEGEL_FORM, "g1")
        g2 = GroupElement((i2 @ i1).matrix, SIEGEL_FORM, "g2")
        g3 = GroupElement((i1 @ i2 @ i3 @ i2).matrix, SIEGEL_FORM, "g3")
    return GeneratorSet(sc.to_float(t), co, n1, n2, n3, i1, i2, i3, g1, g2, g3)


@dataclass(frozen=True)
class RelationReport:
    t: float
    residuals: dict
    max_residual: float
    passed: bool


def relation_certificate(gens: GeneratorSet, tol: float = EPS_ALG) -> RelationReport:
    """Evaluate all six presentation relations as projective identities."""
    eye = np.eye(3, dtype=complex)
    residuals = {}
    for word in RELATION_WORDS:
        m = gens.evaluate_word(word).matrix
        residuals[word] = matrix_phase_distance(np.asarray(m, dtype=complex), eye)
    worst = max(residuals.values())
    return RelationReport(gens.t, residuals, worst, worst < tol)


def max_imag_entry(gens: GeneratorSet) -> float:
    """Largest |imaginary part| over all entries of the six matrices."""
    worst = 0.0
    for el in (gens.i1, gens.i2, gens.i3, gens.g1, gens.g2, gens.g3):
        for x in np.asarray(el.matrix).ravel():
            worst = max(worst, abs(sc.to_float(sc.im(x))))
    return worst


def conjugation_residual(gens: GeneratorSet) -> float:
    """Residual of g3 = g2^-1 g1 g2, entrywise after phase alignment."""
    lhs = gens.g3.matrix
    rhs = (gens.g2.inverse() @ gens.g1 @ gens.g2).matrix
    return matrix_phase_distance(np.asarray(lhs, complex), np.asarray(rhs, complex))


def trace_identity_residual(gens: GeneratorSet) -> float:
    """|tr(I1 I3 I2 I3) - (4 ball_a^2 - 1)|, an exact identity of the family."""
    w = gens.evaluate_word("I1 I3 I2 I3")
    expected = 4 * gens.coeffs.ball_a ** 2 - 1
    return sc.to_float(abs(w.trace - expected))


def real_point_matrices() -> dict:
    """Closed-form matrices of g1, g2, g3 at the real point t = sqrt(2)-1.

    Every entry lies in the field Q(sqrt(2), u) with u = sqrt(3 sqrt(2) - 4),
    so the whole group is conjugate into SO(2,1) there.  Each matrix agrees
    with the corresponding ``build_generators(T_REAL)`` output entrywise up
    to a global unit phase (compare with :func:`core.matrix_phase_distance`).
    """
    r2 = math.sqrt(2.0)
    u = math.sqrt(3.0 * r2 - 4.0)
    g1 = np.array(
        [
            [(3 + 4 * r2 + (6 * r2 + 8) * u) / 4, (2 + r2 + (2 * r2 + 2) * u) / 4, -0.25],
            [-(2 + r2 + (2 * r2 + 2) * u) / 4, 0.5, ((2 * r2 + 2) * u - 2 - r2) / 4],
            [-0.25, (2 + r2 - (2 * r2 + 2) * u) / 4, (3 + 4 * r2 - (6 * r2 + 8) * u) / 4],
        ],
        dtype=complex,
    )
    g2 = np.array(
        [[0.5, r2 / 2, -0.5], [-r2 / 2, 0.0, -r2 / 2], [-0.5, r2 / 2, 0.5]],
        dtype=complex,
    )
    g3 = np.array(
        [
            [(3 + 2 * r2) / 4, (2 + r2 + (6 + 4 * r2) * u) / 4, (-1 - 2 * r2 - (4 + 2 * r2) * u) / 4],
            [(-2 - r2 + (6 + 4 * r2) * u) / 4, (1 + 2 * r2) / 2, -(2 + r2 + (6 + 4 * r2) * u) / 4],
            [(-1 - 2 * r2 + (4 + 2 * r2) * u) / 4, (2 + r2 - (6 + 4 * r2) * u) / 4, (3 + 2 * r2) / 4],
        ],
        dtype=complex,
    )
    return {"g1": g1, "g2": g2, "g3": g3}
