"""The one-parameter family of (3,3,4) complex reflection triangle groups.

Everything is driven by a single real parameter ``t`` in ``[3/8, sqrt(2)-1]``.
Three positive polar vectors ``n1, n2, n3`` determine complex reflections
``I1, I2, I3`` in the Siegel model; the even subgroup is generated by

    g1 = I3 I2 I1 I2,    g2 = I2 I1,    g3 = I1 I2 I3 I2 = g2^-1 g1 g2.

At the right endpoint of the interval every matrix entry is real and the
group sits inside SO(2,1); at the left endpoint ``g1`` degenerates from
loxodromic to parabolic.

Everything runs in double precision except one cross-check: with
``extended=True`` the generators and the residuals the ``relations`` suite
records are computed in ``EXTENDED_DPS``-digit mpmath arithmetic, in object
arrays of mpmath scalars.  This is the only module that imports mpmath, and
only when that path runs.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .core import (
    EPS_ALG,
    EPS_CLASS,
    GeometryError,
    GroupElement,
    IsometryClass,
    classify_isometry,
    complex_reflection_from_polar,
    det3,
    identity_element,
    matrix_phase_distance,
    trace_discriminant,
)

PARAM_MIN = 0.375
PARAM_MAX = math.sqrt(2.0) - 1.0
#: parameter at which all generator matrices become real
T_REAL = PARAM_MAX

_RANGE_SLACK = 1e-12

#: decimal digits of the extended mode (roughly double-double)
EXTENDED_DPS = 40


def validate_param(t: float, strict_interior: bool = False) -> float:
    """Check ``t`` against the closed parameter interval; return it as a float.

    Every builder computes with the returned ``float``, so a narrower input
    type (``np.float32``, say) cannot leak into the arithmetic.

    ``strict_interior`` additionally rejects the left endpoint, where the
    word ``g1`` is parabolic and axis-based constructions degenerate.
    """
    tf = float(t)
    if not (PARAM_MIN - _RANGE_SLACK <= tf <= PARAM_MAX + _RANGE_SLACK):
        raise GeometryError(
            f"parameter t={tf!r} outside [{PARAM_MIN}, {PARAM_MAX:.17g}]"
        )
    if strict_interior and tf <= PARAM_MIN + _RANGE_SLACK:
        raise GeometryError(
            "t = 3/8 is the parabolic degeneration; this operation needs t > 3/8"
        )
    return tf


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


@contextlib.contextmanager
def _arithmetic(extended: bool):
    """Yield ``mpmath`` at ``EXTENDED_DPS`` digits, or ``None`` in double mode.

    A caller already working at more digits keeps them, and the caller's
    precision comes back on exit.
    """
    if not extended:
        yield None
        return
    import mpmath

    with mpmath.workdps(max(mpmath.mp.dps, EXTENDED_DPS)):
        yield mpmath


def _sqrt_clamped(x, sqrt):
    """Real square root of ``x`` where tiny negative dust is clamped to 0.

    Raises ``ValueError`` when ``x`` is below -1e-12; this guards radicands
    that are nonnegative in exact arithmetic but can round just below zero
    at the ends of the parameter interval.
    """
    if x < -1e-12:
        raise ValueError(f"radicand {x!r} is negative beyond roundoff")
    return sqrt(x if x > 0 else x * 0)


def _coefficients(t, mp) -> Coefficients:
    """Coefficients in mpmath scalars when ``mp`` is the module, else in floats."""
    tt = mp.mpf(t) if mp else t
    sqrt = mp.sqrt if mp else math.sqrt
    a = _sqrt_clamped(6 * tt - 2, sqrt)
    b = _sqrt_clamped(-tt * tt - 2 * tt + 1, sqrt)
    c = _sqrt_clamped((8 * tt - 3) / (4 * tt - 1 - 2 * tt * a), sqrt)
    ball_a = 1 / (2 * sqrt(1 - 2 * tt))
    return Coefficients(tt, a, b, c, ball_a)


def coefficients(t: float) -> Coefficients:
    return _coefficients(validate_param(t), None)


def _coefficient_arrays(ts: np.ndarray) -> Coefficients:
    """:func:`coefficients` at every parameter of ``ts``, as float arrays.

    Raises ``GeometryError`` when a parameter is out of range or not a
    number, or when a radicand is negative beyond roundoff (below -1e-12),
    the two ways the scalar path refuses a parameter.
    """
    tt = np.asarray(ts, dtype=float)
    if not np.all((tt >= PARAM_MIN - _RANGE_SLACK) & (tt <= PARAM_MAX + _RANGE_SLACK)):
        raise GeometryError(f"a parameter lies outside [{PARAM_MIN}, {PARAM_MAX:.17g}]")

    def sqrt(x):
        if np.any(x < -1e-12):
            raise GeometryError("radicand is negative beyond roundoff")
        return np.sqrt(np.maximum(x, 0.0))

    a = sqrt(6 * tt - 2)
    b = sqrt(-tt * tt - 2 * tt + 1)
    c = sqrt((8 * tt - 3) / (4 * tt - 1 - 2 * tt * a))
    return Coefficients(tt, a, b, c, 1 / (2 * np.sqrt(1 - 2 * tt)))


def _polar_vectors(co: Coefficients, mp):
    """Unit polar vectors of the three mirrors; only ``n3`` depends on ``t``.

    Object arrays when ``mp`` is mpmath, else ``complex128``.
    """
    tt, a, b = co.t, co.a, co.b
    sqrt = mp.sqrt if mp else math.sqrt
    dtype = object if mp else complex
    one = tt * 0 + 1
    r2 = sqrt(one * 2)
    s = 1 / (2 * sqrt(1 - 2 * tt))
    n1 = np.array([one * 0, one, one * 0], dtype=dtype)
    n2 = np.array([one / 2, r2 / 2, one / 2], dtype=dtype)
    n3 = np.array(
        [
            s * r2 / 2 * (a + 1),
            s * (mp.mpc if mp else complex)(-tt, b),
            s * r2 / 2 * (1 - a),
        ],
        dtype=dtype,
    )
    return n1, n2, n3


# Lift of the common fixed point of I1 and I2 (the rotation center of g2).
# It is orthogonal to both n1 and n2, hence box_product(n1, n2) up to scale,
# and does not depend on t.  <Q0, Q0> = -2.  Every spinal sphere bisects this
# one centre and every module reads this one array, so it is read-only.
Q0 = np.array([-1.0, 0.0, 1.0], dtype=complex)
Q0.setflags(write=False)

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
    n1: np.ndarray
    n2: np.ndarray
    n3: np.ndarray
    i1: GroupElement
    i2: GroupElement
    i3: GroupElement
    g1: GroupElement
    g2: GroupElement
    g3: GroupElement
    #: matrices hold mpmath scalars (see :func:`build_generators`)
    extended: bool = False

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
        One word is the one-row stack of :meth:`evaluate_words`.
        """
        return GroupElement(self.evaluate_words([word])[0])

    def evaluate_words(self, words: Sequence[str | Sequence[str]]) -> np.ndarray:
        """``(n, 3, 3)`` stack of the words' matrices, each as :meth:`evaluate_word` gives it.

        Every word is the identity times its tokens, multiplied from the
        left; shorter words are padded in front with more identities, which
        leave every product exact, so the stack is multiplied one token
        position at a time and each row rounds as its word alone would.
        """
        tokens = [word.split() if isinstance(word, str) else list(word) for word in words]
        length = max(map(len, tokens), default=0)
        # row 0 of the table is the identity, row i the i-th distinct token
        rows: Dict[str, int] = {}
        index = np.zeros((length, len(tokens)), dtype=int)
        for n, toks in enumerate(tokens):
            index[length - len(toks):, n] = [rows.setdefault(tok, len(rows) + 1) for tok in toks]
        table = np.stack([identity_element().matrix] + [self.element(tok).matrix for tok in rows])
        out = table[np.zeros(len(tokens), dtype=int)]
        for factors in table[index]:
            out = out @ factors
        return np.stack([_renormalize_det(GroupElement(m), self.extended).matrix for m in out])


def involution_word(k: int) -> List[str]:
    """Tokens of the k-th of the eight involutions bounding the Dirichlet domain.

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
    return ["I2", "I1"] * half + core + ["I1", "I2"] * half


def _parse_token(token: str):
    token = token.strip()
    if token.endswith("^-1"):
        return token[:-3], True
    return token, False


def _renormalize_det(g: GroupElement, extended: bool) -> GroupElement:
    d = det3(g.matrix)
    # d is a unit-modulus complex number for exact group elements; divide by
    # its cube root to pin det = 1 without disturbing the projective class.
    if extended:
        import mpmath

        r = mpmath.cbrt(d)
    else:
        r = cmath.exp(cmath.log(d) / 3.0)
    return GroupElement(g.matrix / r)


def _generator_set(t: float, mp) -> GeneratorSet:
    co = _coefficients(t, mp)
    n1, n2, n3 = _polar_vectors(co, mp)
    i1 = complex_reflection_from_polar(n1)
    i2 = complex_reflection_from_polar(n2)
    i3 = complex_reflection_from_polar(n3)
    g1 = i3 @ i2 @ i1 @ i2
    g2 = i2 @ i1
    g3 = i1 @ i2 @ i3 @ i2
    return GeneratorSet(t, co, n1, n2, n3, i1, i2, i3, g1, g2, g3, mp is not None)


def build_generators(t: float, extended: bool = False) -> GeneratorSet:
    """Construct the full generator set at parameter ``t``.

    Extended mode computes at ``EXTENDED_DPS`` digits and leaves the
    caller's mpmath precision as it found it.  Words evaluated later run at
    the caller's precision; :func:`relation_values` keeps them at
    ``EXTENDED_DPS`` digits too.
    """
    t = validate_param(t)
    with _arithmetic(extended) as mp:
        return _generator_set(t, mp)


def _generator_stacks(co: Coefficients) -> Tuple[np.ndarray, np.ndarray]:
    """``g1`` and ``g2`` at every parameter of array coefficients ``co``, as
    ``(n, 3, 3)`` stacks.

    The same words in the same reflections as :func:`build_generators`.
    Only the mirror ``n3`` depends on ``t``, so ``I3`` is built per parameter
    from its closed form, and the words in ``I1``, ``I2`` alone are module
    constants.  The products are not renormalized to determinant 1.
    """
    r2 = math.sqrt(2.0)
    n3 = co.ball_a[:, None] * np.stack(
        [r2 / 2 * (co.a + 1), -co.t + 1j * co.b, r2 / 2 * (1 - co.a)], axis=-1)
    # I3 = -1 + 2 n3 n3^H J / <n3, n3>; the Siegel form reverses coordinates
    row = np.conj(n3)[:, ::-1]
    norm = (n3 * row).sum(axis=1)
    if not np.all(norm.real > 0):
        raise GeometryError("polar vector of a complex reflection must be positive type")
    i3 = -np.eye(3) + 2 * n3[:, :, None] * row[:, None, :] / norm[:, None, None]
    return i3 @ _I2_I1_I2, np.broadcast_to(_G2, i3.shape)


_MIRRORS = _generator_set(PARAM_MAX, None)
#: the words of :func:`_generator_stacks` that no parameter enters
_I2_I1_I2 = _MIRRORS.i2.matrix @ _MIRRORS.i1.matrix @ _MIRRORS.i2.matrix
_G2 = _MIRRORS.g2.matrix


@dataclass(frozen=True)
class RelationReport:
    t: float
    residuals: dict
    max_residual: float
    passed: bool


def relation_certificate(gens: GeneratorSet) -> RelationReport:
    """The six presentation relations as projective identities; they pass below ``EPS_ALG``."""
    words = np.asarray(gens.evaluate_words(RELATION_WORDS), dtype=complex)
    residuals = dict(zip(RELATION_WORDS, matrix_phase_distance(words, np.eye(3)).tolist()))
    worst = max(residuals.values())
    return RelationReport(gens.t, residuals, worst, worst < EPS_ALG)


def max_imag_entry(gens: GeneratorSet) -> float:
    """Largest |imaginary part| over all entries of the six matrices."""
    worst = 0.0
    for el in (gens.i1, gens.i2, gens.i3, gens.g1, gens.g2, gens.g3):
        for x in np.asarray(el.matrix).ravel():
            worst = max(worst, abs(float(x.imag)))
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
    return float(abs(w.trace - expected))


@dataclass(frozen=True)
class RelationValues:
    """Everything the ``relations`` suite records at one parameter."""

    relations: Dict[str, float]
    trace_identity: float
    conjugation: float
    g1_discriminant: float
    g1_loxodromic: bool


def relation_values(t: float, extended: bool = False) -> RelationValues:
    """Relation, trace-identity and conjugation residuals and the class of
    ``g1`` at ``t``.

    In extended mode the generators and every value are computed inside one
    ``EXTENDED_DPS``-digit context, and the caller's precision comes back.
    """
    t = validate_param(t)
    with _arithmetic(extended) as mp:
        gens = _generator_set(t, mp)
        if mp:
            # classify_isometry calls g1 loxodromic exactly when the
            # discriminant exceeds EPS_CLASS; reading that alone keeps its
            # double-precision eigensolver away from mpmath scalars
            disc = trace_discriminant(gens.g1.trace)
            loxodromic = disc > EPS_CLASS
        else:
            cls = classify_isometry(gens.g1)
            disc, loxodromic = cls.discriminant, cls.kind is IsometryClass.LOXODROMIC
        return RelationValues(relation_certificate(gens).residuals,
                              trace_identity_residual(gens),
                              conjugation_residual(gens),
                              disc, loxodromic)


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
