"""Multiplicative-sequence characteristic classes and Chern/Pontryagin algebra.

A genus is defined by a power series f(x) with f(0) = 1.  Its class is the
symmetric product f(x_1)...f(x_n) over formal roots, written in the
elementary symmetric classes of the roots.  For an even series the product
only depends on the squared roots, so the classes come out in Pontryagin-type
generators of degree 4k; otherwise in Chern-type generators of degree 2k.

No root is ever expanded: log prod f(x_i) = sum_m a_m P_m, where a_m are the
coefficients of log f and the power sums P_m of the roots come from Newton's
identities in the class generators (Hirzebruch, Topological Methods in
Algebraic Geometry, section 1).  The Chern character uses the same power sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Sequence

from .exact_algebra import GradedPolynomial, TaylorSeries, genus_series

__all__ = [
    "GenusClass",
    "ChernCharacter",
    "multiplicative_sequence",
    "l_class",
    "a_hat_class",
    "todd_class",
    "chern_character",
    "chern_to_pontryagin",
    "signature_integrand_identity_check",
]


@dataclass(frozen=True)
class GenusClass:
    """A genus polynomial in class generators.

    ``half_dim`` is the number of formal root blocks used: L and A_hat come
    out in p_1..p_l (degree 4k, truncation 4*half_dim), Todd in c_1..c_n
    (degree 2k, truncation 2*half_dim).
    """

    kind: str
    half_dim: int
    polynomial: GradedPolynomial
    truncation: int


@dataclass(frozen=True)
class ChernCharacter:
    """rank + ch_1 + ch_2 + ... as a polynomial in the ambient generators."""

    rank: int
    polynomial: GradedPolynomial


def _power_sums(
    elementary: Sequence[GradedPolynomial], count: int
) -> list[GradedPolynomial]:
    """Power sums P_1..P_count of roots whose elementary symmetric classes are
    e_i = elementary[i - 1] (zero past the end of the list), by Newton's
    identities P_m = sum_{i=1}^{m-1} (-1)^(i-1) e_i P_{m-i} + (-1)^(m-1) m e_m.
    """
    zero = GradedPolynomial(elementary[0].generators, elementary[0].truncation, {})
    e = [*elementary, *[zero] * count]
    sums: list[GradedPolynomial] = []
    for m in range(1, count + 1):
        pm = Fraction((-1) ** (m - 1) * m) * e[m - 1]
        for i in range(1, m):
            pm = pm + Fraction((-1) ** (i - 1)) * (e[i - 1] * sums[m - i - 1])
        sums.append(pm)
    return sums


def multiplicative_sequence(
    f: TaylorSeries,
    n_roots: int,
    class_names: Sequence[str],
    truncation: int | None = None,
) -> GradedPolynomial:
    """Product of f over n formal roots, in the symmetric class generators.

    For an even f the roots are regrouped into squared-root variables y of
    degree 4 (so class k has degree 4k); for a general f the roots y = x have
    degree 2.  Default truncation keeps exactly the degrees where all n
    classes can appear: 4n or 2n.  With g(y) = f(x) truncated at the order
    of f, log g = sum_m a_m y^m, so the product is the truncated exponential
    of sum_m a_m P_m, the P_m being the power sums of the y-roots.
    """
    if f.coefficient(0) != 1:
        raise ValueError("a genus-defining series must have constant term 1")
    if n_roots < 0:
        raise ValueError("n_roots must be non-negative")
    if len(class_names) != n_roots:
        raise ValueError(f"need {n_roots} class names, got {len(class_names)}")
    even = f.is_even()
    d_root = 4 if even else 2
    if truncation is None:
        truncation = d_root * n_roots
    if n_roots == 0:
        return GradedPolynomial((), truncation, {(): Fraction(1)})

    max_power = truncation // d_root
    step = 2 if even else 1
    g = [f.coefficient(step * k) if step * k <= f.order else Fraction(0)
         for k in range(max_power + 1)]
    # log g = sum_m a_m y^m from g' = g (log g)':  m a_m = m g_m - sum_{k<m} k a_k g_{m-k}
    a = [Fraction(0)]
    for m in range(1, max_power + 1):
        a.append(g[m] - Fraction(sum(k * a[k] * g[m - k] for k in range(1, m)), m))

    basis = tuple((str(name), d_root * (k + 1)) for k, name in enumerate(class_names))
    classes = [GradedPolynomial.generator(basis, truncation, name) for name, _ in basis]
    power_sums = _power_sums(classes, max_power)
    # exp of S = sum_m a_m P_m by degree: m E_m = sum_{k=1}^m k a_k P_k E_{m-k}
    parts = [GradedPolynomial.constant(basis, truncation, Fraction(1))]
    for m in range(1, max_power + 1):
        em = GradedPolynomial(basis, truncation, {})
        for k in range(1, m + 1):
            em = em + (k * a[k]) * (power_sums[k - 1] * parts[m - k])
        parts.append(Fraction(1, m) * em)
    return sum(parts[1:], parts[0])


def l_class(l: int) -> GenusClass:
    """L-genus 1 + L_1 + ... + L_l in p_1..p_l (series x/tanh x)."""
    if l < 0:
        raise ValueError("l must be non-negative")
    f = genus_series("L", 2 * l)
    names = [f"p{i + 1}" for i in range(l)]
    return GenusClass("L", l, multiplicative_sequence(f, l, names), 4 * l)


def a_hat_class(l: int) -> GenusClass:
    """Dirac genus 1 + A_1 + ... + A_l in p_1..p_l (series (x/2)/sinh(x/2))."""
    if l < 0:
        raise ValueError("l must be non-negative")
    f = genus_series("A_hat", 2 * l)
    names = [f"p{i + 1}" for i in range(l)]
    return GenusClass("A_hat", l, multiplicative_sequence(f, l, names), 4 * l)


def todd_class(n: int) -> GenusClass:
    """Todd class 1 + Td_1 + ... + Td_n in c_1..c_n (series x/(1 - e^(-x)))."""
    if n < 0:
        raise ValueError("n must be non-negative")
    f = genus_series("Todd", n)
    names = [f"c{i + 1}" for i in range(n)]
    return GenusClass("Todd", n, multiplicative_sequence(f, n, names), 2 * n)


def _validate_pure_degree(classes: Sequence[GradedPolynomial], step: int) -> None:
    for i, cl in enumerate(classes):
        want = step * (i + 1)
        bad = [d for d in cl.homogeneous_degrees() if d != want]
        if bad:
            raise ValueError(
                f"class {i + 1} must have pure degree {want}, found degrees {bad}"
            )


def chern_character(
    rank: int,
    chern_classes: Sequence[GradedPolynomial],
    truncation: int | None = None,
) -> ChernCharacter:
    """Chern character rank + sum_m s_m/m! via Newton's identities.

    ``chern_classes[i]`` is c_{i+1} of the bundle, a pure-degree-2(i+1)
    polynomial in the ambient manifold generators; no root splitting of the
    bundle is required.
    """
    if rank < 0:
        raise ValueError("rank must be non-negative")
    if not chern_classes:
        raise ValueError(
            "need at least one chern class polynomial; pass zero polynomials "
            "in the ambient basis for a trivial bundle"
        )
    _validate_pure_degree(chern_classes, 2)
    model = chern_classes[0]
    for cl in chern_classes[1:]:
        model._check_basis(cl)
    if truncation is None:
        truncation = model.truncation

    ch = GradedPolynomial.constant(model.generators, model.truncation, Fraction(rank))
    for m, sm in enumerate(_power_sums(chern_classes, truncation // 2), start=1):
        ch = ch + Fraction(1, factorial(m)) * sm
    return ChernCharacter(rank, ch)


def chern_to_pontryagin(
    chern_classes: Sequence[GradedPolynomial], real_dim: int
) -> list[GradedPolynomial]:
    """Pontryagin classes of the underlying real bundle.

    From c(E)c(E-bar) = prod(1 - x_i^2):
    p_k = (-1)^k sum_{i=0}^{2k} (-1)^i c_i c_{2k-i}, so p_1 = c_1^2 - 2 c_2.
    Returns [p_1, ..., p_{real_dim//4}] in the ambient generators.
    """
    if not chern_classes:
        return []
    _validate_pure_degree(chern_classes, 2)
    model = chern_classes[0]
    one = GradedPolynomial.constant(model.generators, model.truncation, Fraction(1))

    def c(i: int) -> GradedPolynomial:
        if i == 0:
            return one
        if 1 <= i <= len(chern_classes):
            return chern_classes[i - 1]
        return GradedPolynomial(model.generators, model.truncation, {})

    out = []
    for k in range(1, real_dim // 4 + 1):
        pk = GradedPolynomial(model.generators, model.truncation, {})
        for i in range(2 * k + 1):
            pk = pk + Fraction((-1) ** (k + i)) * (c(i) * c(2 * k - i))
        out.append(pk)
    return out


def signature_integrand_identity_check(l: int) -> bool:
    """Volume-component equality of the two signature integrands.

    Compares the top (degree 2l) component of 2^l prod (x_i/2)/tanh(x_i/2)
    with that of prod x_i/tanh(x_i) over l degree-2 roots, both written in
    p_1..p_l as multiplicative sequences truncated at degree 2l; only that
    component survives integration over a 2l-dimensional manifold, and the
    lower components genuinely differ (the constant terms are 2^l vs 1).
    """
    if l < 0:
        raise ValueError("l must be non-negative")
    f = genus_series("L", 2 * l)
    half = f.scale_argument(Fraction(1, 2))  # (x/2)/tanh(x/2)
    names = [f"p{i + 1}" for i in range(l)]
    lhs = multiplicative_sequence(half, l, names, truncation=2 * l).degree_part(2 * l)
    rhs = multiplicative_sequence(f, l, names, truncation=2 * l).degree_part(2 * l)
    return Fraction(2**l) * lhs == rhs
