"""Shared independent oracles used by the genus and acceptance tests.

Dict-based polynomial arithmetic over root exponent tuples, with genus
series coefficients taken from the Bernoulli closed forms; none of it uses
the package's symmetric reduction.  `series_by_division` builds the same
series by exact long division of the hyperbolic series: the reference for
the package's genus_series, which reads them from Bernoulli numbers.
`reduced_root_product` is the other reference: the root expansion of
prod f(x_i) rewritten by the package's Gauss elimination (`symmetric_reduce`),
with no power sums.
`pontryagin_pair_sum` is the textbook pair sum for Pontryagin classes in
the same dict arithmetic.

`dense` expands a Pauli string into its complex matrix with `np.kron`, and
`kron_gammas` is the recursive Kronecker build of the gamma matrices that the
Pauli strings replaced: the dense reference for the Clifford tests.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial

import numpy as np

from indexcalc.exact_algebra import GradedPolynomial, TaylorSeries, bernoulli, symmetric_reduce


def d_mul(a, b, max_deg, weights):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(w * x for w, x in zip(weights, e)) > max_deg:
                continue
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def d_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def series_coeff(kind: str, k: int) -> Fraction:
    """Series coefficients straight from the Bernoulli closed forms."""
    if kind == "L":
        if k % 2:
            return Fraction(0)
        return Fraction(2**k) * bernoulli(k) / factorial(k) if k else Fraction(1)
    if kind == "A_hat":
        if k % 2:
            return Fraction(0)
        return Fraction(2 - 2**k) * bernoulli(k) / (Fraction(2**k) * factorial(k))
    if kind == "Todd":
        return Fraction((-1) ** k) * bernoulli(k) / factorial(k)
    raise ValueError(kind)


def _series_inverse(a: list[Fraction]) -> list[Fraction]:
    """1/a mod x^len(a), by long division; a[0] != 0."""
    inv = [1 / a[0]]
    for m in range(1, len(a)):
        inv.append(-sum(a[k] * inv[m - k] for k in range(1, m + 1)) / a[0])
    return inv


def series_by_division(kind: str, order: int) -> list[Fraction]:
    """The L, A_hat or Todd series to x^order by exact long division:
    cosh(x)/(sinh(x)/x), 1/(sinh(x/2)/(x/2)) and 1/((1 - e^(-x))/x)."""
    n = order + 1

    def even(coefficient):
        return [coefficient(k) if k % 2 == 0 else Fraction(0) for k in range(n)]

    if kind == "Todd":
        return _series_inverse([Fraction((-1) ** k, factorial(k + 1)) for k in range(n)])
    if kind == "A_hat":
        return _series_inverse(even(lambda k: Fraction(1, 2**k * factorial(k + 1))))
    if kind == "L":
        cosh = even(lambda k: Fraction(1, factorial(k)))
        inv = _series_inverse(even(lambda k: Fraction(1, factorial(k + 1))))
        return [sum(cosh[i] * inv[k - i] for i in range(k + 1)) for k in range(n)]
    raise ValueError(kind)


def brute_force_product(kind: str, n_roots: int, max_deg: int, weights):
    """prod_i f(x_i) as a dict polynomial, truncated by weighted degree.

    Weight-4 roots stand for squared weight-2 roots of an even series, so
    their power k carries the x^(2k) coefficient.
    """
    prod = {(0,) * n_roots: Fraction(1)}
    for i in range(n_roots):
        factor = {}
        w = weights[i]
        for k in range(max_deg // w + 1):
            c = series_coeff(kind, k if w == 2 else 2 * k)
            if c:
                e = [0] * n_roots
                e[i] = k
                factor[tuple(e)] = c
        prod = d_mul(prod, factor, max_deg, weights)
    return prod


def elementary_expansions(n_roots: int, max_deg: int, weights):
    """e_1..e_n of the roots as dict polynomials."""
    out = []
    for k in range(1, n_roots + 1):
        poly = {}
        for combo in combinations(range(n_roots), k):
            e = [0] * n_roots
            for i in combo:
                e[i] = 1
            poly[tuple(e)] = Fraction(1)
        out.append(poly)
    return out


def expand_class_poly(class_poly: GradedPolynomial, n_roots: int, max_deg: int, weights):
    """Expand a package polynomial in e-classes back into the roots, locally."""
    elems = elementary_expansions(n_roots, max_deg, weights)
    total = {}
    for exps, coeff in class_poly.terms.items():
        term = {(0,) * n_roots: coeff}
        for k, e in enumerate(exps):
            for _ in range(e):
                term = d_mul(term, elems[k], max_deg, weights)
        total = d_add(total, term)
    return total


def genus_matches_brute_force(genus_poly: GradedPolynomial, kind: str, n: int, weight: int) -> bool:
    weights = (weight,) * n
    max_deg = weight * n
    expected = brute_force_product(kind, n, max_deg, weights)
    return expand_class_poly(genus_poly, n, max_deg, weights) == expected


def reduced_root_product(f: TaylorSeries, n_roots: int, class_names) -> GradedPolynomial:
    """prod f(x_i) over n formal roots, expanded in the roots and reduced to
    the elementary symmetric classes by symmetric_reduce.

    Roots have degree 4 (squared roots) for an even f and 2 otherwise, and
    the truncation is n times the root degree, as in multiplicative_sequence.
    """
    even = f.is_even()
    d_root = 4 if even else 2
    truncation = d_root * n_roots
    basis = tuple((f"r{i + 1}", d_root) for i in range(n_roots))
    product = GradedPolynomial.constant(basis, truncation, Fraction(1))
    for i in range(n_roots):
        terms = {}
        for k in range(truncation // d_root + 1):
            src = 2 * k if even else k
            if src <= f.order and f.coefficient(src):
                e = [0] * n_roots
                e[i] = k
                terms[tuple(e)] = f.coefficient(src)
        product = product * GradedPolynomial(basis, truncation, terms)
    return symmetric_reduce(product, n_roots, list(class_names))


def pontryagin_pair_sum(chern_classes, real_dim: int) -> list[dict]:
    """p_1..p_{real_dim//4} of the underlying real bundle as term dicts, by the pair sum
    p_k = (-1)^k sum_{i=0}^{2k} (-1)^i c_i c_{2k-i} (c_0 = 1, zero past the list),
    multiplied with the local dict arithmetic and cut at the classes' truncation."""
    c1 = chern_classes[0]
    weights = [d for _, d in c1.generators]
    c = [{(0,) * len(weights): Fraction(1)}, *(cl.terms for cl in chern_classes)]
    c += [{}] * (real_dim // 2)
    out = []
    for k in range(1, real_dim // 4 + 1):
        pk = {}
        for i in range(2 * k + 1):
            pair = d_mul(c[i], c[2 * k - i], c1.truncation, weights)
            pk = d_add(pk, {e: (-1) ** (k + i) * v for e, v in pair.items()})
        out.append(pk)
    return out


_PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_EYE_2 = np.eye(2, dtype=np.complex128)


def dense(p, n: int) -> np.ndarray:
    """The 2^n x 2^n matrix i^phase X^x Z^z of a Pauli string, qubit j the j-th kron factor."""
    assert p.x >> n == 0 and p.z >> n == 0, "string acts beyond n qubits"
    out = np.array([[(1, 1j, -1, -1j)[p.phase]]], dtype=np.complex128)
    for j in range(n):
        x = _PAULI_X if p.x >> j & 1 else _EYE_2
        z = _PAULI_Z if p.z >> j & 1 else _EYE_2
        out = np.kron(out, x @ z)
    return out


def kron_gammas(n: int) -> list[np.ndarray]:
    """Gamma matrices built level by level: the level n-1 matrices (x) sigma_3,
    then I (x) sigma_1 and I (x) sigma_2."""
    mats = [_PAULI_X, _PAULI_Y]
    for level in range(2, n + 1):
        eye = np.eye(2 ** (level - 1), dtype=np.complex128)
        mats = [np.kron(m, _PAULI_Z) for m in mats]
        mats.append(np.kron(eye, _PAULI_X))
        mats.append(np.kron(eye, _PAULI_Y))
    return mats
