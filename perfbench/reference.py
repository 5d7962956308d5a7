"""Reference answers that do not go through the code they check.

Nothing here imports ``indexcalc``.  Genus series come from this file's own
Bernoulli numbers (the Akiyama-Tanigawa algorithm, not the package's
recurrence), indices from the classical product formulas for projective
spaces, and determinants from closed forms written out afresh.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import factorial

# Float evaluations of the same closed form agree to rounding.
CLOSED_FORM_RTOL = 1e-12
# Allowance for rounding in the oracle's log-sum, on top of its O(1/N) tail.
ORACLE_ROUNDING_RTOL = 1e-9


def bernoulli_numbers(m: int) -> list[Fraction]:
    """B_0..B_m with B_1 = +1/2, by the Akiyama-Tanigawa algorithm."""
    a = [Fraction(0)] * (m + 1)
    out = []
    for i in range(m + 1):
        a[i] = Fraction(1, i + 1)
        for j in range(i, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    return out


def genus_series(kind: str, order: int) -> list[Fraction]:
    """Coefficients f_0..f_order of the genus-defining series in x.

    L: x/tanh x = sum 4^k B_2k x^2k/(2k)!;  A_hat: (x/2)/sinh(x/2) =
    sum (2 - 4^k) B_2k x^2k/(4^k (2k)!);  Todd: x/(1 - e^-x) = sum B_k^+ x^k/k!.
    """
    b = bernoulli_numbers(order)
    coeffs = []
    for m in range(order + 1):
        if kind == "Todd":
            coeffs.append(b[m] / factorial(m))
        elif m % 2:
            coeffs.append(Fraction(0))
        elif kind == "L":
            coeffs.append(4 ** (m // 2) * b[m] / factorial(m))
        elif kind == "A_hat":
            coeffs.append((2 - 4 ** (m // 2)) * b[m] / (4 ** (m // 2) * factorial(m)))
        else:
            raise ValueError(f"unknown genus kind {kind!r}")
    return coeffs


def _series_mul(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for j, y in enumerate(b[: order + 1 - i]):
                out[i + j] += x * y
    return out


def _elementary(values: list[int]) -> list[int]:
    """e_0..e_n of the given numbers."""
    e = [1] + [0] * len(values)
    for v in values:
        for k in range(len(values), 0, -1):
            e[k] += e[k - 1] * v
    return e


def genus_check(kind: str, n: int, terms: dict[tuple[int, ...], Fraction]) -> bool:
    """Evaluate a genus class at roots x_i = i*t and compare with prod f(i*t).

    ``terms`` maps exponent vectors over (p_1..p_n) for L and A_hat, or
    (c_1..c_n) for Todd, to coefficients.  Both sides are power series in t
    truncated at the class's top degree: t^(2n) for L and A_hat, t^n for Todd.
    """
    even = kind != "Todd"
    order = 2 * n if even else n
    f = genus_series(kind, order)
    want = [Fraction(1)] + [Fraction(0)] * order
    for i in range(1, n + 1):
        want = _series_mul(want, [c * i**m for m, c in enumerate(f)], order)
    roots = [i * i for i in range(1, n + 1)] if even else list(range(1, n + 1))
    e = _elementary(roots)
    step = 2 if even else 1
    got = [Fraction(0)] * (order + 1)
    for exps, coeff in terms.items():
        if len(exps) != n:
            return False
        degree = sum(step * (k + 1) * x for k, x in enumerate(exps))
        if degree > order:
            return False
        got[degree] += coeff * math.prod(e[k + 1] ** x for k, x in enumerate(exps))
    return got == want


def _chi_line(n: int, k: Fraction) -> Fraction:
    """chi(CP^n, O(k)) = C(n + k, n), as a polynomial in k."""
    value = Fraction(1)
    for j in range(1, n + 1):
        value *= (k + j) / j
    return value


def index_value(ns: list[int], query: str, twist: list[int] | None) -> Fraction:
    """Index of a product of projective spaces CP^n1 x ... with line bundle O(k1,...)."""
    ks = twist or [0] * len(ns)
    if query == "signature":
        return Fraction(int(all(n % 2 == 0 for n in ns)))
    if query == "euler":
        return Fraction(math.prod(n + 1 for n in ns))
    if query.startswith("dolbeault"):
        return math.prod((_chi_line(n, Fraction(k)) for n, k in zip(ns, ks)), start=Fraction(1))
    if query.startswith("spin"):
        # A_hat = Td * e^(-c1/2) with c1 = sum (n_i + 1) h_i
        return math.prod(
            (_chi_line(n, k - Fraction(n + 1, 2)) for n, k in zip(ns, ks)), start=Fraction(1)
        )
    raise ValueError(f"unknown query {query!r}")


def det_closed_form(kind: str, beta: float, param: float) -> float:
    if kind == "pbc_laplacian":
        return beta * beta
    if kind == "pbc_first_order":
        return beta
    if kind == "apbc_first_order_shifted":
        return 2.0 * math.cosh(beta * param / 2.0)
    if kind == "pbc_curvature_block":
        return beta * beta if param == 0 else (math.sin(beta * param / 2.0) / (param / 2.0)) ** 2
    if kind == "apbc_curvature_block":
        return (2.0 * math.cos(beta * param / 2.0)) ** 2
    raise ValueError(f"unknown operator kind {kind!r}")


def det_is_singular(kind: str, beta: float, param: float) -> bool:
    """An eigenvalue vanishes: beta*param/2 at k*pi (k != 0) or at odd multiples of pi/2."""
    if kind == "pbc_curvature_block":
        r = beta * param / (2.0 * math.pi)
        return round(r) != 0 and abs(r - round(r)) <= 1e-9
    if kind == "apbc_curvature_block":
        r = beta * param / math.pi
        return round(r) % 2 == 1 and abs(r - round(r)) <= 1e-9
    return False


def oracle_tolerance(kind: str, beta: float, param: float, modes: int) -> float:
    """Bound on |oracle - closed| from the O(1/N) tail of the ratio product.

    The omitted factors are 1 + O(a/k^2) with a = (beta*param/pi)^2 (over 4
    for the periodic spacing), so the relative tail is at most a/(2N).
    """
    a = (beta * param / math.pi) ** 2
    return abs(det_closed_form(kind, beta, param)) * (a / modes + ORACLE_ROUNDING_RTOL)


def det_check(kind: str, beta: float, param: float, modes: int, closed: float, oracle: float) -> bool:
    want = det_closed_form(kind, beta, param)
    closed_ok = abs(closed - want) <= CLOSED_FORM_RTOL * abs(want)
    return closed_ok and abs(oracle - want) <= oracle_tolerance(kind, beta, param, modes)
