"""Finite-dimensional fermionic normalization checks.

Every gamma matrix here is a Pauli string i^k X^x Z^z, kept as the integers
(k mod 4, x, z), so products, adjoints and traces are bit operations and all
identity checks are exact integer equalities.  Grassmann coefficients use an
exact complex-rational type so the Berezin bookkeeping is exact as well.
Grassmann monomials are increasing index tuples; the product of a and b is
zero when they share an index, else (-1)^(number of pairs i in a, j in b with
i > j) times sorted(a + b).

Berezin measure convention: the iterated integral d(psi^1)...d(psi^2n)
extracts the coefficient of the descending monomial psi^2n...psi^1
(innermost differential acts first).  With this convention the chirality
normalization solves to exactly i^n.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import reduce
from typing import Mapping, NamedTuple

from .exact_algebra import _Value

__all__ = [
    "ComplexRational",
    "GrassmannElement",
    "PauliString",
    "build_gamma",
    "chirality",
    "berezin_integrate",
    "normalization_psi2",
    "GammaIdentities",
    "gamma_identities",
]


class ComplexRational(_Value):
    """Exact complex number with Fraction real and imaginary parts."""

    __slots__ = ("real", "imag")

    def __init__(self, real: Fraction = Fraction(0), imag: Fraction = Fraction(0)):
        self.real, self.imag = Fraction(real), Fraction(imag)

    @classmethod
    def i_power(cls, n: int) -> "ComplexRational":
        """Exact i**n."""
        return (_ONE, _I, -_ONE, -_I)[n % 4]

    def __add__(self, other: "ComplexRational") -> "ComplexRational":
        other = _coerce(other)
        return ComplexRational(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __neg__(self) -> "ComplexRational":
        return ComplexRational(-self.real, -self.imag)

    def __sub__(self, other: "ComplexRational") -> "ComplexRational":
        return self + (-_coerce(other))

    def __mul__(self, other) -> "ComplexRational":
        other = _coerce(other)
        return ComplexRational(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ComplexRational":
        other = _coerce(other)
        norm = other.real * other.real + other.imag * other.imag
        if norm == 0:
            raise ZeroDivisionError("complex-rational division by zero")
        return self * ComplexRational(other.real / norm, -other.imag / norm)

    def __bool__(self) -> bool:
        return bool(self.real or self.imag)

    def is_real(self) -> bool:
        return self.imag == 0

    def __repr__(self) -> str:
        if not self.imag:
            return str(self.real)
        if not self.real:
            return "i" if self.imag == 1 else ("-i" if self.imag == -1 else f"{self.imag}i")
        sign = "+" if self.imag > 0 else "-"
        return f"{self.real}{sign}{abs(self.imag)}i"


_ONE = ComplexRational(Fraction(1), Fraction(0))
_I = ComplexRational(Fraction(0), Fraction(1))


def _coerce(value) -> ComplexRational:
    if isinstance(value, ComplexRational):
        return value
    if isinstance(value, (int, Fraction)):
        return ComplexRational(Fraction(value), Fraction(0))
    raise TypeError(f"cannot mix ComplexRational with {type(value).__name__}")


def _merge_indices(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """(sign, sorted(a + b)) for the monomial product a b, or None if a and b share an index."""
    if set(a) & set(b):
        return None
    return (-1) ** sum(i > j for i in a for j in b), tuple(sorted(a + b))


class GrassmannElement:
    """Element of the Grassmann algebra on generators psi^1..psi^m.

    Coefficients are stored against strictly increasing index tuples.  A product
    of two monomials a, b sharing no index is (-1)^#{(i, j) : i in a, j in b, i > j}
    times the monomial sorted(a + b); one sharing an index vanishes.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Mapping[tuple[int, ...], ComplexRational] | None = None):
        clean: dict[tuple[int, ...], ComplexRational] = {}
        if coefficients:
            for idx, coeff in coefficients.items():
                idx = tuple(int(k) for k in idx)
                if list(idx) != sorted(set(idx)):
                    raise ValueError(f"indices must be strictly increasing, got {idx}")
                coeff = _coerce(coeff)
                if coeff:
                    clean[idx] = coeff
        self.coefficients = clean

    @classmethod
    def scalar(cls, value) -> "GrassmannElement":
        return cls({(): _coerce(value)})

    @classmethod
    def generator(cls, k: int) -> "GrassmannElement":
        if k < 1:
            raise ValueError("generator indices start at 1")
        return cls({(k,): _ONE})

    def coefficient(self, indices: tuple[int, ...]) -> ComplexRational:
        return self.coefficients.get(tuple(indices), ComplexRational())

    def __add__(self, other: "GrassmannElement") -> "GrassmannElement":
        out = dict(self.coefficients)
        for idx, c in other.coefficients.items():
            out[idx] = out.get(idx, ComplexRational()) + c
        return GrassmannElement(out)

    def __mul__(self, other) -> "GrassmannElement":
        if isinstance(other, (int, Fraction, ComplexRational)):
            c = _coerce(other)
            return GrassmannElement({i: v * c for i, v in self.coefficients.items()})
        out: dict[tuple[int, ...], ComplexRational] = {}
        for ia, ca in self.coefficients.items():
            for ib, cb in other.coefficients.items():
                merged = _merge_indices(ia, ib)
                if merged is not None:
                    sign, idx = merged
                    out[idx] = out.get(idx, ComplexRational()) + ca * cb * sign
        return GrassmannElement(out)

    def __rmul__(self, other) -> "GrassmannElement":
        if isinstance(other, (int, Fraction, ComplexRational)):
            return self * other
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __repr__(self) -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for idx in sorted(self.coefficients, key=lambda t: (len(t), t)):
            mono = "".join(f"ψ{k}" for k in idx) or "1"
            parts.append(f"({self.coefficients[idx]})·{mono}")
        return " + ".join(parts)


def berezin_integrate(e: GrassmannElement, n_gen: int) -> ComplexRational:
    """Integral against d(psi^1)...d(psi^n_gen).

    Extracts the coefficient of the descending top monomial
    psi^n_gen ... psi^1, i.e. (-1)^(n_gen(n_gen-1)/2) times the stored
    coefficient of the ascending tuple (1, ..., n_gen).
    """
    if n_gen < 0:
        raise ValueError("n_gen must be non-negative")
    reversal = -1 if (n_gen * (n_gen - 1) // 2) % 2 else 1
    return e.coefficient(tuple(range(1, n_gen + 1))) * reversal


_I_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

MAX_HALF_DIM = 5


class PauliString(_Value):
    """The 2^n x 2^n matrix i^phase X^x Z^z: the Kronecker product over qubits j of
    X^(x_j) Z^(z_j), qubit j the j-th factor from the left and bit j of x and z
    its exponents (Aaronson and Gottesman, Phys. Rev. A 70 (2004) 052328).
    """

    __slots__ = ("phase", "x", "z")

    def __init__(self, phase: int, x: int, z: int):
        self.phase, self.x, self.z = phase, x, z  # phase mod 4

    def __mul__(self, other: "PauliString") -> "PauliString":
        # moving Z^z right of X^x' flips the sign once per qubit with z_j = x'_j = 1
        phase = self.phase + other.phase + 2 * (self.z & other.x).bit_count()
        return PauliString(phase % 4, self.x ^ other.x, self.z ^ other.z)

    def adjoint(self) -> "PauliString":
        """(i^k X^x Z^z)^dagger = i^-k Z^z X^x = i^(2 popcount(x & z) - k) X^x Z^z."""
        return PauliString((2 * (self.x & self.z).bit_count() - self.phase) % 4, self.x, self.z)

    def anticommutes(self, other: "PauliString") -> bool:
        """p q = -q p: the two products share their bits, and their phases differ by 0 or 2."""
        return (self * other).phase != (other * self).phase

    def trace(self, n: int) -> complex:
        """Trace over the 2^n-dimensional space: 2^n i^phase on the identity string, else 0."""
        if self.x or self.z:
            return 0j
        return 2**n * _I_POWERS[self.phase]


def build_gamma(n: int) -> tuple[PauliString, ...]:
    """Euclidean gamma matrices for real dimension 2n, Hermitian and anticommuting.

    Pair j is X and Y = iXZ on qubit j times Z on every later qubit, as tensoring
    level n-1 with sigma_3 and appending I (x) sigma_1, I (x) sigma_2 builds them.
    """
    if not 1 <= n <= MAX_HALF_DIM:
        raise ValueError(f"n must be between 1 and {MAX_HALF_DIM}, got {n}")
    gammas = []
    for j in range(n):
        later = (1 << n) - (1 << (j + 1))
        gammas.append(PauliString(0, 1 << j, later))
        gammas.append(PauliString(1, 1 << j, later | (1 << j)))
    return tuple(gammas)


def chirality(gammas: tuple[PauliString, ...]) -> PauliString:
    """gamma_{2n+1} = i^n gamma^1 ... gamma^2n.

    Squares to the identity, anticommutes with every gamma^a, and is
    traceless with Tr(gamma_{2n+1}^2) = 2^n.
    """
    return reduce(operator.mul, gammas, PauliString(len(gammas) // 2 % 4, 0, 0))


def normalization_psi2(n: int) -> ComplexRational:
    """Chirality-trace normalization from the Berezin integral; equals i^n.

    Solves 2^n = N * integral of (2i)^n psi^1...psi^2n under the measure
    convention above, entirely in exact arithmetic.
    """
    if not 1 <= n <= MAX_HALF_DIM:
        raise ValueError(f"n must be between 1 and {MAX_HALF_DIM}, got {n}")
    coefficient = GrassmannElement.scalar(ComplexRational.i_power(n) * Fraction(2**n))
    top = reduce(operator.mul, map(GrassmannElement.generator, range(1, 2 * n + 1)), coefficient)
    integral = berezin_integrate(top, 2 * n)
    return ComplexRational(Fraction(2**n)) / integral


class GammaIdentities(NamedTuple):
    """The gamma-matrix and Berezin identities at real dimension 2n, all exact."""

    n: int
    clifford: bool  # {gamma^a, gamma^b} = 2 delta^ab
    hermitian: bool  # every gamma^a equals its adjoint
    grading: bool  # gamma_(2n+1)^2 = 1 and {gamma_(2n+1), gamma^a} = 0 for every a
    trace: complex  # Tr gamma_(2n+1), expected 0
    square_trace: complex  # Tr gamma_(2n+1)^2, expected 2^n
    normalization: ComplexRational  # expected i^n

    @property
    def chirality_ok(self) -> bool:
        return self.grading and self.trace == 0 and self.square_trace == 2**self.n

    @property
    def normalization_ok(self) -> bool:
        return self.normalization == ComplexRational.i_power(self.n)


def gamma_identities(n: int) -> GammaIdentities:
    """Check the Clifford, Hermiticity, chirality and i^n identities for build_gamma(n)."""
    gammas = build_gamma(n)
    one = PauliString(0, 0, 0)
    gamma = chirality(gammas)
    square = gamma * gamma
    return GammaIdentities(
        n=n,
        clifford=all(g * g == one for g in gammas)
        and all(g.anticommutes(h) for a, g in enumerate(gammas) for h in gammas[a + 1 :]),
        hermitian=all(g.adjoint() == g for g in gammas),
        grading=square == one and all(gamma.anticommutes(g) for g in gammas),
        trace=gamma.trace(n),
        square_trace=square.trace(n),
        normalization=normalization_psi2(n),
    )
