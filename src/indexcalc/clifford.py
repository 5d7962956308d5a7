"""Finite-dimensional fermionic normalization checks.

Gamma matrices are built by recursive Pauli tensoring with entries in
{0, +-1, +-i}; since those are Gaussian integers of tiny magnitude, every
matrix product, anticommutator and trace below is exact in complex128 and
all identity checks are literal equalities.  Grassmann coefficients use an
exact complex-rational type so the Berezin bookkeeping is exact as well.

Berezin measure convention: the iterated integral d(psi^1)...d(psi^2n)
extracts the coefficient of the descending monomial psi^2n...psi^1
(innermost differential acts first).  With this convention the chirality
normalization solves to exactly i^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Mapping

import numpy as np

__all__ = [
    "ComplexRational",
    "GrassmannElement",
    "GammaRep",
    "build_gamma",
    "chirality",
    "berezin_integrate",
    "normalization_psi2",
    "anticommutator",
    "GammaIdentities",
    "gamma_identities",
]


@dataclass(frozen=True)
class ComplexRational:
    """Exact complex number with Fraction real and imaginary parts."""

    real: Fraction = Fraction(0)
    imag: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "real", Fraction(self.real))
        object.__setattr__(self, "imag", Fraction(self.imag))

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
    """Merge two strictly increasing index tuples, tracking the swap sign.

    Returns (sign, merged) or None when an index repeats (the square of a
    generator vanishes).
    """
    if set(a) & set(b):
        return None
    merged: list[int] = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining len(a) - i factors of a
            if (len(a) - i) % 2:
                sign = -sign
            merged.append(b[j])
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return sign, tuple(merged)


class GrassmannElement:
    """Element of the Grassmann algebra on generators psi^1..psi^m.

    Coefficients are stored against strictly increasing index tuples; the
    anticommutation signs are tracked on multiplication.
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
            s = out.get(idx, ComplexRational()) + c
            if s:
                out[idx] = s
            else:
                out.pop(idx, None)
        return GrassmannElement(out)

    def __mul__(self, other) -> "GrassmannElement":
        if isinstance(other, (int, Fraction, ComplexRational)):
            c = _coerce(other)
            return GrassmannElement({i: v * c for i, v in self.coefficients.items()})
        out: dict[tuple[int, ...], ComplexRational] = {}
        for ia, ca in self.coefficients.items():
            for ib, cb in other.coefficients.items():
                merged = _merge_indices(ia, ib)
                if merged is None:
                    continue
                sign, idx = merged
                s = out.get(idx, ComplexRational()) + ca * cb * sign
                if s:
                    out[idx] = s
                else:
                    out.pop(idx, None)
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


_PAULI_1 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_PAULI_2 = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_PAULI_3 = np.array([[1, 0], [0, -1]], dtype=np.complex128)

_I_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

MAX_HALF_DIM = 5


@dataclass(frozen=True)
class GammaRep:
    """2n Hermitian anticommuting matrices of size 2^n, entries in {0, +-1, +-i}."""

    n: int
    matrices: tuple[np.ndarray, ...]


def build_gamma(n: int) -> GammaRep:
    """Euclidean gamma matrices for real dimension 2n, built recursively.

    Level n extends level n-1 by tensoring the old matrices with sigma_3 and
    appending I (x) sigma_1 and I (x) sigma_2; Clifford relations
    {gamma^a, gamma^b} = 2 delta^ab hold exactly.
    """
    if not 1 <= n <= MAX_HALF_DIM:
        raise ValueError(f"n must be between 1 and {MAX_HALF_DIM}, got {n}")
    mats = [_PAULI_1.copy(), _PAULI_2.copy()]
    for level in range(2, n + 1):
        eye = np.eye(2 ** (level - 1), dtype=np.complex128)
        mats = [np.kron(m, _PAULI_3) for m in mats]
        mats.append(np.kron(eye, _PAULI_1))
        mats.append(np.kron(eye, _PAULI_2))
    for m in mats:
        m.setflags(write=False)
    return GammaRep(n=n, matrices=tuple(mats))


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b + b @ a


def chirality(rep: GammaRep) -> np.ndarray:
    """gamma_{2n+1} = i^n gamma^1 ... gamma^2n.

    Squares to the identity, anticommutes with every gamma^a, and is
    traceless with Tr(gamma_{2n+1}^2) = 2^n.
    """
    product = reduce(np.matmul, rep.matrices)
    out = _I_POWERS[rep.n % 4] * product
    out.setflags(write=False)
    return out


def normalization_psi2(n: int) -> ComplexRational:
    """Chirality-trace normalization from the Berezin integral; equals i^n.

    Solves 2^n = N * integral of (2i)^n psi^1...psi^2n under the measure
    convention above, entirely in exact arithmetic.
    """
    if not 1 <= n <= MAX_HALF_DIM:
        raise ValueError(f"n must be between 1 and {MAX_HALF_DIM}, got {n}")
    top = GrassmannElement.scalar(ComplexRational.i_power(n) * Fraction(2**n))
    for k in range(1, 2 * n + 1):
        top = top * GrassmannElement.generator(k)
    integral = berezin_integrate(top, 2 * n)
    return ComplexRational(Fraction(2**n)) / integral


@dataclass(frozen=True)
class GammaIdentities:
    """The gamma-matrix and Berezin identities at real dimension 2n, all exact."""

    n: int
    clifford: bool  # {gamma^a, gamma^b} = 2 delta^ab
    hermitian: bool  # every gamma^a equals its conjugate transpose
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
    rep = build_gamma(n)
    eye = np.eye(2**n, dtype=np.complex128)
    zero = np.zeros_like(eye)
    gamma = chirality(rep)
    square = gamma @ gamma
    return GammaIdentities(
        n=n,
        clifford=all(
            np.array_equal(anticommutator(g, h), 2 * eye if a == b else zero)
            for a, g in enumerate(rep.matrices)
            for b, h in enumerate(rep.matrices)
        ),
        hermitian=all(np.array_equal(g, g.conj().T) for g in rep.matrices),
        grading=np.array_equal(square, eye)
        and all(np.array_equal(anticommutator(gamma, g), zero) for g in rep.matrices),
        trace=complex(gamma.trace()),
        square_trace=complex(square.trace()),
        normalization=normalization_psi2(n),
    )
