"""Exact rational arithmetic, Bernoulli numbers, truncated power series,
and a graded polynomial ring over named even-degree generators.

Everything here is exact: coefficients are `fractions.Fraction` throughout,
and all equalities asserted downstream are literal equalities, never
tolerances.  Values are immutable after construction and safe to share
between threads.

GradedPolynomial checks outside input once, in its constructor.  Its
arithmetic builds results from terms that are already clean and checks
nothing again; substitute expands powers term by term, with no cache.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Mapping, Sequence

__all__ = [
    "bernoulli",
    "TaylorSeries",
    "genus_series",
    "GradedPolynomial",
    "symmetric_reduce",
    "BasisMismatchError",
    "NonSymmetricError",
]

_BERNOULLI_CACHE: list[Fraction] = [Fraction(1)]


def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k under the convention B_1 = -1/2.

    Computed by the defining recurrence sum_{j=0}^{k} C(k+1, j) B_j = 0,
    with results cached; B_k = 0 for odd k >= 3.
    """
    if k < 0:
        raise ValueError("Bernoulli index must be non-negative")
    while len(_BERNOULLI_CACHE) <= k:
        m = len(_BERNOULLI_CACHE)
        s = sum(comb(m + 1, j) * _BERNOULLI_CACHE[j] for j in range(m))
        _BERNOULLI_CACHE.append(Fraction(-s, m + 1))
    return _BERNOULLI_CACHE[k]


class _Value:
    """Value semantics for a ``__slots__`` class, as a frozen dataclass has them:
    equal to an instance of the same class with equal slots, hashed from the slot
    values (so unhashable only if one of them is) and shown by them in repr.  The
    package's one record rule: a validated value subclasses _Value and checks its
    fields in __init__, a plain result is a NamedTuple, and nothing imports
    ``dataclasses`` (nor, through it, ``inspect``)."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class TaylorSeries(_Value):
    """Truncated single-variable power series with exact rational coefficients.

    ``coefficients[k]`` is the coefficient of ``x**k``; the series is
    truncated at exponent ``order`` (inclusive), so the tuple always has
    length ``order + 1``.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[Fraction]):
        self.coefficients = tuple(Fraction(c) for c in coefficients)
        if not self.coefficients:
            raise ValueError("a series needs at least its constant term")

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient index {k} outside truncation order {self.order}")
        return self.coefficients[k]

    def is_even(self) -> bool:
        """True when every odd-exponent coefficient vanishes."""
        return all(c == 0 for c in self.coefficients[1::2])

    def scale_argument(self, c: Fraction) -> "TaylorSeries":
        """Substitute x -> c * x."""
        c = Fraction(c)
        return TaylorSeries(tuple(a * c**k for k, a in enumerate(self.coefficients)))


_GENUS_COEFFICIENTS = {
    "L": lambda k: 0 if k % 2 else 2**k * bernoulli(k) / factorial(k),
    "A_hat": lambda k: 0 if k % 2 else (2 - 2**k) * bernoulli(k) / (2**k * factorial(k)),
    "Todd": lambda k: (-1) ** k * bernoulli(k) / factorial(k),
    "Exp": lambda k: Fraction(1, factorial(k)),
}


def genus_series(kind: str, order: int) -> TaylorSeries:
    """Truncated defining series of a genus, its coefficient of x^k read from bernoulli(k):

    L      x/tanh(x)          2^k B_k / k!             (even k)
    A_hat  (x/2)/sinh(x/2)    (2 - 2^k) B_k / (2^k k!)  (even k)
    Todd   x/(1 - e^(-x))     (-1)^k B_k / k!
    Exp    e^x                1 / k!

    All four have constant term 1.  The tests check these against exact long
    division of the hyperbolic series.
    """
    if order < 0:
        raise ValueError("series order must be non-negative")
    if kind not in _GENUS_COEFFICIENTS:
        raise ValueError(
            f"unknown genus series kind {kind!r}; expected one of {tuple(_GENUS_COEFFICIENTS)}"
        )
    return TaylorSeries(_GENUS_COEFFICIENTS[kind](k) for k in range(order + 1))


class BasisMismatchError(ValueError):
    """Raised when two graded polynomials over different bases are combined."""


class NonSymmetricError(ValueError):
    """Raised by symmetric_reduce on input that is not symmetric in its roots."""

    def __init__(self, i: int, j: int, name_i: str, name_j: str):
        self.transposition = (i, j)
        super().__init__(
            f"polynomial is not symmetric: swapping roots {name_i!r} and {name_j!r} "
            f"(positions {i}, {j}) changes it"
        )


class GradedPolynomial:
    """Multivariate polynomial over named generators of even cohomological degree.

    Terms are stored as a map from exponent vectors to nonzero Fractions; the
    cohomological degree of a term is sum(exponent * generator degree).  Any
    term above ``truncation`` is discarded eagerly, on construction and
    during multiplication.  Instances are never mutated after construction.
    Outside input is checked once, by this constructor; arithmetic builds its
    results from terms that are already clean and checks nothing again.
    """

    __slots__ = ("generators", "truncation", "terms")

    def __init__(
        self,
        generators: Iterable[tuple[str, int]],
        truncation: int,
        terms: Mapping[tuple[int, ...], Fraction] | None = None,
    ):
        gens = tuple((str(name), int(deg)) for name, deg in generators)
        names = [name for name, _ in gens]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names in {names}")
        for name, deg in gens:
            if deg <= 0 or deg % 2 != 0:
                raise ValueError(
                    f"generator {name!r} has odd or non-positive degree {deg}"
                )
        if truncation < 0:
            raise ValueError("truncation must be non-negative")
        self.generators = gens
        self.truncation = int(truncation)
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != len(gens):
                    raise ValueError(
                        f"exponent vector {exps} does not match {len(gens)} generators"
                    )
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                c = Fraction(coeff)
                if c == 0 or self.degree_of_term(exps) > self.truncation:
                    continue
                clean[exps] = clean.get(exps, 0) + c
        self.terms = {e: c for e, c in clean.items() if c}

    def _new(self, terms: dict[tuple[int, ...], Fraction]) -> "GradedPolynomial":
        """``terms`` in self's basis, unchecked: the caller guarantees exponent tuples
        of the right length and nonzero Fractions, none above the truncation."""
        out = object.__new__(GradedPolynomial)
        out.generators = self.generators
        out.truncation = self.truncation
        out.terms = terms
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(
        cls, generators: Iterable[tuple[str, int]], truncation: int, value: Fraction
    ) -> "GradedPolynomial":
        gens = tuple(generators)
        return cls(gens, truncation, {(0,) * len(gens): Fraction(value)})

    @classmethod
    def generator(
        cls, generators: Iterable[tuple[str, int]], truncation: int, name: str
    ) -> "GradedPolynomial":
        gens = tuple(generators)
        names = [n for n, _ in gens]
        idx = names.index(name)
        exps = [0] * len(gens)
        exps[idx] = 1
        return cls(gens, truncation, {tuple(exps): Fraction(1)})

    # -- inspection ---------------------------------------------------

    def degree_of_term(self, exps: Sequence[int]) -> int:
        return sum(e * d for e, (_, d) in zip(exps, self.generators))

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.generators), Fraction(0))

    def degree_part(self, degree: int) -> "GradedPolynomial":
        """The homogeneous component of the given cohomological degree."""
        return self._new(
            {e: c for e, c in self.terms.items() if self.degree_of_term(e) == degree}
        )

    def homogeneous_degrees(self) -> list[int]:
        return sorted({self.degree_of_term(e) for e in self.terms})

    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic ---------------------------------------------------

    def _check_basis(self, other: "GradedPolynomial") -> None:
        if self.generators != other.generators:
            raise BasisMismatchError(
                f"generator bases differ: {self.generators} vs {other.generators}"
            )
        if self.truncation != other.truncation:
            raise BasisMismatchError(
                f"truncations differ: {self.truncation} vs {other.truncation}"
            )

    def __add__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        self._check_basis(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return self._new({e: c for e, c in out.items() if c})

    def __sub__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        return self + -other

    def __neg__(self) -> "GradedPolynomial":
        return self.scaled(Fraction(-1))

    def scaled(self, c: Fraction) -> "GradedPolynomial":
        c = Fraction(c)
        return self._new({e: c * v for e, v in self.terms.items()} if c else {})

    def __rmul__(self, c) -> "GradedPolynomial":
        if isinstance(c, (int, Fraction)):
            return self.scaled(Fraction(c))
        return NotImplemented

    def __mul__(self, other) -> "GradedPolynomial":
        if isinstance(other, (int, Fraction)):
            return self.scaled(Fraction(other))
        self._check_basis(other)
        # each right-hand degree once; sorted, so the truncation ends the inner loop
        right = sorted((other.degree_of_term(e), e, c) for e, c in other.terms.items())
        out: dict[tuple[int, ...], Fraction] = {}
        for ea, ca in self.terms.items():
            room = self.truncation - self.degree_of_term(ea)
            for db, eb, cb in right:
                if db > room:
                    break
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return self._new({e: c for e, c in out.items() if c})

    def __pow__(self, n: int) -> "GradedPolynomial":
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = self._new({(0,) * len(self.generators): Fraction(1)})
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedPolynomial):
            return NotImplemented
        return (
            self.generators == other.generators
            and self.truncation == other.truncation
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.generators, self.truncation, frozenset(self.terms.items())))

    # -- substitution -------------------------------------------------

    def substitute(
        self, assignments: Mapping[str, "GradedPolynomial"]
    ) -> "GradedPolynomial":
        """Replace every generator by the assigned polynomial.

        All assigned polynomials must share one basis and truncation; the
        result lives in that basis.  Every generator of self must be assigned.
        Each term expands as coeff * prod target**e, with no power cache.

        This is a reference route that nothing in the package calls: index
        densities are built in the manifold's ring by power sums.  It stays
        because the tests substitute tangent classes into the formal genera
        to check those densities, and perfbench/tracer.py binds it by name.
        """
        missing = [n for n, _ in self.generators if n not in assignments]
        if missing:
            raise ValueError(f"no substitution given for generators {missing}")
        targets = [assignments[n] for n, _ in self.generators]
        if not targets:
            raise ValueError("substitute needs at least one generator; use constant()")
        model = targets[0]
        for t in targets[1:]:
            model._check_basis(t)
        unit = (0,) * len(model.generators)
        out = model._new({})
        for exps, coeff in self.terms.items():
            term = model._new({unit: coeff})
            for target, e in zip(targets, exps):
                if e:
                    term = term * target**e
            out = out + term
        return out

    # -- printing -----------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in canonical order: ascending degree, then lexicographic exponents."""
        return sorted(self.terms.items(), key=lambda item: (self.degree_of_term(item[0]), item[0]))

    def monomial_name(self, exps: Sequence[int], with_unit_exponent: bool = True) -> str:
        """Render an exponent vector as 'gen^k·gen^k', factors sorted by name."""
        factors = sorted(
            (name, e) for (name, _), e in zip(self.generators, exps) if e
        )
        if not factors:
            return "1"
        if with_unit_exponent:
            return "·".join(f"{name}^{e}" for name, e in factors)
        return "·".join(f"{name}^{e}" if e > 1 else name for name, e in factors)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for exps, coeff in self.sorted_terms():
            mono = self.monomial_name(exps, with_unit_exponent=False)
            mag = abs(coeff)
            if mono == "1":
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}·{mono}"
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"GradedPolynomial({self})"


def _elementary_symmetric(
    basis: tuple[tuple[str, int], ...], truncation: int, k: int
) -> GradedPolynomial:
    """e_k of the root generators, expanded as a polynomial in the roots."""
    n = len(basis)
    one = GradedPolynomial.constant(basis, truncation, Fraction(1))
    if k == 0:
        return one
    # build incrementally: prod (1 + t x_i), collect coefficient of t^k
    layers = [one] + [GradedPolynomial(basis, truncation, {}) for _ in range(k)]
    for i in range(n):
        xi = GradedPolynomial.generator(basis, truncation, basis[i][0])
        for j in range(min(i + 1, k), 0, -1):
            layers[j] = layers[j] + layers[j - 1] * xi
    return layers[k]


def symmetric_reduce(
    p: GradedPolynomial, n_roots: int, target_names: Sequence[str]
) -> GradedPolynomial:
    """Rewrite a symmetric polynomial in its roots as a polynomial in the
    elementary symmetric classes e_1..e_n, renamed to ``target_names``.

    Uses iterated leading-term elimination (Gauss's algorithm), one
    homogeneous component at a time.  Raises NonSymmetricError, naming a
    violating transposition, if the input is not symmetric.

    This is a reference route that nothing in the package calls: the genus
    classes in genera come from power sums.  It stays because the tests
    reduce root products with it to check them, and perfbench/tracer.py
    binds it by name.
    """
    if len(p.generators) != n_roots:
        raise ValueError(
            f"polynomial has {len(p.generators)} roots, expected {n_roots}"
        )
    if len(target_names) != n_roots:
        raise ValueError(
            f"need exactly {n_roots} target class names, got {len(target_names)}"
        )
    root_degrees = {d for _, d in p.generators}
    if n_roots and len(root_degrees) != 1:
        raise ValueError(f"roots must share one degree, got {sorted(root_degrees)}")
    d_root = root_degrees.pop() if n_roots else 0

    # symmetry check: adjacent transpositions generate the symmetric group
    for i in range(n_roots - 1):
        for exps, coeff in p.terms.items():
            swapped = list(exps)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            if p.terms.get(tuple(swapped), Fraction(0)) != coeff:
                raise NonSymmetricError(
                    i, i + 1, p.generators[i][0], p.generators[i + 1][0]
                )

    target_basis = tuple(
        (str(target_names[k]), (k + 1) * d_root) for k in range(n_roots)
    )
    if n_roots == 0:
        return GradedPolynomial((), p.truncation, {(): p.constant_term()})

    elem = [
        _elementary_symmetric(p.generators, p.truncation, k + 1) for k in range(n_roots)
    ]
    out_terms: dict[tuple[int, ...], Fraction] = {}
    for degree in p.homogeneous_degrees():
        work = dict(p.degree_part(degree).terms)
        while work:
            lead = max(work)
            coeff = work[lead]
            # for a symmetric polynomial the lex-leading exponent is weakly decreasing
            if any(lead[i] < lead[i + 1] for i in range(n_roots - 1)):
                raise AssertionError(
                    f"leading monomial {lead} not weakly decreasing; input not symmetric?"
                )
            e_exps = tuple(
                lead[i] - (lead[i + 1] if i + 1 < n_roots else 0) for i in range(n_roots)
            )
            expansion = GradedPolynomial.constant(p.generators, p.truncation, coeff)
            for k, m in enumerate(e_exps):
                if m:
                    expansion = expansion * elem[k] ** m
            for exps, c in expansion.terms.items():
                acc = work.get(exps, Fraction(0)) - c
                if acc:
                    work[exps] = acc
                else:
                    work.pop(exps, None)
            out_terms[e_exps] = out_terms.get(e_exps, Fraction(0)) + coeff
    return GradedPolynomial(target_basis, p.truncation, out_terms)
