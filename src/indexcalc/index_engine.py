"""Topological index evaluation on characteristic-number descriptors.

A manifold is represented by its generator list, a top-degree evaluation
table (monomial -> integer), and its total tangent characteristic class:
indices are linear functionals on characteristic numbers, so no quotient
cohomology ring is needed.  Every index must come out an exact integer;
anything else flags an inconsistent descriptor (for the spin complex this is
precisely what betrays a non-spin input).

Each density is built in the manifold's own ring, truncated at its real
dimension: the genus is `multiplicative_sequence` fed the manifold's
Pontryagin or Chern classes, times the Chern character of the twisting
bundle.  No genus in formal generators is built and substituted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .exact_algebra import GradedPolynomial, genus_series
from .genera import chern_character, chern_to_pontryagin, multiplicative_sequence

__all__ = [
    "ManifoldDescriptor",
    "BundleDescriptor",
    "IndexReport",
    "DescriptorError",
    "InconsistentIndexError",
    "evaluate",
    "signature_index",
    "dolbeault_index",
    "spin_index",
    "de_rham_euler",
    "INDEX_FUNCTIONS",
    "compute_index",
]


class DescriptorError(ValueError):
    """A descriptor violates its structural invariants."""


class InconsistentIndexError(ValueError):
    """An index evaluated to a non-integer: the descriptor is inconsistent."""

    def __init__(self, complex_kind: str, value: Fraction, hint: str = ""):
        self.complex_kind = complex_kind
        self.value = value
        message = f"{complex_kind} index evaluated to the non-integer {value}"
        if hint:
            message += f" ({hint})"
        super().__init__(message)


_NAME_BREAKERS = re.compile(r"[·^\s]")


def _checked_generators(generators) -> tuple[tuple[str, int], ...]:
    """(name, degree) pairs whose names fit monomial keys like "a^2·b^1" and
    whose degrees are even and positive."""
    gens = tuple((str(n), int(d)) for n, d in generators)
    for n, d in gens:
        if not n or _NAME_BREAKERS.search(n):
            raise DescriptorError(
                f"generator name {n!r} must be non-empty and contain no '·', '^' or whitespace"
            )
        if d <= 0 or d % 2 != 0:
            raise DescriptorError(f"generator {n!r} has odd generator degree {d}")
    return gens


@dataclass(frozen=True)
class ManifoldDescriptor:
    """Characteristic data of a closed even-dimensional manifold.

    ``tangent_class`` is the total Chern class for kind 'complex' and the
    total Pontryagin class for kind 'oriented_real', expressed in the listed
    generators.  ``evaluation`` maps each top-degree exponent vector to the
    integer it pairs to against the fundamental class.  ``euler_class`` is
    only needed on oriented_real descriptors that want a de Rham index.
    """

    name: str
    real_dim: int
    kind: str
    generators: tuple[tuple[str, int], ...]
    evaluation: Mapping[tuple[int, ...], int]
    tangent_class: GradedPolynomial
    euler_class: GradedPolynomial | None = None

    def __post_init__(self) -> None:
        if self.real_dim <= 0 or self.real_dim % 2 != 0:
            raise DescriptorError(f"real_dim must be even and positive, got {self.real_dim}")
        if self.kind not in ("oriented_real", "complex"):
            raise DescriptorError(f"kind must be oriented_real or complex, got {self.kind!r}")
        gens = _checked_generators(self.generators)
        object.__setattr__(self, "generators", gens)
        table = {}
        for exps, value in dict(self.evaluation).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(gens):
                raise DescriptorError(f"evaluation key {exps} does not match generator count")
            deg = sum(e * d for e, (_, d) in zip(exps, gens))
            if deg != self.real_dim:
                raise DescriptorError(
                    f"evaluation key {self.monomial_name(exps)} has degree {deg}, "
                    f"expected top degree {self.real_dim}"
                )
            table[exps] = int(value)
        object.__setattr__(self, "evaluation", table)
        if self.tangent_class.generators != gens:
            raise DescriptorError("tangent_class is not expressed in the manifold generators")
        if self.tangent_class.constant_term() != 1:
            raise DescriptorError("tangent_class must have degree-0 term 1")

    # -- helpers -------------------------------------------------------

    def monomial_name(self, exps: Sequence[int]) -> str:
        zero = GradedPolynomial(self.generators, self.real_dim, {})
        return zero.monomial_name(exps)

    def one(self) -> GradedPolynomial:
        return GradedPolynomial.constant(self.generators, self.real_dim, Fraction(1))

    def chern_parts(self) -> list[GradedPolynomial]:
        """c_1..c_n of a complex descriptor's tangent bundle."""
        if self.kind != "complex":
            raise DescriptorError(f"{self.name}: chern classes only exist on complex descriptors")
        n = self.real_dim // 2
        return [self.tangent_class.degree_part(2 * i) for i in range(1, n + 1)]

    def pontryagin_parts(self) -> list[GradedPolynomial]:
        """p_1..p_{m//4} of the tangent bundle, converting from Chern data if needed."""
        k_max = self.real_dim // 4
        if self.kind == "oriented_real":
            return [self.tangent_class.degree_part(4 * k) for k in range(1, k_max + 1)]
        return chern_to_pontryagin(self.chern_parts(), self.real_dim)


@dataclass(frozen=True)
class BundleDescriptor:
    """A vector bundle given by rank and total Chern class in the manifold basis.

    c_k vanishes for k > rank, so total_chern has no part above degree 2*rank.
    """

    rank: int
    total_chern: GradedPolynomial

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise DescriptorError(f"bundle rank must be non-negative, got {self.rank}")
        if self.total_chern.constant_term() != 1:
            raise DescriptorError("total_chern must have degree-0 term 1")
        for degree in self.total_chern.homogeneous_degrees():
            if degree > 2 * self.rank:
                raise DescriptorError(
                    f"a rank-{self.rank} bundle has c_k = 0 for k > {self.rank}, but its "
                    f"c_{degree // 2} = {self.total_chern.degree_part(degree)} is nonzero"
                )

    @classmethod
    def trivial(cls, manifold: ManifoldDescriptor, rank: int = 1) -> "BundleDescriptor":
        return cls(rank=rank, total_chern=manifold.one())

    def chern_parts(self, real_dim: int) -> list[GradedPolynomial]:
        n = max(real_dim // 2, 1)
        return [self.total_chern.degree_part(2 * i) for i in range(1, n + 1)]


@dataclass(frozen=True)
class IndexReport:
    """Result of an index evaluation: exact value, integer form, and density."""

    complex_kind: str
    value: Fraction
    integer_value: int
    density: GradedPolynomial

    manifold: str = field(default="", compare=False)


def evaluate(poly: GradedPolynomial, manifold: ManifoldDescriptor) -> Fraction:
    """Pair the top-degree component of a polynomial with the fundamental class.

    Lower-degree terms contribute nothing; a top-degree monomial missing from
    the evaluation table is an error naming that monomial.
    """
    if poly.generators != manifold.generators:
        raise DescriptorError(
            f"polynomial basis {poly.generators} does not match manifold "
            f"{manifold.name!r} generators {manifold.generators}"
        )
    total = Fraction(0)
    for exps, coeff in poly.terms.items():
        if poly.degree_of_term(exps) != manifold.real_dim:
            continue
        if exps not in manifold.evaluation:
            raise DescriptorError(
                f"{manifold.name}: top-degree monomial {manifold.monomial_name(exps)} "
                "is missing from the evaluation table"
            )
        total += coeff * manifold.evaluation[exps]
    return total


def _report(kind: str, density: GradedPolynomial, manifold: ManifoldDescriptor, hint: str = "") -> IndexReport:
    value = evaluate(density, manifold)
    if value.denominator != 1:
        raise InconsistentIndexError(kind, value, hint)
    return IndexReport(
        complex_kind=kind,
        value=value,
        integer_value=int(value),
        density=density,
        manifold=manifold.name,
    )


def signature_index(manifold: ManifoldDescriptor) -> IndexReport:
    """Hirzebruch signature: the L-genus paired with the fundamental class.

    The L-polynomial has no components of degree 2 mod 4, so the index
    vanishes identically on manifolds with real_dim = 2 mod 4.
    """
    f = genus_series("L", manifold.real_dim // 2)
    density = multiplicative_sequence(f, manifold.pontryagin_parts(), manifold.one())
    return _report("signature", density, manifold)


def dolbeault_index(
    manifold: ManifoldDescriptor, bundle: BundleDescriptor | None = None
) -> IndexReport:
    """Holomorphic index of the twisted Dolbeault complex: <Td(TM) ch(V), [M]>."""
    if manifold.kind != "complex":
        raise DescriptorError(
            f"{manifold.name}: the Dolbeault complex needs a complex descriptor"
        )
    if bundle is None:
        bundle = BundleDescriptor.trivial(manifold)
    f = genus_series("Todd", manifold.real_dim // 2)
    td = multiplicative_sequence(f, manifold.chern_parts(), manifold.one())
    ch = chern_character(bundle.rank, bundle.chern_parts(manifold.real_dim)).polynomial
    return _report("dolbeault", td * ch, manifold)


def spin_index(
    manifold: ManifoldDescriptor, bundle: BundleDescriptor | None = None
) -> IndexReport:
    """Twisted spin index: gravitational density A-hat times gauge density ch(V).

    The caller asserts spin-ness; a non-spin descriptor betrays itself with a
    non-integer value, which is raised as InconsistentIndexError.  Complex
    descriptors are converted to Pontryagin data automatically.
    """
    if bundle is None:
        bundle = BundleDescriptor.trivial(manifold)
    f = genus_series("A_hat", manifold.real_dim // 2)
    a_hat = multiplicative_sequence(f, manifold.pontryagin_parts(), manifold.one())
    ch = chern_character(bundle.rank, bundle.chern_parts(manifold.real_dim)).polynomial
    kind = "spin" if bundle.total_chern == manifold.one() and bundle.rank == 1 else "spin_twisted"
    return _report(kind, a_hat * ch, manifold, hint="is the descriptor actually spin?")


def de_rham_euler(manifold: ManifoldDescriptor) -> IndexReport:
    """Euler characteristic: <e(TM), [M]>, with e = c_n on complex descriptors."""
    if manifold.kind == "complex":
        density = manifold.tangent_class.degree_part(manifold.real_dim)
    elif manifold.euler_class is not None:
        density = manifold.euler_class
    else:
        raise DescriptorError(
            f"{manifold.name}: oriented_real descriptor has no Euler class data"
        )
    return _report("de_rham", density, manifold)


# The only map from complex name to index function: the CLI's --complex
# choices, verify and the catalog's expected keys all go through it.
INDEX_FUNCTIONS = {
    "signature": signature_index,
    "dolbeault": dolbeault_index,
    "spin": spin_index,
    "euler": de_rham_euler,
}


def compute_index(
    manifold: ManifoldDescriptor, kind: str, bundle: BundleDescriptor | None = None
) -> IndexReport:
    """Evaluate the named complex's index; only dolbeault and spin take a bundle."""
    if kind not in INDEX_FUNCTIONS:
        raise DescriptorError(
            f"unknown complex {kind!r}; expected one of {', '.join(INDEX_FUNCTIONS)}"
        )
    if bundle is None:
        return INDEX_FUNCTIONS[kind](manifold)
    if kind not in ("dolbeault", "spin"):
        raise DescriptorError(
            f"{manifold.name}: the {kind} complex cannot be twisted, but a rank-{bundle.rank} "
            f"bundle with total Chern class {bundle.total_chern} was given"
        )
    return INDEX_FUNCTIONS[kind](manifold, bundle)
