"""Topological index evaluation on characteristic-number descriptors.

A manifold is represented by its generator list, a top-degree evaluation
table (monomial -> integer), and its total tangent characteristic class:
indices are linear functionals on characteristic numbers, so no quotient
cohomology ring is needed.  Every index must come out an exact integer;
anything else flags an inconsistent descriptor (for the spin complex this is
what betrays a non-spin input that does not say it is one; a descriptor whose
``spin`` is False is refused outright).

The signature, Dolbeault and spin complexes are rows of one recipe table,
GENUS_COMPLEXES: complex -> (genus series, tangent-class source, takes a
bundle).  One builder reads it: `multiplicative_sequence` of the series fed
the manifold's Pontryagin or Chern classes, in the manifold's own ring
truncated at its real dimension, times ch(V) only when a bundle V is given.
No formal genus is substituted; the Euler class is no genus, so
`de_rham_euler` keeps its own body.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .exact_algebra import GradedPolynomial, _Value, genus_series
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
    "TWISTABLE",
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
    """(name, degree) pairs with distinct names that fit monomial keys like
    "a^2·b^1", and degrees that are even and positive."""
    gens = tuple((str(n), int(d)) for n, d in generators)
    for i, (n, d) in enumerate(gens):
        if not n or _NAME_BREAKERS.search(n):
            raise DescriptorError(
                f"generator name {n!r} must be non-empty and contain no '·', '^' or whitespace"
            )
        if d <= 0 or d % 2 != 0:
            raise DescriptorError(f"generator {n!r} has odd generator degree {d}")
        if any(n == other for other, _ in gens[:i]):
            raise DescriptorError(f"generator name {n!r} appears more than once in generators")
    return gens


def _check_real_dim(real_dim: int) -> None:
    if real_dim <= 0 or real_dim % 2 != 0:
        raise DescriptorError(f"real_dim must be even and positive, got {real_dim}")


class ManifoldDescriptor(_Value):
    """Characteristic data of a closed even-dimensional manifold.

    ``tangent_class`` is the total Chern class for kind 'complex' and the
    total Pontryagin class for kind 'oriented_real', expressed in the listed
    generators.  ``evaluation`` maps each top-degree exponent vector to the
    integer it pairs to against the fundamental class.  ``euler_class`` is
    only needed on oriented_real descriptors that want a de Rham index.  Both
    classes, and any bundle's total Chern class, live in the manifold's ring:
    its generators, truncated at real_dim.  ``spin`` says whether w_2 vanishes:
    True, False, or None where the descriptor does not say.
    """

    __slots__ = (
        "name", "real_dim", "kind", "generators", "evaluation", "tangent_class", "euler_class",
        "spin",
    )

    def __init__(
        self,
        name: str,
        real_dim: int,
        kind: str,
        generators: Iterable[tuple[str, int]],
        evaluation: Mapping[tuple[int, ...], int],
        tangent_class: GradedPolynomial,
        euler_class: GradedPolynomial | None = None,
        spin: bool | None = None,
    ):
        self.name, self.real_dim, self.kind = name, real_dim, kind
        self.tangent_class, self.euler_class, self.spin = tangent_class, euler_class, spin
        _check_real_dim(self.real_dim)
        if not (spin is None or isinstance(spin, bool)):
            raise DescriptorError(f"spin must be True, False or None, got {spin!r}")
        if self.kind not in ("oriented_real", "complex"):
            raise DescriptorError(f"kind must be oriented_real or complex, got {self.kind!r}")
        gens = self.generators = _checked_generators(generators)
        # checked first: evaluation keys are measured and named in this basis
        self._require_in_ring(self.tangent_class, "tangent_class")
        if self.euler_class is not None:
            self._require_in_ring(self.euler_class, "euler_class")
        table = {}
        for exps, value in dict(evaluation).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(gens):
                raise DescriptorError(f"evaluation key {exps} does not match generator count")
            deg = self.tangent_class.degree_of_term(exps)
            if deg != self.real_dim:
                raise DescriptorError(
                    f"evaluation key {self.monomial_name(exps)} has degree {deg}, "
                    f"expected top degree {self.real_dim}"
                )
            table[exps] = int(value)
        self.evaluation = table
        if self.tangent_class.constant_term() != 1:
            raise DescriptorError("tangent_class must have degree-0 term 1")

    # -- helpers -------------------------------------------------------

    def _require_in_ring(self, poly: GradedPolynomial, field: str) -> None:
        if (poly.generators, poly.truncation) != (self.generators, self.real_dim):
            raise DescriptorError(
                f"{self.name}: {field} must be over the generators {self.generators} truncated "
                f"at real_dim {self.real_dim}, got {poly.generators} truncated at {poly.truncation}"
            )

    def monomial_name(self, exps: Sequence[int]) -> str:
        return self.tangent_class.monomial_name(exps)

    def one(self) -> GradedPolynomial:
        return GradedPolynomial.constant(self.generators, self.real_dim, Fraction(1))

    def chern_parts(self) -> list[GradedPolynomial]:
        """c_1..c_n of a complex descriptor's tangent bundle.  Of the GENUS_COMPLEXES rows only
        Dolbeault reads them directly, so a real descriptor is refused in its terms."""
        if self.kind != "complex":
            raise DescriptorError(f"{self.name}: the Dolbeault complex needs a complex descriptor")
        n = self.real_dim // 2
        return [self.tangent_class.degree_part(2 * i) for i in range(1, n + 1)]

    def pontryagin_parts(self) -> list[GradedPolynomial]:
        """p_1..p_{m//4} of the tangent bundle, converting from Chern data if needed."""
        k_max = self.real_dim // 4
        if self.kind == "oriented_real":
            return [self.tangent_class.degree_part(4 * k) for k in range(1, k_max + 1)]
        return chern_to_pontryagin(self.chern_parts(), self.real_dim)


class BundleDescriptor(_Value):
    """A vector bundle given by rank and total Chern class in the manifold basis.

    c_k vanishes for k > rank, so total_chern has no part above degree 2*rank.
    """

    __slots__ = ("rank", "total_chern")

    def __init__(self, rank: int, total_chern: GradedPolynomial):
        self.rank, self.total_chern = rank, total_chern
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

    def chern_parts(self, real_dim: int) -> list[GradedPolynomial]:
        n = max(real_dim // 2, 1)
        return [self.total_chern.degree_part(2 * i) for i in range(1, n + 1)]


class IndexReport(NamedTuple):
    """Result of an index evaluation: exact value, integer form, and density."""

    complex_kind: str
    value: Fraction
    integer_value: int
    density: GradedPolynomial


def evaluate(poly: GradedPolynomial, manifold: ManifoldDescriptor) -> Fraction:
    """Pair the top-degree component of a polynomial with the fundamental class.

    The polynomial must lie in the manifold's ring: truncated below real_dim it
    would have lost its top degree.  Lower-degree terms contribute nothing; a
    top-degree monomial missing from the evaluation table is an error naming it.
    """
    manifold._require_in_ring(poly, "the evaluated polynomial")
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
    )


# complex -> (genus series, tangent-class source, takes a bundle)
GENUS_COMPLEXES = {
    "signature": ("L", ManifoldDescriptor.pontryagin_parts, False),
    "dolbeault": ("Todd", ManifoldDescriptor.chern_parts, True),
    "spin": ("A_hat", ManifoldDescriptor.pontryagin_parts, True),
}
TWISTABLE = tuple(kind for kind, (_, _, twistable) in GENUS_COMPLEXES.items() if twistable)


def _genus_index(
    kind: str, manifold: ManifoldDescriptor, bundle: BundleDescriptor | None = None
) -> IndexReport:
    """The index of a GENUS_COMPLEXES row: <genus(TM) ch(V), [M]>, with no ch for no V."""
    series, tangent_classes, _ = GENUS_COMPLEXES[kind]
    if bundle is not None:
        manifold._require_in_ring(bundle.total_chern, "bundle total_chern")
    f = genus_series(series, manifold.real_dim // 2)
    density = multiplicative_sequence(f, tangent_classes(manifold), manifold.one())
    if bundle is not None:
        density = density * chern_character(bundle.rank, bundle.chern_parts(manifold.real_dim))
    if kind != "spin":
        return _report(kind, density, manifold)
    if bundle is not None and (bundle.rank, bundle.total_chern) != (1, manifold.one()):
        kind = "spin_twisted"
    report = _report(kind, density, manifold, hint="is the descriptor actually spin?")
    if manifold.spin is False:  # an integer here says nothing: w_2 != 0 leaves no spin complex
        raise DescriptorError(
            f"{manifold.name}: the descriptor says w₂ ≠ 0, so the manifold is not spin and "
            f"has no {kind} index (its density integrates to the integer {report.value})"
        )
    return report


def signature_index(manifold: ManifoldDescriptor) -> IndexReport:
    """Hirzebruch signature: the L-genus paired with the fundamental class.

    The L-polynomial has no components of degree 2 mod 4, so the index
    vanishes identically on manifolds with real_dim = 2 mod 4.
    """
    return _genus_index("signature", manifold)


def dolbeault_index(
    manifold: ManifoldDescriptor, bundle: BundleDescriptor | None = None
) -> IndexReport:
    """Holomorphic index of the twisted Dolbeault complex: <Td(TM) ch(V), [M]>."""
    return _genus_index("dolbeault", manifold, bundle)


def spin_index(
    manifold: ManifoldDescriptor, bundle: BundleDescriptor | None = None
) -> IndexReport:
    """Twisted spin index: gravitational density A-hat times gauge density ch(V).

    The caller asserts spin-ness; a non-spin descriptor betrays itself with a
    non-integer value, which is raised as InconsistentIndexError.  A descriptor
    whose ``spin`` is False (w_2 != 0) is refused with a DescriptorError even
    where the value comes out an integer.  Complex descriptors are converted to
    Pontryagin data automatically.
    """
    return _genus_index("spin", manifold, bundle)


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
    """Evaluate the named complex's index; only the TWISTABLE complexes take a bundle."""
    if kind not in INDEX_FUNCTIONS:
        raise DescriptorError(
            f"unknown complex {kind!r}; expected one of {', '.join(INDEX_FUNCTIONS)}"
        )
    if bundle is None:
        return INDEX_FUNCTIONS[kind](manifold)
    if kind not in TWISTABLE:
        raise DescriptorError(
            f"{manifold.name}: the {kind} complex cannot be twisted, but a rank-{bundle.rank} "
            f"bundle with total Chern class {bundle.total_chern} was given"
        )
    return INDEX_FUNCTIONS[kind](manifold, bundle)
