"""The built-in manifold catalog and descriptor lookup.

Descriptor files are JSON with schema_version 1; their reader and canonical
writer live in descriptor_file.py, which load_descriptor and save_descriptor
import when called, so a command on a built-in entry never loads them.

Each catalog entry records the indices expected on it, which keeps the
`verify` subcommand self-contained.  The INDEXCALC_CATALOG_DIR environment
variable may point at a directory of extra descriptor files; entries there
shadow built-ins of the same name.  A value naming no directory, and two files
there that describe one manifold, are errors.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import product
from math import comb, prod
from pathlib import Path

from .exact_algebra import GradedPolynomial, _Value
from .index_engine import (
    BundleDescriptor,
    DescriptorError,
    IndexReport,
    ManifoldDescriptor,
    compute_index,
)

__all__ = [
    "SCHEMA_VERSION",
    "CATALOG_DIR_ENV",
    "CatalogEntry",
    "builtin_catalog",
    "effective_catalog",
    "catalog_entry",
    "load_descriptor",
    "save_descriptor",
    "resolve_manifold",
]

SCHEMA_VERSION = 1
CATALOG_DIR_ENV = "INDEXCALC_CATALOG_DIR"


class CatalogEntry(_Value):
    """A manifold descriptor, its named bundles, and the indices expected on it.

    Expected keys are either a complex name (a key of
    index_engine.INDEX_FUNCTIONS) or "<complex>:<bundle>" for a twisted index of
    an index_engine.TWISTABLE complex.
    """

    __slots__ = ("manifold", "bundles", "expected")

    def __init__(
        self,
        manifold: ManifoldDescriptor,
        bundles: dict[str, BundleDescriptor] | None = None,
        expected: dict[str, int] | None = None,
    ):
        self.manifold = manifold
        self.bundles = {} if bundles is None else bundles
        self.expected = {} if expected is None else expected

    @property
    def name(self) -> str:
        return self.manifold.name

    def index(self, kind: str, bundle_name: str | None = None) -> IndexReport:
        """The named complex's index, twisted by the bundle of that name if one is given."""
        if bundle_name is not None and bundle_name not in self.bundles:
            raise DescriptorError(
                f"{self.name}: no bundle named {bundle_name!r}; "
                f"available: {', '.join(sorted(self.bundles)) or 'none'}"
            )
        bundle = None if bundle_name is None else self.bundles[bundle_name]
        return compute_index(self.manifold, kind, bundle)


# -- descriptor files --------------------------------------------------


def _fraction_to_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _poly_to_json(poly: GradedPolynomial) -> dict[str, str]:
    return {
        poly.monomial_name(exps): _fraction_to_str(coeff)
        for exps, coeff in poly.sorted_terms()
    }


def load_descriptor(path: str | os.PathLike) -> CatalogEntry:
    """Load and validate a descriptor file; errors carry file and position."""
    from .descriptor_file import load

    return load(path)


def save_descriptor(entry: CatalogEntry, path: str | os.PathLike) -> None:
    """Write a descriptor in canonical, byte-reproducible form."""
    from .descriptor_file import save

    save(entry, path)


# -- built-in catalog ---------------------------------------------------


def _projective_product(factors: tuple[tuple[str, int], ...]) -> ManifoldDescriptor:
    """CP^{n_1} x ... x CP^{n_k} from (generator name, n_i) pairs: c(T) = prod (1 + h_i)^(n_i+1)
    with h_i^(n_i+1) = 0.  Densities live in the free ring, so every top-degree monomial
    gets a value: 1 on prod h_i^(n_i), 0 on the others, which contain some h_i^(n_i+1).
    w_2 is c_1 = sum (n_i + 1) h_i mod 2, so the product is spin iff every n_i is odd."""
    gens = tuple((name, 2) for name, _ in factors)
    dims = tuple(n for _, n in factors)
    top = sum(dims)
    tangent = {
        exps: prod(comb(n + 1, e) for n, e in zip(dims, exps))
        for exps in product(*(range(n + 1) for n in dims))
    }
    tops = (exps for exps in product(range(top + 1), repeat=len(dims)) if sum(exps) == top)
    evaluation = {exps: int(exps == dims) for exps in tops}
    return ManifoldDescriptor(
        name="x".join(f"cp{n}" for n in dims),
        real_dim=2 * top,
        kind="complex",
        generators=gens,
        evaluation=evaluation,
        tangent_class=GradedPolynomial(gens, 2 * top, tangent),
        spin=all(n % 2 for n in dims),
    )


def _line_bundle(manifold: ManifoldDescriptor, degrees: tuple[int, ...]) -> BundleDescriptor:
    """O(k_1, ..., k_r) on a projective product: c = 1 + sum k_i h_i."""
    unit = (0,) * len(degrees)
    c1 = {unit[:i] + (1,) + unit[i + 1:]: k for i, k in enumerate(degrees)}
    total = GradedPolynomial(manifold.generators, manifold.real_dim, {unit: 1, **c1})
    return BundleDescriptor(rank=1, total_chern=total)


def _k3() -> ManifoldDescriptor:
    gens = (("c2", 4),)
    return ManifoldDescriptor(
        name="k3",
        real_dim=4,
        kind="complex",
        generators=gens,
        evaluation={(1,): 24},
        tangent_class=GradedPolynomial(gens, 4, {(0,): 1, (1,): 1}),
        spin=True,
    )


def _torus(real_dim: int) -> ManifoldDescriptor:
    return ManifoldDescriptor(
        name=f"t{real_dim}",
        real_dim=real_dim,
        kind="complex",
        generators=(),
        evaluation={},
        tangent_class=GradedPolynomial((), real_dim, {(): Fraction(1)}),
        spin=True,
    )


def _s4() -> ManifoldDescriptor:
    gens = (("p1", 4),)
    return ManifoldDescriptor(
        name="s4",
        real_dim=4,
        kind="oriented_real",
        generators=gens,
        evaluation={(1,): 0},
        tangent_class=GradedPolynomial(gens, 4, {(0,): 1}),
        spin=True,
    )


def builtin_catalog() -> list[CatalogEntry]:
    """The desk-scale manifolds with their recorded expected indices."""
    cp1 = _projective_product((("h", 1),))
    return [
        CatalogEntry(
            manifold=cp1,
            bundles={f"O({k})": _line_bundle(cp1, (k,)) for k in range(-2, 4)},
            expected={
                "signature": 0,
                "dolbeault": 1,
                "euler": 2,
                **{f"dolbeault:O({k})": k + 1 for k in range(-2, 4)},
            },
        ),
        CatalogEntry(
            manifold=_projective_product((("h", 2),)),
            expected={"signature": 1, "dolbeault": 1, "euler": 3},
        ),
        CatalogEntry(
            manifold=_projective_product((("h", 3),)),
            expected={"signature": 0, "dolbeault": 1, "euler": 4},
        ),
        CatalogEntry(
            manifold=_projective_product((("a", 1), ("b", 1))),
            expected={"signature": 0, "dolbeault": 1, "euler": 4, "spin": 0},
        ),
        CatalogEntry(
            manifold=_k3(),
            expected={"signature": -16, "dolbeault": 2, "spin": 2, "euler": 24},
        ),
        CatalogEntry(
            manifold=_torus(2),
            expected={"signature": 0, "dolbeault": 0, "euler": 0},
        ),
        CatalogEntry(
            manifold=_torus(4),
            expected={"signature": 0, "dolbeault": 0, "spin": 0, "euler": 0},
        ),
        CatalogEntry(
            manifold=_s4(),
            expected={"signature": 0, "spin": 0},
        ),
        CatalogEntry(
            manifold=_projective_product((("a", 2), ("b", 2))),
            expected={"signature": 1, "dolbeault": 1, "euler": 9},
        ),
    ]


def effective_catalog() -> list[CatalogEntry]:
    """Built-in entries with any directory overrides applied."""
    directory = os.environ.get(CATALOG_DIR_ENV)
    overrides, paths = {}, {}
    if directory:
        if not Path(directory).is_dir():
            raise DescriptorError(f"{CATALOG_DIR_ENV}={directory} is not a directory")
        for path in sorted(Path(directory).glob("*.json")):
            entry = load_descriptor(path)
            if (first := paths.setdefault(entry.name, path)) != path:
                raise DescriptorError(f"{first} and {path} both describe manifold {entry.name!r}")
            overrides[entry.name] = entry
    entries = [overrides.pop(e.name, e) for e in builtin_catalog()]
    entries.extend(overrides.values())
    return entries


def catalog_entry(name: str) -> CatalogEntry:
    """Look up a catalog entry by name; directory entries shadow built-ins."""
    catalog = effective_catalog()
    for entry in catalog:
        if entry.name == name:
            return entry
    raise DescriptorError(
        f"unknown manifold {name!r}; available: {', '.join(e.name for e in catalog)}"
    )


def resolve_manifold(arg: str) -> CatalogEntry:
    """Interpret a CLI argument as either a catalog name or a descriptor path.

    An argument that ends in .json or contains a path separator is a path.  Any other
    names a catalog entry if one has that name, so a stray file of that name in the
    working directory cannot replace it; otherwise an existing file of that name loads."""
    if arg.endswith(".json") or os.path.sep in arg:
        return load_descriptor(arg)
    try:
        return catalog_entry(arg)
    except DescriptorError:
        if not os.path.isfile(arg):
            raise
    return load_descriptor(arg)
