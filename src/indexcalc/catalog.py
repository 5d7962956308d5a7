"""Descriptor file format and the built-in manifold catalog.

Descriptors are JSON with schema_version 1.  Rationals are serialized as
"num/den" strings and monomial keys as name-sorted "gen^k·gen^k" strings, so
files are exact, platform-independent and diffable; the writer is
deterministic, making save(load(f)) byte-identical for canonical files.

Each catalog entry records the indices expected on it, which keeps the
`verify` subcommand self-contained.  The INDEXCALC_CATALOG_DIR environment
variable may point at a directory of extra descriptor files; entries there
shadow built-ins of the same name.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Mapping

from .exact_algebra import GradedPolynomial
from .index_engine import (
    INDEX_FUNCTIONS,
    BundleDescriptor,
    DescriptorError,
    ManifoldDescriptor,
    _checked_generators,
)

__all__ = [
    "SCHEMA_VERSION",
    "CATALOG_DIR_ENV",
    "CatalogEntry",
    "builtin_catalog",
    "effective_catalog",
    "catalog_entry",
    "available_names",
    "load_descriptor",
    "save_descriptor",
    "resolve_manifold",
]

SCHEMA_VERSION = 1
CATALOG_DIR_ENV = "INDEXCALC_CATALOG_DIR"

_MONOMIAL_FACTOR = re.compile(r"^(?P<name>[^\^·]+)\^(?P<power>[0-9]+)$")


@dataclass(frozen=True)
class CatalogEntry:
    """A manifold descriptor, its named bundles, and the indices expected on it.

    Expected keys are either a complex name (a key of
    index_engine.INDEX_FUNCTIONS) or "<complex>:<bundle>" for a twisted index.
    """

    manifold: ManifoldDescriptor
    bundles: dict[str, BundleDescriptor] = field(default_factory=dict)
    expected: dict[str, int] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.manifold.name


# -- serialization helpers ---------------------------------------------


def _fraction_to_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _fraction_from_str(text: str, context: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DescriptorError(f"{context}: bad rational {text!r}: {exc}") from None


def _monomial_from_key(
    generators: tuple[tuple[str, int], ...], key: str, context: str
) -> tuple[int, ...]:
    """Exponent vector of a key like "a^2·b^1"; ``context`` names the file and field."""
    exps = [0] * len(generators)
    if key == "1":
        return tuple(exps)
    positions = {name: i for i, (name, _) in enumerate(generators)}
    for factor in key.split("·"):
        m = _MONOMIAL_FACTOR.match(factor)
        if not m:
            raise DescriptorError(f"{context}: bad monomial factor {factor!r} in key {key!r}")
        name = m.group("name")
        if name not in positions:
            raise DescriptorError(f"{context}: unknown generator {name!r} in monomial {key!r}")
        exps[positions[name]] += int(m.group("power"))
    return tuple(exps)


def _poly_to_json(poly: GradedPolynomial) -> dict[str, str]:
    return {
        poly.monomial_name(exps): _fraction_to_str(coeff)
        for exps, coeff in poly.sorted_terms()
    }


def _poly_from_json(
    generators: tuple[tuple[str, int], ...], truncation: int, block: Mapping, field: str,
    context: str,
) -> GradedPolynomial:
    """The polynomial stored under ``block[field]``; errors name ``context`` and the field."""
    data = _require(block, field, context)
    context = f"{context} {field}"
    terms = {}
    for key, text in data.items():
        exps = _monomial_from_key(generators, key, context)
        terms[exps] = _fraction_from_str(str(text), context)
    return GradedPolynomial(generators, truncation, terms)


def _entry_to_json(entry: CatalogEntry) -> dict:
    m = entry.manifold
    manifold_block: dict = {
        "name": m.name,
        "real_dim": m.real_dim,
        "kind": m.kind,
        "generators": [[name, degree] for name, degree in m.generators],
        "evaluation": {
            m.monomial_name(exps): value
            for exps, value in sorted(m.evaluation.items())
        },
        "tangent_class": _poly_to_json(m.tangent_class),
    }
    if m.euler_class is not None:
        manifold_block["euler_class"] = _poly_to_json(m.euler_class)
    doc: dict = {"schema_version": SCHEMA_VERSION, "manifold": manifold_block}
    if entry.bundles:
        doc["bundles"] = {
            name: {"rank": b.rank, "total_chern": _poly_to_json(b.total_chern)}
            for name, b in sorted(entry.bundles.items())
        }
    if entry.expected:
        doc["expected"] = {k: entry.expected[k] for k in sorted(entry.expected)}
    return doc


def _require(block: Mapping, key: str, context: str):
    if key not in block:
        raise DescriptorError(f"{context}: missing required field {key!r}")
    return block[key]


def _int(value, what: str, context: str) -> int:
    """A JSON integer; floats, bools and strings are refused, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DescriptorError(f"{context}: {what} must be an integer, got {json.dumps(value)}")
    return value


def _expected_key(key: str, bundles: Mapping[str, BundleDescriptor], source: str) -> str:
    """An expected key: a complex name, or "<complex>:<bundle>" naming a bundle here."""
    kind, sep, bundle = key.partition(":")
    if kind not in INDEX_FUNCTIONS:
        raise DescriptorError(
            f"{source}: expected key {key!r} names no complex; "
            f"expected one of {', '.join(INDEX_FUNCTIONS)}"
        )
    if sep and bundle not in bundles:
        raise DescriptorError(
            f"{source}: expected key {key!r} names no bundle of the descriptor; "
            f"available: {', '.join(sorted(bundles)) or 'none'}"
        )
    return key


def _entry_from_json(doc: Mapping, source: str) -> CatalogEntry:
    version = _require(doc, "schema_version", source)
    if version != SCHEMA_VERSION:
        raise DescriptorError(f"{source}: unknown schema_version {version!r}")
    block = _require(doc, "manifold", source)
    name = str(_require(block, "name", source))
    real_dim = _int(_require(block, "real_dim", source), "real_dim", source)
    kind = str(_require(block, "kind", source))
    generators = tuple(
        (str(g[0]), _int(g[1], f"degree of generator {g[0]!r}", source))
        for g in _require(block, "generators", source)
    )
    try:
        _checked_generators(generators)  # before any monomial key is parsed with them
    except DescriptorError as exc:
        raise DescriptorError(f"{source}: {exc}") from None
    evaluation = {
        _monomial_from_key(generators, key, f"{source} evaluation"):
            _int(value, f"evaluation of {key!r}", source)
        for key, value in _require(block, "evaluation", source).items()
    }
    tangent = _poly_from_json(generators, real_dim, block, "tangent_class", source)
    euler = None
    if "euler_class" in block:
        euler = _poly_from_json(generators, real_dim, block, "euler_class", source)
    try:
        manifold = ManifoldDescriptor(
            name=name,
            real_dim=real_dim,
            kind=kind,
            generators=generators,
            evaluation=evaluation,
            tangent_class=tangent,
            euler_class=euler,
        )
    except DescriptorError as exc:
        raise DescriptorError(f"{source}: {exc}") from None
    bundles = {}
    for bname, bblock in doc.get("bundles", {}).items():
        context = f"{source} bundle {bname!r}"
        rank = _int(_require(bblock, "rank", context), "rank", context)
        total = _poly_from_json(generators, real_dim, bblock, "total_chern", context)
        try:
            bundles[str(bname)] = BundleDescriptor(rank=rank, total_chern=total)
        except DescriptorError as exc:
            raise DescriptorError(f"{context}: {exc}") from None
    expected = {
        _expected_key(str(k), bundles, source): _int(v, f"expected value of {k!r}", source)
        for k, v in doc.get("expected", {}).items()
    }
    return CatalogEntry(manifold=manifold, bundles=bundles, expected=expected)


def load_descriptor(path: str | os.PathLike) -> CatalogEntry:
    """Load and validate a descriptor file; errors carry file and position."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DescriptorError(f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DescriptorError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return _entry_from_json(doc, str(path))


def save_descriptor(entry: CatalogEntry, path: str | os.PathLike) -> None:
    """Write a descriptor in canonical, byte-reproducible form."""
    doc = _entry_to_json(entry)
    Path(path).write_text(
        json.dumps(doc, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )


# -- built-in catalog ---------------------------------------------------


def _poly(gens, truncation, terms):
    return GradedPolynomial(gens, truncation, {k: Fraction(v) for k, v in terms.items()})


def _cp(n: int) -> ManifoldDescriptor:
    """Complex projective space: one degree-2 generator h, h^n evaluates to 1."""
    gens = (("h", 2),)
    m = 2 * n
    # (1 + h)^(n+1) truncated at degree m
    tangent = _poly(gens, m, {(k,): comb(n + 1, k) for k in range(n + 1)})
    return ManifoldDescriptor(
        name=f"cp{n}",
        real_dim=m,
        kind="complex",
        generators=gens,
        evaluation={(n,): 1},
        tangent_class=tangent,
    )


def _cp1_cp1() -> ManifoldDescriptor:
    gens = (("a", 2), ("b", 2))
    tangent = _poly(gens, 4, {(0, 0): 1, (1, 0): 2, (0, 1): 2, (1, 1): 4})
    return ManifoldDescriptor(
        name="cp1xcp1",
        real_dim=4,
        kind="complex",
        generators=gens,
        evaluation={(2, 0): 0, (1, 1): 1, (0, 2): 0},
        tangent_class=tangent,
    )


def _cp2_cp2() -> ManifoldDescriptor:
    gens = (("a", 2), ("b", 2))
    # (1+a)^3 (1+b)^3 with a^3 = b^3 = 0
    terms = {}
    for i in range(3):
        for j in range(3):
            terms[(i, j)] = comb(3, i) * comb(3, j)
    # densities live in the free ring, so every degree-8 monomial needs a value;
    # anything containing a^3 or b^3 pairs to zero
    evaluation = {(i, 4 - i): (1 if i == 2 else 0) for i in range(5)}
    return ManifoldDescriptor(
        name="cp2xcp2",
        real_dim=8,
        kind="complex",
        generators=gens,
        evaluation=evaluation,
        tangent_class=_poly(gens, 8, terms),
    )


def _k3() -> ManifoldDescriptor:
    gens = (("c2", 4),)
    return ManifoldDescriptor(
        name="k3",
        real_dim=4,
        kind="complex",
        generators=gens,
        evaluation={(1,): 24},
        tangent_class=_poly(gens, 4, {(0,): 1, (1,): 1}),
    )


def _torus(real_dim: int) -> ManifoldDescriptor:
    return ManifoldDescriptor(
        name=f"t{real_dim}",
        real_dim=real_dim,
        kind="complex",
        generators=(),
        evaluation={},
        tangent_class=GradedPolynomial((), real_dim, {(): Fraction(1)}),
    )


def _s4() -> ManifoldDescriptor:
    gens = (("p1", 4),)
    return ManifoldDescriptor(
        name="s4",
        real_dim=4,
        kind="oriented_real",
        generators=gens,
        evaluation={(1,): 0},
        tangent_class=_poly(gens, 4, {(0,): 1}),
    )


def _cp1_bundles(manifold: ManifoldDescriptor) -> dict[str, BundleDescriptor]:
    gens = manifold.generators
    bundles = {}
    for k in range(-2, 4):
        bundles[f"O({k})"] = BundleDescriptor(
            rank=1, total_chern=_poly(gens, 2, {(0,): 1, (1,): k})
        )
    return bundles


def builtin_catalog() -> list[CatalogEntry]:
    """The desk-scale manifolds with their recorded expected indices."""
    cp1 = _cp(1)
    entries = [
        CatalogEntry(
            manifold=cp1,
            bundles=_cp1_bundles(cp1),
            expected={
                "signature": 0,
                "dolbeault": 1,
                "euler": 2,
                **{f"dolbeault:O({k})": k + 1 for k in range(-2, 4)},
            },
        ),
        CatalogEntry(
            manifold=_cp(2),
            expected={"signature": 1, "dolbeault": 1, "euler": 3},
        ),
        CatalogEntry(
            manifold=_cp(3),
            expected={"signature": 0, "dolbeault": 1, "euler": 4},
        ),
        CatalogEntry(
            manifold=_cp1_cp1(),
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
            manifold=_cp2_cp2(),
            expected={"signature": 1, "dolbeault": 1, "euler": 9},
        ),
    ]
    return entries


def effective_catalog() -> list[CatalogEntry]:
    """Built-in entries with any directory overrides applied."""
    directory = os.environ.get(CATALOG_DIR_ENV)
    overrides = {}
    if directory:
        for path in sorted(Path(directory).glob("*.json")):
            entry = load_descriptor(path)
            overrides[entry.name] = entry
    entries = [overrides.pop(e.name, e) for e in builtin_catalog()]
    entries.extend(overrides.values())
    return entries


def available_names() -> list[str]:
    return [e.name for e in effective_catalog()]


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
    """Interpret a CLI argument as either a catalog name or a descriptor path."""
    if arg.endswith(".json") or os.path.sep in arg or os.path.exists(arg):
        return load_descriptor(arg)
    return catalog_entry(arg)
