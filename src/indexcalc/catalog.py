"""Descriptor file format and the built-in manifold catalog.

Descriptors are JSON with schema_version 1.  Rationals are serialized as
"num/den" strings and monomial keys as name-sorted "gen^k·gen^k" strings, so
files are exact, platform-independent and diffable; the writer is
deterministic, making save(load(f)) byte-identical for canonical files.  The
reader refuses two keys that name one monomial, such as "h^2" and "h^1·h^1".

Each catalog entry records the indices expected on it, which keeps the
`verify` subcommand self-contained.  The INDEXCALC_CATALOG_DIR environment
variable may point at a directory of extra descriptor files; entries there
shadow built-ins of the same name, and a value naming no directory is an error.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from itertools import product
from math import comb, prod
from pathlib import Path
from typing import Mapping

from .exact_algebra import GradedPolynomial, _Value
from .index_engine import (
    INDEX_FUNCTIONS,
    TWISTABLE,
    BundleDescriptor,
    DescriptorError,
    IndexReport,
    ManifoldDescriptor,
    _checked_generators,
    _check_real_dim,
    compute_index,
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


# -- serialization helpers ---------------------------------------------


def _fraction_to_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _fraction_from_str(text: str, context: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DescriptorError(f"{context}: bad rational {text!r}: {exc}") from None


def _poly_to_json(poly: GradedPolynomial) -> dict[str, str]:
    return {
        poly.monomial_name(exps): _fraction_to_str(coeff)
        for exps, coeff in poly.sorted_terms()
    }


def _monomial_table(
    generators: tuple[tuple[str, int], ...], block: Mapping, field: str, context: str, parse
) -> dict:
    """``block[field]``, a JSON object with monomial keys ("1" or like "a^2·b^1"), as a map
    from exponent vector to ``parse(key, value)``.  A field that is not an object and two
    keys naming one monomial are refused; errors name ``context`` and the field."""
    data = _json_type(_require(block, field, context), "object", field, context)
    context = f"{context} {field}"
    positions = {name: i for i, (name, _) in enumerate(generators)}
    keys: dict[tuple[int, ...], str] = {}
    for key in data:
        exps = [0] * len(generators)
        for factor in key.split("·") if key != "1" else ():
            m = _MONOMIAL_FACTOR.match(factor)
            if not m:
                raise DescriptorError(f"{context}: bad monomial factor {factor!r} in key {key!r}")
            name = m["name"]
            if name not in positions:
                raise DescriptorError(f"{context}: unknown generator {name!r} in monomial {key!r}")
            exps[positions[name]] += int(m["power"])
        exps = tuple(exps)
        if exps in keys:
            raise DescriptorError(f"{context}: keys {keys[exps]!r} and {key!r} name one monomial")
        keys[exps] = key
    return {exps: parse(key, data[key]) for exps, key in keys.items()}


def _poly_from_json(
    generators: tuple[tuple[str, int], ...], truncation: int, block: Mapping, field: str,
    context: str,
) -> GradedPolynomial:
    """The polynomial stored under ``block[field]``; errors name ``context`` and the field."""
    terms = _monomial_table(
        generators, block, field, context,
        lambda key, text: _fraction_from_str(str(text), f"{context} {field}"),
    )
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


_JSON_TYPES = {"object": dict, "array": list, "string": str}


def _json_type(value, json_type: str, what: str, context: str):
    """``value`` if it is the JSON ``json_type``: "object", "array" or "string"."""
    if not isinstance(value, _JSON_TYPES[json_type]):
        raise DescriptorError(
            f"{context}: {what} must be a JSON {json_type}, got {json.dumps(value)}"
        )
    return value


def _int(value, what: str, context: str) -> int:
    """A JSON integer; floats, bools and strings are refused, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DescriptorError(f"{context}: {what} must be an integer, got {json.dumps(value)}")
    return value


def _generator(item, source: str) -> tuple[str, int]:
    """A [name, degree] pair from the generators array."""
    if not (isinstance(item, list) and len(item) == 2 and isinstance(item[0], str)):
        raise DescriptorError(
            f"{source}: generator must be a [name, degree] pair, got {json.dumps(item)}"
        )
    return item[0], _int(item[1], f"degree of generator {item[0]!r}", source)


def _expected_key(key: str, bundles: Mapping[str, BundleDescriptor], source: str) -> str:
    """An expected key: a complex name, or "<complex>:<bundle>" naming a twistable complex
    and a bundle here."""
    kind, sep, bundle = key.partition(":")
    if kind not in INDEX_FUNCTIONS:
        raise DescriptorError(
            f"{source}: expected key {key!r} names no complex; "
            f"expected one of {', '.join(INDEX_FUNCTIONS)}"
        )
    if sep and kind not in TWISTABLE:
        raise DescriptorError(
            f"{source}: expected key {key!r} twists the {kind} complex, which takes no bundle; "
            f"twistable: {', '.join(TWISTABLE)}"
        )
    if sep and bundle not in bundles:
        raise DescriptorError(
            f"{source}: expected key {key!r} names no bundle of the descriptor; "
            f"available: {', '.join(sorted(bundles)) or 'none'}"
        )
    return key


def _in_context(context: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a DescriptorError it raises gets ``context`` as prefix."""
    try:
        return build(*args, **kwargs)
    except DescriptorError as exc:
        raise DescriptorError(f"{context}: {exc}") from None


def _entry_from_json(doc: Mapping, source: str) -> CatalogEntry:
    doc = _json_type(doc, "object", "the descriptor", source)
    version = _require(doc, "schema_version", source)
    if type(version) is not int or version != SCHEMA_VERSION:  # true and 1.0 equal 1
        raise DescriptorError(f"{source}: unknown schema_version {version!r}")
    block = _json_type(_require(doc, "manifold", source), "object", "manifold", source)
    name = _json_type(_require(block, "name", source), "string", "name", source)
    real_dim = _int(_require(block, "real_dim", source), "real_dim", source)
    _in_context(source, _check_real_dim, real_dim)  # before any polynomial is truncated at it
    kind = str(_require(block, "kind", source))
    generators = tuple(
        _generator(g, source)
        for g in _json_type(_require(block, "generators", source), "array", "generators", source)
    )
    _in_context(source, _checked_generators, generators)  # before any monomial key uses them
    evaluation = _monomial_table(
        generators, block, "evaluation", source,
        lambda key, value: _int(value, f"evaluation of {key!r}", source),
    )
    tangent = _poly_from_json(generators, real_dim, block, "tangent_class", source)
    euler = None
    if "euler_class" in block:
        euler = _poly_from_json(generators, real_dim, block, "euler_class", source)
    manifold = _in_context(
        source, ManifoldDescriptor, name=name, real_dim=real_dim, kind=kind,
        generators=generators, evaluation=evaluation, tangent_class=tangent, euler_class=euler,
    )
    bundles = {}
    for bname, bblock in _json_type(doc.get("bundles", {}), "object", "bundles", source).items():
        context = f"{source} bundle {bname!r}"
        bblock = _json_type(bblock, "object", "the bundle", context)
        rank = _int(_require(bblock, "rank", context), "rank", context)
        total = _poly_from_json(generators, real_dim, bblock, "total_chern", context)
        bundles[str(bname)] = _in_context(context, BundleDescriptor, rank=rank, total_chern=total)
    expected = {
        _expected_key(str(k), bundles, source): _int(v, f"expected value of {k!r}", source)
        for k, v in _json_type(doc.get("expected", {}), "object", "expected", source).items()
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


def _projective_product(factors: tuple[tuple[str, int], ...]) -> ManifoldDescriptor:
    """CP^{n_1} x ... x CP^{n_k} from (generator name, n_i) pairs: c(T) = prod (1 + h_i)^(n_i+1)
    with h_i^(n_i+1) = 0.  Densities live in the free ring, so every top-degree monomial
    gets a value: 1 on prod h_i^(n_i), 0 on the others, which contain some h_i^(n_i+1)."""
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
        tangent_class=GradedPolynomial(gens, 4, {(0,): 1}),
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
    overrides = {}
    if directory:
        if not Path(directory).is_dir():
            raise DescriptorError(f"{CATALOG_DIR_ENV}={directory} is not a directory")
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
