"""The schema-1 descriptor file: reader and canonical writer.

Descriptors are JSON with schema_version 1.  Rationals are serialized as
"num/den" strings and monomial keys as name-sorted "gen^k·gen^k" strings, so
files are exact, platform-independent and diffable; the writer is
deterministic, making save(load(f)) byte-identical for canonical files.  The
reader refuses two keys that name one monomial, such as "h^2" and "h^1·h^1".

``catalog.load_descriptor`` and ``catalog.save_descriptor`` import this module
when they are called, so a command that reads no descriptor file never
compiles it (nor ``json``).
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from pathlib import Path
from typing import Mapping

from .catalog import SCHEMA_VERSION, CatalogEntry, _poly_to_json
from .exact_algebra import GradedPolynomial
from .index_engine import (
    INDEX_FUNCTIONS,
    TWISTABLE,
    BundleDescriptor,
    DescriptorError,
    ManifoldDescriptor,
    _checked_generators,
    _check_real_dim,
)

_MONOMIAL_FACTOR = re.compile(r"^(?P<name>[^\^·]+)\^(?P<power>[0-9]+)$")


def _fraction_from_str(text: str, context: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DescriptorError(f"{context}: bad rational {text!r}: {exc}") from None


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
    if m.spin is not None:
        manifold_block["spin"] = m.spin
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


_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool}


def _json_type(value, json_type: str, what: str, context: str):
    """``value`` if it is the JSON ``json_type``: "object", "array", "string" or "boolean"."""
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
    spin = _json_type(block["spin"], "boolean", "spin", source) if "spin" in block else None
    manifold = _in_context(
        source, ManifoldDescriptor, name=name, real_dim=real_dim, kind=kind,
        generators=generators, evaluation=evaluation, tangent_class=tangent, euler_class=euler,
        spin=spin,
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


def load(path: str | os.PathLike) -> CatalogEntry:
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


def save(entry: CatalogEntry, path: str | os.PathLike) -> None:
    """Write a descriptor in canonical, byte-reproducible form."""
    doc = _entry_to_json(entry)
    Path(path).write_text(
        json.dumps(doc, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )
