"""Descriptor file format, catalog lookup, and CLI surface tests."""

from __future__ import annotations

import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indexcalc import catalog, cli, verification
from indexcalc import index_engine as engine
from indexcalc.catalog import (
    CATALOG_DIR_ENV,
    CatalogEntry,
    builtin_catalog,
    catalog_entry,
    effective_catalog,
    load_descriptor,
    resolve_manifold,
    save_descriptor,
)
from indexcalc.cli import run_cli
from indexcalc.clifford import MAX_HALF_DIM
from indexcalc.exact_algebra import GradedPolynomial
from indexcalc.index_engine import (
    INDEX_FUNCTIONS,
    TWISTABLE,
    BundleDescriptor,
    DescriptorError,
    ManifoldDescriptor,
    compute_index,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestCatalog:
    def test_required_entries_present(self):
        names = {entry.name for entry in effective_catalog()}
        assert {"cp1", "cp2", "cp3", "cp1xcp1", "k3", "t2", "t4", "s4", "cp2xcp2"} <= names

    def test_unknown_name(self):
        with pytest.raises(DescriptorError, match="available"):
            catalog_entry("nope")

    def test_cp3_entry(self):
        entry = catalog_entry("cp3")
        # c(T) = (1+h)^4 truncated
        assert entry.manifold.tangent_class.terms == {
            (0,): 1,
            (1,): 4,
            (2,): 6,
            (3,): 4,
        }
        assert entry.manifold.evaluation == {(3,): 1}
        assert entry.expected["dolbeault"] == 1

    def test_k3_expected(self):
        entry = catalog_entry("k3")
        assert entry.expected == {
            "signature": -16,
            "dolbeault": 2,
            "spin": 2,
            "euler": 24,
        }

    def test_t2_all_zero(self):
        entry = catalog_entry("t2")
        assert all(v == 0 for v in entry.expected.values())


class TestDescriptorFiles:
    def test_round_trip_bytes(self, tmp_path):
        for entry in builtin_catalog():
            path = tmp_path / f"{entry.name}.json"
            save_descriptor(entry, path)
            reloaded = load_descriptor(path)
            path2 = tmp_path / f"{entry.name}_again.json"
            save_descriptor(reloaded, path2)
            assert path.read_bytes() == path2.read_bytes(), entry.name

    def test_structural_round_trip(self, tmp_path):
        entry = catalog_entry("cp1")
        path = tmp_path / "cp1.json"
        save_descriptor(entry, path)
        again = load_descriptor(path)
        assert again.manifold == entry.manifold
        assert again.bundles == entry.bundles
        assert again.expected == entry.expected

    def test_parse_error_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "schema_version": 1,\n  "manifold": {,}\n}\n')
        with pytest.raises(DescriptorError, match="line 3"):
            load_descriptor(path)

    def test_unknown_schema_version(self, tmp_path):
        path = tmp_path / "v9.json"
        path.write_text(json.dumps({"schema_version": 9, "manifold": {}}))
        with pytest.raises(DescriptorError, match="schema_version"):
            load_descriptor(path)

    def test_odd_generator_degree(self, tmp_path):
        doc = {
            "schema_version": 1,
            "manifold": {
                "name": "bad",
                "real_dim": 4,
                "kind": "complex",
                "generators": [["g", 3]],
                "evaluation": {},
                "tangent_class": {"1": "1/1"},
            },
        }
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DescriptorError, match="odd generator degree"):
            load_descriptor(path)

    def test_missing_field_named(self, tmp_path):
        doc = {
            "schema_version": 1,
            "manifold": {
                "name": "bad",
                "real_dim": 4,
                "kind": "complex",
                "generators": [["h", 2]],
                "tangent_class": {"1": "1/1"},
            },
        }
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DescriptorError, match="evaluation"):
            load_descriptor(path)

    def test_rationals_serialized_as_num_den(self, tmp_path):
        path = tmp_path / "cp2.json"
        save_descriptor(catalog_entry("cp2"), path)
        doc = json.loads(path.read_text())
        assert doc["manifold"]["tangent_class"] == {"1": "1/1", "h^1": "3/1", "h^2": "3/1"}

    def test_env_dir_override(self, tmp_path, monkeypatch):
        entry = catalog_entry("k3")
        hacked = CatalogEntry(
            manifold=entry.manifold, bundles=entry.bundles, expected={"euler": 24}
        )
        save_descriptor(hacked, tmp_path / "k3.json")
        monkeypatch.setenv(CATALOG_DIR_ENV, str(tmp_path))
        assert catalog_entry("k3").expected == {"euler": 24}
        monkeypatch.delenv(CATALOG_DIR_ENV)
        assert catalog_entry("k3").expected["signature"] == -16

    @pytest.mark.parametrize("bad", [2.0, True], ids=["float", "bool"])
    @pytest.mark.parametrize(
        "field,path",
        [
            ("real_dim", ("manifold", "real_dim")),
            ("degree of generator 'h'", ("manifold", "generators", 0, 1)),
            ("evaluation of 'h^1'", ("manifold", "evaluation", "h^1")),
            ("rank", ("bundles", "O(1)", "rank")),
            ("expected value of 'euler'", ("expected", "euler")),
        ],
    )
    def test_integer_fields_are_strict(self, tmp_path, field, path, bad):
        save_descriptor(catalog_entry("cp1"), tmp_path / "cp1.json")
        doc = json.loads((tmp_path / "cp1.json").read_text())
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = bad
        (tmp_path / "cp1.json").write_text(json.dumps(doc))
        with pytest.raises(DescriptorError) as info:
            load_descriptor(tmp_path / "cp1.json")
        assert f"{field} must be an integer, got {json.dumps(bad)}" in str(info.value)

    @pytest.mark.parametrize("real_dim", [-4, 0, 3])
    def test_bad_real_dim_names_the_file(self, tmp_path, real_dim):
        # refused before any polynomial is truncated at it
        path = tmp_path / "cp2.json"
        save_descriptor(catalog_entry("cp2"), path)
        doc = json.loads(path.read_text())
        doc["manifold"]["real_dim"] = real_dim
        path.write_text(json.dumps(doc))
        assert run(["index", "--manifold", str(path), "--complex", "euler"]) == (
            2, "", f"error: {path}: real_dim must be even and positive, got {real_dim}\n"
        )

    def test_resolve_path_or_name(self, tmp_path):
        path = tmp_path / "cp2.json"
        save_descriptor(catalog_entry("cp2"), path)
        assert resolve_manifold(str(path)).name == "cp2"
        assert resolve_manifold("cp2").name == "cp2"

    def test_directory_named_like_an_entry_is_not_a_descriptor(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "k3").mkdir()
        assert resolve_manifold("k3").name == "k3"
        assert run(["index", "--manifold", "k3", "--complex", "spin"]) == (0, "2\n", "")

    def test_stray_file_named_like_an_entry_does_not_replace_it(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        save_descriptor(catalog_entry("cp1"), tmp_path / "cp2")
        (tmp_path / "k3").write_text("not a descriptor")
        assert resolve_manifold("cp2").name == "cp2"
        assert run(["index", "--manifold", "cp2", "--complex", "euler"]) == (0, "3\n", "")
        assert run(["index", "--manifold", "k3", "--complex", "spin"]) == (0, "2\n", "")

    def test_path_separator_makes_a_name_a_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        save_descriptor(catalog_entry("cp1"), tmp_path / "cp2")
        path = os.path.join(".", "cp2")
        assert resolve_manifold(path).name == "cp1"
        assert run(["index", "--manifold", path, "--complex", "euler"]) == (0, "2\n", "")

    def test_extensionless_descriptor_without_a_catalog_entry_loads(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        save_descriptor(catalog_entry("cp1"), tmp_path / "my_sphere")
        assert resolve_manifold("my_sphere").name == "cp1"
        assert run(["index", "--manifold", "my_sphere", "--complex", "euler"]) == (0, "2\n", "")
        assert run(["index", "--manifold", "no_such_file", "--complex", "euler"])[0] == 2


_GENERATOR_NAMES = st.text(alphabet="abhpcxyzXYZ019_'()[]-+éλ∂", min_size=1, max_size=4)


@st.composite
def catalog_entries(draw):
    """A random valid descriptor: up to 3 generators, real_dim <= 8, bundles
    with no Chern class above their rank, and expected keys of every form."""
    names = draw(st.lists(_GENERATOR_NAMES, max_size=3, unique=True))
    gens = tuple((name, draw(st.sampled_from((2, 4, 6)))) for name in names)
    real_dim = draw(st.sampled_from((2, 4, 6, 8)))

    def degree(exps):
        return sum(e * d for e, (_, d) in zip(exps, gens))

    monomials = [
        e for e in product(range(real_dim // 2 + 1), repeat=len(gens)) if degree(e) <= real_dim
    ]
    coefficients = st.fractions(min_value=-99, max_value=99, max_denominator=60)

    def poly(max_degree, constant):
        keys = [e for e in monomials if 0 < degree(e) <= max_degree]
        terms = draw(st.dictionaries(st.sampled_from(keys), coefficients, max_size=4)) if keys else {}
        return GradedPolynomial(gens, real_dim, {(0,) * len(gens): constant, **terms})

    kind = draw(st.sampled_from(("complex", "oriented_real")))
    manifold = ManifoldDescriptor(
        name=draw(st.text(alphabet="abcxyz0123_-", min_size=1, max_size=6)),
        real_dim=real_dim,
        kind=kind,
        generators=gens,
        evaluation={
            e: draw(st.integers(-50, 50)) for e in monomials if degree(e) == real_dim
        },
        tangent_class=poly(real_dim, 1),
        euler_class=poly(real_dim, 0) if kind == "oriented_real" and draw(st.booleans()) else None,
        spin=draw(st.sampled_from([None, True, False])),
    )
    bundles = {}
    for bname in draw(st.lists(st.sampled_from(["O(1)", "E", "V_2", "L(-3)"]), unique=True)):
        rank = draw(st.integers(0, 3))
        bundles[bname] = BundleDescriptor(rank=rank, total_chern=poly(2 * rank, 1))
    keys = [*INDEX_FUNCTIONS, *(f"{c}:{b}" for c in TWISTABLE for b in bundles)]
    expected = draw(st.dictionaries(st.sampled_from(keys), st.integers(-99, 99)))
    return CatalogEntry(manifold=manifold, bundles=bundles, expected=expected)


_WRONG_TYPES = [  # (path into a saved cp1 descriptor, JSON value put there, message)
    ((), [], "cp1.json: the descriptor must be a JSON object, got []"),
    (("schema_version",), True, "cp1.json: unknown schema_version True"),
    (("schema_version",), 1.0, "cp1.json: unknown schema_version 1.0"),
    (("manifold",), [], "cp1.json: manifold must be a JSON object, got []"),
    (("manifold", "name"), 5, "cp1.json: name must be a JSON string, got 5"),
    (("manifold", "generators"), {"h": 2},
     'cp1.json: generators must be a JSON array, got {"h": 2}'),
    (("manifold", "generators", 0), "h",
     'cp1.json: generator must be a [name, degree] pair, got "h"'),
    (("manifold", "generators", 0), [2, 2],
     "cp1.json: generator must be a [name, degree] pair, got [2, 2]"),
    (("manifold", "evaluation"), [1], "cp1.json: evaluation must be a JSON object, got [1]"),
    (("manifold", "tangent_class"), ["1/1"],
     'cp1.json: tangent_class must be a JSON object, got ["1/1"]'),
    (("manifold", "euler_class"), "1/1",
     'cp1.json: euler_class must be a JSON object, got "1/1"'),
    (("bundles",), [], "cp1.json: bundles must be a JSON object, got []"),
    (("bundles", "O(1)"), 3,
     "cp1.json bundle 'O(1)': the bundle must be a JSON object, got 3"),
    (("bundles", "O(1)", "total_chern"), None,
     "cp1.json bundle 'O(1)': total_chern must be a JSON object, got null"),
    (("expected",), ["euler"], 'cp1.json: expected must be a JSON object, got ["euler"]'),
    (("manifold", "spin"), 1, "cp1.json: spin must be a JSON boolean, got 1"),
    (("manifold", "spin"), "true", 'cp1.json: spin must be a JSON boolean, got "true"'),
    (("manifold", "spin"), None, "cp1.json: spin must be a JSON boolean, got null"),
]
_WRONG_TYPE_IDS = ["/".join(map(str, path)) or "document" for path, _, _ in _WRONG_TYPES]


class TestDescriptorGrammar:
    @settings(max_examples=80, deadline=None)
    @given(entry=catalog_entries())
    def test_save_load_save_is_byte_identical(self, entry):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "first.json"), Path(tmp, "second.json")
            save_descriptor(entry, first)
            reloaded = load_descriptor(first)
            save_descriptor(reloaded, second)
            assert first.read_bytes() == second.read_bytes()
        assert reloaded == entry

    @pytest.mark.parametrize("name", ["a^b", "a·b", "a b", ""])
    def test_bad_generator_name_in_file_is_named(self, tmp_path, name):
        path = tmp_path / "cp1.json"
        save_descriptor(catalog_entry("cp1"), path)
        doc = json.loads(path.read_text())
        doc["manifold"]["generators"][0][0] = name
        path.write_text(json.dumps(doc, ensure_ascii=False))
        code, out, err = run(["index", "--manifold", str(path), "--complex", "euler"])
        assert (code, out) == (2, "")
        assert f"generator name {name!r}" in err and "cp1.json" in err
        assert "bad monomial factor" not in err

    def test_duplicate_generator_name_in_file_is_named(self, tmp_path):
        path = tmp_path / "cp2.json"
        save_descriptor(catalog_entry("cp2"), path)
        doc = json.loads(path.read_text())
        doc["manifold"]["generators"] = [["h", 2], ["h", 2]]
        path.write_text(json.dumps(doc))
        code, out, err = run(["index", "--manifold", str(path), "--complex", "euler"])
        assert (code, out) == (2, "")
        assert f"{path}: generator name 'h' appears more than once in generators" in err

    @pytest.mark.parametrize(
        "field,key,value,message",
        [
            ("tangent_class", "q^1", "1/1", "unknown generator 'q' in monomial 'q^1'"),
            ("evaluation", "q^1", 1, "unknown generator 'q' in monomial 'q^1'"),
            ("euler_class", "h^1·q^2", "1/1", "unknown generator 'q' in monomial 'h^1·q^2'"),
            ("total_chern", "q^1", "1/1", "unknown generator 'q' in monomial 'q^1'"),
            ("tangent_class", "h^x", "1/1", "bad monomial factor 'h^x'"),
            ("evaluation", "h^1·", 1, "bad monomial factor ''"),
            ("total_chern", "h^1", "1/x", "bad rational '1/x'"),
        ],
    )
    def test_bad_polynomial_key_in_file_names_file_and_field(
        self, tmp_path, field, key, value, message
    ):
        path = tmp_path / "cp1.json"
        save_descriptor(catalog_entry("cp1"), path)
        doc = json.loads(path.read_text())
        if field == "total_chern":
            doc["bundles"]["O(1)"]["total_chern"][key] = value
            where = "cp1.json bundle 'O(1)' total_chern: "
        else:
            doc["manifold"].setdefault(field, {})[key] = value
            where = f"cp1.json {field}: "
        path.write_text(json.dumps(doc, ensure_ascii=False))
        code, out, err = run(["index", "--manifold", str(path), "--complex", "euler"])
        assert (code, out) == (2, "")
        assert where + message in err

    @pytest.mark.parametrize("field", ["tangent_class", "evaluation", "euler_class", "total_chern"])
    def test_monomial_named_twice_exits_2_naming_file_and_field(self, tmp_path, field):
        path = tmp_path / "cp2.json"
        save_descriptor(catalog_entry("cp2"), path)
        doc = json.loads(path.read_text())
        table = {"1": "1/1", "h^2": "3/1", "h^1·h^1": "5/1"}
        if field == "total_chern":
            doc["bundles"] = {"L": {"rank": 2, "total_chern": table}}
            where = "cp2.json bundle 'L' total_chern"
        else:
            doc["manifold"][field] = {"h^2": 1, "h^1·h^1": 5} if field == "evaluation" else table
            where = f"cp2.json {field}"
        path.write_text(json.dumps(doc, ensure_ascii=False))
        code, out, err = run(["index", "--manifold", str(path), "--complex", "euler"])
        assert (code, out) == (2, "")
        assert f"{where}: keys 'h^2' and 'h^1·h^1' name one monomial" in err

    @pytest.mark.parametrize("path,value,message", _WRONG_TYPES, ids=_WRONG_TYPE_IDS)
    def test_wrong_json_type_exits_2_naming_file_and_field(self, tmp_path, path, value, message):
        file = tmp_path / "cp1.json"
        save_descriptor(catalog_entry("cp1"), file)
        doc = json.loads(file.read_text())
        if path:
            target = doc
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        else:
            doc = value
        file.write_text(json.dumps(doc))
        code, out, err = run(["index", "--manifold", str(file), "--complex", "euler"])
        assert (code, out) == (2, "")
        assert message in err

    def test_chern_class_above_rank_in_file(self, tmp_path):
        path = tmp_path / "cp2.json"
        save_descriptor(catalog_entry("cp2"), path)
        doc = json.loads(path.read_text())
        doc["bundles"] = {"L": {"rank": 1, "total_chern": {"1": "1/1", "h^2": "5/1"}}}
        path.write_text(json.dumps(doc))
        code, out, err = run(
            ["index", "--manifold", str(path), "--complex", "dolbeault", "--bundle", "L"]
        )
        assert (code, out) == (2, "")
        assert "cp2.json bundle 'L'" in err
        assert "rank-1 bundle" in err and "c_2 = 5·h^2" in err


class TestCliGenus:
    def test_l2_text(self):
        code, out, _ = run(["genus", "--kind", "L", "--half-dim", "2"])
        assert code == 0
        assert out.strip() == "1 + 1/3·p1 + 7/45·p2 - 1/45·p1^2"

    def test_todd2_text(self):
        # ascending degree, then lexicographic exponent vector: c2 before c1^2
        code, out, _ = run(["genus", "--kind", "Todd", "--half-dim", "2"])
        assert code == 0
        assert out.strip() == "1 + 1/2·c1 + 1/12·c2 + 1/12·c1^2"

    def test_json_contains_text_fields(self):
        code, out, _ = run(["genus", "--kind", "Ahat", "--half-dim", "1", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["polynomial"] == "1 - 1/24·p1"
        assert doc["terms"] == {"1": "1/1", "p1^1": "-1/24"}

    def test_bad_kind_usage_error(self):
        code, _, _ = run(["genus", "--kind", "X", "--half-dim", "1"])
        assert code == 2

    def test_negative_half_dim_exits_2_naming_value(self):
        code, out, err = run(["genus", "--kind", "L", "--half-dim", "-1"])
        assert (code, out) == (2, "")
        assert "--half-dim must be non-negative, got -1" in err

    def test_half_dim_at_the_cap_runs(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_GENUS_HALF_DIM", 3)
        assert run(["genus", "--kind", "Todd", "--half-dim", "3"])[0] == 0
        assert run(["genus", "--kind", "Todd", "--half-dim", "4"]) == (
            2, "", "error: --half-dim must be at most 3, got 4\n"
        )


    def test_descriptor_real_dim_at_the_cap_runs(self, monkeypatch):
        # the genus budget caps a descriptor at real_dim 2 * MAX_GENUS_HALF_DIM: at the cap,
        # cp2xcp2's (8), index and verify run; one below, a genus-building index and verify
        # refuse it, and euler, which builds no genus, still runs
        monkeypatch.setattr(cli, "MAX_GENUS_HALF_DIM", 4)
        assert run(["index", "--manifold", "cp2xcp2", "--complex", "signature"]) == (0, "1\n", "")
        assert run(["verify"])[0] == 0
        monkeypatch.setattr(cli, "MAX_GENUS_HALF_DIM", 3)
        refusal = "error: cp2xcp2: real_dim 8 is above 6, the largest a command builds a genus for\n"
        for kind in ("signature", "dolbeault", "spin"):
            assert run(["index", "--manifold", "cp2xcp2", "--complex", kind]) == (2, "", refusal)
        assert run(["index", "--manifold", "cp2xcp2", "--complex", "euler"]) == (0, "9\n", "")
        assert run(["verify"]) == (2, "", refusal)


class TestCliIndex:
    def test_k3_signature(self):
        code, out, _ = run(["index", "--manifold", "k3", "--complex", "signature"])
        assert code == 0
        assert out.strip() == "-16"

    def test_bundle(self):
        code, out, _ = run(
            ["index", "--manifold", "cp1", "--complex", "dolbeault", "--bundle", "O(3)"]
        )
        assert code == 0
        assert out.strip() == "4"

    def test_json(self):
        code, out, _ = run(
            ["index", "--manifold", "cp2", "--complex", "euler", "--format", "json"]
        )
        doc = json.loads(out)
        assert (code, doc["value"], doc["complex"], doc["manifold"]) == (0, 3, "de_rham", "cp2")
        assert "density" in doc

    def test_unknown_manifold_exits_2(self):
        code, _, err = run(["index", "--manifold", "nope", "--complex", "signature"])
        assert code == 2
        assert "unknown manifold" in err

    def test_non_spin_exits_2(self):
        code, _, err = run(["index", "--manifold", "cp2", "--complex", "spin"])
        assert code == 2
        assert "non-integer" in err

    def test_unknown_bundle_exits_2(self):
        code, _, err = run(
            ["index", "--manifold", "cp1", "--complex", "dolbeault", "--bundle", "O(9)"]
        )
        assert code == 2
        assert "O(9)" in err

    def test_bundle_lookup_is_the_catalog_entry_s(self):
        cp1 = catalog_entry("cp1")
        assert cp1.index("dolbeault", "O(2)").integer_value == 3
        assert cp1.index("spin").complex_kind == "spin"
        assert cp1.index("spin", "O(2)").complex_kind == "spin_twisted"
        with pytest.raises(DescriptorError, match=r"^cp1: no bundle named 'E'; available: O\(-1\)"):
            cp1.index("spin", "E")
        with pytest.raises(DescriptorError, match="the euler complex cannot be twisted"):
            cp1.index("euler", "O(1)")

    @pytest.mark.parametrize("kind", ["signature", "euler"])
    def test_bundle_on_untwisted_complex_exits_2(self, kind):
        code, out, err = run(
            ["index", "--manifold", "cp1", "--complex", kind, "--bundle", "O(1)"]
        )
        assert (code, out) == (2, "")
        assert f"the {kind} complex cannot be twisted" in err
        assert "total Chern class 1 + h" in err

    def test_file_descriptor(self, tmp_path):
        path = tmp_path / "cp2.json"
        save_descriptor(catalog_entry("cp2"), path)
        code, out, _ = run(["index", "--manifold", str(path), "--complex", "signature"])
        assert (code, out.strip()) == (0, "1")


def _cp1xcp2_file(tmp_path, spin: bool | None) -> Path:
    """CP^1 x CP^2 (c_1 = 2a + 3b, so w_2 != 0) saved with bundles O(0,1) and O(1,0), and
    its "spin" key set to ``spin`` or, for None, removed."""
    m = catalog._projective_product((("a", 1), ("b", 2)))
    bundles = {f"O{k}": catalog._line_bundle(m, k) for k in ((0, 1), (1, 0))}
    path = tmp_path / "cp1xcp2.json"
    save_descriptor(CatalogEntry(m, bundles), path)
    doc = json.loads(path.read_text())
    assert doc["manifold"]["spin"] is False
    if spin is None:
        del doc["manifold"]["spin"]
    else:
        doc["manifold"]["spin"] = spin
    path.write_text(json.dumps(doc))
    return path


class TestSpinFlag:
    """A descriptor may say whether it is spin (w_2 = 0).  One that says it is not has no
    spin or twisted spin index, even where the integral comes out an integer; one that
    does not say is refused only by a non-integer value, as before."""

    def test_builtins_say_whether_they_are_spin(self):
        # CP^n is spin iff n is odd, a product iff every factor is
        spin = {entry.name: entry.manifold.spin for entry in builtin_catalog()}
        assert spin == {"cp1": True, "cp2": False, "cp3": True, "cp1xcp1": True, "k3": True,
                        "t2": True, "t4": True, "s4": True, "cp2xcp2": False}

    def test_spin_key_written_only_when_known(self, tmp_path):
        path = tmp_path / "m.json"
        for entry in builtin_catalog():
            save_descriptor(entry, path)
            assert json.loads(path.read_text())["manifold"]["spin"] is entry.manifold.spin
            assert load_descriptor(path).manifold.spin is entry.manifold.spin
        m = catalog_entry("cp2").manifold
        unknown = ManifoldDescriptor(m.name, m.real_dim, m.kind, m.generators, m.evaluation,
                                     m.tangent_class)
        save_descriptor(CatalogEntry(unknown), path)
        assert "spin" not in json.loads(path.read_text())["manifold"]
        assert load_descriptor(path).manifold.spin is None

    @pytest.mark.parametrize("value", [1, 0, "true", 1.0])
    def test_descriptor_refuses_a_non_boolean_spin(self, value):
        m = catalog_entry("cp1").manifold
        with pytest.raises(DescriptorError, match=re.escape(f"got {value!r}")):
            ManifoldDescriptor(m.name, m.real_dim, m.kind, m.generators, m.evaluation,
                               m.tangent_class, spin=value)

    @pytest.mark.parametrize("bundle, kind", [(None, "spin"), ("O(0, 1)", "spin_twisted")])
    def test_not_spin_with_an_integer_integral_exits_2_naming_w2(self, tmp_path, bundle, kind):
        # the integral of A-hat ch(O(k, l)) over CP^1 x CP^2 is k (4 l^2 - 1) / 8: 0 here
        argv = ["index", "--manifold", str(_cp1xcp2_file(tmp_path, False)), "--complex", "spin"]
        argv += ["--bundle", bundle] if bundle else []
        assert run(argv) == (2, "", (
            f"error: cp1xcp2: the descriptor says w₂ ≠ 0, so the manifold is not spin and has "
            f"no {kind} index (its density integrates to the integer 0)\n"))
        # a descriptor that does not say keeps the answer it gave before
        argv[2] = str(_cp1xcp2_file(tmp_path, None))
        assert run(argv) == (0, "0\n", "")

    @pytest.mark.parametrize("spin", [False, None])
    def test_not_spin_with_a_non_integer_integral_keeps_its_message(self, tmp_path, spin):
        argv = ["index", "--manifold", str(_cp1xcp2_file(tmp_path, spin)), "--complex", "spin",
                "--bundle", "O(1, 0)"]
        assert run(argv) == (2, "", (
            "error: spin_twisted index evaluated to the non-integer -1/8 "
            "(is the descriptor actually spin?)\n"))


class TestCliDetreg:
    def test_pbc_laplacian_beta_one(self):
        code, out, _ = run(["detreg", "--op", "pbc_laplacian", "--beta", "1"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "closed=1"
        assert lines[1] == "oracle=1"
        assert lines[2] == "delta=0"

    def test_json_fields(self):
        code, out, _ = run(
            [
                "detreg",
                "--op",
                "apbc_first_order_shifted",
                "--beta",
                "1",
                "--param",
                "1",
                "--oracle-modes",
                "1000",
                "--format",
                "json",
            ]
        )
        doc = json.loads(out)
        assert code == 0
        assert set(doc) == {"op", "beta", "param", "modes", "closed", "oracle", "delta"}
        assert abs(doc["closed"] - doc["oracle"]) < 1e-4

    def test_singular_parameter_exits_2(self):
        code, _, err = run(
            ["detreg", "--op", "pbc_curvature_block", "--beta", "1", "--param", str(2 * math.pi)]
        )
        assert code == 2
        assert "zero eigenvalue" in err

    @pytest.mark.parametrize(
        "argv,names",
        [
            (["--op", "pbc_laplacian", "--beta", "inf"], ("beta", "inf")),
            (["--op", "pbc_laplacian", "--beta", "nan"], ("beta", "nan")),
            (["--op", "apbc_first_order_shifted", "--beta", "1", "--param", "nan"],
             ("parameter", "nan")),
            (["--op", "apbc_curvature_block", "--beta", "1", "--param", "inf"],
             ("parameter", "inf")),
        ],
    )
    def test_non_finite_input_exits_2(self, argv, names):
        code, out, err = run(["detreg", *argv])
        assert (code, out) == (2, "")
        assert all(name in err for name in names)

    @pytest.mark.parametrize(
        "argv,names",
        [
            (["--op", "pbc_laplacian", "--beta", "1", "--param", "0.7"], ("pbc_laplacian", "0.7")),
            (["--op", "pbc_first_order", "--beta", "2", "--param", "-5"], ("pbc_first_order", "-5")),
        ],
    )
    def test_parameter_on_parameter_free_kind_exits_2(self, argv, names):
        # the eigenvalues of these kinds do not depend on the parameter
        code, out, err = run(["detreg", *argv])
        assert (code, out) == (2, "")
        assert all(name in err for name in names)

    @pytest.mark.parametrize("modes", ["0", "-3"])
    def test_oracle_modes_below_one_exits_2(self, modes):
        code, out, err = run(["detreg", "--op", "pbc_laplacian", "--beta", "1",
                              "--oracle-modes", modes])
        assert (code, out) == (2, "")
        assert f"--oracle-modes must be at least 1, got {modes}" in err

    def test_oracle_modes_of_10_to_the_12_run_within_a_second(self):
        # the oracle walks its head and sums the rest in constant time: more modes cost no
        # more, and only bring the truncated product closer to its closed form
        argv = ["detreg", "--op", "apbc_curvature_block", "--beta", "1", "--param", "0.5",
                "--format", "json", "--oracle-modes"]
        start = time.perf_counter()
        code, out, _ = run([*argv, str(10**12)])
        assert time.perf_counter() - start < 1.0
        doc = json.loads(out)
        assert (code, doc["modes"]) == (0, 10**12)
        assert abs(doc["delta"]) < abs(json.loads(run([*argv, str(10**5)])[1])["delta"])

    def test_oracle_head_at_the_cap_runs(self, monkeypatch):
        # beta*param/(2 pi) = 10.5: the series starts at m = 119, after a head of 118 modes
        argv = ["detreg", "--op", "pbc_curvature_block", "--beta", "2", "--param",
                repr(10.5 * math.pi), "--oracle-modes", str(10**6), "--format", "json"]
        monkeypatch.setattr(cli, "MAX_ORACLE_HEAD", 118)
        code, out, _ = run(argv)
        assert (code, json.loads(out)["modes"]) == (0, 10**6)
        monkeypatch.setattr(cli, "MAX_ORACLE_HEAD", 117)
        start = time.perf_counter()
        assert run(argv) == (2, "", (
            f"error: pbc_curvature_block oracle at beta=2.0, parameter={10.5 * math.pi} walks "
            "a head of 118 modes, above the 117 allowed\n"))
        assert time.perf_counter() - start < 1.0

    def test_oracle_head_cap_sits_at_two_to_the_25(self):
        # the real cap, with no walk: beta*param/(2 pi) = 2^25/sqrt(2^7) puts the series split
        # at 2^25 + 1, and 9317401.4 (2,965,820.98) two modes past that
        from indexcalc.closed_forms import OperatorSpec, _oracle_head

        assert cli.MAX_ORACLE_HEAD == 1 << 25
        for param, head in ((math.pi * 2**25 / 2**3.5, 1 << 25), (9317401.4, (1 << 25) + 2)):
            spec = OperatorSpec("pbc_curvature_block", 2.0, param)
            assert _oracle_head(spec, 2 * 10**9) == head

    def test_float_overflow_exits_2(self):
        code, out, err = run(
            ["detreg", "--op", "apbc_first_order_shifted", "--beta", "1000", "--param", "10"]
        )
        assert (code, out) == (2, "")
        assert "apbc_first_order_shifted" in err and "beta=1000" in err and "parameter=10" in err
        assert "float range" in err

    def test_oracle_underflow_names_its_mode_count(self):
        # the closed form 7.8e-10 is regular; the oracle's partial product over 10^5 modes
        # underflows, and a longer oracle reaches the closed form
        argv = ["detreg", "--op", "pbc_curvature_block", "--beta", "1", "--param", "62834"]
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert err == (
            "error: pbc_curvature_block oracle over 100000 modes at beta=1.0, "
            "parameter=62834.0 leaves the float range\n"
        )
        code, out, _ = run([*argv, "--oracle-modes", str(10**12), "--format", "json"])
        assert code == 0
        record = json.loads(out)
        assert math.isclose(record["oracle"], record["closed"], rel_tol=1e-3)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--op", "pbc_laplacian", "--beta", "1e-200"],
            ["--op", "pbc_laplacian", "--beta", "1e-160"],
            ["--op", "pbc_curvature_block", "--beta", "1e-170", "--param", "1e-170"],
        ],
    )
    def test_float_underflow_exits_2(self, argv):
        # these printed closed=0 oracle=0, or a subnormal, and exited 0
        code, out, err = run(["detreg", *argv])
        assert (code, out) == (2, "")
        assert argv[1] in err and f"beta={argv[3]}" in err
        assert "leaves the float range" in err

    @pytest.mark.parametrize("kind", ["pbc_curvature_block", "apbc_curvature_block"])
    @pytest.mark.parametrize("param", ["1e17", "1e200"])
    def test_parameter_beyond_float_resolution_exits_2(self, kind, param):
        # parameter**2 overflowed here, and 1e17 was called a zero eigenvalue
        code, out, err = run(["detreg", "--op", kind, "--beta", "1", "--param", param])
        assert (code, out) == (2, "")
        assert kind in err and "beta=1.0" in err and f"parameter {float(param)}" in err
        assert "float resolution" in err and "zero eigenvalue" not in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--op", "apbc_curvature_block", "--beta", "1", "--param", "-1e17"],
             "error: apbc_curvature_block parameter -1e+17 at beta=1.0 is beyond the float "
             "resolution of the singularity test\n"),
            (["--op", "pbc_laplacian", "--beta", "-inf"],
             "error: beta must be finite and positive, got -inf\n"),
        ],
        ids=["param", "beta"],
    )
    def test_negative_value_in_exponent_form_is_the_options_value(self, argv, message):
        # argparse alone reads "-1e17" and "-inf" as unknown options: "expected one argument"
        code, out, err = run(["detreg", *argv])
        assert (code, out, err) == (2, "", message)

    def test_negative_decimal_parameter_still_works(self):
        argv = ["detreg", "--op", "apbc_curvature_block", "--beta", "1"]
        code, out, err = run([*argv, "--param", "-0.5"])
        assert (code, err) == (0, "") and out.startswith("closed=")
        assert run([*argv, "--param=-0.5"]) == (code, out, err)

    def test_parameter_square_overflow_with_tiny_beta(self):
        # beta*w/2 = 5e-101: both the closed form and the partial product are 2
        code, out, _ = run(
            ["detreg", "--op", "apbc_first_order_shifted", "--beta", "1e-300", "--param", "1e200"]
        )
        assert (code, out.splitlines()) == (0, ["closed=2", "oracle=2", "delta=0"])

    @pytest.mark.parametrize(
        "beta, param, printed",
        [("1", "5e-324", "1"), ("1e-20", "1e-305", "1e-40")],
        ids=["y-over-2-zero", "beta-y-over-2-zero"],
    )
    def test_pbc_block_below_the_smallest_normal(self, beta, param, printed):
        # y/2 or beta*y/2 underflows to 0: this read "float division by zero", or refused
        # beta^2 = 1e-40 as leaving the float range
        code, out, err = run(["detreg", "--op", "pbc_curvature_block", "--beta", beta,
                              "--param", param])
        assert (code, err) == (0, "")
        assert out.splitlines() == [f"closed={printed}", f"oracle={printed}", "delta=0"]

    def test_unknown_op_exits_2(self):
        code, out, err = run(["detreg", "--op", "nope", "--beta", "1"])
        assert (code, out) == (2, "")
        assert "'nope'" in err and "pbc_laplacian" in err


class TestCliFermionChecks:
    def test_table(self):
        code, out, _ = run(["fermion-checks", "--max-n", "5"])
        assert code == 0
        assert out.count("PASS") >= 20
        assert "all passed" in out

    def test_json(self):
        code, out, _ = run(["fermion-checks", "--max-n", "2", "--format", "json"])
        doc = json.loads(out)
        assert code == 0 and doc["passed"] is True
        assert [r["n"] for r in doc["rows"]] == [1, 2]


    def test_default_max_n_is_max_half_dim(self):
        code, out, _ = run(["fermion-checks", "--format", "json"])
        assert code == 0
        assert [r["n"] for r in json.loads(out)["rows"]] == list(range(1, MAX_HALF_DIM + 1))

    @pytest.mark.parametrize("max_n", [0, MAX_HALF_DIM + 1])
    def test_max_n_out_of_range_exits_2_naming_value(self, max_n):
        code, out, err = run(["fermion-checks", "--max-n", str(max_n)])
        assert (code, out) == (2, "")
        assert f"--max-n must be between 1 and {MAX_HALF_DIM}, got {max_n}" in err


class TestCliVerify:
    def test_quick_verify_passes(self):
        code, out, _ = run(["verify"])
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_all_is_kept_and_runs_the_same_suite(self, fmt):
        def masked(argv):
            code, out, err = run([*argv, "--format", fmt])
            return code, re.sub(r"\b\d+\.\d+ s\b", "<runtime> s", out), err

        assert masked(["verify", "--all"]) == masked(["verify"])

    def test_json_structure(self):
        code, out, _ = run(["verify", "--format", "json"])
        doc = json.loads(out)
        assert code == 0
        assert doc["passed"] is True
        assert doc["n_fail"] == 0
        assert {"name", "expected", "computed", "status"} <= set(doc["checks"][0])

    def test_every_runtime_row_reads_above_zero(self):
        # determinant-closed-forms takes microseconds: three decimals printed it as 0.000 s
        code, out, _ = run(["verify", "--format", "json"])
        rows = [c["computed"] for c in json.loads(out)["checks"] if c["name"].endswith(": runtime")]
        assert code == 0 and len(rows) == 6
        for computed in rows:
            value, unit = computed.split()
            assert unit == "s" and float(value) > 0.0, computed

    def test_gamma_checks_as_strong_as_fermion_checks(self):
        code, out, _ = run(["verify", "--format", "json"])
        status = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
        for n in range(1, 6):
            assert status[f"gamma^a hermitian (n={n})"] is True
            assert status[f"gamma_(2n+1)^2 = 1, anticommutes with gamma^a (n={n})"] is True

    def test_genus_coefficient_rows(self):
        code, out, _ = run(["verify", "--format", "json"])
        rows = [
            (c["name"], c["expected"], c["computed"])
            for c in json.loads(out)["checks"]
            if c["name"].split(" = ")[0] in {"L_1", "L_2", "A_1", "A_2", "Td_2", "Td_3"}
        ]
        assert code == 0
        assert rows == [
            ("L_1 = p1/3", "1/3", "1/3"),
            ("L_2 = (7 p2 - p1^2)/45", "7/45, -1/45", "7/45, -1/45"),
            ("A_1 = -p1/24", "-1/24", "-1/24"),
            ("A_2 = (7 p1^2 - 4 p2)/5760", "7/5760, -1/1440", "7/5760, -1/1440"),
            ("Td_2 = (c1^2 + c2)/12", "1/12, 1/12", "1/12, 1/12"),
            ("Td_3 = c1 c2 / 24", "1/24", "1/24"),
        ]

    def test_genus_row_shows_a_missing_and_an_extra_term(self, monkeypatch):
        # a frozen expansion that names (1, 1) and leaves out (2, 0): the computed value
        # shows 0 for the first and the coefficient of the second, and the row fails
        from fractions import Fraction

        frozen = {(0, 1): Fraction(7, 45), (1, 1): Fraction(1, 2)}
        row = ("L_2 with a wrong term", verification.l_class, 2, 8, frozen)
        monkeypatch.setattr(verification, "_GENUS_ROWS", (row,))
        report = verification.VerifyReport()
        verification._check_genus_coefficients(report)
        assert report.checks == [
            verification.VerifyCheck(row[0], "7/45, 1/2", "7/45, 0, -1/45 at (2, 0)", False)
        ]

    def test_catalog_override_failure_exits_1(self, tmp_path, monkeypatch):
        entry = catalog_entry("k3")
        wrong = CatalogEntry(
            manifold=entry.manifold,
            bundles=entry.bundles,
            expected={**entry.expected, "euler": 25},
        )
        save_descriptor(wrong, tmp_path / "k3.json")
        monkeypatch.setenv(CATALOG_DIR_ENV, str(tmp_path))
        code, out, _ = run(["verify"])
        assert code == 1
        assert "FAIL" in out

    def test_non_integer_catalog_index_is_a_failing_row(self, tmp_path, monkeypatch):
        # cp2 is not spin: its spin index is the non-integer -1/8
        entry = catalog_entry("cp2")
        m = entry.manifold
        renamed = ManifoldDescriptor(
            name="cp2b", real_dim=m.real_dim, kind=m.kind, generators=m.generators,
            evaluation=m.evaluation, tangent_class=m.tangent_class, euler_class=m.euler_class,
        )
        save_descriptor(
            CatalogEntry(renamed, entry.bundles, {**entry.expected, "spin": 0}),
            tmp_path / "cp2b.json",
        )
        monkeypatch.setenv(CATALOG_DIR_ENV, str(tmp_path))
        code, out, err = run(["verify"])
        assert (code, err) == (1, "")
        rows = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert rows == ["FAIL  catalog cp2b: spin  expected=0  computed=non-integer -1/8"]
        code, out, _ = run(["verify", "--format", "json"])
        assert (code, json.loads(out)["n_fail"]) == (1, 1)

    def test_non_integer_index_computed_once_per_run(self, tmp_path, monkeypatch):
        # k3 with c2 evaluating to 20: its signature, dolbeault and spin come out
        # non-integer, and the frozen rows and the catalog sweep both ask for them
        entry = catalog_entry("k3")
        m = entry.manifold
        wrong = ManifoldDescriptor(
            name=m.name, real_dim=m.real_dim, kind=m.kind, generators=m.generators,
            evaluation={(1,): 20}, tangent_class=m.tangent_class, euler_class=m.euler_class,
        )
        save_descriptor(CatalogEntry(wrong, entry.bundles, entry.expected), tmp_path / "k3.json")
        monkeypatch.setenv(CATALOG_DIR_ENV, str(tmp_path))
        calls = []

        def counted(manifold, kind, bundle=None):
            calls.append((manifold.name, kind, bundle))
            return compute_index(manifold, kind, bundle)

        monkeypatch.setattr(catalog, "compute_index", counted)
        code, out, _ = run(["verify"])
        assert code == 1
        assert "computed=non-integer" in out
        assert len(calls) == len(set(calls))

    def test_beta_rows_read_the_wrapped_function(self, monkeypatch):
        # a decorator that keeps __wrapped__, as the benchmark's tracer does, hides the
        # parameters behind (*args, **kwargs): the rows read the function at the end of
        # the chain, where a beta parameter, positional or keyword-only, fails its row
        def wrapped(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return fn(*args, **kwargs)

            return wrapper

        def spin_index(manifold, bundle=None, beta=1.0):
            raise AssertionError("verify called the index function")

        def de_rham_euler(manifold, *, beta):
            raise AssertionError("verify called the index function")

        functions = engine.INDEX_FUNCTIONS
        monkeypatch.setitem(functions, "signature", wrapped(wrapped(functions["signature"])))
        monkeypatch.setitem(functions, "spin", wrapped(spin_index))
        monkeypatch.setitem(functions, "euler", wrapped(wrapped(de_rham_euler)))
        report = verification.VerifyReport()
        verification._check_beta_independence(report)
        rows = {check.name: check.status for check in report.checks}
        assert rows == {
            "fermion_partition(0, beta=0.1)": True,
            "fermion_partition(0, beta=1)": True,
            "fermion_partition(0, beta=10)": True,
            "signature_index has no beta parameter": True,
            "dolbeault_index has no beta parameter": True,
            "spin_index has no beta parameter": False,
            "de_rham_euler has no beta parameter": False,
        }

    def test_bad_catalog_dir_refused_before_any_criterion(self, tmp_path, monkeypatch):
        def unreachable(report):
            raise AssertionError("a criterion ran before the catalog was read")

        monkeypatch.setattr(verification, "_check_determinants", unreachable)
        missing = tmp_path / "missing"
        monkeypatch.setenv(CATALOG_DIR_ENV, str(missing))
        assert run(["verify"]) == (2, "", f"error: {CATALOG_DIR_ENV}={missing} is not a directory\n")


_BAD_KEY_MESSAGES = {  # bad expected key -> what the refusal says about it
    "dolbeault:O(9)": "names no bundle of the descriptor; available: O(-1), O(-2), O(0), O(1)",
    "hodge": "names no complex; expected one of signature, dolbeault, spin, euler",
    "signature:O(1)":
        "twists the signature complex, which takes no bundle; twistable: dolbeault, spin",
    "euler:O(1)": "twists the euler complex, which takes no bundle; twistable: dolbeault, spin",
}


class TestCatalogDirExpectedKeys:
    """A catalog-dir descriptor whose expected key names no complex or bundle, or twists
    a complex that takes no bundle."""

    @pytest.fixture(params=list(_BAD_KEY_MESSAGES))
    def bad_key(self, request, tmp_path, monkeypatch):
        entry = catalog_entry("cp1")
        save_descriptor(
            CatalogEntry(entry.manifold, entry.bundles, {**entry.expected, request.param: 1}),
            tmp_path / "cp1.json",
        )
        monkeypatch.setenv(CATALOG_DIR_ENV, str(tmp_path))
        return request.param

    @pytest.mark.parametrize(
        "argv", [["verify"], ["index", "--manifold", "k3", "--complex", "spin"]]
    )
    def test_exits_2_naming_file_and_key(self, bad_key, argv):
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert "cp1.json" in err and repr(bad_key) in err
        assert _BAD_KEY_MESSAGES[bad_key] in err

    def test_verify_on_a_cp1_without_bundles_exits_2(self, tmp_path, monkeypatch):
        # verify's frozen dolbeault:O(k) checks on cp1 name bundles this override lacks
        entry = catalog_entry("cp1")
        untwisted = {key: value for key, value in entry.expected.items() if ":" not in key}
        save_descriptor(CatalogEntry(entry.manifold, {}, untwisted), tmp_path / "cp1.json")
        monkeypatch.setenv(CATALOG_DIR_ENV, str(tmp_path))
        assert run(["verify"]) == (2, "", "error: cp1: no bundle named 'O(-2)'; available: none\n")


class TestCatalogDirMustBeADirectory:
    """INDEXCALC_CATALOG_DIR naming a missing path or a regular file is refused."""

    @pytest.fixture(params=["missing", "file"])
    def bad_dir(self, request, tmp_path, monkeypatch):
        path = tmp_path / "catalog"
        if request.param == "file":
            path.write_text("{}")
        monkeypatch.setenv(CATALOG_DIR_ENV, str(path))
        return path

    @pytest.mark.parametrize(
        "argv", [["verify"], ["index", "--manifold", "k3", "--complex", "spin"]]
    )
    def test_exits_2_naming_variable_and_path(self, bad_dir, argv):
        assert run(argv) == (2, "", f"error: {CATALOG_DIR_ENV}={bad_dir} is not a directory\n")

    def test_empty_value_means_unset(self, monkeypatch):
        monkeypatch.setenv(CATALOG_DIR_ENV, "")
        assert run(["index", "--manifold", "k3", "--complex", "spin"]) == (0, "2\n", "")


@pytest.mark.parametrize("argv", [["verify"], ["index", "--manifold", "k3", "--complex", "spin"]])
def test_two_catalog_dir_files_naming_one_manifold_exit_2(argv, tmp_path, monkeypatch):
    # the later file silently replaced the earlier, whose expectations verify never read
    entry = catalog_entry("cp2")
    save_descriptor(entry, tmp_path / "a.json")
    save_descriptor(CatalogEntry(entry.manifold, entry.bundles, {"signature": 1}),
                    tmp_path / "b.json")
    monkeypatch.setenv(CATALOG_DIR_ENV, str(tmp_path))
    message = f"{tmp_path / 'a.json'} and {tmp_path / 'b.json'} both describe manifold 'cp2'"
    assert run(argv) == (2, "", f"error: {message}\n")


class TestCliMisc:
    def test_usage_error(self):
        code, _, _ = run([])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["genus", "--kind", "L", "--half-dim", "2"],  # fails in the flush at exit
        ["genus", "--kind", "Todd", "--half-dim", "11", "--format", "json"],  # past the buffer
    ])
    def test_closed_stdout_exits_1_without_traceback(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-B", "-c", "from indexcalc.cli import main; main()", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env={"PYTHONPATH": str(SRC)}, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")

    def test_version(self):
        code, _, _ = run(["--version"])
        assert code == 0

    def test_argparse_output_goes_to_the_given_streams(self, capsys):
        code, out, err = run(["genus", "--kind", "X", "--half-dim", "1"])
        assert (code, out) == (2, "")
        assert err.startswith("usage: indexcalc genus") and "invalid choice: 'X'" in err
        assert run(["--version"]) == (0, "indexcalc 0.1.0\n", "")
        code, out, err = run(["detreg", "--help"])
        assert (code, err) == (0, "") and out.startswith("usage: indexcalc detreg")
        assert capsys.readouterr() == ("", "")


def run_main(argv, env=None):
    """``argv`` through cli.main() in a fresh interpreter, as the console script runs it."""
    proc = subprocess.run(
        [sys.executable, "-B", "-c", "from indexcalc.cli import main; main()", *argv],
        env={"PYTHONPATH": str(SRC), "PYTHONIOENCODING": "utf-8", **(env or {})},
        capture_output=True, encoding="utf-8", timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _mask_runtimes(text):
    return re.sub(r"computed=[0-9.]+ s", "computed=<runtime> s", text)


class TestMainProcess:
    """main() turns garbage collection off for its one command and freezes the heap before it
    exits; its output and exit code stay those of run_cli."""

    @pytest.mark.parametrize("argv", [
        ["index", "--manifold", "k3", "--complex", "spin"],
        ["genus", "--kind", "Todd", "--half-dim", "3", "--format", "json"],
        ["index", "--manifold", "nosuchmanifold", "--complex", "euler"],
        ["detreg", "--op", "pbc_laplacian", "--beta", "1", "--oracle-modes", "0"],
        ["--version"],
    ])
    def test_output_and_exit_code_of_run_cli(self, argv):
        assert run_main(argv) == run(argv)

    def test_usage_error_exits_2(self, monkeypatch):
        argv = ["genus", "--kind", "X", "--half-dim", "1"]
        code, out, err = run_main(argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: indexcalc genus") and "invalid choice: 'X'" in err
        # the child's stderr is a pipe, so argparse wraps its usage at the default 80 columns
        monkeypatch.setenv("COLUMNS", "80")
        assert run(argv) == (code, out, err)

    def test_failing_verify_exits_1(self, tmp_path, monkeypatch):
        entry = catalog_entry("k3")
        wrong = CatalogEntry(entry.manifold, entry.bundles, {**entry.expected, "euler": 25})
        save_descriptor(wrong, tmp_path / "k3.json")
        code, out, err = run_main(["verify"], {CATALOG_DIR_ENV: str(tmp_path)})
        assert "FAIL  catalog k3: euler  expected=25  computed=24" in out.splitlines()
        monkeypatch.setenv(CATALOG_DIR_ENV, str(tmp_path))
        in_process = run(["verify"])
        assert (code, _mask_runtimes(out), err) == (
            in_process[0], _mask_runtimes(in_process[1]), in_process[2]
        )
        assert code == 1

    def test_collector_off_for_the_command_and_frozen_at_exit(self):
        child = (
            "import gc, sys\n"
            "from indexcalc.cli import main, run_cli\n"
            "run_cli(['index', '--manifold', 'cp2', '--complex', 'euler'])\n"
            "print(gc.isenabled(), gc.get_freeze_count())\n"
            "sys.argv = ['indexcalc', 'index', '--manifold', 'k3', '--complex', 'spin']\n"
            "try:\n"
            "    main()\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, gc.isenabled(), gc.get_freeze_count() > 0)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-B", "-c", child], env={"PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=60,
        )
        assert (proc.stdout, proc.stderr) == ("3\nTrue 0\n2\n0 False True\n", "")
