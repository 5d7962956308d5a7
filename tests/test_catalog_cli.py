"""Descriptor file format, catalog lookup, and CLI surface tests."""

from __future__ import annotations

import io
import json
import tempfile
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indexcalc.catalog import (
    CATALOG_DIR_ENV,
    CatalogEntry,
    available_names,
    builtin_catalog,
    catalog_entry,
    load_descriptor,
    resolve_manifold,
    save_descriptor,
)
from indexcalc.cli import run_cli
from indexcalc.exact_algebra import GradedPolynomial
from indexcalc.index_engine import (
    INDEX_FUNCTIONS,
    BundleDescriptor,
    DescriptorError,
    ManifoldDescriptor,
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestCatalog:
    def test_required_entries_present(self):
        names = set(available_names())
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

    def test_resolve_path_or_name(self, tmp_path):
        path = tmp_path / "cp2.json"
        save_descriptor(catalog_entry("cp2"), path)
        assert resolve_manifold(str(path)).name == "cp2"
        assert resolve_manifold("cp2").name == "cp2"


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
    )
    bundles = {}
    for bname in draw(st.lists(st.sampled_from(["O(1)", "E", "V_2", "L(-3)"]), unique=True)):
        rank = draw(st.integers(0, 3))
        bundles[bname] = BundleDescriptor(rank=rank, total_chern=poly(2 * rank, 1))
    keys = [*INDEX_FUNCTIONS, *(f"{c}:{b}" for c in ("dolbeault", "spin") for b in bundles)]
    expected = draw(st.dictionaries(st.sampled_from(keys), st.integers(-99, 99)))
    return CatalogEntry(manifold=manifold, bundles=bundles, expected=expected)


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
        import math

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

    @pytest.mark.parametrize("modes", ["0", "-3"])
    def test_oracle_modes_below_one_exits_2(self, modes):
        code, out, err = run(["detreg", "--op", "pbc_laplacian", "--beta", "1",
                              "--oracle-modes", modes])
        assert (code, out) == (2, "")
        assert f"--oracle-modes must be at least 1, got {modes}" in err

    def test_float_overflow_exits_2(self):
        code, out, err = run(
            ["detreg", "--op", "apbc_first_order_shifted", "--beta", "1000", "--param", "10"]
        )
        assert (code, out) == (2, "")
        assert "apbc_first_order_shifted" in err and "beta=1000" in err and "parameter=10" in err
        assert "float range" in err

    @pytest.mark.parametrize("kind", ["pbc_curvature_block", "apbc_curvature_block"])
    @pytest.mark.parametrize("param", ["1e17", "1e200"])
    def test_parameter_beyond_float_resolution_exits_2(self, kind, param):
        # parameter**2 overflowed here, and 1e17 was called a zero eigenvalue
        code, out, err = run(["detreg", "--op", kind, "--beta", "1", "--param", param])
        assert (code, out) == (2, "")
        assert kind in err and "beta=1.0" in err and f"parameter {float(param)}" in err
        assert "float resolution" in err and "zero eigenvalue" not in err

    def test_parameter_square_overflow_with_tiny_beta(self):
        # beta*w/2 = 5e-101: both the closed form and the partial product are 2
        code, out, _ = run(
            ["detreg", "--op", "apbc_first_order_shifted", "--beta", "1e-300", "--param", "1e200"]
        )
        assert (code, out.splitlines()) == (0, ["closed=2", "oracle=2", "delta=0"])

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


class TestCliVerify:
    def test_quick_verify_passes(self):
        code, out, _ = run(["verify"])
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_json_structure(self):
        code, out, _ = run(["verify", "--format", "json"])
        doc = json.loads(out)
        assert code == 0
        assert doc["passed"] is True
        assert doc["n_fail"] == 0
        assert {"name", "expected", "computed", "status"} <= set(doc["checks"][0])

    def test_gamma_checks_as_strong_as_fermion_checks(self):
        code, out, _ = run(["verify", "--format", "json"])
        status = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
        for n in range(1, 6):
            assert status[f"gamma^a hermitian (n={n})"] is True
            assert status[f"gamma_(2n+1)^2 = 1, anticommutes with gamma^a (n={n})"] is True

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


class TestCatalogDirExpectedKeys:
    """A catalog-dir descriptor whose expected key names no complex or bundle."""

    @pytest.fixture(params=["dolbeault:O(9)", "hodge"])
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
        assert ("no bundle" if ":" in bad_key else "no complex") in err


class TestCliMisc:
    def test_usage_error(self):
        code, _, _ = run([])
        assert code == 2

    def test_version(self):
        code, _, _ = run(["--version"])
        assert code == 0
