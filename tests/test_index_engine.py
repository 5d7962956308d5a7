"""Index evaluation on catalog descriptors and hand-built ones."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest

from indexcalc import exact_algebra
from indexcalc.catalog import _cp, builtin_catalog, catalog_entry
from indexcalc.exact_algebra import GradedPolynomial
from indexcalc.genera import a_hat_class, chern_character, l_class, todd_class
from indexcalc.index_engine import (
    BundleDescriptor,
    DescriptorError,
    InconsistentIndexError,
    INDEX_FUNCTIONS,
    ManifoldDescriptor,
    compute_index,
    de_rham_euler,
    dolbeault_index,
    evaluate,
    signature_index,
    spin_index,
)


def manifold(name):
    return catalog_entry(name).manifold


class TestEvaluate:
    def test_cp2_lookup(self):
        cp2 = manifold("cp2")
        poly = GradedPolynomial(cp2.generators, 4, {(2,): 3})
        assert evaluate(poly, cp2) == 3

    def test_degree_zero_gives_zero(self):
        cp2 = manifold("cp2")
        one = GradedPolynomial.constant(cp2.generators, 4, Fraction(1))
        assert evaluate(one, cp2) == 0

    def test_k3_p1(self):
        k3 = manifold("k3")
        p1 = GradedPolynomial(k3.generators, 4, {(1,): -2})  # p1 = -2 c2
        assert evaluate(p1, k3) == -48

    def test_missing_monomial_named(self):
        cp2 = manifold("cp2")
        stripped = ManifoldDescriptor(
            name="bad",
            real_dim=4,
            kind="complex",
            generators=cp2.generators,
            evaluation={},
            tangent_class=cp2.tangent_class,
        )
        poly = GradedPolynomial(cp2.generators, 4, {(2,): 1})
        with pytest.raises(DescriptorError, match="h\\^2"):
            evaluate(poly, stripped)

    def test_linearity(self):
        cp2 = manifold("cp2")
        p = GradedPolynomial(cp2.generators, 4, {(2,): 5, (1,): 7})
        q = GradedPolynomial(cp2.generators, 4, {(2,): -2})
        a, b = Fraction(3), Fraction(-1, 2)
        assert evaluate(a * p + b * q, cp2) == a * evaluate(p, cp2) + b * evaluate(q, cp2)

    def test_basis_mismatch(self):
        cp2 = manifold("cp2")
        alien = GradedPolynomial((("z", 2),), 4, {(2,): 1})
        with pytest.raises(DescriptorError):
            evaluate(alien, cp2)


class TestSignature:
    def test_cp2(self):
        assert signature_index(manifold("cp2")).integer_value == 1

    def test_k3(self):
        assert signature_index(manifold("k3")).integer_value == -16

    def test_mod4_vanishing(self):
        for entry in builtin_catalog():
            if entry.manifold.real_dim % 4 == 2:
                assert signature_index(entry.manifold).value == 0

    def test_product_multiplicativity(self):
        assert signature_index(manifold("cp2xcp2")).integer_value == 1
        assert signature_index(manifold("cp1xcp1")).integer_value == 0

    def test_oriented_real_descriptor(self):
        assert signature_index(manifold("s4")).integer_value == 0

    def test_density_recorded(self):
        report = signature_index(manifold("cp2"))
        # L_1 = p1/3 = h^2 on CP^2
        assert report.density.degree_part(4).terms == {(2,): Fraction(1)}


class TestDolbeault:
    def test_cp1_trivial(self):
        assert dolbeault_index(manifold("cp1")).integer_value == 1

    @pytest.mark.parametrize("k", range(-2, 4))
    def test_cp1_line_bundles(self, k):
        entry = catalog_entry("cp1")
        report = dolbeault_index(entry.manifold, entry.bundles[f"O({k})"])
        assert report.integer_value == k + 1

    def test_cp2_cp3_k3(self):
        assert dolbeault_index(manifold("cp2")).integer_value == 1
        assert dolbeault_index(manifold("cp3")).integer_value == 1
        assert dolbeault_index(manifold("k3")).integer_value == 2

    def test_needs_complex(self):
        with pytest.raises(DescriptorError):
            dolbeault_index(manifold("s4"))

    def test_trivial_bundle_rank_scales(self):
        cp1 = manifold("cp1")
        r3 = dolbeault_index(cp1, BundleDescriptor.trivial(cp1, rank=3))
        assert r3.integer_value == 3 * dolbeault_index(cp1).integer_value


class TestSpin:
    def test_k3(self):
        assert spin_index(manifold("k3")).integer_value == 2

    def test_flat_torus(self):
        assert spin_index(manifold("t4")).integer_value == 0

    def test_s4(self):
        assert spin_index(manifold("s4")).integer_value == 0

    def test_non_spin_flagged(self):
        with pytest.raises(InconsistentIndexError) as info:
            spin_index(manifold("cp2"))
        assert info.value.value == Fraction(-1, 8)

    def test_twisting_degeneration(self):
        # a trivial rank-1 twist changes nothing
        k3 = manifold("k3")
        plain = spin_index(k3)
        twisted = spin_index(k3, BundleDescriptor.trivial(k3))
        assert plain.value == twisted.value
        assert plain.density == twisted.density

    def test_twisted_kind_label(self):
        entry = catalog_entry("cp1")
        report = spin_index(entry.manifold, entry.bundles["O(2)"])
        assert report.complex_kind == "spin_twisted"


class TestEuler:
    def test_catalog_values(self):
        assert de_rham_euler(manifold("cp1")).integer_value == 2
        assert de_rham_euler(manifold("cp2")).integer_value == 3
        assert de_rham_euler(manifold("k3")).integer_value == 24
        assert de_rham_euler(manifold("t4")).integer_value == 0

    def test_oriented_real_without_euler_data(self):
        with pytest.raises(DescriptorError):
            de_rham_euler(manifold("s4"))

    def test_oriented_real_with_euler_data(self):
        s4 = manifold("s4")
        euler = GradedPolynomial(s4.generators, 4, {(1,): 2})  # e(S^4) = 2 * unit
        with_euler = ManifoldDescriptor(
            name="s4e",
            real_dim=4,
            kind="oriented_real",
            generators=s4.generators,
            evaluation={(1,): 1},
            tangent_class=s4.tangent_class,
            euler_class=euler,
        )
        assert de_rham_euler(with_euler).integer_value == 2


class TestDescriptorValidation:
    def test_odd_generator_degree(self):
        with pytest.raises(DescriptorError):
            ManifoldDescriptor(
                name="bad",
                real_dim=4,
                kind="complex",
                generators=(("g", 3),),
                evaluation={},
                tangent_class=GradedPolynomial((("g", 4),), 4, {(0,): 1}),
            )

    def test_odd_dimension(self):
        with pytest.raises(DescriptorError):
            ManifoldDescriptor(
                name="bad",
                real_dim=3,
                kind="oriented_real",
                generators=(),
                evaluation={},
                tangent_class=GradedPolynomial((), 4, {(): 1}),
            )

    def test_wrong_evaluation_degree(self):
        gens = (("h", 2),)
        with pytest.raises(DescriptorError):
            ManifoldDescriptor(
                name="bad",
                real_dim=4,
                kind="complex",
                generators=gens,
                evaluation={(1,): 1},  # degree 2, not top
                tangent_class=GradedPolynomial(gens, 4, {(0,): 1}),
            )

    def test_tangent_unit_term(self):
        gens = (("h", 2),)
        with pytest.raises(DescriptorError):
            ManifoldDescriptor(
                name="bad",
                real_dim=4,
                kind="complex",
                generators=gens,
                evaluation={(2,): 1},
                tangent_class=GradedPolynomial(gens, 4, {(1,): 3}),
            )

    def test_bundle_rank(self):
        cp1 = manifold("cp1")
        with pytest.raises(DescriptorError):
            BundleDescriptor(rank=-1, total_chern=cp1.one())

    @pytest.mark.parametrize("rank,degree", [(0, 2), (1, 4), (1, 8), (2, 6)])
    def test_chern_class_above_rank(self, rank, degree):
        gens = (("h", 2),)
        total = GradedPolynomial(gens, 8, {(0,): 1, (degree // 2,): 5})
        with pytest.raises(DescriptorError) as info:
            BundleDescriptor(rank=rank, total_chern=total)
        assert f"rank-{rank} bundle" in str(info.value)
        assert f"its c_{degree // 2} = 5·h" in str(info.value)

    def test_chern_classes_up_to_rank(self):
        gens = (("h", 2),)
        total = GradedPolynomial(gens, 8, {(0,): 1, (1,): 2, (2,): 3})
        assert BundleDescriptor(rank=2, total_chern=total).rank == 2

    @pytest.mark.parametrize("name", ["", "a^b", "a·b", "a b", "a\tb", "b\n"])
    def test_generator_name_grammar(self, name):
        gens = ((name, 2),)
        with pytest.raises(DescriptorError) as info:
            ManifoldDescriptor(
                name="bad",
                real_dim=2,
                kind="complex",
                generators=gens,
                evaluation={(1,): 1},
                tangent_class=GradedPolynomial(gens, 2, {(0,): 1}),
            )
        assert f"generator name {name!r}" in str(info.value)


class TestCatalogIntegrality:
    def test_every_recorded_index_is_integral(self):
        for entry in builtin_catalog():
            for key, expected in entry.expected.items():
                kind, _, bundle = key.partition(":")
                twist = entry.bundles[bundle] if bundle else None
                report = compute_index(entry.manifold, kind, twist)
                assert report.value.denominator == 1, (entry.name, key)
                assert report.integer_value == expected, (entry.name, key)


class TestIndexRegistry:
    DIRECT = {
        "signature": signature_index,
        "dolbeault": dolbeault_index,
        "spin": spin_index,
        "euler": de_rham_euler,
    }

    def test_one_set_of_complex_names(self):
        import argparse

        from indexcalc.cli import build_parser

        sub = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        complex_arg = next(a for a in sub.choices["index"]._actions if a.dest == "complex_kind")
        expected_kinds = {
            key.partition(":")[0] for entry in builtin_catalog() for key in entry.expected
        }
        assert set(complex_arg.choices) == set(INDEX_FUNCTIONS) == expected_kinds
        assert set(INDEX_FUNCTIONS) == set(self.DIRECT)

    @staticmethod
    def _outcome(fn, *args):
        try:
            return fn(*args)
        except (DescriptorError, InconsistentIndexError) as exc:
            return type(exc), str(exc)

    def test_compute_index_matches_engine_functions(self):
        for entry in builtin_catalog():
            for kind, direct in self.DIRECT.items():
                want = self._outcome(direct, entry.manifold)
                assert self._outcome(compute_index, entry.manifold, kind) == want, (entry.name, kind)
                if kind not in ("dolbeault", "spin"):
                    continue
                for name, bundle in entry.bundles.items():
                    want = self._outcome(direct, entry.manifold, bundle)
                    got = self._outcome(compute_index, entry.manifold, kind, bundle)
                    assert got == want, (entry.name, kind, name)

    def test_unknown_complex(self):
        with pytest.raises(DescriptorError, match="unknown complex 'de_rham'"):
            compute_index(manifold("cp1"), "de_rham")


def _cp2_cp3() -> ManifoldDescriptor:
    gens = (("a", 2), ("b", 2))
    # (1+a)^3 (1+b)^4 with a^3 = b^4 = 0; a^2 b^3 is the only nonzero top monomial
    tangent = {(i, j): comb(3, i) * comb(4, j) for i in range(3) for j in range(4)}
    return ManifoldDescriptor(
        name="cp2xcp3",
        real_dim=10,
        kind="complex",
        generators=gens,
        evaluation={(i, 5 - i): int(i == 2) for i in range(6)},
        tangent_class=GradedPolynomial(gens, 10, tangent),
    )


def _line_bundle(manifold: ManifoldDescriptor, c1: dict) -> BundleDescriptor:
    zero = (0,) * len(manifold.generators)
    total = GradedPolynomial(manifold.generators, manifold.real_dim, {zero: 1, **c1})
    return BundleDescriptor(1, total)


def _density_cases():
    """(label, manifold, bundle or None): every built-in entry and bundle,
    CP^n for n <= 10 with two line bundles, and CP^2 x CP^3 with one."""
    cases = []
    for entry in builtin_catalog():
        cases.append((entry.name, entry.manifold, None))
        cases += [(f"{entry.name}:{name}", entry.manifold, bundle)
                  for name, bundle in sorted(entry.bundles.items())]
    for n in range(1, 11):
        m = _cp(n)
        cases += [(f"cp{n}", m, None), (f"cp{n}:O(1)", m, _line_bundle(m, {(1,): 1})),
                  (f"cp{n}:O(-2)", m, _line_bundle(m, {(1,): -2}))]
    m = _cp2_cp3()
    cases += [("cp2xcp3", m, None),
              ("cp2xcp3:O(1,-1)", m, _line_bundle(m, {(1, 0): 1, (0, 1): -1}))]
    return cases


DENSITY_CASES = _density_cases()
CASE_IDS = [label for label, _, _ in DENSITY_CASES]


class TestDensityAgainstSubstitution:
    """The densities built in the manifold's ring equal the reference route:
    the formal genus X_class(k) with the manifold's classes substituted."""

    @staticmethod
    def substituted(genus_class, prefix, parts, manifold):
        if not parts:
            return manifold.one()
        genus = genus_class(len(parts)).polynomial
        return genus.substitute({f"{prefix}{k + 1}": part for k, part in enumerate(parts)})

    @pytest.mark.parametrize("label,m,bundle", DENSITY_CASES, ids=CASE_IDS)
    def test_density_equals_substituted_genus(self, label, m, bundle):
        twist = bundle or BundleDescriptor.trivial(m)
        ch = chern_character(twist.rank, twist.chern_parts(m.real_dim)).polynomial
        if bundle is None:
            want = self.substituted(l_class, "p", m.pontryagin_parts(), m)
            assert signature_index(m).density == want
        if m.kind == "complex":
            want = self.substituted(todd_class, "c", m.chern_parts(), m) * ch
            assert dolbeault_index(m, bundle).density == want
        want = self.substituted(a_hat_class, "p", m.pontryagin_parts(), m) * ch
        try:
            assert spin_index(m, bundle).density == want
        except InconsistentIndexError as exc:
            # a non-spin descriptor: the reference density gives the same non-integer
            assert exc.value == evaluate(want, m) and exc.value.denominator != 1

    def test_index_path_never_substitutes(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the index path must not substitute or reduce roots")

        monkeypatch.setattr(GradedPolynomial, "substitute", refuse)
        monkeypatch.setattr(exact_algebra, "symmetric_reduce", refuse)
        for label, m, bundle in DENSITY_CASES:
            for kind in INDEX_FUNCTIONS:
                if bundle is not None and kind not in ("dolbeault", "spin"):
                    continue
                try:
                    compute_index(m, kind, bundle)
                except (DescriptorError, InconsistentIndexError):
                    pass  # a refused complex, such as spin on cp2 or dolbeault on s4
