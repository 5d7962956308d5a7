"""Index evaluation on catalog descriptors and hand-built ones."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial, prod

import pytest

from indexcalc import exact_algebra, index_engine
from indexcalc.catalog import _line_bundle, _projective_product, builtin_catalog, catalog_entry
from indexcalc.exact_algebra import GradedPolynomial
from indexcalc.genera import a_hat_class, chern_character, l_class, todd_class
from indexcalc.index_engine import (
    BundleDescriptor,
    DescriptorError,
    InconsistentIndexError,
    INDEX_FUNCTIONS,
    TWISTABLE,
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

    @pytest.mark.parametrize("generators,truncation", [((("z", 2),), 4), ((("h", 2),), 2)])
    def test_polynomial_outside_the_ring(self, generators, truncation):
        # truncated at 2, h^2 is gone and the pairing would read 0 in place of 1
        alien = GradedPolynomial(generators, truncation, {(1,): 1})
        with pytest.raises(DescriptorError, match="cp2: the evaluated polynomial must be over"):
            evaluate(alien, manifold("cp2"))


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
        message = "^s4: the Dolbeault complex needs a complex descriptor$"
        with pytest.raises(DescriptorError, match=message):
            dolbeault_index(manifold("s4"))

    def test_trivial_bundle_rank_scales(self):
        cp1 = manifold("cp1")
        r3 = dolbeault_index(cp1, BundleDescriptor(rank=3, total_chern=cp1.one()))
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
        twisted = spin_index(k3, BundleDescriptor(rank=1, total_chern=k3.one()))
        assert plain.value == twisted.value
        assert plain.density == twisted.density
        assert plain.complex_kind == twisted.complex_kind == "spin"

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

    @pytest.mark.parametrize("field", ["tangent_class", "euler_class"])
    @pytest.mark.parametrize(
        "generators,truncation", [((("p1", 4),), 8), ((("q", 4),), 4), ((), 4)]
    )
    def test_classes_outside_the_manifold_ring(self, field, generators, truncation):
        s4 = manifold("s4")
        outside = GradedPolynomial(generators, truncation, {(0,) * len(generators): 1})
        classes = {"tangent_class": s4.tangent_class, "euler_class": None, field: outside}
        with pytest.raises(DescriptorError) as info:
            ManifoldDescriptor(
                name="s4x", real_dim=4, kind="oriented_real", generators=s4.generators,
                evaluation={(1,): 0}, **classes,
            )
        assert str(info.value) == (
            f"s4x: {field} must be over the generators (('p1', 4),) truncated at real_dim 4, "
            f"got {generators} truncated at {truncation}"
        )

    @pytest.mark.parametrize("kind", TWISTABLE)
    @pytest.mark.parametrize("generators,truncation", [((("h", 2),), 8), ((("g", 2),), 2)])
    def test_bundle_outside_the_manifold_ring(self, kind, generators, truncation):
        bundle = BundleDescriptor(1, GradedPolynomial(generators, truncation, {(0,): 1, (1,): 1}))
        with pytest.raises(DescriptorError) as info:
            compute_index(manifold("cp1"), kind, bundle)
        assert str(info.value) == (
            "cp1: bundle total_chern must be over the generators (('h', 2),) truncated at "
            f"real_dim 2, got {generators} truncated at {truncation}"
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

    def test_duplicate_generator_name(self):
        gens = (("h", 2), ("g", 2), ("h", 4))
        with pytest.raises(DescriptorError, match="generator name 'h' appears more than once"):
            ManifoldDescriptor(
                name="bad",
                real_dim=4,
                kind="complex",
                generators=gens,
                evaluation={},
                tangent_class=GradedPolynomial((("h", 2),), 4, {(0,): 1}),
            )


class TestCatalogIntegrality:
    def test_every_recorded_index_is_integral(self):
        for entry in builtin_catalog():
            for key, expected in entry.expected.items():
                kind, _, bundle = key.partition(":")
                twist = entry.bundles[bundle] if bundle else None
                report = compute_index(entry.manifold, kind, twist)
                assert report.value.denominator == 1, (entry.name, key)
                assert report.integer_value == expected, (entry.name, key)


PROJECTIVE_FAMILY = [(("h", n),) for n in range(1, 7)] + [
    (("a", n1), ("b", n2)) for n1 in range(1, 4) for n2 in range(n1, 7 - n1)
]


class TestProjectiveFamily:
    """CP^n for n <= 6 and CP^n1 x CP^n2 with n1 + n2 <= 6 against the
    classical values: sigma(CP^n) = 1 for even n and 0 for odd n, e = n + 1,
    and chi(CP^n, O(k)) = (k+1)...(k+n)/n! (Hirzebruch), all multiplicative."""

    @pytest.mark.parametrize(
        "factors", PROJECTIVE_FAMILY, ids=lambda f: "x".join(f"cp{n}" for _, n in f)
    )
    def test_indices_are_products_over_factors(self, factors):
        m = _projective_product(factors)
        dims = [n for _, n in factors]
        assert signature_index(m).integer_value == prod(int(n % 2 == 0) for n in dims)
        assert de_rham_euler(m).integer_value == prod(n + 1 for n in dims)
        for degrees in product((-2, 1, 3), repeat=len(dims)):
            want = prod(
                prod(range(k + 1, k + n + 1)) // factorial(n) for k, n in zip(degrees, dims)
            )
            assert dolbeault_index(m, _line_bundle(m, degrees)).integer_value == want, degrees


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
                if kind not in TWISTABLE:
                    continue
                for name, bundle in entry.bundles.items():
                    want = self._outcome(direct, entry.manifold, bundle)
                    got = self._outcome(compute_index, entry.manifold, kind, bundle)
                    assert got == want, (entry.name, kind, name)

    def test_unknown_complex(self):
        with pytest.raises(DescriptorError, match="unknown complex 'de_rham'"):
            compute_index(manifold("cp1"), "de_rham")

    def test_twistable_complexes(self):
        assert TWISTABLE == ("dolbeault", "spin")

    def test_untwisted_index_builds_no_chern_character(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an untwisted index needs no Chern character")

        monkeypatch.setattr(index_engine, "chern_character", refuse)
        assert dolbeault_index(manifold("k3")).integer_value == 2
        assert spin_index(manifold("k3")).integer_value == 2
        assert dolbeault_index(manifold("cp3")).integer_value == 1


class TestSpinAsTwistedDolbeault:
    """On CP^(2k+1), K = O(-2k-2) has the square root O(-k-1), and A-hat ch(V) =
    Td ch(V (x) K^(1/2)): the spin densities are Dolbeault densities twisted by O(-k-1)."""

    @pytest.mark.parametrize("k", range(4))
    def test_spin_index_vanishes(self, k):
        # Lichnerowicz/Hitchin: CP^(2k+1) carries positive scalar curvature
        m = _projective_product((("h", 2 * k + 1),))
        assert spin_index(m).integer_value == 0
        assert dolbeault_index(m, _line_bundle(m, (-(k + 1),))).integer_value == 0

    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("j", [-3, 0, 2])
    def test_twisted_spin_density_is_shifted_dolbeault_density(self, k, j):
        m = _projective_product((("h", 2 * k + 1),))
        spin = spin_index(m, _line_bundle(m, (j,)))
        dolbeault = dolbeault_index(m, _line_bundle(m, (j - k - 1,)))
        assert spin.density == dolbeault.density


def _density_cases():
    """(label, manifold, bundle or None): every built-in entry and bundle,
    CP^n for n <= 10 with two line bundles, and CP^2 x CP^3 with one."""
    cases = []
    for entry in builtin_catalog():
        cases.append((entry.name, entry.manifold, None))
        cases += [(f"{entry.name}:{name}", entry.manifold, bundle)
                  for name, bundle in sorted(entry.bundles.items())]
    for n in range(1, 11):
        m = _projective_product((("h", n),))
        cases += [(f"cp{n}", m, None), (f"cp{n}:O(1)", m, _line_bundle(m, (1,))),
                  (f"cp{n}:O(-2)", m, _line_bundle(m, (-2,)))]
    m = _projective_product((("a", 2), ("b", 3)))
    cases += [("cp2xcp3", m, None), ("cp2xcp3:O(1,-1)", m, _line_bundle(m, (1, -1)))]
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
        twist = bundle or BundleDescriptor(rank=1, total_chern=m.one())
        ch = chern_character(twist.rank, twist.chern_parts(m.real_dim))
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
        except DescriptorError as exc:
            # a descriptor that says it is not spin, refused although the integral is an integer
            assert m.spin is False and "w₂ ≠ 0" in str(exc)
            assert f"integer {evaluate(want, m)})" in str(exc)

    def test_index_path_never_substitutes(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the index path must not substitute or reduce roots")

        monkeypatch.setattr(GradedPolynomial, "substitute", refuse)
        monkeypatch.setattr(exact_algebra, "symmetric_reduce", refuse)
        for label, m, bundle in DENSITY_CASES:
            for kind in INDEX_FUNCTIONS:
                if bundle is not None and kind not in TWISTABLE:
                    continue
                try:
                    compute_index(m, kind, bundle)
                except (DescriptorError, InconsistentIndexError):
                    pass  # a refused complex, such as spin on cp2 or dolbeault on s4
