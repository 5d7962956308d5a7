"""Genus and characteristic-class tests.

The heavy oracle lives in oracle_helpers: a self-contained dict-polynomial
expansion of prod f(x_i) over formal roots, with series coefficients taken
from the Bernoulli closed forms.  Package results in the p/c classes are
expanded back to the roots with that local code and compared term by term,
so the check never reuses the package's power-sum path.  A second reference
reduces the root product with symmetric_reduce (Gauss elimination).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_helpers import (
    brute_force_product,
    expand_class_poly,
    pontryagin_pair_sum,
    reduced_root_product,
)

from indexcalc.catalog import catalog_entry
from indexcalc.exact_algebra import GradedPolynomial, TaylorSeries, bernoulli, genus_series
from indexcalc.genera import (
    a_hat_class,
    chern_character,
    chern_to_pontryagin,
    l_class,
    multiplicative_sequence,
    signature_integrand_identity_check,
    todd_class,
)


@pytest.mark.parametrize(
    "kind,builder,n,weight",
    [
        ("L", l_class, 1, 4),
        ("L", l_class, 2, 4),
        ("L", l_class, 3, 4),
        ("L", l_class, 4, 4),
        ("L", l_class, 5, 4),
        ("A_hat", a_hat_class, 2, 4),
        ("A_hat", a_hat_class, 3, 4),
        ("A_hat", a_hat_class, 4, 4),
        ("A_hat", a_hat_class, 5, 4),
        ("Todd", todd_class, 2, 2),
        ("Todd", todd_class, 3, 2),
        ("Todd", todd_class, 4, 2),
        ("Todd", todd_class, 5, 2),
        ("Todd", todd_class, 6, 2),
    ],
)
def test_genus_against_brute_force_expansion(kind, builder, n, weight):
    genus = builder(n)
    weights = (weight,) * n
    max_deg = weight * n
    expected = brute_force_product(kind, n, max_deg, weights)
    computed = expand_class_poly(genus.polynomial, n, max_deg, weights)
    assert computed == expected


class TestFrozenExpansions:
    def test_l1(self):
        poly = l_class(1).polynomial
        assert poly.terms == {(0,): Fraction(1), (1,): Fraction(1, 3)}

    def test_l2(self):
        poly = l_class(2).polynomial
        assert poly.terms == {
            (0, 0): Fraction(1),
            (1, 0): Fraction(1, 3),
            (0, 1): Fraction(7, 45),
            (2, 0): Fraction(-1, 45),
        }

    def test_l0_a0(self):
        assert l_class(0).polynomial.constant_term() == 1
        assert a_hat_class(0).polynomial.constant_term() == 1
        assert l_class(0).polynomial.homogeneous_degrees() == [0]

    def test_a1(self):
        poly = a_hat_class(1).polynomial
        assert poly.terms == {(0,): Fraction(1), (1,): Fraction(-1, 24)}

    def test_a2(self):
        poly = a_hat_class(2).polynomial
        assert poly.terms == {
            (0, 0): Fraction(1),
            (1, 0): Fraction(-1, 24),
            (0, 1): Fraction(-1, 1440),
            (2, 0): Fraction(7, 5760),
        }

    def test_todd1(self):
        poly = todd_class(1).polynomial
        assert poly.terms == {(0,): Fraction(1), (1,): Fraction(1, 2)}

    def test_todd2(self):
        poly = todd_class(2).polynomial
        assert poly.terms == {
            (0, 0): Fraction(1),
            (1, 0): Fraction(1, 2),
            (2, 0): Fraction(1, 12),
            (0, 1): Fraction(1, 12),
        }

    def test_todd3_degree6(self):
        part = todd_class(3).polynomial.degree_part(6)
        assert part.terms == {(1, 1, 0): Fraction(1, 24)}


def formal_ring(prefix, n, d_root, truncation=None):
    """Classes prefix1..prefix<n> of degrees d_root*k and the unit, truncated at d_root*n."""
    truncation = d_root * n if truncation is None else truncation
    basis = tuple((f"{prefix}{k}", d_root * k) for k in range(1, n + 1))
    classes = [GradedPolynomial.generator(basis, truncation, name) for name, _ in basis]
    return classes, GradedPolynomial.constant(basis, truncation, Fraction(1))


class TestMultiplicativeSequence:
    def test_constant_series(self):
        f = TaylorSeries((Fraction(1),))
        for n in (0, 1, 3):
            poly = multiplicative_sequence(f, *formal_ring("p", n, 4))
            assert poly.constant_term() == 1
            assert poly.homogeneous_degrees() == [0]

    def test_requires_unit_constant_term(self):
        f = TaylorSeries((Fraction(2), Fraction(1)))
        with pytest.raises(ValueError):
            multiplicative_sequence(f, *formal_ring("c", 1, 2))

    def test_classes_must_have_pure_root_degree(self):
        # c_1 of degree 4 where an odd series wants degree 2, and p_1 of
        # degree 2 where an even series wants degree 4
        basis = (("h", 2),)
        one = GradedPolynomial.constant(basis, 4, Fraction(1))
        h = GradedPolynomial.generator(basis, 4, "h")
        with pytest.raises(ValueError, match="class 1 must have pure degree 2"):
            multiplicative_sequence(genus_series("Todd", 2), [h * h], one)
        with pytest.raises(ValueError, match="class 1 must have pure degree 4"):
            multiplicative_sequence(genus_series("L", 2), [h], one)

    @pytest.mark.parametrize("kind", ["L", "A_hat", "Todd"])
    def test_whitney_in_the_target_ring(self, kind):
        # one sequence on the Whitney-summed classes (a + b, ab) is the
        # product of the sequences on a and on b, in the ring of a and b
        d_root = 2 if kind == "Todd" else 4
        target = (("a", d_root), ("b", d_root))
        truncation = 4 * d_root
        one = GradedPolynomial.constant(target, truncation, Fraction(1))
        a = GradedPolynomial.generator(target, truncation, "a")
        b = GradedPolynomial.generator(target, truncation, "b")
        f = genus_series(kind, 2 * d_root)
        two = multiplicative_sequence(f, [a + b, a * b], one)
        assert two == multiplicative_sequence(f, [a], one) * multiplicative_sequence(f, [b], one)
        assert two.homogeneous_degrees() == [d_root * k for k in range(5)]

    @pytest.mark.parametrize("name", ["cp1", "t2"])
    def test_empty_class_list_gives_the_unit(self, name):
        # real_dim 2 has no Pontryagin class, as for the signature on cp1 and t2
        manifold = catalog_entry(name).manifold
        assert manifold.pontryagin_parts() == []
        one = manifold.one()
        for kind in ("L", "A_hat", "Todd"):
            assert multiplicative_sequence(genus_series(kind, 1), [], one) == one

    def test_ring_without_generators(self):
        # t4: every class is the zero polynomial of the generator-free ring
        t4 = catalog_entry("t4").manifold
        assert t4.generators == ()
        for kind, classes in (("L", t4.pontryagin_parts()), ("A_hat", t4.pontryagin_parts()),
                              ("Todd", t4.chern_parts())):
            assert classes and all(c.is_zero() for c in classes)
            assert multiplicative_sequence(genus_series(kind, 2), classes, t4.one()) == t4.one()

    def test_truncation_not_a_multiple_of_the_root_degree(self):
        # real_dim 6 with Pontryagin classes: only p_1 (degree 4) fits below 6
        cp3 = catalog_entry("cp3").manifold
        p = cp3.pontryagin_parts()
        assert len(p) == 1 and p[0].terms == {(2,): 4}
        for kind, genus_class in (("L", l_class), ("A_hat", a_hat_class)):
            poly = multiplicative_sequence(genus_series(kind, 3), p, cp3.one())
            assert poly.truncation == 6
            assert poly.homogeneous_degrees() == [0, 4]
            assert poly == genus_class(1).polynomial.substitute({"p1": p[0]})

    def test_whitney_multiplicativity(self):
        # the two-block sequence on Whitney-summed classes (p1 -> a + b,
        # p2 -> ab) equals the product of the single-block sequences; each
        # single-block genus keeps its degree-8 tail, so it is the two-class
        # genus with the second class zeroed (degree <= 8, exact)
        target = (("a", 4), ("b", 4))
        a = GradedPolynomial.generator(target, 8, "a")
        b = GradedPolynomial.generator(target, 8, "b")
        zero = GradedPolynomial(target, 8, {})
        for builder in (l_class, a_hat_class):
            poly = builder(2).polynomial
            two = poly.substitute({"p1": a + b, "p2": a * b})
            left = poly.substitute({"p1": a, "p2": zero})
            right = poly.substitute({"p1": b, "p2": zero})
            assert two == left * right

    def test_todd_whitney(self):
        target = (("u", 2), ("v", 2))
        u = GradedPolynomial.generator(target, 4, "u")
        v = GradedPolynomial.generator(target, 4, "v")
        zero = GradedPolynomial(target, 4, {})
        poly = todd_class(2).polynomial
        two = poly.substitute({"c1": u + v, "c2": u * v})
        left = poly.substitute({"c1": u, "c2": zero})
        right = poly.substitute({"c1": v, "c2": zero})
        assert two == left * right

    def test_mod4_support(self):
        # L and A-hat polynomials contain no classes of degree 2 mod 4
        for builder, n in ((l_class, 3), (a_hat_class, 3)):
            degrees = builder(n).polynomial.homogeneous_degrees()
            assert all(d % 4 == 0 for d in degrees)

    def test_degree_zero_term_is_one(self):
        for genus in (l_class(2), a_hat_class(2), todd_class(3)):
            assert genus.polynomial.constant_term() == 1

    @pytest.mark.parametrize("kind,prefix", [("L", "p"), ("A_hat", "p"), ("Todd", "c")])
    @pytest.mark.parametrize("n", range(0, 6))
    def test_equals_symmetric_reduce_of_root_product(self, kind, prefix, n):
        order = n if kind == "Todd" else 2 * n
        f = genus_series(kind, order)
        names = [f"{prefix}{i + 1}" for i in range(n)]
        classes, one = formal_ring(prefix, n, 2 if kind == "Todd" else 4)
        assert multiplicative_sequence(f, classes, one) == reduced_root_product(f, n, names)

    @pytest.mark.parametrize("n", range(0, 6))
    def test_one_plus_x_gives_total_class(self, n):
        # prod (1 + x_i) = 1 + c_1 + ... + c_n, and prod (1 + x_i^2) = 1 + p_1 + ... + p_n
        for coefficients, prefix, step in (((1, 1), "c", 2), ((1, 0, 1), "p", 4)):
            f = TaylorSeries(tuple(Fraction(c) for c in coefficients))
            poly = multiplicative_sequence(f, *formal_ring(prefix, n, step))
            assert poly.generators == tuple((f"{prefix}{i + 1}", step * (i + 1)) for i in range(n))
            units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
            assert poly.terms == {(0,) * n: 1, **{e: 1 for e in units}}

    @pytest.mark.parametrize("n", range(1, 6))
    def test_exp_series_gives_exp_c1(self, n):
        poly = multiplicative_sequence(genus_series("Exp", n), *formal_ring("c", n, 2))
        assert poly.terms == {
            (k,) + (0,) * (n - 1): Fraction(1, factorial(k)) for k in range(n + 1)
        }

    def test_l_class_top_pontryagin_coefficient(self):
        # the p_k coefficient of L_k is 2^(2k) (2^(2k-1) - 1) |B_2k| / (2k)!
        poly = l_class(10).polynomial
        for k in range(1, 11):
            exps = tuple(int(j == k - 1) for j in range(10))
            expected = 2 ** (2 * k) * (2 ** (2 * k - 1) - 1) * abs(bernoulli(2 * k)) / factorial(2 * k)
            assert poly.terms[exps] == expected, k


class TestChernCharacter:
    BASIS = (("x", 2), ("y", 2))

    def poly(self, truncation, terms):
        return GradedPolynomial(self.BASIS, truncation, terms)

    def test_trivial_bundle(self):
        zero = self.poly(6, {})
        ch = chern_character(3, [zero, zero, zero])
        assert ch.terms == {(0, 0): Fraction(3)}

    def test_line_bundle(self):
        c1 = self.poly(2, {(1, 0): 5})
        ch = chern_character(1, [c1])
        assert ch.terms == {(0, 0): Fraction(1), (1, 0): Fraction(5)}

    def test_rank2_degree4_term(self):
        c1 = self.poly(4, {(1, 0): 1, (0, 1): 1})
        c2 = self.poly(4, {(1, 1): 1})
        ch = chern_character(2, [c1, c2])
        # (c1^2 - 2 c2)/2 = (x^2 + y^2)/2
        assert ch.degree_part(4).terms == {
            (2, 0): Fraction(1, 2),
            (0, 2): Fraction(1, 2),
        }

    def test_additive_under_direct_sum(self):
        x = GradedPolynomial.generator(self.BASIS, 6, "x")
        y = GradedPolynomial.generator(self.BASIS, 6, "y")
        zero = GradedPolynomial(self.BASIS, 6, {})
        ch_v = chern_character(1, [x, zero, zero])
        ch_w = chern_character(1, [y, zero, zero])
        ch_sum = chern_character(2, [x + y, x * y, zero])
        assert ch_sum == ch_v + ch_w

    def test_tensor_of_line_bundles_is_exp_sum(self):
        x = GradedPolynomial.generator(self.BASIS, 6, "x")
        y = GradedPolynomial.generator(self.BASIS, 6, "y")
        zero = GradedPolynomial(self.BASIS, 6, {})
        ch_tensor = chern_character(1, [x + y, zero, zero])
        ch_v = chern_character(1, [x, zero, zero])
        ch_w = chern_character(1, [y, zero, zero])
        assert ch_tensor == ch_v * ch_w
        # e^(x+y), expanded locally
        expected = GradedPolynomial(self.BASIS, 6, {})
        one = GradedPolynomial.constant(self.BASIS, 6, Fraction(1))
        for k in range(4):
            expected = expected + Fraction(1, factorial(k)) * (x + y) ** k
        assert ch_tensor == expected

    def test_degree_mismatch_rejected(self):
        bad_c1 = self.poly(4, {(2, 0): 1})  # degree 4 where c1 belongs
        with pytest.raises(ValueError):
            chern_character(1, [bad_c1])


class TestChernToPontryagin:
    BASIS = (("h", 2),)

    def test_c1_zero(self):
        c1 = GradedPolynomial(self.BASIS, 4, {})
        c2 = GradedPolynomial(self.BASIS, 4, {(2,): 7})
        p = chern_to_pontryagin([c1, c2], 4)
        assert p[0].terms == {(2,): Fraction(-14)}

    def test_cp2_data(self):
        c1 = GradedPolynomial(self.BASIS, 4, {(1,): 3})
        c2 = GradedPolynomial(self.BASIS, 4, {(2,): 3})
        p = chern_to_pontryagin([c1, c2], 4)
        assert p[0].terms == {(2,): Fraction(3)}

    def test_all_zero(self):
        zero = GradedPolynomial(self.BASIS, 8, {})
        parts = chern_to_pontryagin([zero, zero], 8)
        assert all(p.is_zero() for p in parts)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_pair_sum(self, data):
        # 0-3 generators of degree 2 or 4, truncation below, at or above real_dim, and
        # up to 2 more Chern classes than real_dim/2, so more than the real_dim/4 asked for
        degrees = data.draw(st.lists(st.sampled_from((2, 4)), max_size=3))
        basis = tuple((f"g{i}", d) for i, d in enumerate(degrees))
        real_dim = data.draw(st.integers(0, 6)) * 2
        truncation = real_dim + data.draw(st.sampled_from((-4, -2, 0, 2, 4)))
        truncation = max(truncation, 0)
        n_classes = data.draw(st.integers(1, real_dim // 2 + 2))
        classes = []
        for k in range(1, n_classes + 1):
            # every monomial of degree 2k in the basis, each with a small coefficient
            monomials = [e for e in product(range(k + 1), repeat=len(basis))
                         if sum(x * d for x, (_, d) in zip(e, basis)) == 2 * k]
            coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(monomials),
                                        max_size=len(monomials)))
            classes.append(GradedPolynomial(basis, truncation, dict(zip(monomials, coeffs))))
        got = chern_to_pontryagin(classes, real_dim)
        assert [p.terms for p in got] == pontryagin_pair_sum(classes, real_dim)


class TestSignatureIntegrandIdentity:
    @pytest.mark.parametrize("l", range(0, 7))
    def test_identity_holds(self, l):
        assert signature_integrand_identity_check(l)

    def test_lower_degrees_differ(self):
        # the equality is specific to the volume component: the constant
        # terms are 2^l vs 1, so full-series equality would be false
        from indexcalc.exact_algebra import genus_series

        f = genus_series("L", 2)
        g = TaylorSeries(tuple(2 * a for a in f.scale_argument(Fraction(1, 2)).coefficients))
        assert g.coefficient(0) == 2 != f.coefficient(0)


class TestTwistedDiracIdentities:
    """Each genus is the Dirac genus A-hat times the Chern character of a twist,
    as exact classes in formal generators."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_todd_is_a_hat_times_exp_half_c1(self, n):
        # spin^c: Td = e^(c1/2) A-hat, with A-hat fed the Pontryagin classes of c_1..c_n
        classes, one = formal_ring("c", n, 2)
        a_hat = multiplicative_sequence(
            genus_series("A_hat", n), chern_to_pontryagin(classes, 2 * n), one
        )
        zero = GradedPolynomial(one.generators, one.truncation, {})
        exp_half_c1 = chern_character(1, [Fraction(1, 2) * classes[0], *[zero] * (n - 1)])
        assert todd_class(n).polynomial == exp_half_c1 * a_hat

    @staticmethod
    def msq(series, l):
        """The multiplicative sequence of ``series`` in formal p_1..p_l."""
        return multiplicative_sequence(series, *formal_ring("p", l, 4))

    @staticmethod
    def even_series(l, coefficient):
        """sum_m coefficient(m) x^m over even m <= 2l."""
        return TaylorSeries(
            tuple(Fraction(coefficient(m)) if m % 2 == 0 else 0 for m in range(2 * l + 1))
        )

    @pytest.mark.parametrize("l", range(1, 6))
    def test_a_hat_times_cosh_is_half_l(self, l):
        # signature: A-hat prod cosh(x_i/2) = prod (x_i/2)/tanh(x_i/2)
        cosh = self.even_series(l, lambda m: Fraction(1, 2**m * factorial(m)))
        half_l = genus_series("L", 2 * l).scale_argument(Fraction(1, 2))
        a_hat = genus_series("A_hat", 2 * l)
        assert self.msq(a_hat, l) * self.msq(cosh, l) == self.msq(half_l, l)

    @pytest.mark.parametrize("l", range(1, 6))
    def test_a_hat_times_sinh_over_x_is_one(self, l):
        # euler: A-hat prod sinh(x_i/2)/(x_i/2) = 1
        sinh_over_x = self.even_series(l, lambda m: Fraction(1, 2**m * factorial(m + 1)))
        a_hat = genus_series("A_hat", 2 * l)
        assert self.msq(a_hat, l) * self.msq(sinh_over_x, l) == formal_ring("p", l, 4)[1]
