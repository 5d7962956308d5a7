"""Exact arithmetic, series, and graded-ring tests.

Oracles here are independent of the implementation: Bernoulli numbers are
cross-checked with Akiyama-Tanigawa, the generating series against their
Bernoulli closed forms (the implementation uses long division).
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest

from indexcalc.exact_algebra import (
    BasisMismatchError,
    GradedPolynomial,
    NonSymmetricError,
    TaylorSeries,
    bernoulli,
    genus_series,
    symmetric_reduce,
)


def akiyama_tanigawa(n: int) -> list[Fraction]:
    """Independent Bernoulli oracle (first convention, B_1 = -1/2)."""
    row = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    # AT yields B_1 = +1/2; flip to the first convention
    if n >= 1:
        out[1] = -out[1]
    return out


class TestBernoulli:
    def test_hand_values(self):
        # recurrence worked by hand for k <= 4
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(3) == 0
        assert bernoulli(4) == Fraction(-1, 30)

    def test_odd_vanishing(self):
        for k in range(3, 40, 2):
            assert bernoulli(k) == 0

    def test_against_akiyama_tanigawa(self):
        oracle = akiyama_tanigawa(24)
        for k, expected in enumerate(oracle):
            assert bernoulli(k) == expected, k

    def test_negative_index(self):
        with pytest.raises(ValueError):
            bernoulli(-1)


class TestGenusSeries:
    def test_l_series_matches_bernoulli_formula(self):
        # x/tanh x = sum 2^(2k) B_2k x^(2k) / (2k)!
        f = genus_series("L", 12)
        for k in range(0, 7):
            expected = Fraction(2 ** (2 * k)) * bernoulli(2 * k) / factorial(2 * k)
            assert f.coefficient(2 * k) == expected

    def test_l_series_frozen(self):
        f = genus_series("L", 4)
        assert f.coefficients == (1, 0, Fraction(1, 3), 0, Fraction(-1, 45))

    def test_a_hat_series_matches_bernoulli_formula(self):
        # (x/2)/sinh(x/2) = sum (2 - 2^(2k)) B_2k x^(2k) / (4^k (2k)!)
        f = genus_series("A_hat", 12)
        for k in range(0, 7):
            expected = Fraction(2 - 2 ** (2 * k)) * bernoulli(2 * k) / (
                Fraction(4**k) * factorial(2 * k)
            )
            assert f.coefficient(2 * k) == expected

    def test_todd_series_matches_bernoulli_formula(self):
        # x/(1 - e^(-x)) = sum (-1)^k B_k x^k / k!
        f = genus_series("Todd", 10)
        for k in range(11):
            assert f.coefficient(k) == Fraction((-1) ** k) * bernoulli(k) / factorial(k)

    def test_todd_series_frozen(self):
        f = genus_series("Todd", 4)
        assert f.coefficients == (1, Fraction(1, 2), Fraction(1, 12), 0, Fraction(-1, 720))

    def test_exp_series(self):
        f = genus_series("Exp", 2)
        assert f.coefficients == (1, 1, Fraction(1, 2))

    def test_even_series_invariant(self):
        assert genus_series("L", 9).is_even()
        assert genus_series("A_hat", 9).is_even()
        assert not genus_series("Todd", 9).is_even()

    def test_constant_terms(self):
        for kind in ("L", "A_hat", "Todd", "Exp"):
            assert genus_series(kind, 6).coefficient(0) == 1

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            genus_series("K", 4)


class TestTaylorSeries:
    def test_inverse_roundtrip(self):
        f = genus_series("Todd", 8)
        g = f.inverse()
        assert (f * g).coefficients == (1,) + (Fraction(0),) * 8

    def test_inverse_needs_unit(self):
        s = TaylorSeries("x", (0, 1))
        with pytest.raises(ZeroDivisionError):
            s.inverse()

    def test_scale_argument(self):
        f = TaylorSeries("x", (1, 1, 1))
        g = f.scale_argument(Fraction(1, 2))
        assert g.coefficients == (1, Fraction(1, 2), Fraction(1, 4))

    def test_variable_mismatch(self):
        with pytest.raises(ValueError):
            TaylorSeries("x", (1,)) * TaylorSeries("y", (1,))


def random_poly(rng, basis, truncation, n_terms=5, coeff_range=6):
    terms = {}
    for _ in range(n_terms):
        exps = []
        budget = truncation
        for _, deg in basis:
            e = rng.randint(0, budget // deg) if budget >= deg else 0
            exps.append(e)
            budget -= e * deg
        coeff = Fraction(rng.randint(-coeff_range, coeff_range), rng.randint(1, 4))
        terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + coeff
    return GradedPolynomial(basis, truncation, terms)


class TestGradedPolynomial:
    BASIS = (("p1", 4), ("p2", 8))

    def test_difference_of_squares(self):
        one = GradedPolynomial.constant(self.BASIS, 8, Fraction(1))
        p1 = GradedPolynomial.generator(self.BASIS, 8, "p1")
        assert (one + p1) * (one - p1) == one - p1 * p1

    def test_truncation_drops_cross_term(self):
        basis = (("x1", 2), ("x2", 2))
        one = GradedPolynomial.constant(basis, 2, Fraction(1))
        x1 = GradedPolynomial.generator(basis, 2, "x1")
        x2 = GradedPolynomial.generator(basis, 2, "x2")
        assert (one + x1) * (one + x2) == one + x1 + x2

    def test_binomial_cube(self):
        basis = (("h", 2),)
        one = GradedPolynomial.constant(basis, 4, Fraction(1))
        h = GradedPolynomial.generator(basis, 4, "h")
        cube = (one + h) ** 3
        assert cube == GradedPolynomial(basis, 4, {(0,): 1, (1,): 3, (2,): 3})

    def test_mismatched_basis(self):
        a = GradedPolynomial.constant((("p1", 4),), 8, Fraction(1))
        b = GradedPolynomial.constant((("q1", 4),), 8, Fraction(1))
        with pytest.raises(BasisMismatchError):
            a * b

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            GradedPolynomial((("x", 3),), 6, {})

    def test_no_zero_terms_stored(self):
        p = GradedPolynomial(self.BASIS, 8, {(1, 0): Fraction(0), (0, 1): 1})
        assert (1, 0) not in p.terms
        assert p.terms == {(0, 1): Fraction(1)}

    def test_mul_associative_commutative(self):
        rng = random.Random(7)
        basis = (("a", 2), ("b", 4))
        for _ in range(25):
            p = random_poly(rng, basis, 12)
            q = random_poly(rng, basis, 12)
            r = random_poly(rng, basis, 12)
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)

    def test_degree_part(self):
        p = GradedPolynomial(self.BASIS, 12, {(1, 0): 2, (0, 1): 3, (3, 0): 5})
        assert p.degree_part(4).terms == {(1, 0): Fraction(2)}
        assert p.degree_part(8).terms == {(0, 1): Fraction(3)}
        assert p.degree_part(12).terms == {(3, 0): Fraction(5)}

    def test_substitute(self):
        basis = (("p1", 4),)
        target = (("a", 4), ("b", 4))
        p1 = GradedPolynomial.generator(basis, 8, "p1")
        one = GradedPolynomial.constant(basis, 8, Fraction(1))
        poly = one + 2 * p1 + p1 * p1
        a = GradedPolynomial.generator(target, 8, "a")
        b = GradedPolynomial.generator(target, 8, "b")
        image = poly.substitute({"p1": a + b})
        expected = (GradedPolynomial.constant(target, 8, Fraction(1)) + a + b) ** 2
        assert image == expected


def elementary_symmetric_exps(n, k):
    """Exponent vectors of e_k(x_1..x_n)."""
    from itertools import combinations

    out = []
    for combo in combinations(range(n), k):
        e = [0] * n
        for i in combo:
            e[i] = 1
        out.append(tuple(e))
    return out


class TestSymmetricReduce:
    def test_first_elementary(self):
        basis = (("x1", 2), ("x2", 2))
        p = GradedPolynomial(basis, 4, {(1, 0): 1, (0, 1): 1})
        reduced = symmetric_reduce(p, 2, ["c1", "c2"])
        assert reduced.generators == (("c1", 2), ("c2", 4))
        assert reduced.terms == {(1, 0): Fraction(1)}

    def test_power_sum(self):
        basis = (("x1", 2), ("x2", 2))
        p = GradedPolynomial(basis, 4, {(2, 0): 1, (0, 2): 1})
        reduced = symmetric_reduce(p, 2, ["c1", "c2"])
        # p_2 = e_1^2 - 2 e_2
        assert reduced.terms == {(2, 0): Fraction(1), (0, 1): Fraction(-2)}

    def test_second_elementary_three_roots(self):
        basis = (("x1", 2), ("x2", 2), ("x3", 2))
        terms = {e: Fraction(1) for e in elementary_symmetric_exps(3, 2)}
        p = GradedPolynomial(basis, 6, terms)
        reduced = symmetric_reduce(p, 3, ["c1", "c2", "c3"])
        assert reduced.terms == {(0, 1, 0): Fraction(1)}

    def test_non_symmetric_rejected(self):
        basis = (("x1", 2), ("x2", 2))
        p = GradedPolynomial(basis, 4, {(1, 0): 1})
        with pytest.raises(NonSymmetricError) as info:
            symmetric_reduce(p, 2, ["c1", "c2"])
        assert info.value.transposition == (0, 1)

    def test_round_trip_random_symmetric(self):
        # left inverse of substitution for random symmetric inputs, n <= 4, deg <= 8
        rng = random.Random(11)
        for n in (2, 3, 4):
            basis = tuple((f"x{i + 1}", 2) for i in range(n))
            truncation = 8
            elementary = [
                GradedPolynomial(
                    basis,
                    truncation,
                    {e: Fraction(1) for e in elementary_symmetric_exps(n, k)},
                )
                for k in range(1, n + 1)
            ]
            for _ in range(8):
                # random polynomial in the e_k, expanded to the roots
                expansion = GradedPolynomial(basis, truncation, {})
                coeffs = {}
                for _ in range(4):
                    exps = tuple(rng.randint(0, 2) for _ in range(n))
                    coeff = Fraction(rng.randint(-5, 5))
                    term = GradedPolynomial.constant(basis, truncation, coeff)
                    for k, e in enumerate(exps):
                        term = term * elementary[k] ** e
                    expansion = expansion + term
                    coeffs[exps] = coeffs.get(exps, Fraction(0)) + coeff
                names = [f"c{k + 1}" for k in range(n)]
                reduced = symmetric_reduce(expansion, n, names)
                # substituting e_k back must reproduce the expansion exactly
                assignments = {names[k]: elementary[k] for k in range(n)}
                if reduced.generators:
                    back = reduced.substitute(assignments)
                else:
                    back = GradedPolynomial.constant(
                        basis, truncation, reduced.constant_term()
                    )
                assert back == expansion

    def test_zero_roots(self):
        p = GradedPolynomial((), 0, {(): Fraction(3)})
        reduced = symmetric_reduce(p, 0, [])
        assert reduced.constant_term() == 3
