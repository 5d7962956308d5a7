"""Gamma-matrix and Berezin-integration identity tests, all exact."""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from oracle_helpers import dense, kron_gammas

from indexcalc.clifford import (
    ComplexRational,
    GrassmannElement,
    PauliString,
    berezin_integrate,
    build_gamma,
    chirality,
    gamma_identities,
    normalization_psi2,
)


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b + b @ a


def dense_gammas(n: int) -> list[np.ndarray]:
    return [dense(g, n) for g in build_gamma(n)]


class TestComplexRational:
    def test_i_powers_cycle(self):
        i = ComplexRational.i_power(1)
        assert i * i == ComplexRational(Fraction(-1))
        for n in range(12):
            assert ComplexRational.i_power(n) == ComplexRational.i_power(n + 4)

    def test_division(self):
        a = ComplexRational(Fraction(2), Fraction(3))
        assert a / a == ComplexRational(Fraction(1))
        with pytest.raises(ZeroDivisionError):
            a / ComplexRational()

    def test_real_detection(self):
        assert ComplexRational(Fraction(5)).is_real()
        assert not ComplexRational(Fraction(0), Fraction(1)).is_real()


class TestGammaConstruction:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_clifford_relations_exact(self, n):
        mats = dense_gammas(n)
        dim = 2**n
        assert len(mats) == 2 * n
        eye = np.eye(dim, dtype=np.complex128)
        zero = np.zeros((dim, dim), dtype=np.complex128)
        for a in range(2 * n):
            for b in range(2 * n):
                expected = 2 * eye if a == b else zero
                assert np.array_equal(anticommutator(mats[a], mats[b]), expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_hermitian(self, n):
        for g in dense_gammas(n):
            assert np.array_equal(g, g.conj().T)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_expansion_equals_recursive_kron_build(self, n):
        mats = dense_gammas(n)
        reference = kron_gammas(n)
        assert len(mats) == len(reference) == 2 * n
        assert all(np.array_equal(m, r) for m, r in zip(mats, reference))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            build_gamma(0)
        with pytest.raises(ValueError):
            build_gamma(6)


class TestChirality:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_squares_to_identity(self, n):
        g = dense(chirality(build_gamma(n)), n)
        assert np.array_equal(g @ g, np.eye(2**n, dtype=np.complex128))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_traceless_and_trace_of_square(self, n):
        g = dense(chirality(build_gamma(n)), n)
        assert g.trace() == 0
        assert (g @ g).trace() == 2**n

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_anticommutes_with_all_gammas(self, n):
        g = dense(chirality(build_gamma(n)), n)
        zero = np.zeros((2**n, 2**n), dtype=np.complex128)
        for a in dense_gammas(n):
            assert np.array_equal(anticommutator(g, a), zero)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equals_i_to_n_times_the_kron_product(self, n):
        product = reduce(np.matmul, kron_gammas(n))
        assert np.array_equal(dense(chirality(build_gamma(n)), n), 1j**n * product)


class TestPauliString:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_product_adjoint_and_trace_match_dense(self, n):
        gammas = build_gamma(n)
        strings = [*gammas, chirality(gammas)]
        for p in strings:
            for q in strings:
                pq = p * q
                product = dense(p, n) @ dense(q, n)
                assert np.array_equal(dense(pq, n), product)
                assert np.array_equal(dense(pq.adjoint(), n), product.conj().T)
                assert pq.trace(n) == product.trace()
                anticommute = not anticommutator(dense(p, n), dense(q, n)).any()
                assert p.anticommutes(q) == anticommute

    def test_phase_is_the_power_of_i(self):
        assert [PauliString(k, 1, 0).trace(1) for k in range(4)] == [0j] * 4
        assert [PauliString(k, 0, 0).trace(2) for k in range(4)] == [4, 4j, -4, -4j]
        assert PauliString(0, 1, 0) * PauliString(0, 1, 0) == PauliString(0, 0, 0)
        assert PauliString(1, 1, 1).adjoint() == PauliString(1, 1, 1)  # Y
        assert PauliString(1, 1, 0).adjoint() == PauliString(3, 1, 0)  # (iX)^dagger = -iX


class TestBerezin:
    def test_measure_convention(self):
        # d(psi^1) d(psi^2) extracts the coefficient of psi^2 psi^1
        psi1 = GrassmannElement.generator(1)
        psi2 = GrassmannElement.generator(2)
        assert berezin_integrate(psi1 * psi2, 2) == ComplexRational(Fraction(-1))
        assert berezin_integrate(psi2 * psi1, 2) == ComplexRational(Fraction(1))

    def test_no_top_component(self):
        assert berezin_integrate(GrassmannElement.scalar(1), 2) == ComplexRational()
        assert berezin_integrate(GrassmannElement.generator(1), 2) == ComplexRational()

    def test_square_annihilates(self):
        psi1 = GrassmannElement.generator(1)
        assert (psi1 * psi1).coefficients == {}
        mixed = GrassmannElement.generator(2) * psi1 * GrassmannElement.generator(2)
        assert mixed.coefficients == {}

    def test_linearity(self):
        rng = random.Random(3)
        for _ in range(20):
            coeffs_a = {}
            coeffs_b = {}
            for idx in [(), (1,), (2,), (1, 2)]:
                coeffs_a[idx] = ComplexRational(
                    Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))
                )
                coeffs_b[idx] = ComplexRational(
                    Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))
                )
            a = GrassmannElement(coeffs_a)
            b = GrassmannElement(coeffs_b)
            s = ComplexRational(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
            lhs = berezin_integrate(a + b * s, 2)
            rhs = berezin_integrate(a, 2) + berezin_integrate(b, 2) * s
            assert lhs == rhs

    def test_reordering_sign(self):
        psi = [GrassmannElement.generator(k) for k in range(1, 5)]
        ascending = psi[0] * psi[1] * psi[2] * psi[3]
        swapped = psi[1] * psi[0] * psi[2] * psi[3]
        assert berezin_integrate(ascending, 4) == -berezin_integrate(swapped, 4)


def bubble_sort_swaps(seq) -> int:
    """The adjacent swaps bubble sort makes to order seq."""
    items, swaps = list(seq), 0
    for end in range(len(items) - 1, 0, -1):
        for k in range(end):
            if items[k] > items[k + 1]:
                items[k], items[k + 1] = items[k + 1], items[k]
                swaps += 1
    return swaps


def random_element(rng, n_gen: int = 5) -> GrassmannElement:
    """Up to six terms on psi^1..psi^n_gen with random ComplexRational coefficients."""
    coefficients = {}
    for _ in range(rng.randint(0, 6)):
        idx = tuple(sorted(rng.sample(range(1, n_gen + 1), rng.randint(0, n_gen))))
        coefficients[idx] = ComplexRational(
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        )
    return GrassmannElement(coefficients)


class TestGrassmannSignRule:
    """Products against the parity of a bubble sort, counted without the sign rule."""

    @staticmethod
    def disjoint_pair(rng) -> tuple[tuple[int, ...], tuple[int, ...]]:
        chosen = rng.sample(range(1, 11), rng.randint(0, 10))
        cut = rng.randint(0, len(chosen))
        return tuple(sorted(chosen[:cut])), tuple(sorted(chosen[cut:]))

    def test_disjoint_product_carries_the_bubble_sort_parity(self):
        rng = random.Random(14)
        for _ in range(300):
            a, b = self.disjoint_pair(rng)
            sign = (-1) ** bubble_sort_swaps(a + b)
            want = GrassmannElement({tuple(sorted(a + b)): sign})
            in_order = reduce(
                operator.mul, map(GrassmannElement.generator, a + b), GrassmannElement.scalar(1)
            )
            assert in_order == want, (a, b)
            assert GrassmannElement({a: 1}) * GrassmannElement({b: 1}) == want, (a, b)

    def test_overlapping_monomials_multiply_to_zero(self):
        rng = random.Random(15)
        for _ in range(100):
            a, b = self.disjoint_pair(rng)
            shared = rng.randint(1, 10)
            a, b = tuple(sorted({*a, shared})), tuple(sorted({*b, shared}))
            assert (GrassmannElement({a: 1}) * GrassmannElement({b: 1})).coefficients == {}

    def test_product_is_associative(self):
        rng = random.Random(16)
        for _ in range(100):
            x, y, z = (random_element(rng) for _ in range(3))
            assert (x * y) * z == x * (y * z)

    def test_sum_with_its_negative_stores_no_coefficient(self):
        rng = random.Random(17)
        for _ in range(50):
            x = random_element(rng)
            assert (x + (-1) * x).coefficients == {}


class TestNormalization:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equals_i_to_n(self, n):
        assert normalization_psi2(n) == ComplexRational.i_power(n)

    def test_explicit_small_values(self):
        i = ComplexRational(Fraction(0), Fraction(1))
        assert normalization_psi2(1) == i
        assert normalization_psi2(2) == ComplexRational(Fraction(-1))
        assert normalization_psi2(4) == ComplexRational(Fraction(1))

    def test_fourth_power_cycles(self):
        for n in range(1, 6):
            v = normalization_psi2(n)
            fourth = v * v * v * v
            assert fourth == ComplexRational(Fraction(1))

    def test_real_exactly_when_n_even(self):
        for n in range(1, 6):
            assert normalization_psi2(n).is_real() == (n % 2 == 0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            normalization_psi2(0)


class TestGammaIdentities:
    def test_non_hermitian_representation_detected(self, monkeypatch):
        # i gamma^1 is anti-Hermitian and squares to -1: for Pauli strings g^2 = 1
        # holds exactly when g is Hermitian, so both checks fail together
        g1, g2 = build_gamma(1)
        skewed = (PauliString(g1.phase + 1, g1.x, g1.z), g2)
        monkeypatch.setattr("indexcalc.clifford.build_gamma", lambda n: skewed)
        ids = gamma_identities(1)
        assert not ids.hermitian
        assert not ids.clifford
        assert ids.normalization_ok

    def test_commuting_pair_detected(self, monkeypatch):
        # gamma^1 twice: Hermitian and squaring to 1, but the pair commutes
        g1, _ = build_gamma(1)
        monkeypatch.setattr("indexcalc.clifford.build_gamma", lambda n: (g1, g1))
        ids = gamma_identities(1)
        assert ids.hermitian
        assert not ids.clifford
