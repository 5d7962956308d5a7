"""Gamma-matrix and Berezin-integration identity tests, all exact."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from indexcalc.clifford import (
    ComplexRational,
    GrassmannElement,
    anticommutator,
    berezin_integrate,
    build_gamma,
    chirality,
    gamma_identities,
    normalization_psi2,
)


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
        rep = build_gamma(n)
        dim = 2**n
        assert len(rep.matrices) == 2 * n
        eye = np.eye(dim, dtype=np.complex128)
        zero = np.zeros((dim, dim), dtype=np.complex128)
        for a in range(2 * n):
            for b in range(2 * n):
                expected = 2 * eye if a == b else zero
                assert np.array_equal(
                    anticommutator(rep.matrices[a], rep.matrices[b]), expected
                )

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_hermitian(self, n):
        for g in build_gamma(n).matrices:
            assert np.array_equal(g, g.conj().T)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            build_gamma(0)
        with pytest.raises(ValueError):
            build_gamma(6)


class TestChirality:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_squares_to_identity(self, n):
        rep = build_gamma(n)
        g = chirality(rep)
        assert np.array_equal(g @ g, np.eye(2**n, dtype=np.complex128))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_traceless_and_trace_of_square(self, n):
        g = chirality(build_gamma(n))
        assert g.trace() == 0
        assert (g @ g).trace() == 2**n

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_anticommutes_with_all_gammas(self, n):
        rep = build_gamma(n)
        g = chirality(rep)
        zero = np.zeros((2**n, 2**n), dtype=np.complex128)
        for a in rep.matrices:
            assert np.array_equal(anticommutator(g, a), zero)


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
        # conjugating by the non-unitary S = diag(2, 1) keeps the Clifford
        # relations and the chirality but breaks Hermiticity
        s = np.diag([2.0, 1.0]).astype(np.complex128)
        s_inv = np.diag([0.5, 1.0]).astype(np.complex128)
        real = build_gamma(1)
        skewed = type(real)(n=1, matrices=tuple(s @ g @ s_inv for g in real.matrices))
        monkeypatch.setattr("indexcalc.clifford.build_gamma", lambda n: skewed)
        ids = gamma_identities(1)
        assert ids.clifford and ids.grading and ids.chirality_ok
        assert not ids.hermitian
