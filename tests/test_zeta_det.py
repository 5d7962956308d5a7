"""Closed-form determinants against their spectral-product oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
import sympy

from indexcalc.zeta_det import (
    OperatorSpec,
    SingularOperatorError,
    closed_form,
    det_apbc_curvature_block,
    det_apbc_curvature_block_via_ratio,
    det_apbc_first_order,
    det_pbc_curvature_block,
    det_pbc_first_order,
    det_pbc_laplacian,
    fermion_partition,
    oracle_product,
    pbc_laplacian_log_det_zeta,
    regularized_det,
)


class TestPbcLaplacian:
    @pytest.mark.parametrize("beta,expected", [(1.0, 1.0), (2.0, 4.0), (0.5, 0.25)])
    def test_closed_form_exact(self, beta, expected):
        assert det_pbc_laplacian(beta) == expected

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 10.0])
    def test_zeta_route_agrees(self, beta):
        via_zeta = math.exp(pbc_laplacian_log_det_zeta(beta))
        assert math.isclose(via_zeta, beta * beta, rel_tol=1e-12)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 10.0])
    def test_unit_ratio_invariant(self, beta):
        assert det_pbc_laplacian(beta) * (1.0 / beta**2) == 1.0

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            det_pbc_laplacian(0.0)
        with pytest.raises(ValueError):
            det_pbc_laplacian(-1.0)


class TestPbcCurvatureBlock:
    def test_zero_parameter_limit(self):
        assert det_pbc_curvature_block(0.0, 1.0) == 1.0
        assert det_pbc_curvature_block(0.0, 2.0) == 4.0

    def test_at_y_pi(self):
        assert math.isclose(
            det_pbc_curvature_block(math.pi, 1.0), 4.0 / math.pi**2, rel_tol=1e-15
        )

    def test_singular_names_mode(self):
        with pytest.raises(SingularOperatorError) as info:
            det_pbc_curvature_block(2.0 * math.pi, 1.0)
        assert info.value.mode_index == 1

    def test_even_in_y(self):
        for y in (0.3, 1.7, 2.5):
            assert det_pbc_curvature_block(y, 1.0) == det_pbc_curvature_block(-y, 1.0)


class TestApbcCurvatureBlock:
    def test_y_zero(self):
        # two antiperiodic first-order factors of 2 each
        assert det_apbc_curvature_block(0.0, 1.0) == 4.0

    def test_paper_point(self):
        assert math.isclose(det_apbc_curvature_block(2 * math.pi / 3, 1.0), 1.0, rel_tol=1e-14)

    def test_singular(self):
        with pytest.raises(SingularOperatorError):
            det_apbc_curvature_block(math.pi, 1.0)

    def test_ratio_identity_symbolic(self):
        # I(2b)/I(b) = (sin(b y)/sin(b y/2))^2 = (2 cos(b y/2))^2, exactly
        z = sympy.symbols("z")
        assert sympy.simplify((sympy.sin(2 * z) / sympy.sin(z)) ** 2 - (2 * sympy.cos(z)) ** 2) == 0

    @pytest.mark.parametrize("y", [0.3, 1.0, 2.0, 4.5])
    def test_ratio_identity_numeric(self, y):
        direct = det_apbc_curvature_block(y, 1.0)
        ratio = det_apbc_curvature_block_via_ratio(y, 1.0)
        assert math.isclose(direct, ratio, rel_tol=1e-12)

    def test_ratio_identity_other_beta(self):
        for beta in (0.5, 2.0):
            direct = det_apbc_curvature_block(1.1, beta)
            ratio = det_apbc_curvature_block_via_ratio(1.1, beta)
            assert math.isclose(direct, ratio, rel_tol=1e-12)

    def test_even_in_y(self):
        for y in (0.4, 1.9):
            assert det_apbc_curvature_block(y, 1.0) == det_apbc_curvature_block(-y, 1.0)


class TestApbcFirstOrder:
    def test_omega_zero_is_two(self):
        assert det_apbc_first_order(0.0, 1.0) == 2.0
        assert fermion_partition(0.0, 1.0) == 2.0

    def test_paper_value(self):
        assert math.isclose(det_apbc_first_order(2.0, 1.0), 2 * math.cosh(1.0), rel_tol=1e-15)
        assert math.isclose(fermion_partition(2.0, 1.0), 3.0861612696, abs_tol=1e-9)

    @pytest.mark.parametrize("omega", [0.0, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_equals_fermion_partition(self, omega, beta):
        # trace over the two-level system vs the regularized determinant
        assert math.isclose(
            fermion_partition(omega, beta), det_apbc_first_order(omega, beta), rel_tol=1e-14
        )

    def test_even_in_omega(self):
        assert fermion_partition(1.3, 1.0) == fermion_partition(-1.3, 1.0)
        assert det_apbc_first_order(1.3, 1.0) == det_apbc_first_order(-1.3, 1.0)

    def test_beta_independence_at_zero(self):
        for beta in (0.1, 1.0, 10.0):
            assert fermion_partition(0.0, beta) == 2.0


class TestOperatorSpec:
    def test_pbc_requires_prime(self):
        with pytest.raises(ValueError):
            OperatorSpec("pbc_laplacian", 1.0, prime=False)

    def test_defaults(self):
        assert OperatorSpec("pbc_laplacian", 1.0).prime is True
        assert OperatorSpec("apbc_curvature_block", 1.0, 1.0).prime is False

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            OperatorSpec("dirichlet", 1.0)

    def test_closed_form_dispatch(self):
        assert closed_form(OperatorSpec("pbc_laplacian", 3.0)) == 9.0
        assert closed_form(OperatorSpec("pbc_first_order", 3.0)) == 3.0
        assert closed_form(OperatorSpec("apbc_first_order_shifted", 1.0, 0.0)) == 2.0

    def test_pbc_first_order_closed_form(self):
        assert det_pbc_first_order(1.0) == 1.0
        assert det_pbc_first_order(2.5) == 2.5

    @pytest.mark.parametrize("beta", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_beta(self, beta):
        with pytest.raises(ValueError, match=f"beta .*{beta}"):
            OperatorSpec("pbc_laplacian", beta)
        with pytest.raises(ValueError, match=f"beta .*{beta}"):
            det_apbc_first_order(1.0, beta)

    @pytest.mark.parametrize("kind", ["apbc_first_order_shifted", "pbc_curvature_block"])
    @pytest.mark.parametrize("parameter", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_parameter(self, kind, parameter):
        with pytest.raises(ValueError, match=f"parameter .*{parameter}"):
            OperatorSpec(kind, 1.0, parameter)
        # the closed forms called directly refuse it too
        closed_forms = {
            "apbc_first_order_shifted": (det_apbc_first_order, fermion_partition),
            "pbc_curvature_block": (det_pbc_curvature_block, det_apbc_curvature_block),
        }
        name = "omega" if kind == "apbc_first_order_shifted" else "y"
        for fn in closed_forms[kind]:
            with pytest.raises(ValueError, match=f"{name} must be finite, got {parameter}"):
                fn(parameter, 1.0)


class TestOracle:
    def test_leaving_float_range_names_the_operator(self):
        # the partial product overflows although every mode factor is finite
        spec = OperatorSpec("apbc_first_order_shifted", 1.0, 1e100)
        named = r"apbc_first_order_shifted .*beta=1.0, parameter=1e\+100"
        with pytest.raises(ValueError, match=named):
            oracle_product(spec, 10)
        with pytest.raises(ValueError, match="float range"):
            closed_form(spec)

    def test_laplacian_oracle_exact_ratio(self):
        for beta in (0.5, 1.0, 2.0):
            spec = OperatorSpec("pbc_laplacian", beta)
            assert oracle_product(spec, 1000) == beta * beta

    def test_pbc_block_tolerance(self):
        spec = OperatorSpec("pbc_curvature_block", 1.0, 1.0)
        closed = det_pbc_curvature_block(1.0, 1.0)
        assert abs(oracle_product(spec, 10**5) - closed) < 1e-4

    def test_apbc_first_order_large_n(self):
        spec = OperatorSpec("apbc_first_order_shifted", 1.0, 1.0)
        closed = 2 * math.cosh(0.5)
        assert abs(oracle_product(spec, 10**6) - closed) < 1e-5

    def test_apbc_block_zero_parameter_exact(self):
        spec = OperatorSpec("apbc_curvature_block", 1.0, 0.0)
        for n in (1, 10, 1000):
            assert oracle_product(spec, n) == 4.0

    def test_monotone_convergence(self):
        spec = OperatorSpec("apbc_curvature_block", 1.0, 1.0)
        closed = det_apbc_curvature_block(1.0, 1.0)
        deltas = [abs(oracle_product(spec, n) - closed) for n in (10, 100, 1000, 10000)]
        assert deltas == sorted(deltas, reverse=True)

    @pytest.mark.parametrize("n", [100, 1000])
    def test_successive_difference_order(self, n):
        spec = OperatorSpec("apbc_curvature_block", 1.0, 1.0)
        diff = abs(oracle_product(spec, n + 1) - oracle_product(spec, n))
        assert diff <= 1.0 / n**2

    def test_zero_eigenvalue_with_prime_false(self):
        # omega_0 = pi/beta exactly hits y = pi
        spec = OperatorSpec("apbc_curvature_block", 1.0, math.pi)
        with pytest.raises(SingularOperatorError):
            oracle_product(spec, 100)

    def test_zero_mode_excluded_with_prime_true(self):
        # nu_1 = 2 pi exactly: the primed product drops that pair
        spec = OperatorSpec("pbc_curvature_block", 1.0, 2.0 * math.pi)
        value = oracle_product(spec, 1000)
        assert math.isfinite(value) and value != 0.0

    def test_order_independence_contract(self):
        spec = OperatorSpec("pbc_curvature_block", 1.0, 1.0)
        forward = oracle_product(spec, 10**4)
        num = spec.paired_mode_factors(10**4)
        den = OperatorSpec("pbc_curvature_block", 1.0, 0.0).paired_mode_factors(10**4)
        reversed_logs = np.log(num[::-1] / den[::-1])
        backward = det_pbc_laplacian(1.0) * math.exp(float(np.sum(reversed_logs)))
        assert abs(forward - backward) <= 1e-12

    def test_record(self):
        spec = OperatorSpec("pbc_laplacian", 2.0)
        record = regularized_det(spec, 100)
        assert record.closed_form == 4.0
        assert record.oracle_value == 4.0
        assert record.delta == 0.0
        assert record.oracle_modes == 100
