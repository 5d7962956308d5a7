"""Closed-form determinants against their spectral-product oracles."""

from __future__ import annotations

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from indexcalc import closed_forms, zeta_det
from indexcalc.closed_forms import (
    OPERATOR_KINDS,
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
    pbc_laplacian_log_det_zeta,
)
from indexcalc.zeta_det import oracle_product, regularized_det


# the kinds whose eigenvalues do not depend on the parameter
LAPLACIAN_KINDS = ("pbc_laplacian", "pbc_first_order")


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

    @pytest.mark.parametrize(
        "y, beta", [(5e-324, 1.0), (-5e-324, 1.0), (1e-305, 1e-20), (1e-308, 3.0), (2.0**-1022, 1.0)]
    )
    def test_below_the_smallest_normal(self, y, beta):
        # y/2 or beta*y/2 under 2**-1022, where the ratio sin(beta*y/2)/(y/2) is beta
        assert det_pbc_curvature_block(y, beta) == beta * beta

    @pytest.mark.parametrize(
        "y, beta", [(2.0**-1021, 1.0), (2.0**-420, 2.0**-600), (-1e-300, 0.7), (0.3, 1.0), (4.5, 2.5)]
    )
    def test_in_range_values_unchanged(self, y, beta):
        s = math.sin(beta * y / 2.0) / (y / 2.0)
        assert det_pbc_curvature_block(y, beta) == s * s

    def test_singular_below_float_resolution(self):
        # beta*y/2pi = 10^6 is still resolved to the 1e-9 tolerance
        with pytest.raises(SingularOperatorError) as info:
            det_pbc_curvature_block(2.0 * math.pi * 10**6, 1.0)
        assert info.value.mode_index == 10**6


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


@pytest.mark.parametrize("det", [det_pbc_curvature_block, det_apbc_curvature_block])
@pytest.mark.parametrize("y", [1e17, -1e17, 1e200])
def test_curvature_block_beyond_float_resolution(det, y):
    # every float this large is within 1e-9 of an integer: no zero-eigenvalue verdict
    with pytest.raises(ValueError, match=rf"parameter {re.escape(str(y))} .*float resolution") as info:
        det(y, 1.0)
    assert not isinstance(info.value, SingularOperatorError)


# (closed form, k, beta, message, mode_index) at y = k*unit/beta: the sign of n (or of
# the odd multiple) follows y, mode_index does not
_SINGULAR_CLOSED_FORMS = [
    (det_pbc_curvature_block, 1, 1.0, "beta*y/2 = 1*pi (periodic mode n = 1)", 1),
    (det_pbc_curvature_block, -1, 1.0, "beta*y/2 = -1*pi (periodic mode n = -1)", 1),
    (det_pbc_curvature_block, 2, 0.5, "beta*y/2 = 2*pi (periodic mode n = 2)", 2),
    (det_pbc_curvature_block, -7, 3.0, "beta*y/2 = -7*pi (periodic mode n = -7)", 7),
    (det_pbc_curvature_block, 8388607, 2.0 * math.pi,
     "beta*y/2 = 8388607*pi (periodic mode n = 8388607)", 8388607),
    (det_apbc_curvature_block, 1, 1.0, "beta*y/2 = (1/2)*pi (antiperiodic mode 1)", 1),
    (det_apbc_curvature_block, -1, 1.0, "beta*y/2 = (-1/2)*pi (antiperiodic mode -1)", 1),
    (det_apbc_curvature_block, 3, 2.0, "beta*y/2 = (3/2)*pi (antiperiodic mode 3)", 3),
    (det_apbc_curvature_block, -5, 0.5, "beta*y/2 = (-5/2)*pi (antiperiodic mode -5)", 5),
    (det_apbc_curvature_block, 8388607, math.pi,
     "beta*y/2 = (8388607/2)*pi (antiperiodic mode 8388607)", 8388607),
]


@pytest.mark.parametrize("det,k,beta,message,mode_index", _SINGULAR_CLOSED_FORMS)
def test_singular_closed_form_message(det, k, beta, message, mode_index):
    unit = 2.0 * math.pi if det is det_pbc_curvature_block else math.pi
    with pytest.raises(SingularOperatorError) as info:
        det(k * unit / beta, beta)
    assert str(info.value) == f"zero eigenvalue: {message}"
    assert info.value.mode_index == mode_index


@pytest.mark.parametrize("k", [0, 2, -2, 4, -10])
@pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
def test_apbc_block_even_multiples_are_regular(k, beta):
    # beta*y/2 = (k/2)*pi with k even puts cos(beta*y/2) at +-1: no vanishing pair
    assert math.isclose(det_apbc_curvature_block(k * math.pi / beta, beta), 4.0, rel_tol=1e-12)


@pytest.mark.parametrize("kind,det", [("pbc_curvature_block", det_pbc_curvature_block),
                                      ("apbc_curvature_block", det_apbc_curvature_block)])
@pytest.mark.parametrize("y,beta,shown", [(1e17, 1.0, "1e+17 at beta=1.0"),
                                          (-1e17, 1.0, "-1e+17 at beta=1.0"),
                                          (8388608.0, None, "8388608.0 at beta={beta}")])
def test_float_resolution_message(kind, det, y, beta, shown):
    # from beta*y/unit = 2^23 on, a float's ulp exceeds the 1e-9 tolerance
    if beta is None:
        beta = 2.0 * math.pi if kind == "pbc_curvature_block" else math.pi
    with pytest.raises(ValueError) as info:
        det(y, beta)
    assert str(info.value) == (
        f"{kind} parameter {shown.format(beta=beta)} is beyond the float resolution "
        "of the singularity test"
    )
    assert not isinstance(info.value, SingularOperatorError)


@pytest.mark.parametrize("kind,k,beta,m", [("pbc_curvature_block", -2, 1.0, 2),
                                           ("apbc_curvature_block", 3, 0.5, 3)])
def test_singular_oracle_message(kind, k, beta, m):
    unit = 2.0 * math.pi if kind == "pbc_curvature_block" else math.pi
    spec = OperatorSpec(kind, beta, k * unit / beta)
    with pytest.raises(SingularOperatorError) as info:
        oracle_product(spec, 100)
    assert str(info.value) == (
        f"exactly-zero eigenvalue in mode pair m = {m}, parameter {spec.parameter}"
    )
    assert info.value.mode_index == m


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

    @pytest.mark.parametrize("kind", LAPLACIAN_KINDS)
    @pytest.mark.parametrize("parameter", [0.7, -5.0, 5e-324, 1e300])
    def test_parameter_free_kinds_refuse_a_parameter(self, kind, parameter):
        with pytest.raises(ValueError, match=rf"{kind} .*parameter={re.escape(str(parameter))}"):
            OperatorSpec(kind, 1.0, parameter)
        # both zeros pass
        for zero in (0.0, -0.0):
            assert closed_form(OperatorSpec(kind, 2.0, zero)) == closed_form(OperatorSpec(kind, 2.0))

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

    @pytest.mark.parametrize(
        "spec",
        [
            OperatorSpec("pbc_laplacian", 1e-200),  # beta^2 underflows to 0
            OperatorSpec("pbc_laplacian", 1e-160),  # beta^2 is the subnormal 1e-320
            OperatorSpec("pbc_curvature_block", 1e-170, 1e-170),  # (2 sin(beta y/2))^2 -> 0
        ],
        ids=["zero", "subnormal", "curvature-zero"],
    )
    def test_underflow_leaves_the_float_range(self, spec):
        # no regular operator's determinant is zero, so a 0 or subnormal value is an underflow
        named = f"{spec.kind} determinant at beta={spec.beta}.* leaves the float range"
        with pytest.raises(ValueError, match=named):
            closed_form(spec)
        with pytest.raises(ValueError, match=named):
            oracle_product(spec, 100)

    def test_reference_past_the_float_range_names_the_parameter(self):
        # the parameter-0 reference beta^2 overflows: the refusal names the operator's
        # parameter, not the reference's 0.0
        spec = OperatorSpec("pbc_curvature_block", 1.35e154, 1e-160)
        with pytest.raises(ValueError) as info:
            oracle_product(spec, 10)
        assert str(info.value) == (
            "pbc_curvature_block determinant at beta=1.35e+154, parameter=1e-160 "
            "leaves the float range"
        )

    def test_smallest_normal_determinant_is_kept(self):
        # beta^2 = 2**-1022 exactly, sys.float_info.min: the last value inside the range
        spec = OperatorSpec("pbc_laplacian", 2.0**-511)
        assert closed_form(spec) == oracle_product(spec, 10) == 2.0**-1022

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

    def test_vanishing_periodic_pair_refused(self):
        # nu_1 = 2 pi exactly: only n = 0 is primed away, so the oracle refuses
        # the operator as the closed form does
        spec = OperatorSpec("pbc_curvature_block", 1.0, 2.0 * math.pi)
        with pytest.raises(SingularOperatorError) as info:
            oracle_product(spec, 1000)
        assert info.value.mode_index == 1
        assert np.flatnonzero(spec.paired_mode_factors(1000) == 0.0)[0] == 0
        with pytest.raises(SingularOperatorError):
            closed_form(spec)

    @pytest.mark.parametrize(
        "kind,m",
        [("pbc_curvature_block", 1), ("pbc_curvature_block", 2),
         ("apbc_curvature_block", 1), ("apbc_curvature_block", 3)],
    )
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_mode_index_is_the_positive_mode_number(self, kind, m, sign):
        # m = n for the periodic pair (n, -n), 2k+1 for the antiperiodic pair (k, -k-1)
        unit = 2.0 * math.pi if kind == "pbc_curvature_block" else math.pi
        spec = OperatorSpec(kind, 1.0, sign * m * unit)
        for route in (closed_form, lambda spec: oracle_product(spec, 100)):
            with pytest.raises(SingularOperatorError) as info:
                route(spec)
            assert info.value.mode_index == m

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


B = closed_forms._ORACLE_BLOCK


def raw_oracle(spec, n_modes):
    """The oracle straight from paired_mode_factors: one numpy log-sum of num/den."""
    reference = replace(spec, parameter=0.0)
    num = spec.paired_mode_factors(n_modes)
    den = reference.paired_mode_factors(n_modes)
    return closed_form(reference) * math.exp(float(np.sum(np.log(num / den))))


def fsum_oracle(spec, n_modes):
    """The oracle from one math.log1p per mode pair, summed exactly by math.fsum."""
    if spec.kind in LAPLACIAN_KINDS:
        return closed_form(spec)  # the parameter does not enter these eigenvalues
    terms = []
    for k in range(n_modes):
        if spec.kind.startswith("pbc"):
            freq = 2.0 * math.pi * (k + 1) / spec.beta
        else:
            freq = (2.0 * k + 1.0) * math.pi / spec.beta
        t = (spec.parameter / freq) ** 2
        if spec.kind == "apbc_first_order_shifted":
            terms.append(math.log1p(t))
        else:
            terms.append(2.0 * (math.log(t - 1.0) if t > 1.0 else math.log1p(-t)))
    return closed_form(replace(spec, parameter=0.0)) * math.exp(math.fsum(terms))


REGULAR_SPECS = [
    OperatorSpec("pbc_laplacian", 1.7),
    OperatorSpec("pbc_first_order", 0.6),
    OperatorSpec("apbc_first_order_shifted", 1.3, 1.1),
    OperatorSpec("pbc_curvature_block", 1.2, 2.5),
    OperatorSpec("apbc_curvature_block", 0.8, -3.0),
]


class TestBlockedOracle:
    @pytest.mark.parametrize("n_modes", [B - 1, B, B + 1, 2 * B + 1])
    @pytest.mark.parametrize("spec", REGULAR_SPECS, ids=lambda spec: spec.kind)
    def test_block_boundaries(self, spec, n_modes):
        value = oracle_product(spec, n_modes)
        assert math.isclose(value, raw_oracle(spec, n_modes), rel_tol=1e-12)
        assert math.isclose(value, fsum_oracle(spec, n_modes), rel_tol=1e-13)

    def test_singular_mode_counted_globally(self):
        k = B + 5
        spec = OperatorSpec("apbc_curvature_block", 1.0, (2 * k + 1) * math.pi)
        with pytest.raises(SingularOperatorError) as info:
            oracle_product(spec, 2 * B)
        assert info.value.mode_index == 2 * k + 1
        assert np.flatnonzero(spec.paired_mode_factors(2 * B) == 0.0)[0] == k

    def test_vanishing_periodic_pair_refused_beyond_first_block(self):
        n = B + 7
        spec = OperatorSpec("pbc_curvature_block", 1.0, 2.0 * math.pi * n)
        with pytest.raises(SingularOperatorError) as info:
            oracle_product(spec, 2 * B)
        assert info.value.mode_index == n
        assert np.flatnonzero(spec.paired_mode_factors(2 * B) == 0.0)[0] == n - 1

    @pytest.mark.parametrize(
        "spec",
        [
            OperatorSpec("apbc_curvature_block", 0.7, 9.3),
            OperatorSpec("pbc_curvature_block", 1.0, 2.0 * (3.0 * math.pi - 0.3)),
        ],
        ids=lambda spec: spec.kind,
    )
    def test_agrees_with_exact_log_sum(self, spec):
        n_modes = 2 * 10**5
        assert math.isclose(oracle_product(spec, n_modes), fsum_oracle(spec, n_modes), rel_tol=1e-13)

    def test_memory_bounded_by_one_block(self):
        spec = OperatorSpec("apbc_curvature_block", 1.0, 1.0)
        tracemalloc.start()
        try:
            oracle_product(spec, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 10**6

    def test_parameter_square_past_float_range(self):
        # parameter**2 overflows; the mode factors and the oracle must not raise OverflowError
        spec = OperatorSpec("apbc_curvature_block", 1.0, 1e200)
        assert np.isinf(spec.paired_mode_factors(10)).all()
        with pytest.raises(ValueError, match=r"apbc_curvature_block .*beta=1.0, parameter=1e\+200"):
            oracle_product(spec, 10)
        # every t = (parameter/omega_k)^2 is about 1e-201: the product is the reference 2
        tiny = OperatorSpec("apbc_first_order_shifted", 1e-300, 1e200)
        assert oracle_product(tiny, 1000) == 2.0

    @settings(deadline=None, max_examples=60)
    @given(
        kind=st.sampled_from(OPERATOR_KINDS),
        beta=st.floats(0.2, 5.0),
        z=st.floats(-12.0, 12.0),
        n_modes=st.integers(1, 2 * 10**4),
    )
    def test_matches_raw_route(self, kind, beta, z, n_modes):
        # z = beta*parameter/2, kept 0.05 away from every zero eigenvalue
        if kind in LAPLACIAN_KINDS:
            z = 0.0
        elif kind == "pbc_curvature_block":
            assume(abs(z) < 0.5 or abs(abs(z) / math.pi - round(abs(z) / math.pi)) > 0.05)
        elif kind == "apbc_curvature_block":
            assume(abs(abs(z) / math.pi - round(abs(z) / math.pi) - 0.5) < 0.45)
        spec = OperatorSpec(kind, beta, 2.0 * z / beta)
        assert math.isclose(oracle_product(spec, n_modes), raw_oracle(spec, n_modes), rel_tol=1e-11)


class TestRatioWork:
    @pytest.mark.parametrize("kind", LAPLACIAN_KINDS)
    def test_parameter_free_kinds_walk_no_modes(self, kind, monkeypatch):
        def walked(*args):
            raise AssertionError("the oracle walked the modes")

        monkeypatch.setattr(zeta_det, "_block_log_ratio", walked)
        monkeypatch.setattr(zeta_det, "_mode_numbers", walked)
        for beta, parameter in ((0.5, 0.0), (1.7, 0.0), (2.0, 0.0)):
            spec = OperatorSpec(kind, beta, parameter)
            for n_modes in (1, B, 10**9):
                assert oracle_product(spec, n_modes) == closed_form(spec)

    @pytest.mark.parametrize("kind", OPERATOR_KINDS)
    def test_no_modes_refused(self, kind):
        with pytest.raises(ValueError, match="need at least one mode"):
            oracle_product(OperatorSpec(kind, 1.0, 0.0 if kind in LAPLACIAN_KINDS else 0.5), 0)

    @settings(deadline=None, max_examples=60)
    @given(
        kind=st.sampled_from(["pbc_curvature_block", "apbc_curvature_block"]),
        beta=st.floats(0.2, 5.0),
        k=st.integers(0, 3 * B),
        extra=st.integers(1, B),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_vanishing_pair_found_where_the_raw_route_has_it(self, kind, beta, k, extra, sign):
        n_modes = k + extra
        row = closed_forms._KINDS[kind]
        freq = zeta_det._mode_numbers(row.periodic, k, k + 1)[0] * row.unit / beta
        spec = OperatorSpec(kind, beta, sign * freq)
        with pytest.raises(SingularOperatorError) as info:
            oracle_product(spec, n_modes)
        assert info.value.mode_index == (k + 1 if kind == "pbc_curvature_block" else 2 * k + 1)
        assert np.flatnonzero(spec.paired_mode_factors(n_modes) == 0.0)[0] == k
        for neighbour in (math.nextafter(freq, 0.0), math.nextafter(freq, math.inf)):
            # the raw route keeps these pairs nonzero, and so does the oracle
            try:
                value = oracle_product(OperatorSpec(kind, beta, sign * neighbour), n_modes)
            except SingularOperatorError:
                raise AssertionError(f"neighbour {neighbour!r} of a zero refused as singular")
            except ValueError as exc:  # N close to the zero: the partial product is huge
                assert "leaves the float range" in str(exc)
            else:
                assert value > 0.0

    @pytest.mark.parametrize("spec", REGULAR_SPECS[2:], ids=lambda spec: spec.kind)
    def test_agrees_with_30_digit_sum(self, spec):
        mpmath = pytest.importorskip("mpmath")
        n_modes = 2 * 10**4
        with mpmath.workdps(30):
            beta, p = mpmath.mpf(spec.beta), mpmath.mpf(spec.parameter)
            log_ratio = mpmath.mpf(0)
            for k in range(n_modes):
                m = k + 1 if spec.kind.startswith("pbc") else 2 * k + 1
                unit = 2 * mpmath.pi if spec.kind.startswith("pbc") else mpmath.pi
                t = (beta * p / (m * unit)) ** 2
                if spec.kind == "apbc_first_order_shifted":
                    log_ratio += mpmath.log1p(t)
                else:
                    log_ratio += 2 * mpmath.log(abs(1 - t))
            exact = closed_form(replace(spec, parameter=0.0)) * mpmath.exp(log_ratio)
            error = abs((oracle_product(spec, n_modes) - exact) / exact)
        assert error <= 5e-15


WALKING_KINDS = [kind for kind in OPERATOR_KINDS if kind not in LAPLACIAN_KINDS]


def arange_block_log_ratio(kind: str, c: float, start: int, stop: int) -> float:
    """The block walk on np.arange mode numbers, squared in place, as before the mode
    tables: log1p or log|1 - t| on each mode up to the first with t <= 2^-26, and the
    sum of u - u^2/2 (u = t, or -t on the curvature blocks) over the modes from there."""
    m2 = zeta_det._mode_numbers(closed_forms._KINDS[kind].periodic, start, stop)
    m2 *= m2
    series = int(np.searchsorted(m2, c * 2.0**26))
    curvature = closed_forms._KINDS[kind].pairs == "curvature"
    u = np.divide(-c if curvature else c, m2, out=m2)  # t, or -t rising towards 0 with m
    head, tail = u[:series], u[series:]
    if curvature:
        # t > 1 on a leading run of modes only, where the log is log(t - 1)
        above = int(np.searchsorted(head, -1.0))
        np.subtract(-1.0, head[:above], out=head[:above])
        np.log(head[:above], out=head[:above])
        head = head[above:]
    np.log1p(head, out=head)
    log_sum = float(np.sum(tail)) - 0.5 * float(np.einsum("i,i", tail, tail))
    log_sum += float(np.sum(u[:series]))
    return 2.0 * log_sum if curvature else log_sum


def arange_oracle(spec, n_modes):
    """oracle_product on the route it took before the mode tables, for a regular spec."""
    reference = replace(spec, parameter=0.0)
    if closed_forms._KINDS[spec.kind].pairs is None:
        return closed_form(reference)
    c = closed_forms._ratio_scale(spec, n_modes)
    log_ratio = math.fsum(
        arange_block_log_ratio(spec.kind, c, start, min(start + B, n_modes))
        for start in range(0, n_modes, B)
    )
    return closed_form(reference) * math.exp(log_ratio)


_LENGTHS = np.random.default_rng(20).integers(1, B + 1, size=3)
BLOCKS = [(0, 1), (0, 2), (0, B - 1), (0, B)] + [
    (start, start + int(length)) for start, length in zip((B, 2 * B, 30 * B), _LENGTHS)
]
RATIO_SCALES = [1e-6, 3.7e-3, 0.37, 2.5, 17.3, 612.9, 9999.5]


def all_tables():
    """All four mode tables: each parity's block-0 mode numbers and their squares."""
    return [table for periodic in (True, False)
            for table in (zeta_det._MODES[periodic], zeta_det._SQUARES[periodic])]


class TestModeTables:
    """The block walk reads its mode numbers from constant tables, built at import; every
    value stays equal, float for float, to the np.arange route it replaced."""

    @pytest.mark.parametrize("start, stop", BLOCKS)
    @pytest.mark.parametrize("kind", WALKING_KINDS)
    def test_block_log_ratio_equals_arange_route(self, kind, start, stop):
        last = zeta_det._mode_numbers(closed_forms._KINDS[kind].periodic, stop - 1, stop)[0]
        # the last scale puts t > 1 on every mode of the block: the curvature head reaches its end
        for c in RATIO_SCALES + [(1.5 * last) ** 2]:
            assert zeta_det._block_log_ratio(kind, c, start, stop) == arange_block_log_ratio(
                kind, c, start, stop
            ), c

    @pytest.mark.parametrize("n_modes", [B - 1, B, B + 1, 2 * B + 1, 10**6])
    @pytest.mark.parametrize(
        "spec",
        REGULAR_SPECS + [OperatorSpec("pbc_curvature_block", 1.0, 200.5),
                         OperatorSpec("apbc_curvature_block", 2.0, -99.9)],
        ids=lambda spec: f"{spec.kind}-{spec.parameter}",
    )
    def test_oracle_equals_arange_route(self, spec, n_modes):
        assert oracle_product(spec, n_modes) == arange_oracle(spec, n_modes)

    def test_tables_are_read_only(self):
        for table in all_tables():
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0

    def test_tables_unchanged_after_a_sweep_of_calls(self):
        for kind in WALKING_KINDS:
            for beta, parameter in ((0.4, 1.3), (1.0, 2.0 * math.pi * 3), (3.0, -250.0)):
                for n_modes in (1, 7, B, B + 5, 3 * B):
                    try:
                        regularized_det(OperatorSpec(kind, beta, parameter), n_modes)
                    except ValueError:  # singular pairs and the float range refused
                        pass
        modes = {True: np.arange(1, B + 1, dtype=float), False: np.arange(1, 2 * B, 2, dtype=float)}
        for periodic, expected in modes.items():
            assert np.array_equal(zeta_det._MODES[periodic], expected)
            assert np.array_equal(zeta_det._SQUARES[periodic], expected * expected)


def _singular_parameter(kind: str, beta: float, m: int) -> float:
    """The parameter whose frequency m*unit/beta vanishes mode pair m, as the oracle tests it."""
    return m * (2.0 * math.pi if kind == "pbc_curvature_block" else math.pi) / beta


def _kernel_specs() -> list[OperatorSpec]:
    """Every kind at float-range edges and regular points; the curvature blocks also at
    singular points of the first pair and of the first pair past one block, both signs,
    and at their math.nextafter neighbours."""
    specs = [
        OperatorSpec("pbc_laplacian", 2.0**-511),  # beta^2 = 2**-1022: the smallest normal
        OperatorSpec("pbc_laplacian", 1e-160),  # beta^2 subnormal: refused
        OperatorSpec("pbc_laplacian", 1.3e154),
        OperatorSpec("pbc_first_order", 0.6),
        OperatorSpec("pbc_first_order", 5e-324),  # refused
        OperatorSpec("apbc_first_order_shifted", 1.3, 1.1),
        OperatorSpec("apbc_first_order_shifted", 1.0, 1e100),  # the product overflows
        OperatorSpec("apbc_first_order_shifted", 1e-300, 1e200),  # every t about 1e-201
        OperatorSpec("pbc_curvature_block", 1.2, 2.5),
        OperatorSpec("pbc_curvature_block", 1.3e154, 1e-160),  # reference beta^2 near the top
        OperatorSpec("pbc_curvature_block", 1.35e154, 1e-160),  # reference overflows
        OperatorSpec("pbc_curvature_block", 2.0**-511, 1e-3),  # just below the smallest normal
        OperatorSpec("apbc_curvature_block", 0.8, -3.0),
        OperatorSpec("apbc_curvature_block", 1.0, 1e200),  # c overflows
    ]
    for kind, beta, modes in (("pbc_curvature_block", 1.0, (1, B + 1)),
                              ("apbc_curvature_block", 0.7, (1, 2 * B + 1))):
        for m in modes:
            y = _singular_parameter(kind, beta, m)
            specs += [OperatorSpec(kind, beta, y), OperatorSpec(kind, beta, -y)]
            specs += [OperatorSpec(kind, beta, math.nextafter(y, t)) for t in (0.0, math.inf)]
    return specs


AGREEMENT_MODES = [1, 2, 7, B - 1, B, B + 1, 10**5,
                   closed_forms.PURE_MODE_LIMIT, closed_forms.PURE_MODE_LIMIT + 1]


def _outcome(route, spec, n_modes):
    """route(spec, n_modes), or its refusal as (type, message, mode_index)."""
    try:
        return route(spec, n_modes)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "mode_index", None)


class TestKernelAgreement:
    """The pure-Python kernel (closed_forms._pure_block_log_ratio) and the numpy kernel
    (zeta_det._block_log_ratio) under one skeleton, each the other's reference: the same
    refusals, and values within a relative 1e-13.  The value is exp(log-ratio), so it can
    agree no closer than one ulp of the log-ratio: 1.1e-13 of the value past |log-ratio| 512,
    which these operators' accepted values stay below."""

    @pytest.mark.parametrize("spec", _kernel_specs(), ids=lambda s: f"{s.kind}-{s.beta}-{s.parameter!r}")
    def test_pure_kernel_agrees_with_numpy_kernel(self, spec):
        for n_modes in AGREEMENT_MODES:
            pure = _outcome(closed_forms._ratio_oracle, spec, n_modes)
            numpy_route = _outcome(oracle_product, spec, n_modes)
            if isinstance(numpy_route, float):
                assert isinstance(pure, float), (n_modes, pure)
                assert math.isclose(pure, numpy_route, rel_tol=1e-13), n_modes
            else:
                assert pure == numpy_route, n_modes

    @pytest.mark.parametrize("kind", WALKING_KINDS)
    def test_block_sums_agree(self, kind):
        for start, stop in BLOCKS:
            for c in RATIO_SCALES:
                pure = closed_forms._pure_block_log_ratio(kind, c, start, stop)
                numpy_route = zeta_det._block_log_ratio(kind, c, start, stop)
                assert math.isclose(pure, numpy_route, rel_tol=1e-13, abs_tol=1e-13), (start, c)

    @pytest.mark.parametrize("kind", WALKING_KINDS)
    def test_pure_kernel_streams_its_modes(self, kind):
        # a list of the 10^5 mode floats alone would take 800 kB; the walk holds about 2 kB
        spec = OperatorSpec(kind, 1.0, 300.7)  # the curvature heads end at m = 47 and 95
        tracemalloc.start()
        try:
            closed_forms._ratio_oracle(spec, 10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 1024

    def test_entry_point_hands_a_walk_past_the_limit_to_zeta_det(self):
        limit = closed_forms.PURE_MODE_LIMIT
        spec = OperatorSpec("apbc_curvature_block", 1.1, 2.3)
        record = closed_forms.regularized_det(spec, limit)
        oracle = closed_forms._ratio_oracle(spec, limit)
        assert record == closed_forms.RegularizedDet(closed_form(spec), oracle, limit)
        assert closed_forms.regularized_det(spec, limit + 1) == regularized_det(spec, limit + 1)


def _exact_block_log_ratio(kind: str, c: float, start: int, stop: int) -> float:
    """A block's log-ratio summed to 40 digits over the same float t = c/m^2 the kernels
    compute, so only the kernels' logs and sums are under test."""
    mpmath = pytest.importorskip("mpmath")
    row = closed_forms._KINDS[kind]
    ms = range(start + 1, stop + 1) if row.periodic else range(2 * start + 1, 2 * stop, 2)
    with mpmath.workdps(40):
        if row.pairs != "curvature":
            return float(mpmath.fsum(mpmath.log1p(c / (m * m)) for m in map(float, ms)))
        terms = (mpmath.log(abs(1 - mpmath.mpf(c / (m * m)))) for m in map(float, ms))
        return float(2 * mpmath.fsum(terms))


class TestSeriesSum:
    """The numpy kernel sums the modes with t = c/m^2 <= 2^-26 as sum(u) - sum(u^2)/2
    (u = t, or -t on the curvature blocks), one ulp or less from each mode's log1p; the
    modes before are walked with log1p or log|1 - t|, as the pure kernel walks them all."""

    # two short later blocks, where the 40-digit sum costs less, and one whole one
    @pytest.mark.parametrize("start, stop", [(B, B + 4099), (2 * B + 17, 2 * B + 3000), (30 * B, 31 * B)])
    @pytest.mark.parametrize("kind", WALKING_KINDS)
    def test_later_blocks_agree_with_40_digit_sum(self, kind, start, stop):
        mid = (start + stop) // 2
        m = zeta_det._mode_numbers(closed_forms._KINDS[kind].periodic, mid, mid + 1)[0]
        # the series starts mid-block, then in the block from 30*B on only (612.9 * 2^26 = m^2
        # at m = 202,800)
        for c in (m * m * 2.0**-26, 612.9):
            exact = _exact_block_log_ratio(kind, c, start, stop)
            assert math.isclose(zeta_det._block_log_ratio(kind, c, start, stop), exact, rel_tol=1e-15), c

    @pytest.mark.parametrize("start", [0, B])
    @pytest.mark.parametrize("kind", WALKING_KINDS)
    def test_first_mode_at_the_series_bound(self, kind, start):
        # the first t exactly 2^-26 puts the whole block in the series; one ulp above, the
        # first mode is walked
        m = zeta_det._mode_numbers(closed_forms._KINDS[kind].periodic, start, start + 1)[0]
        stop = start + 1024
        for t in (2.0**-26, math.nextafter(2.0**-26, math.inf)):
            c = t * (m * m)
            assert c / (m * m) == t
            exact = _exact_block_log_ratio(kind, c, start, stop)
            assert math.isclose(zeta_det._block_log_ratio(kind, c, start, stop), exact, rel_tol=1e-15), t
            assert math.isclose(closed_forms._pure_block_log_ratio(kind, c, start, stop), exact, rel_tol=1e-15), t

    @pytest.mark.parametrize("kind", WALKING_KINDS)
    def test_log1p_walks_only_the_modes_before_the_series(self, kind, monkeypatch):
        walked = []

        def counted_log1p(x, out=None, _log1p=np.log1p):
            walked.append(x.size)
            return _log1p(x, out=out)

        monkeypatch.setattr(np, "log1p", counted_log1p)
        c = 0.37  # t < 1 on every mode, and t <= 2^-26 from m = 4983 on
        for start in (0, B, 3 * B):
            m = zeta_det._mode_numbers(closed_forms._KINDS[kind].periodic, start, start + B)
            walked.clear()
            zeta_det._block_log_ratio(kind, c, start, start + B)
            assert sum(walked) == np.count_nonzero(m * m < c * 2.0**26), start

    @settings(deadline=None, max_examples=60)
    @given(
        kind=st.sampled_from(WALKING_KINDS),
        c=st.floats(0.0, 1e4),
        start=st.integers(0, 40 * B),
        length=st.integers(1, B),
    )
    def test_block_sums_agree_with_pure_kernel(self, kind, c, start, length):
        curvature = closed_forms._KINDS[kind].pairs == "curvature"
        # the skeleton keeps c off every m^2, where a curvature pair vanishes
        assume(not (curvature and c and math.sqrt(c).is_integer()))
        pure = closed_forms._pure_block_log_ratio(kind, c, start, start + length)
        numpy_route = zeta_det._block_log_ratio(kind, c, start, start + length)
        # log(t - 1) on a leading run of t > 1 can cancel the other terms: there the sums
        # agree to an absolute 1e-13, elsewhere every term has one sign
        m = zeta_det._mode_numbers(closed_forms._KINDS[kind].periodic, start, start + 1)[0]
        cancels = curvature and c > m * m
        assert math.isclose(numpy_route, pure, rel_tol=1e-13, abs_tol=1e-13 if cancels else 0.0)


class TestModeCount:
    @pytest.mark.parametrize("n_modes", [2.5, 1e5, 3.0, True, False, "3", None, np.float64(4.0)])
    @pytest.mark.parametrize("kind", OPERATOR_KINDS)
    def test_non_integers_refused_on_every_kind(self, kind, n_modes):
        spec = OperatorSpec(kind, 1.0, 0.0 if kind in LAPLACIAN_KINDS else 0.5)
        for call in (oracle_product, regularized_det):
            with pytest.raises(ValueError, match=re.escape(f"got {n_modes!r}")):
                call(spec, n_modes)

    @pytest.mark.parametrize("kind", OPERATOR_KINDS)
    def test_numpy_integers_count_as_ints(self, kind):
        spec = OperatorSpec(kind, 1.3, 0.0 if kind in LAPLACIAN_KINDS else 0.7)
        for n_modes in (1, 100, B + 3):
            assert oracle_product(spec, np.int64(n_modes)) == oracle_product(spec, n_modes)
            assert oracle_product(spec, np.int32(n_modes)) == oracle_product(spec, n_modes)
        assert regularized_det(spec, np.int64(100)).oracle_modes == 100
        with pytest.raises(ValueError, match="need at least one mode"):
            oracle_product(spec, np.int64(0))
