"""Closed-form determinants against their spectral-product oracles."""

from __future__ import annotations

import math
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
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
from indexcalc.exact_algebra import bernoulli
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
        # no regular operator's determinant is zero, so a 0 or subnormal value is an underflow.
        # The Laplacian oracle is its closed form, refused as such; a walking oracle names N
        named = f"{spec.kind} determinant at beta={spec.beta}.* leaves the float range"
        with pytest.raises(ValueError, match=named):
            closed_form(spec)
        if spec.kind != "pbc_laplacian":
            named = f"{spec.kind} oracle over 100 modes at beta={spec.beta}.* leaves the float range"
        with pytest.raises(ValueError, match=named):
            oracle_product(spec, 100)

    def test_reference_past_the_float_range_names_the_parameter(self):
        # the parameter-0 reference beta^2 overflows: the refusal names the operator's
        # parameter, not the reference's 0.0
        spec = OperatorSpec("pbc_curvature_block", 1.35e154, 1e-160)
        with pytest.raises(ValueError) as info:
            oracle_product(spec, 10)
        assert str(info.value) == (
            "pbc_curvature_block oracle over 10 modes at beta=1.35e+154, parameter=1e-160 "
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


B = zeta_det._ORACLE_BLOCK


def raw_oracle(spec, n_modes):
    """The oracle straight from paired_mode_factors: one numpy log-sum of num/den."""
    reference = OperatorSpec(spec.kind, spec.beta)
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
    return closed_form(OperatorSpec(spec.kind, spec.beta)) * math.exp(math.fsum(terms))


REGULAR_SPECS = [
    OperatorSpec("pbc_laplacian", 1.7),
    OperatorSpec("pbc_first_order", 0.6),
    OperatorSpec("apbc_first_order_shifted", 1.3, 1.1),
    OperatorSpec("pbc_curvature_block", 1.2, 2.5),
    OperatorSpec("apbc_curvature_block", 0.8, -3.0),
]


def clear_of_zero_eigenvalues(kind: str, z: float) -> bool:
    """Whether z = beta*parameter/2 lies 0.05 pi or more from every z at which a pair of
    kind vanishes: k pi (k >= 1) on the periodic curvature block, (k + 1/2) pi on the
    antiperiodic one.  Other kinds have no such z."""
    d = abs(z) / math.pi - round(abs(z) / math.pi)  # in [-1/2, 1/2]
    if kind == "pbc_curvature_block":
        return abs(z) < 0.5 or abs(d) > 0.05
    if kind == "apbc_curvature_block":
        return abs(abs(d) - 0.5) > 0.05
    return True


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
        if kind in LAPLACIAN_KINDS:
            z = 0.0
        assume(clear_of_zero_eigenvalues(kind, z))
        spec = OperatorSpec(kind, beta, 2.0 * z / beta)
        assert math.isclose(oracle_product(spec, n_modes), raw_oracle(spec, n_modes), rel_tol=1e-11)

    @pytest.mark.parametrize(
        "kind, z, clear",
        [
            # 2.49999 pi: the raw route and the oracle differed there by a relative 3.1e-11
            ("apbc_curvature_block", 7.8539349509167495, False),
            ("apbc_curvature_block", 1.0, True),
            ("apbc_curvature_block", 3.0 * math.pi, True),  # cos(z) = -1: no pair vanishes
            ("pbc_curvature_block", 2.0 * math.pi + 0.01, False),
            ("pbc_curvature_block", 0.01, True),
            ("pbc_curvature_block", 2.5, True),
        ],
    )
    def test_zero_eigenvalue_filter(self, kind, z, clear):
        assert clear_of_zero_eigenvalues(kind, z) is clear


class TestRatioWork:
    @pytest.mark.parametrize("kind", LAPLACIAN_KINDS)
    def test_parameter_free_kinds_walk_no_modes(self, kind, monkeypatch):
        def walked(*args):
            raise AssertionError("the oracle walked the modes")

        monkeypatch.setattr(zeta_det, "_block_log_ratio", walked)
        monkeypatch.setattr(closed_forms, "_mode_numbers", walked)
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
        freq = closed_forms._mode_numbers(row.step, k, k + 1)[0] * row.unit / beta
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
            exact = closed_form(OperatorSpec(spec.kind, spec.beta)) * mpmath.exp(log_ratio)
            error = abs((oracle_product(spec, n_modes) - exact) / exact)
        assert error <= 5e-15


WALKING_KINDS = [kind for kind in OPERATOR_KINDS if kind not in LAPLACIAN_KINDS]


def arange_block_log_ratio(kind: str, c: float, start: int, stop: int) -> float:
    """The block walk on np.arange mode numbers, squared in place, as before the mode
    tables.  Block 0 is the pure kernel's.  A later block walks log1p or log|1 - t| on each
    mode up to the first with t <= 2^-26 and sums u - u^2/2 (u = t, or -t on the curvature
    blocks) over the modes from there as v (S2 - v S4/2), v = c or -c and S2, S4 the numpy
    sums of 1/m^2 and 1/m^4 over them."""
    if not start:
        return closed_forms._pure_block_log_ratio(kind, c, 0, stop)
    m2 = closed_forms._mode_numbers(closed_forms._KINDS[kind].step, start, stop)
    m2 *= m2
    curvature = closed_forms._KINDS[kind].pairs == "curvature"
    v = -c if curvature else c
    series = int(np.searchsorted(m2, c * 2.0**26))
    log_sum = 0.0
    inverse = 1.0 / m2[series:]
    if inverse.size:
        log_sum = v * (float(np.sum(inverse)) - 0.5 * v * float(np.einsum("i,i", inverse, inverse)))
    head = v / m2[:series]  # t, or -t rising towards 0 with m
    walked = head
    if curvature:
        # t > 1 on a leading run of modes only, where the log is log(t - 1)
        above = int(np.searchsorted(head, -1.0))
        head[:above] = np.log(-1.0 - head[:above])
        walked = head[above:]
    np.log1p(walked, out=walked)
    log_sum += float(np.sum(head))
    return 2.0 * log_sum if curvature else log_sum


def arange_oracle(spec, n_modes):
    """oracle_product on the route it took before the mode tables, for a regular spec."""
    reference = OperatorSpec(spec.kind, spec.beta)
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


class TestModeTables:
    """A later block reads its mode numbers from constant tables, built at import; every
    value stays equal, float for float, to the np.arange route they replaced."""

    @pytest.mark.parametrize("start, stop", BLOCKS)
    @pytest.mark.parametrize("kind", WALKING_KINDS)
    def test_block_log_ratio_equals_arange_route(self, kind, start, stop):
        last = closed_forms._mode_numbers(closed_forms._KINDS[kind].step, stop - 1, stop)[0]
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
        for table in zeta_det._MODES.values():
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
        modes = {1: np.arange(1, B + 1, dtype=float), 2: np.arange(1, 2 * B, 2, dtype=float)}
        for step, expected in modes.items():
            assert np.array_equal(zeta_det._MODES[step], expected)
        for step in (1, 2):
            fresh = closed_forms._small_sums(step)
            assert (closed_forms._SMALL_TAILS[step], closed_forms._SMALL_RESTS[step]) == fresh


def test_every_kind_has_mode_numbers_step_k_plus_1_at_unit_2pi_over_step():
    """One spectrum rule: mode index k has mode number m = h*k + 1 at unit 2pi/h, with h = 1
    (n = 1, 2, 3, ... at 2pi) on the periodic kinds and h = 2 (2k+1 at pi) on the others."""
    for kind, row in closed_forms._KINDS.items():
        assert row.step == (1 if kind.startswith("pbc") else 2), kind
        assert row.unit == 2.0 * math.pi / row.step, kind
        expected = [1.0, 2.0, 3.0] if row.step == 1 else [1.0, 3.0, 5.0]
        assert closed_forms._mode_numbers(row.step, 0, 3).tolist() == expected, kind


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


AGREEMENT_MODES = [1, 2, 7, B - 1, B, B + 1, 10**5, 1 << 19, (1 << 19) + 1]


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

    @pytest.mark.parametrize("spec, head, modes", [
        (OperatorSpec("apbc_curvature_block", 1.0, 1.0), 2, (1, B + 1)),
        # x = 3000.5: the series starts at m = 33,947, so a walk of B + 1 modes is all head
        # (one under about 25,000 modes leaves the float range: its product overshoots by
        # exp(2 x^2/N))
        (OperatorSpec("pbc_curvature_block", 1.0, 2.0 * math.pi * 3000.5), 33_946, (B + 1,)),
    ], ids=["short", "long"])
    def test_entry_point_walks_every_head_in_pure_python_at_any_n(
        self, spec, head, modes, monkeypatch
    ):
        def numpy_walk(*args):
            raise AssertionError("the entry point walked a block on numpy")

        monkeypatch.setattr(zeta_det, "_block_log_ratio", numpy_walk)
        assert closed_forms._oracle_head(spec, 2 * 10**9) == head
        for n_modes in (*modes, (1 << 19) + 1, 2 * 10**9):
            record = closed_forms.regularized_det(spec, n_modes)
            oracle = closed_forms._ratio_oracle(spec, n_modes)
            assert record == closed_forms.RegularizedDet(closed_form(spec), oracle, n_modes)

def _exact_block_log_ratio(kind: str, c: float, start: int, stop: int) -> float:
    """A block's log-ratio summed to 40 digits over the exact t = c/m^2 of the float c, so
    the kernels' rounding of t is under test too: next to a vanishing pair a log of the
    float t - 1 amplifies it by 1/|1 - t|."""
    mpmath = pytest.importorskip("mpmath")
    row = closed_forms._KINDS[kind]
    ms = range(start + 1, stop + 1) if row.step == 1 else range(2 * start + 1, 2 * stop, 2)
    with mpmath.workdps(40):
        ts = (mpmath.mpf(c) / (m * m) for m in ms)
        if row.pairs != "curvature":
            return float(mpmath.fsum(map(mpmath.log1p, ts)))
        return float(2 * mpmath.fsum(mpmath.log(abs(1 - t)) for t in ts))


class TestSeriesSum:
    """The numpy kernel sums a later block's modes with t = c/m^2 <= 2^-26 as
    sum(u) - sum(u^2)/2 (u = t, or -t on the curvature blocks), one ulp or less from each
    mode's log1p; the modes before are walked with log1p or log|1 - t|.  Block 0 is the pure
    kernel, which splits at 2^-7 (TestPureKernelSeries)."""

    # two short later blocks, where the 40-digit sum costs less, and one whole one
    @pytest.mark.parametrize("start, stop", [(B, B + 4099), (2 * B + 17, 2 * B + 3000), (30 * B, 31 * B)])
    @pytest.mark.parametrize("kind", WALKING_KINDS)
    def test_later_blocks_agree_with_40_digit_sum(self, kind, start, stop):
        mid = (start + stop) // 2
        m = closed_forms._mode_numbers(closed_forms._KINDS[kind].step, mid, mid + 1)[0]
        # the numpy series starts mid-block, then in the block from 30*B on only (612.9 * 2^26
        # = m^2 at m = 202,800); the pure kernel's series starts before every block
        for c in (m * m * 2.0**-26, 612.9):
            exact = _exact_block_log_ratio(kind, c, start, stop)
            for kernel in (zeta_det._block_log_ratio, closed_forms._pure_block_log_ratio):
                assert math.isclose(kernel(kind, c, start, stop), exact, rel_tol=1e-15), (kernel, c)

    @pytest.mark.parametrize("start", [0, B])
    @pytest.mark.parametrize("kind", WALKING_KINDS)
    def test_first_mode_at_the_series_bound(self, kind, start):
        # the first t exactly 2^-26 puts the whole block in the series; one ulp above, the
        # first mode of a later block is walked (block 0's series takes both)
        m = closed_forms._mode_numbers(closed_forms._KINDS[kind].step, start, start + 1)[0]
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
        for start in (B, 3 * B):  # later blocks: block 0 calls no numpy function (TestPureKernelSeries)
            m = closed_forms._mode_numbers(closed_forms._KINDS[kind].step, start, start + B)
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
    # subnormal c, where a per-mode t = c/m^2 underflows: block 0 is the pure kernel's, and a
    # later block scales its series by c once, as the pure kernel does
    @example(kind="pbc_curvature_block", c=5e-324, start=0, length=7)
    @example(kind="pbc_curvature_block", c=1e-310, start=0, length=4096)
    @example(kind="apbc_first_order_shifted", c=1e-310, start=B, length=4096)
    def test_block_sums_agree_with_pure_kernel(self, kind, c, start, length):
        curvature = closed_forms._KINDS[kind].pairs == "curvature"
        # the skeleton keeps c off every m^2, where a curvature pair vanishes
        assume(not (curvature and c and math.sqrt(c).is_integer()))
        pure = closed_forms._pure_block_log_ratio(kind, c, start, start + length)
        numpy_route = zeta_det._block_log_ratio(kind, c, start, start + length)
        # log(t - 1) on a leading run of t > 1 can cancel the other terms: there the sums
        # agree to an absolute 1e-13, elsewhere every term has one sign
        m = closed_forms._mode_numbers(closed_forms._KINDS[kind].step, start, start + 1)[0]
        cancels = curvature and c > m * m
        assert math.isclose(numpy_route, pure, rel_tol=1e-13, abs_tol=1e-13 if cancels else 0.0)


def arange_series_split(kind: str, c: float, stop: int) -> int:
    """The series split on np.arange: the number of modes below stop with m^2 < 2^7 c."""
    m = closed_forms._mode_numbers(closed_forms._KINDS[kind].step, 0, stop)
    return int(np.count_nonzero(m * m < c * 2.0**7))


def walked_log_ratio(kind: str, c: float, start: int, stop: int) -> float:
    """The pure kernel with no series: one log a mode, each mode's run chosen on its own
    m^2 (exact, as is its double), summed by math.fsum."""
    row = closed_forms._KINDS[kind]
    ms = range(start + 1, stop + 1) if row.step == 1 else range(2 * start + 1, 2 * stop, 2)
    squares = [m * m for m in map(float, ms)]
    if row.pairs != "curvature":
        return math.fsum(math.log1p(c / m2) for m2 in squares)

    def log_term(m2):
        if 2.0 * m2 < c:  # t > 2
            return math.log(c / m2 - 1.0)
        if m2 < 2.0 * c:  # 1/2 < t <= 2, where m^2 - c is exact
            return math.log(abs(m2 - c) / m2)
        return math.log1p(-c / m2)

    return 2.0 * math.fsum(map(log_term, squares))


POWERS = (2, 4, 6, 8)
# S_2j enters the kernel's series as v^j S_2j / j, and t = |v|/m^2 <= 2^-7 on every mode it
# sums, so |v|^(j-1) S_2j <= 2^(-7(j-1)) S_2: a relative error of 2^(7(j-1)-56) in S_2j moves
# the series by under 2^-56 of its leading term v S_2
HIGH_POWERS = {10: 2.0**-28, 12: 2.0**-21, 14: 2.0**-14, 16: 2.0**-7}


class TestPowerSums:
    """closed_forms._power_sums: S2..S16, the sums of 1/m^2..1/m^16 over a range of mode
    indices, as differences of the Euler-Maclaurin tail sums T_s (see closed_forms)."""

    @pytest.mark.parametrize("step", [1, 2])
    def test_agree_with_fsum_within_two_ulps(self, step):
        # each term 1/m^s is an int / int, correctly rounded, so the fsum is within one ulp
        # of the exact sum, and _power_sums is: short ranges from every start below 200, at
        # random starts up to 2^30, and ending at 2*10^9, where a difference of two tail sums
        # would cancel all but a few bits.  Where both ends lie below _EM_FROM, so that both
        # tails come from the fixed-point tables, S_10..S_16 are held to the same bound
        rng = np.random.default_rng(31)
        ranges = [(a, a + n) for a in range(200) for n in (1, 2, 70)] + [(0, b) for b in range(1, 300, 7)]
        ranges += [(int(a), int(a + n)) for a, n in zip(rng.integers(0, 2**30, 300), rng.integers(1, 300, 300))]
        ranges += [(2**30 - int(n), 2**30) for n in rng.integers(1, 300, 20)]
        ranges += [(2 * 10**9 - int(n), 2 * 10**9) for n in rng.integers(1, 300, 20)]
        for a, b in ranges:
            ms = range(a + 1, b + 1) if step == 1 else range(2 * a + 1, 2 * b, 2)
            powers = POWERS + tuple(HIGH_POWERS) if b < closed_forms._EM_FROM else POWERS
            for s, value in zip(powers, closed_forms._power_sums(step, a, b)):
                exact = math.fsum(1 / m**s for m in ms)
                assert abs(value - exact) <= 2 * math.ulp(exact), (s, a, b)

    @pytest.mark.parametrize("step", [1, 2])
    def test_agree_with_40_digit_hurwitz_zeta_within_one_ulp(self, step):
        # T_s(q) is zeta(s, q) on the periodic modes and 2^-s zeta(s, q/2) on the odd ones.
        # The ends lie on both sides of the table's edge and of where the series keeps 2 terms
        mpmath = pytest.importorskip("mpmath")
        ends = [0, 1, 2, 62, 63, 64, 65, 1098, 1099, 1100, 10**4, B, 10**6, 2 * 10**9]
        with mpmath.workdps(40):
            for s in POWERS:
                def tail(k):
                    if step == 1:
                        return mpmath.zeta(s, k + 1)
                    return mpmath.zeta(s, k + mpmath.mpf(0.5)) / 2**s

                tails = [tail(k) for k in ends]
                for i, a in enumerate(ends):
                    for j in range(i + 1, len(ends)):
                        exact = float(tails[i] - tails[j])
                        value = closed_forms._power_sums(step, a, ends[j])[s // 2 - 1]
                        assert abs(value - exact) <= math.ulp(exact), (s, a, ends[j])

    @pytest.mark.parametrize("step", [1, 2])
    def test_high_powers_agree_with_40_digit_hurwitz_zeta_within_their_weight(self, step):
        # S_10..S_16 within the relative bound HIGH_POWERS derives from their weight in the
        # series (they come within 14 ulps).  mpmath evaluates zeta(s, q) at 120 digits to keep
        # 40: at 40 it loses up to 29 of them for s = 16 near q = 1099
        mpmath = pytest.importorskip("mpmath")
        ends = [0, 1, 2, 62, 63, 64, 65, 1098, 1099, 1100, 10**4, B, 10**6, 2 * 10**9]
        with mpmath.workdps(120):
            for i, (s, bound) in enumerate(HIGH_POWERS.items(), start=len(POWERS)):
                def tail(k):
                    if step == 1:
                        return mpmath.zeta(s, k + 1)
                    return mpmath.zeta(s, k + mpmath.mpf(0.5)) / 2**s

                tails = [tail(k) for k in ends]
                for a_index, a in enumerate(ends):
                    for j in range(a_index + 1, len(ends)):
                        exact = float(tails[a_index] - tails[j])
                        value = closed_forms._power_sums(step, a, ends[j])[i]
                        assert abs(value - exact) <= bound * exact, (s, a, ends[j])

    def test_empty_range_sums_to_zero(self):
        for step in (1, 2):
            for a in (0, 63, 64, 10**9):
                assert closed_forms._power_sums(step, a, a) == [0.0] * 8

    @pytest.mark.parametrize("s", POWERS)
    def test_first_series_term_left_out_is_below_2_to_the_minus_56(self, s):
        # relative to the leading term q^(1-s)/(h(s-1)), term k of the rest is
        # |B_2k|/(2k)! (s)_(2k-1) (s-1) (q/h)^-2k on either parity; the series starts at
        # q/h = 64 with _EM_TERMS terms, and keeps 2 from _EM_FEW_FROM on
        for terms, q in ((closed_forms._EM_TERMS, closed_forms._EM_FROM),
                         (2, closed_forms._EM_FEW_FROM)):
            k = terms + 1
            rising = math.perm(s + 2 * k - 2, 2 * k - 1)  # (s)_(2k-1)
            left_out = abs(bernoulli(2 * k)) / math.factorial(2 * k) * rising * (s - 1) / Fraction(q) ** (2 * k)
            assert left_out < Fraction(1, 2**56), (terms, q)

    @pytest.mark.parametrize("s", HIGH_POWERS)
    def test_high_powers_leave_out_less_than_their_weight_allows(self, s):
        # as above, for S_10..S_16 against the relative bound of HIGH_POWERS
        for terms, q in ((closed_forms._EM_TERMS, closed_forms._EM_FROM),
                         (2, closed_forms._EM_FEW_FROM)):
            k = terms + 1
            rising = math.perm(s + 2 * k - 2, 2 * k - 1)
            left_out = abs(bernoulli(2 * k)) / math.factorial(2 * k) * rising * (s - 1) / Fraction(q) ** (2 * k)
            assert left_out < Fraction(HIGH_POWERS[s]), (terms, q)


class TestPureKernelSeries:
    """The pure kernel sums u - u^2/2 + ... - u^8/8 (u = t, or -t on the curvature blocks)
    over its modes from the first with t = c/m^2 <= 2^-7 on, from _power_sums, and walks
    the head before that split; zeta_det's block 0 is this kernel."""

    @pytest.mark.parametrize("start", [0, B])
    @pytest.mark.parametrize("length", [3001, 12001])
    @pytest.mark.parametrize("kind", WALKING_KINDS)
    def test_partial_block_agrees_with_40_digit_sum(self, kind, start, length):
        # t <= 2^-7 from m = 3 on at c = 0.05 and from m = 8 on at 0.5, so at start 0 the
        # series starts inside the block.  t < 1 on every mode, so no log(t - 1) cancels the sum
        stop = start + length
        for c in (0.05, 0.5):
            exact = _exact_block_log_ratio(kind, c, start, stop)
            value = closed_forms._pure_block_log_ratio(kind, c, start, stop)
            assert math.isclose(value, exact, rel_tol=1e-15), c
            if not start:
                assert zeta_det._block_log_ratio(kind, c, 0, stop) == value

    @pytest.mark.parametrize("kind", WALKING_KINDS)
    @pytest.mark.parametrize("first", [31, 301])
    def test_first_series_mode_at_the_bound_agrees_with_40_digit_sum(self, kind, first):
        # c = 2^-7 m^2 puts t exactly 2^-7 on mode m, the first of the series; one ulp
        # above, m is walked too.  The walk starts at the first mode with t <= 1/2, so every
        # term has one sign: at m = 301 (c = 708) the apbc head's logs of t - 1 and 1 - t cancel
        # to 1.28, and their roundings leave it 7 ulps off its 40-digit value
        step = closed_forms._KINDS[kind].step
        at_bound = first * first * 2.0**-7
        assert at_bound / (first * first) == 2.0**-7
        stop = 3000
        for c, series_from in ((at_bound, first),
                               (math.nextafter(at_bound, math.inf), first + step)):
            head = arange_series_split(kind, c, stop)
            assert closed_forms._mode_numbers(step, head, head + 1)[0] == series_from
            start = arange_series_split(kind, c / 64.0, stop)  # m^2 < 2^7 c/64 = 2c
            exact = _exact_block_log_ratio(kind, c, start, stop)
            value = closed_forms._pure_block_log_ratio(kind, c, start, stop)
            assert math.isclose(value, exact, rel_tol=1e-15), c

    @pytest.mark.parametrize("kind", ["pbc_curvature_block", "apbc_curvature_block"])
    def test_walk_next_to_a_vanishing_pair_agrees_with_40_digit_sum(self, kind):
        # x = k +- 1e-3 or k +- 1e-6 puts t = c/m^2 within 2e-3 or 2e-6 of 1 at m = k.  A log
        # of the float t - 1 there amplified the rounding of t by 1/|1 - t|, up to 1.7e-10 of
        # the sum; the walk takes log(|m*m - c| / (m*m)), whose m*m - c is exact
        for k in (1, 7, 101, 1001):
            for x in (k - 1e-3, k + 1e-3, k - 1e-6, k + 1e-6):
                c = x * x
                exact = _exact_block_log_ratio(kind, c, 0, 3000)
                value = closed_forms._pure_block_log_ratio(kind, c, 0, 3000)
                assert math.isclose(value, exact, rel_tol=1e-14), x

    def test_long_head_next_to_a_vanishing_pair_agrees_with_40_digit_sum(self):
        # the head of a 2*10^9-mode walk at x = 20000.5, 226,279 modes: 2 sum log|1 - c/m^2|
        # is 3518.1490580909712489 to 20 digits, 1.7e-14 from its nearest float.  A log of the
        # float t - 1 missed it by 3.6e-12, 8 ulps
        spec = OperatorSpec("pbc_curvature_block", 2.0 * math.pi, 20000.5)
        c = closed_forms._ratio_scale(spec, 2 * 10**9)
        head = closed_forms._oracle_head(spec, 2 * 10**9)
        assert (c, head) == (20000.5**2, 226_279)
        value = closed_forms._pure_block_log_ratio(spec.kind, c, 0, head)
        assert abs(value - 3518.1490580909712489) <= math.ulp(3518.0)

    @settings(deadline=None, max_examples=100)
    @given(
        kind=st.sampled_from(WALKING_KINDS),
        # below about 1e-300 the walked t = c/m^2 lose their digits to underflow on the later
        # modes, while the series keeps them
        c=st.one_of(st.just(0.0), st.floats(1e-300, 1e4)),
        start=st.one_of(st.just(0), st.integers(0, 40 * B)),
        length=st.integers(1, B),
    )
    def test_series_agrees_with_a_walk_of_every_mode(self, kind, c, start, length):
        curvature = closed_forms._KINDS[kind].pairs == "curvature"
        # the skeleton keeps c off every m^2, where a curvature pair vanishes
        assume(not (curvature and c and math.sqrt(c).is_integer()))
        walked = walked_log_ratio(kind, c, start, start + length)
        value = closed_forms._pure_block_log_ratio(kind, c, start, start + length)
        # log(t - 1) on a leading run of t > 1 can cancel the other terms: there the sums
        # agree to an absolute 1e-13, elsewhere every term has one sign
        m = closed_forms._mode_numbers(closed_forms._KINDS[kind].step, start, start + 1)[0]
        cancels = curvature and c > m * m
        assert math.isclose(value, walked, rel_tol=1e-13, abs_tol=1e-13 if cancels else 0.0)

    @pytest.mark.parametrize("kind", WALKING_KINDS)
    def test_a_walk_logs_only_its_head_at_any_n(self, kind, monkeypatch):
        logged = []
        for name in ("log", "log1p"):
            def counted(t, _log=getattr(math, name)):
                logged.append(t)
                return _log(t)

            monkeypatch.setattr(closed_forms, name, counted)
        for c in (6.4e-5, 23.68, 160.0, 39225.6):  # heads of 0 to 2240 modes
            for n_modes in (B, 2 * 10**9):
                logged.clear()
                closed_forms._pure_block_log_ratio(kind, c, 0, n_modes)
                assert len(logged) == arange_series_split(kind, c, B), (c, n_modes)

    @pytest.mark.parametrize("kind", WALKING_KINDS)
    def test_block_zero_calls_no_numpy_function(self, kind, monkeypatch):
        # every numpy function the kernel calls is looked up on its module global np
        looked_up = []

        class Recorder:
            def __getattr__(self, name):
                looked_up.append(name)
                return getattr(np, name)

        monkeypatch.setattr(zeta_det, "np", Recorder())
        for c in (6.4e-5, 23.68, 160.0, 39225.6):  # heads of 0 to 2240 modes
            value = zeta_det._block_log_ratio(kind, c, 0, 20000)
            assert looked_up == [], c
            assert value == closed_forms._pure_block_log_ratio(kind, c, 0, 20000)

    @pytest.mark.parametrize("kind", WALKING_KINDS)
    def test_later_block_divides_the_head_by_c_and_the_tail_into_1(self, kind, monkeypatch):
        start = B
        m = closed_forms._mode_numbers(closed_forms._KINDS[kind].step, start, start + B)
        c = m[B // 2] ** 2 * 2.0**-26  # t <= 2^-26 from mid-block on
        head = int(np.count_nonzero(m * m < c * 2.0**26))
        assert head == B // 2
        sizes = {"divide": [], "log1p": []}
        for name, seen in sizes.items():
            def counted(*args, _ufunc=getattr(np, name), _seen=seen, **kwargs):
                _seen.append((args[0], np.broadcast(*args).size))
                return _ufunc(*args, **kwargs)

            monkeypatch.setattr(np, name, counted)
        zeta_det._block_log_ratio(kind, c, start, start + B)
        signed_c = -c if closed_forms._KINDS[kind].pairs == "curvature" else c
        assert sizes["divide"] == [(1.0, B - head), (signed_c, head)]
        assert [size for _, size in sizes["log1p"]] == [head]

    @pytest.mark.parametrize("kind", WALKING_KINDS)
    def test_zero_and_infinite_c(self, kind):
        for start, stop in ((0, 1), (0, 64), (0, 65), (0, B), (B, 2 * B)):
            for kernel in (zeta_det._block_log_ratio, closed_forms._pure_block_log_ratio):
                # c = 0: every mode is in the series, whose terms all vanish
                assert kernel(kind, 0.0, start, stop) == 0.0
                # an infinite c leaves no series and drives every walked log to inf
                assert kernel(kind, math.inf, start, stop) == math.inf

    @pytest.mark.parametrize("kind", ["pbc_curvature_block", "apbc_curvature_block"])
    def test_split_index_matches_a_search_on_the_squares(self, kind):
        step = closed_forms._KINDS[kind].step
        m2 = closed_forms._mode_numbers(step, 0, 10**6) ** 2
        rng = np.random.default_rng(31)
        # 2^7 c = 2^32 = 65536^2 at c = 2^25, and 6.4e9 puts the split near 10^6
        cs = [0.0, 5e-324, 2.0**-7, 1.0, 64.0, 160.0, 6.4e5, 3.328e7, 2.0**25, 2.0**25 - 64,
              6.4e9, math.inf]
        cs += list(10.0 ** rng.uniform(-7, 10, 300))
        cs += [float(k * k) * 2.0**-7 for k in range(1, 400)]
        cs += [math.nextafter(c, t) for c in cs[-399:] for t in (0.0, math.inf)]
        for c in cs:
            expected = int(np.searchsorted(m2, c * 2.0**7))
            for stop in (1, 100, B, 10**6):
                assert closed_forms._series_split(step, c, stop) == min(expected, stop), c


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

    @pytest.mark.parametrize("kind", OPERATOR_KINDS)
    def test_counts_past_the_float_range_refused(self, kind):
        # the largest float is an even integer: step*N + 1 reaches it at N = (max - 1)//step
        spec = OperatorSpec(kind, 1.0, 0.0 if kind in LAPLACIAN_KINDS else 0.5)
        step = closed_forms._KINDS[kind].step
        top = (int(sys.float_info.max) - 1) // step
        assert closed_forms.regularized_det(spec, top).oracle_modes == top
        message = f"{top + 1} modes reach mode number {step}*N + 1, past the float range"
        for call in (closed_forms.regularized_det, oracle_product, regularized_det,
                     lambda spec, n_modes: spec.paired_mode_factors(n_modes)):
            with pytest.raises(ValueError) as info:
                call(spec, top + 1)
            assert str(info.value) == message

    @pytest.mark.parametrize("kind", WALKING_KINDS)
    def test_oracle_at_any_admitted_count_matches_the_closed_form(self, kind):
        """At N = 10^100 and at the largest N admitted the truncation is far below one ulp,
        so the oracle reads its closed form to rounding: 4.0e-14 relative at worst over
        60,000 draws.  Draws next to a vanishing pair are skipped, where the closed form's
        own rounding is amplified."""
        row = closed_forms._KINDS[kind]
        top = (int(sys.float_info.max) - 1) // row.step
        rng = np.random.default_rng(36)
        for _ in range(200):
            beta = float(10 ** rng.uniform(-1.0, 1.0))
            x = float(10 ** rng.uniform(-3.0, math.log10(15.8)))  # beta*|parameter|/unit
            spec = OperatorSpec(kind, beta, x * row.unit / beta)
            if not clear_of_zero_eigenvalues(kind, beta * spec.parameter / 2.0):
                continue
            for n_modes in (10**100, top):
                record = closed_forms.regularized_det(spec, n_modes)
                assert abs(record.delta) <= 1e-12 * record.closed_form, (beta, x, n_modes)
