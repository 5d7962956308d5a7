"""Zeta-regularized determinants of constant-coefficient operators on the circle.

Closed forms for the periodic/antiperiodic spectra

    PBC   nu_n    = 2*pi*n/beta,       n in Z (n = 0 excluded when primed)
    APBC  omega_k = (2k+1)*pi/beta,    k in Z

paired with a truncated-infinite-product oracle.  The oracle regularizes by
ratio: it divides the partial product at the given parameter by the partial
product at parameter zero and multiplies by the closed-form reference
determinant, which is scheme-independent for the ratios that enter indices.

Convention: the antiperiodic determinant of d/dt at zero shift is fixed to 2
(the Hurwitz-zeta value exp(-zeta'(0)) with zeta(s) = (1-2^(-2s))zeta_R(2s)
factors), so it coincides with the two-level fermionic trace 2cosh(beta*w/2)
at w = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

__all__ = [
    "OPERATOR_KINDS",
    "OperatorSpec",
    "RegularizedDet",
    "SingularOperatorError",
    "det_pbc_laplacian",
    "det_pbc_first_order",
    "det_pbc_curvature_block",
    "det_apbc_curvature_block",
    "det_apbc_curvature_block_via_ratio",
    "det_apbc_first_order",
    "fermion_partition",
    "pbc_laplacian_log_det_zeta",
    "closed_form",
    "oracle_product",
    "regularized_det",
]

OPERATOR_KINDS = (
    "pbc_laplacian",
    "pbc_first_order",
    "apbc_first_order_shifted",
    "pbc_curvature_block",
    "apbc_curvature_block",
)

_PBC_KINDS = ("pbc_laplacian", "pbc_first_order", "pbc_curvature_block")

# Riemann zeta data entering the spectral-zeta route
_ZETA_R_AT_0 = -0.5
_ZETA_R_PRIME_AT_0 = -0.5 * math.log(2.0 * math.pi)


class SingularOperatorError(ValueError):
    """The operator has an exactly vanishing eigenvalue at these parameters."""

    def __init__(self, message: str, mode_index: int | None = None):
        super().__init__(message)
        self.mode_index = mode_index


def _require_positive_beta(beta: float) -> float:
    beta = float(beta)
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be finite and positive, got {beta}")
    return beta


def _nearest_integer(x: float, tol: float = 1e-9) -> int | None:
    n = round(x)
    if abs(x - n) <= tol:
        return int(n)
    return None


def pbc_laplacian_log_det_zeta(beta: float) -> float:
    """log Det'_PBC(-d^2/dt^2) = -zeta'(0) through the spectral zeta function.

    zeta(s) = 2 (beta/2pi)^(2s) zeta_R(2s), so
    zeta'(0) = 4[log(beta/2pi) zeta_R(0) + zeta_R'(0)] = -2 log beta.
    """
    beta = _require_positive_beta(beta)
    zeta_prime_0 = 4.0 * (math.log(beta / (2.0 * math.pi)) * _ZETA_R_AT_0 + _ZETA_R_PRIME_AT_0)
    return -zeta_prime_0


def det_pbc_laplacian(beta: float) -> float:
    """Primed periodic determinant of -d^2/dt^2; equals beta^2.

    The value is exp(-zeta'(0)) with zeta'(0) = -2 log beta (see
    pbc_laplacian_log_det_zeta); returned as beta*beta so that it is exact
    for exactly representable beta.
    """
    beta = _require_positive_beta(beta)
    return beta * beta


def det_pbc_first_order(beta: float) -> float:
    """Primed periodic determinant of d/dt: the square root of beta^2."""
    beta = _require_positive_beta(beta)
    return beta


def det_pbc_curvature_block(y: float, beta: float) -> float:
    """Primed periodic determinant of the 2x2 block [[-d/dt, y], [-y, -d/dt]].

    Equals (sin(beta*y/2) / (y/2))^2, tending to beta^2 as y -> 0.  A zero
    eigenvalue occurs when beta*y/2 hits a nonzero multiple of pi.
    """
    beta = _require_positive_beta(beta)
    y = float(y)
    if y == 0.0:
        return beta * beta
    n = _nearest_integer(beta * y / (2.0 * math.pi))
    if n is not None and n != 0:
        raise SingularOperatorError(
            f"zero eigenvalue: beta*y/2 = {n}*pi (periodic mode n = {n})", mode_index=n
        )
    s = math.sin(beta * y / 2.0) / (y / 2.0)
    return s * s


def det_apbc_curvature_block(y: float, beta: float) -> float:
    """Antiperiodic determinant of the curvature block: (2 cos(beta*y/2))^2.

    Also obtainable as the spectrum-halving ratio I(2 beta)/I(beta) of the
    periodic block determinants (see det_apbc_curvature_block_via_ratio);
    sin(2z) = 2 sin(z) cos(z) makes the two closed forms identical.  Singular
    when beta*y/2 is an odd multiple of pi/2.
    """
    beta = _require_positive_beta(beta)
    y = float(y)
    m = _nearest_integer(beta * y / math.pi)
    if m is not None and m % 2 != 0:
        raise SingularOperatorError(
            f"zero eigenvalue: beta*y/2 = ({m}/2)*pi (antiperiodic mode {m})",
            mode_index=m,
        )
    c = 2.0 * math.cos(beta * y / 2.0)
    return c * c


def det_apbc_curvature_block_via_ratio(y: float, beta: float) -> float:
    """The same antiperiodic block determinant computed as I(2 beta)/I(beta)."""
    return det_pbc_curvature_block(y, 2.0 * beta) / det_pbc_curvature_block(y, beta)


def fermion_partition(omega: float, beta: float) -> float:
    """Graded trace over the two-level system with energies -w/2, +w/2.

    exp(beta*w/2) + exp(-beta*w/2); equals 2 for w = 0 at every beta.
    """
    beta = _require_positive_beta(beta)
    omega = float(omega)
    half = beta * omega / 2.0
    return math.exp(half) + math.exp(-half)


def det_apbc_first_order(omega: float, beta: float) -> float:
    """Zeta-regularized antiperiodic determinant of d/dt + w: 2 cosh(beta*w/2).

    Normalized so the w = 0 value is 2 per fermionic direction, matching the
    regularized product over omega_k = (2k+1)pi/beta and the two-level trace.
    """
    beta = _require_positive_beta(beta)
    return 2.0 * math.cosh(beta * float(omega) / 2.0)


@dataclass(frozen=True)
class OperatorSpec:
    """A fluctuation operator: kind, period beta, and spectral parameter.

    ``parameter`` is y for the curvature blocks and w for the shifted
    first-order operator; ``prime`` records whether zero modes at parameter 0
    are excluded (forced true for the periodic kinds, which have the n = 0
    mode).
    """

    kind: str
    beta: float
    parameter: float = 0.0
    prime: bool | None = None

    def __post_init__(self) -> None:
        if self.kind not in OPERATOR_KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}; expected one of {OPERATOR_KINDS}")
        _require_positive_beta(self.beta)
        parameter = float(self.parameter)
        if not math.isfinite(parameter):
            raise ValueError(f"parameter must be finite, got {parameter}")
        prime = self.prime
        if prime is None:
            prime = self.kind in _PBC_KINDS
        if self.kind in _PBC_KINDS and not prime:
            raise ValueError(f"{self.kind} has a zero mode at parameter 0; prime must be true")
        object.__setattr__(self, "prime", bool(prime))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "parameter", parameter)

    def paired_mode_factors(self, n_modes: int) -> np.ndarray:
        """Eigenvalue products over the symmetric mode pairs (n, -n) or (k, -k-1).

        Pairing keeps every partial product real and positive wherever the
        full regularized product is.
        """
        if n_modes < 1:
            raise ValueError("need at least one mode")
        if self.kind in _PBC_KINDS:
            freq = 2.0 * math.pi * np.arange(1, n_modes + 1) / self.beta
        else:
            freq = (2.0 * np.arange(0, n_modes) + 1.0) * math.pi / self.beta
        sq = freq * freq
        if self.kind == "pbc_laplacian":
            return sq * sq  # lambda_n = nu_n^2 at both n and -n
        if self.kind == "pbc_first_order":
            return sq  # (i nu_n)(-i nu_n)
        if self.kind == "apbc_first_order_shifted":
            return sq + self.parameter**2
        d = sq - self.parameter**2  # pbc_curvature_block and apbc_curvature_block
        return d * d


@dataclass(frozen=True)
class RegularizedDet:
    """Closed-form determinant together with its truncated-product oracle."""

    closed_form: float
    spec: OperatorSpec
    oracle_value: float
    oracle_modes: int

    @property
    def delta(self) -> float:
        return self.oracle_value - self.closed_form


_CLOSED_FORMS: dict[str, Callable[[OperatorSpec], float]] = {
    "pbc_laplacian": lambda s: det_pbc_laplacian(s.beta),
    "pbc_first_order": lambda s: det_pbc_first_order(s.beta),
    "apbc_first_order_shifted": lambda s: det_apbc_first_order(s.parameter, s.beta),
    "pbc_curvature_block": lambda s: det_pbc_curvature_block(s.parameter, s.beta),
    "apbc_curvature_block": lambda s: det_apbc_curvature_block(s.parameter, s.beta),
}


def closed_form(spec: OperatorSpec) -> float:
    """Zeta-regularized closed-form determinant for the given operator."""
    return _CLOSED_FORMS[spec.kind](spec)


def oracle_product(spec: OperatorSpec, n_modes: int) -> float:
    """Ratio-regularized partial eigenvalue product.

    prod_{|n| <= N} lambda_n(parameter) / lambda_n(0), times the closed-form
    reference determinant at parameter 0.  Logs are summed with numpy's
    pairwise summation, so the result is deterministic and independent of
    any mode-level parallel split to well below 1e-12.
    """
    if n_modes < 1:
        raise ValueError("need at least one mode")
    reference = replace(spec, parameter=0.0)
    num = spec.paired_mode_factors(n_modes)
    den = reference.paired_mode_factors(n_modes)
    zero = np.flatnonzero(num == 0.0)
    if zero.size:
        if not spec.prime:
            raise SingularOperatorError(
                f"exactly-zero eigenvalue in mode pair {int(zero[0])} at parameter {spec.parameter}",
                mode_index=int(zero[0]),
            )
        # primed semantics: zero modes are excluded from the product
        keep = num != 0.0
        num = num[keep]
        den = den[keep]
    ratios = num / den
    return closed_form(reference) * math.exp(float(np.sum(np.log(ratios))))


def regularized_det(spec: OperatorSpec, n_modes: int) -> RegularizedDet:
    """Closed form and oracle in one record, for reports and the CLI."""
    return RegularizedDet(
        closed_form=closed_form(spec),
        spec=spec,
        oracle_value=oracle_product(spec, n_modes),
        oracle_modes=n_modes,
    )
