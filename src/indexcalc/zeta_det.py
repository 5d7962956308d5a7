"""Zeta-regularized determinants of constant-coefficient operators on the circle.

Closed forms for the periodic/antiperiodic spectra

    PBC   nu_n    = 2*pi*n/beta,       n in Z (primed: n = 0 excluded)
    APBC  omega_k = (2k+1)*pi/beta,    k in Z

paired with a truncated-infinite-product oracle.  The oracle regularizes by
ratio: it divides the partial product at the given parameter by the partial
product at parameter zero and multiplies by the closed-form reference
determinant, which is scheme-independent for the ratios that enter indices.
It sums the log of each mode pair's ratio, log1p(t) or 2 log|1 - t| with
t = c/m^2 = parameter^2 / frequency^2 for mode number m, one fixed-size block
of modes at a time, so its memory stays bounded whatever the mode count; the
parameter-free kinds have ratio 1 and walk no modes.

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
_CURVATURE_KINDS = ("pbc_curvature_block", "apbc_curvature_block")
# kinds whose eigenvalues do not depend on the parameter
_LAPLACIAN_KINDS = ("pbc_laplacian", "pbc_first_order")
# mode number m has frequency m*unit/beta: nu_n = 2*pi*n/beta, omega_k = (2k+1)*pi/beta
_UNITS = {kind: 2.0 * math.pi if kind in _PBC_KINDS else math.pi for kind in OPERATOR_KINDS}

# Modes per oracle block: one 256 KiB float array, which stays in cache while
# the block's mode numbers become log-ratios in place.
_ORACLE_BLOCK = 1 << 15

# Absolute tolerance of the curvature blocks' singularity test
_SINGULAR_TOL = 1e-9

# Riemann zeta data entering the spectral-zeta route
_ZETA_R_AT_0 = -0.5
_ZETA_R_PRIME_AT_0 = -0.5 * math.log(2.0 * math.pi)


class SingularOperatorError(ValueError):
    """The operator has an exactly vanishing eigenvalue at these parameters.

    ``mode_index`` is the positive mode number m of the vanishing pair, whose
    frequency m*unit/beta is |parameter|: n for the periodic pair (n, -n) and
    2k+1 for the antiperiodic pair (k, -k-1), from closed form and oracle alike.
    """

    def __init__(self, message: str, mode_index: int | None = None):
        super().__init__(message)
        self.mode_index = mode_index


def _require_positive_beta(beta: float) -> float:
    beta = float(beta)
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be finite and positive, got {beta}")
    return beta


def _require_finite(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value}")
    return value


def _in_float_range(spec: OperatorSpec, compute: Callable[[], float]) -> float:
    """compute(), refused with a ValueError naming the operator if it leaves the float range:
    overflows, or falls below sys.float_info.min = 2**-1022, where no regular determinant lies."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value) or abs(value) < 2.0**-1022:
        raise ValueError(
            f"{spec.kind} determinant at beta={spec.beta}, parameter={spec.parameter} "
            "leaves the float range"
        )
    return value


def _singular_multiple(kind: str, beta: float, y: float) -> int | None:
    """The integer that beta*y/unit lies within _SINGULAR_TOL of, or None.

    From |beta*y/unit| = 2^23 on, every float is that close to an integer, so
    the test would decide nothing there: such a y is refused with a ValueError.
    """
    x = beta * y / _UNITS[kind]
    if math.ulp(x) > _SINGULAR_TOL:
        raise ValueError(
            f"{kind} parameter {y} at beta={beta} is beyond the float resolution "
            "of the singularity test"
        )
    n = round(x)
    if abs(x - n) <= _SINGULAR_TOL:
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
    y = _require_finite(y, "y")
    if y == 0.0:
        return beta * beta
    n = _singular_multiple("pbc_curvature_block", beta, y)
    if n is not None and n != 0:
        raise SingularOperatorError(
            f"zero eigenvalue: beta*y/2 = {n}*pi (periodic mode n = {n})", mode_index=abs(n)
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
    y = _require_finite(y, "y")
    m = _singular_multiple("apbc_curvature_block", beta, y)
    if m is not None and m % 2 != 0:
        raise SingularOperatorError(
            f"zero eigenvalue: beta*y/2 = ({m}/2)*pi (antiperiodic mode {m})",
            mode_index=abs(m),
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
    omega = _require_finite(omega, "omega")
    half = beta * omega / 2.0
    return math.exp(half) + math.exp(-half)


def det_apbc_first_order(omega: float, beta: float) -> float:
    """Zeta-regularized antiperiodic determinant of d/dt + w: 2 cosh(beta*w/2).

    Normalized so the w = 0 value is 2 per fermionic direction, matching the
    regularized product over omega_k = (2k+1)pi/beta and the two-level trace.
    """
    beta = _require_positive_beta(beta)
    return 2.0 * math.cosh(beta * _require_finite(omega, "omega") / 2.0)


def _mode_numbers(kind: str, start: int, stop: int) -> np.ndarray:
    """m = n for n = start+1..stop (periodic kinds) or 2k+1 for k = start..stop-1."""
    if kind in _PBC_KINDS:
        return np.arange(start + 1, stop + 1, dtype=float)
    return np.arange(2 * start + 1, 2 * stop, 2, dtype=float)


def _mode_frequencies(kind: str, beta: float, start: int, stop: int) -> np.ndarray:
    """nu_n or omega_k = m*unit/beta for the same modes."""
    return _mode_numbers(kind, start, stop) * _UNITS[kind] / beta


@dataclass(frozen=True)
class OperatorSpec:
    """A fluctuation operator: kind, period beta, and spectral parameter.

    ``parameter`` is y for the curvature blocks and w for the shifted
    first-order operator; the Laplacian kinds do not depend on it and refuse a
    nonzero one.  The periodic kinds are primed: only their n = 0 mode is left
    out, so a vanishing mode pair is singular for oracle and closed form.
    """

    kind: str
    beta: float
    parameter: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in OPERATOR_KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}; expected one of {OPERATOR_KINDS}")
        _require_positive_beta(self.beta)
        parameter = _require_finite(self.parameter, "parameter")
        if parameter and self.kind in _LAPLACIAN_KINDS:
            raise ValueError(f"{self.kind} takes no parameter, got parameter={parameter}")
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "parameter", parameter)

    def paired_mode_factors(self, n_modes: int) -> np.ndarray:
        """Eigenvalue products over the symmetric mode pairs (n, -n) or (k, -k-1).

        Pairing keeps every partial product real and positive wherever the
        full regularized product is.
        """
        if n_modes < 1:
            raise ValueError("need at least one mode")
        freq = _mode_frequencies(self.kind, self.beta, 0, n_modes)
        sq = freq * freq
        if self.kind == "pbc_laplacian":
            return sq * sq  # lambda_n = nu_n^2 at both n and -n
        if self.kind == "pbc_first_order":
            return sq  # (i nu_n)(-i nu_n)
        p2 = self.parameter * self.parameter  # inf, not OverflowError, past the float range
        if self.kind == "apbc_first_order_shifted":
            return sq + p2
        d = sq - p2  # pbc_curvature_block and apbc_curvature_block
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
    return _in_float_range(spec, lambda: _CLOSED_FORMS[spec.kind](spec))


def oracle_product(spec: OperatorSpec, n_modes: int) -> float:
    """Ratio-regularized partial eigenvalue product.

    prod_{|n| <= N} lambda_n(parameter) / lambda_n(0), times the closed-form
    reference determinant at parameter 0.  The Laplacian kinds return that
    reference with no walk: their eigenvalues do not depend on the parameter.
    For the others each block of modes computes t = c/m^2 in place, with one
    c = (beta*|parameter|/unit)^2 and m = n or 2k+1, and sums log1p(t)
    (shifted first-order) or 2 log|1 - t| (curvature blocks) pairwise;
    math.fsum adds the block sums, so the result does not depend on their order.
    """
    if n_modes < 1:
        raise ValueError("need at least one mode")
    reference = replace(spec, parameter=0.0)
    if spec.kind in _LAPLACIAN_KINDS:
        return closed_form(reference)
    c = _ratio_scale(spec, n_modes)
    log_ratio = math.fsum(
        _block_log_ratio(spec.kind, c, start, min(start + _ORACLE_BLOCK, n_modes))
        for start in range(0, n_modes, _ORACLE_BLOCK)
    )
    # an overflowing c drives the sum to inf, which _in_float_range refuses
    return _in_float_range(spec, lambda: closed_form(reference) * math.exp(log_ratio))


def _ratio_scale(spec: OperatorSpec, n_modes: int) -> float:
    """c = (beta*|parameter|/unit)^2, after one look for a vanishing curvature pair.

    A pair vanishes when its frequency m*unit/beta equals |parameter|; then
    x = beta*|parameter|/unit is within m*2^-50 of m, so only the mode nearest
    x can.  It is compared with the raw route's frequency, so the verdict is
    paired_mode_factors'.  If that route keeps it nonzero but m^2 == c
    (x == m exactly), c moves one ulp to that route's side of m^2.
    """
    p = abs(spec.parameter)
    x = spec.beta * p / _UNITS[spec.kind]
    c = x * x
    if spec.kind in _CURVATURE_KINDS and x <= 2 * n_modes:
        mode = round(x) - 1 if spec.kind in _PBC_KINDS else round((x - 1.0) / 2.0)
        if 0 <= mode < n_modes:
            m = _mode_numbers(spec.kind, mode, mode + 1)[0]
            freq = _mode_frequencies(spec.kind, spec.beta, mode, mode + 1)[0]
            if freq == p:
                raise SingularOperatorError(
                    f"exactly-zero eigenvalue in mode pair m = {int(m)}, parameter {spec.parameter}",
                    mode_index=int(m),
                )
            if m * m == c:
                c = math.nextafter(c, math.inf if p > freq else 0.0)
    return c


def _block_log_ratio(kind: str, c: float, start: int, stop: int) -> float:
    """Sum of log(lambda(parameter) / lambda(0)) over mode pairs start..stop-1."""
    m2 = _mode_numbers(kind, start, stop)
    m2 *= m2
    if kind not in _CURVATURE_KINDS:
        t = np.divide(c, m2, out=m2)
        return float(np.sum(np.log1p(t, out=t)))
    minus_t = np.divide(-c, m2, out=m2)  # rises towards 0 with m
    # t > 1 on a leading run of modes only, where the log is log(t - 1)
    above = int(np.searchsorted(minus_t, -1.0))
    head, tail = minus_t[:above], minus_t[above:]
    np.subtract(-1.0, head, out=head)
    np.log(head, out=head)
    np.log1p(tail, out=tail)
    return 2.0 * float(np.sum(minus_t))


def regularized_det(spec: OperatorSpec, n_modes: int) -> RegularizedDet:
    """Closed form and oracle in one record, for reports and the CLI."""
    return RegularizedDet(
        closed_form=closed_form(spec),
        spec=spec,
        oracle_value=oracle_product(spec, n_modes),
        oracle_modes=n_modes,
    )
