"""The zeta-regularized circle determinants without numpy: closed forms, operators,
and the truncated-product oracle's skeleton with a pure-Python kernel.

Closed forms for the periodic/antiperiodic spectra

    PBC   nu_n    = 2*pi*n/beta,       n in Z (primed: n = 0 excluded)
    APBC  omega_k = (2k+1)*pi/beta,    k in Z

from the spectral zeta function.  One table, _KINDS, gives each kind's mode
numbers and unit, its pair rule and its closed form; closed form and oracle
ask one _nearest_mode which curvature pair may vanish.

The oracle regularizes by ratio to parameter zero (see _ratio_oracle), a
reference that is scheme-independent for the ratios that enter indices.  The
Laplacian kinds return their closed form with no walk, the others walk their
mode pairs in blocks of _ORACLE_BLOCK, one kernel call a block, and math.fsum
adds the block sums.  A kernel maps (kind, c, start, stop) to the block's
log-ratio sum, with c = (beta*|parameter|/unit)^2 and t = c/m^2 on mode number
m: log1p(t) (shifted first-order) or 2 log|1 - t| (curvature blocks).  The pure
kernel here streams its modes through generators, holds no list or array, and
sums each block exactly with math.fsum.  zeta_det walks the same skeleton with
a numpy kernel; the two agree to about one ulp of the log-ratio, and refuse
alike, since every refusal comes from the skeleton.

This module imports only the standard library.  Its regularized_det is the
entry point of the one-shot commands (`detreg`, `verify`): up to
PURE_MODE_LIMIT modes it walks the pure kernel, so the process never imports
numpy, whose import costs more than such a walk; above it, it returns
zeta_det.regularized_det.

Convention: the antiperiodic determinant of d/dt at zero shift is fixed to 2
(the Hurwitz-zeta value exp(-zeta'(0)) with zeta(s) = (1-2^(-2s))zeta_R(2s)
factors), so it coincides with the two-level fermionic trace 2cosh(beta*w/2)
at w = 0.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from math import fsum, log, log1p
from typing import Callable, NamedTuple

__all__ = [
    "OPERATOR_KINDS",
    "OperatorSpec",
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
    "RegularizedDet",
    "regularized_det",
]

# Absolute tolerance of the curvature blocks' singularity test
_SINGULAR_TOL = 1e-9

# Riemann zeta data entering the spectral-zeta route
_ZETA_R_AT_0 = -0.5
_ZETA_R_PRIME_AT_0 = -0.5 * math.log(2.0 * math.pi)

# Modes per oracle block: one 256 KiB float array in the numpy kernel, which stays in
# cache while the block's mode numbers become log-ratios.
_ORACLE_BLOCK = 1 << 15

# The pure kernel walks 110-120 ns a mode (Python 3.11, 2-core x86-64 VM), so a walk of
# 2^19 modes costs a one-shot process about what importing numpy does there (60-100 ms):
# longer walks are cheaper on numpy.
PURE_MODE_LIMIT = 1 << 19


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


def _mode_count(n_modes: int) -> int:
    """n_modes as an int >= 1; bool and non-integer values are refused."""
    try:
        if isinstance(n_modes, bool):
            raise TypeError
        n_modes = operator.index(n_modes)
    except TypeError:
        raise ValueError(f"the number of modes must be an integer, got {n_modes!r}") from None
    if n_modes < 1:
        raise ValueError("need at least one mode")
    return n_modes


def _in_float_range(
    compute: Callable[[], float], kind: str, beta: float, parameter: float
) -> float:
    """compute(), refused with a ValueError naming the operator if it leaves the float range:
    overflows, or falls below sys.float_info.min = 2**-1022, where no regular determinant lies."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value) or abs(value) < 2.0**-1022:
        raise ValueError(
            f"{kind} determinant at beta={beta}, parameter={parameter} leaves the float range"
        )
    return value


def _nearest_mode(kind: str, x: float) -> int:
    """The mode number n (periodic) or 2k+1 nearest x = beta*parameter/unit, signed as x."""
    return round(x) if _KINDS[kind].periodic else 2 * round((x - 1.0) / 2.0) + 1


def _refuse_vanishing_pair(kind: str, beta: float, y: float) -> None:
    """Refuse y if beta*y/unit is within _SINGULAR_TOL of a mode number m != 0.  From
    |beta*y/unit| = 2^23 on every float is that close to an integer: a ValueError then."""
    x = beta * y / _KINDS[kind].unit
    if math.ulp(x) > _SINGULAR_TOL:
        raise ValueError(
            f"{kind} parameter {y} at beta={beta} is beyond the float resolution "
            "of the singularity test"
        )
    m = _nearest_mode(kind, x)
    if m != 0 and abs(x - m) <= _SINGULAR_TOL:
        where = (f"{m}*pi (periodic mode n = {m})" if _KINDS[kind].periodic
                 else f"({m}/2)*pi (antiperiodic mode {m})")
        raise SingularOperatorError(f"zero eigenvalue: beta*y/2 = {where}", mode_index=abs(m))


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
    eigenvalue occurs when beta*y/2 hits a nonzero multiple of pi.  Where y/2 or
    z = beta*y/2 falls below 2**-1022, and may round to 0, the ratio is taken as
    beta*sin(z)/z, with sin(z)/z = 1 at z = 0.
    """
    beta = _require_positive_beta(beta)
    y = _require_finite(y, "y")
    if y == 0.0:
        return beta * beta
    _refuse_vanishing_pair("pbc_curvature_block", beta, y)
    z, half = beta * y / 2.0, y / 2.0
    if min(abs(z), abs(half)) < 2.0**-1022:
        s = beta * (math.sin(z) / z if z else 1.0)
    else:
        s = math.sin(z) / half
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
    _refuse_vanishing_pair("apbc_curvature_block", beta, y)
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


class _Kind(NamedTuple):
    periodic: bool  # mode number m = n at unit 2pi, else m = 2k+1 at unit pi
    pairs: str | None  # pair rule: None (no parameter), "shifted" or "curvature"
    closed: Callable[..., float]  # of (beta) if pairs is None, else of (parameter, beta)

    @property
    def unit(self) -> float:
        return 2.0 * math.pi if self.periodic else math.pi


_KINDS = {
    "pbc_laplacian": _Kind(True, None, det_pbc_laplacian),
    "pbc_first_order": _Kind(True, None, det_pbc_first_order),
    "apbc_first_order_shifted": _Kind(False, "shifted", det_apbc_first_order),
    "pbc_curvature_block": _Kind(True, "curvature", det_pbc_curvature_block),
    "apbc_curvature_block": _Kind(False, "curvature", det_apbc_curvature_block),
}
OPERATOR_KINDS = tuple(_KINDS)


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
        if self.kind not in _KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}; expected one of {OPERATOR_KINDS}")
        object.__setattr__(self, "beta", _require_positive_beta(self.beta))
        parameter = _require_finite(self.parameter, "parameter")
        if parameter and _KINDS[self.kind].pairs is None:
            raise ValueError(f"{self.kind} takes no parameter, got parameter={parameter}")
        object.__setattr__(self, "parameter", parameter)

    def paired_mode_factors(self, n_modes: int):
        """Eigenvalue products over the symmetric mode pairs (n, -n) or (k, -k-1), as a
        numpy array: the raw route the oracle is checked against, which loads numpy.

        Pairing keeps every partial product real and positive wherever the
        full regularized product is.
        """
        from .zeta_det import _mode_numbers

        row = _KINDS[self.kind]
        freq = _mode_numbers(row.periodic, 0, _mode_count(n_modes)) * row.unit / self.beta
        sq = freq * freq
        pairs = row.pairs
        if pairs is None:
            # lambda_n = nu_n^2 at both n and -n, or (i nu_n)(-i nu_n)
            return sq * sq if self.kind == "pbc_laplacian" else sq
        p2 = self.parameter * self.parameter  # inf, not OverflowError, past the float range
        if pairs == "shifted":
            return sq + p2
        d = sq - p2
        return d * d


def closed_form(spec: OperatorSpec) -> float:
    """Zeta-regularized closed-form determinant for the given operator."""
    kind, beta, parameter = spec.kind, spec.beta, spec.parameter
    row = _KINDS[kind]
    args = (beta,) if row.pairs is None else (parameter, beta)
    return _in_float_range(lambda: row.closed(*args), kind, beta, parameter)


@dataclass(frozen=True)
class RegularizedDet:
    """Closed-form determinant together with its truncated-product oracle."""

    closed_form: float
    oracle_value: float
    oracle_modes: int

    @property
    def delta(self) -> float:
        return self.oracle_value - self.closed_form


def _ratio_scale(spec: OperatorSpec, n_modes: int) -> float:
    """c = (beta*|parameter|/unit)^2, after one look for a vanishing curvature pair.

    A pair vanishes when its frequency m*unit/beta equals |parameter|, so only the
    mode nearest x = beta*|parameter|/unit can, and the raw route's frequency decides,
    as in paired_mode_factors.  If that route keeps it nonzero but m^2 == c
    (x == m exactly), c moves one ulp to that route's side of m^2.
    """
    kind = _KINDS[spec.kind]
    p = abs(spec.parameter)
    x = spec.beta * p / kind.unit
    c = x * x
    if kind.pairs == "curvature" and x <= 2 * n_modes:
        m = _nearest_mode(spec.kind, x)
        if 1 <= m <= (n_modes if kind.periodic else 2 * n_modes - 1):
            freq = m * kind.unit / spec.beta
            if freq == p:
                raise SingularOperatorError(
                    f"exactly-zero eigenvalue in mode pair m = {m}, parameter {spec.parameter}",
                    mode_index=m,
                )
            if m * m == c:
                c = math.nextafter(c, math.inf if p > freq else 0.0)
    return c


def _pure_block_log_ratio(kind: str, c: float, start: int, stop: int) -> float:
    """Sum of log(lambda(parameter) / lambda(0)) over mode pairs start..stop-1, streamed.

    Each t = c/m^2 is the numpy kernel's float, from the same float m by the same
    operations; only the logs and the sum may round differently."""
    row = _KINDS[kind]
    ms = range(start + 1, stop + 1) if row.periodic else range(2 * start + 1, 2 * stop, 2)
    if row.pairs != "curvature":
        return fsum(log1p(c / (m * m)) for m in map(float, ms))
    # t > 1 on a leading run of modes only, where the log is log(t - 1)
    above = bisect_left(ms, True, key=lambda m: c / (m * m) <= 1.0)
    minus_c = -c
    head = (log(c / (m * m) - 1.0) for m in map(float, ms[:above]))
    tail = (log1p(minus_c / (m * m)) for m in map(float, ms[above:]))
    return 2.0 * fsum(chain(head, tail))


def _ratio_oracle(
    spec: OperatorSpec,
    n_modes: int,
    block_log_ratio: Callable[[str, float, int, int], float] = _pure_block_log_ratio,
) -> float:
    """Ratio-regularized partial eigenvalue product, its blocks walked by block_log_ratio.

    prod_{|n| <= N} lambda_n(parameter) / lambda_n(0), times the closed-form
    reference determinant at parameter 0.  The Laplacian kinds return that
    reference with no walk: their eigenvalues do not depend on the parameter.
    math.fsum adds the block sums of a walk past one block, so the result does
    not depend on their order.
    """
    n_modes = _mode_count(n_modes)
    kind, beta = spec.kind, spec.beta
    if _KINDS[kind].pairs is None:  # the reference at +0.0, named so in a refusal
        return closed_form(OperatorSpec(kind, beta))
    c = _ratio_scale(spec, n_modes)
    if n_modes <= _ORACLE_BLOCK:
        log_ratio = block_log_ratio(kind, c, 0, n_modes)  # fsum of one value is that value
    else:
        log_ratio = math.fsum(
            block_log_ratio(kind, c, start, min(start + _ORACLE_BLOCK, n_modes))
            for start in range(0, n_modes, _ORACLE_BLOCK)
        )
    # an overflowing c drives the sum to inf, and a reference past the float range the
    # product: _in_float_range refuses either, naming the operator's own parameter
    closed = _KINDS[kind].closed
    return _in_float_range(
        lambda: closed(0.0, beta) * math.exp(log_ratio), kind, beta, spec.parameter
    )


def regularized_det(spec: OperatorSpec, n_modes: int) -> RegularizedDet:
    """Closed form and oracle in one record, for the CLI and verify: the pure kernel walks
    up to PURE_MODE_LIMIT modes, and zeta_det.regularized_det a longer walk."""
    n_modes = _mode_count(n_modes)
    if n_modes > PURE_MODE_LIMIT:
        from . import zeta_det

        return zeta_det.regularized_det(spec, n_modes)
    return RegularizedDet(closed_form(spec), _ratio_oracle(spec, n_modes), n_modes)
