"""The zeta-regularized circle determinants without numpy: closed forms, operators,
and the truncated-product oracle's skeleton with a pure-Python kernel.

Closed forms for the periodic/antiperiodic spectra

    PBC   nu_n    = 2*pi*n/beta,       n in Z (primed: n = 0 excluded)
    APBC  omega_k = (2k+1)*pi/beta,    k in Z

from the spectral zeta function.  Both are one progression: mode index k >= 0
has mode number m = h*k + 1 and frequency m*unit/beta, unit = 2pi/h, with step
h = 1 (periodic, m = n) or 2 (antiperiodic).  One table, _KINDS, gives each
kind's step and unit, its pair rule and its closed form; closed form and oracle
ask one _nearest_mode which curvature pair may vanish.

The oracle regularizes by ratio to parameter zero (see _ratio_oracle), a
reference that is scheme-independent for the ratios that enter indices.  The
Laplacian kinds return their closed form with no walk; the others hand modes
0..N-1 to a kernel (kind, c, start, stop) -> log-ratio sum, with
c = (beta*|parameter|/unit)^2 and t = c/m^2 on mode number m: log1p(t) (shifted
first-order) or 2 log|1 - t| (curvature blocks).  The pure kernel here walks the
head, the modes before t <= 2^-7 (about 11 x of them, x = sqrt(c)), one log
each through generators, and sums the rest as an eight-term series in the power
sums of 1/m^2..1/m^16 from _power_sums, so a walk costs O(head) at any N.

regularized_det, the package's and every command's route, walks every head in
this kernel: the module imports only the standard library and exact_algebra.
Only _mode_numbers imports numpy, a test dependency, when called: by
paired_mode_factors, the raw route the tests check the oracle against, and by
zeta_det, the benchmark's blocked walk of the same skeleton.

Convention: the antiperiodic determinant of d/dt at zero shift is fixed to 2
(the Hurwitz-zeta value exp(-zeta'(0)) with zeta(s) = (1-2^(-2s))zeta_R(2s)
factors), so it coincides with the two-level fermionic trace 2cosh(beta*w/2)
at w = 0.
"""

from __future__ import annotations

import math
import operator
import sys
from itertools import chain
from math import fsum, log, log1p
from typing import Callable, NamedTuple

from .exact_algebra import _Value, bernoulli

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


class SingularOperatorError(ValueError):
    """The operator has an exactly vanishing eigenvalue at these parameters.

    ``mode_index`` is the positive mode number m = h*k + 1 of the vanishing pair,
    whose frequency m*unit/beta is |parameter|: n for the periodic pair (n, -n)
    and 2k+1 for the antiperiodic pair (k, -k-1), from closed form and oracle alike.
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


def _mode_count(n_modes: int, step: int) -> int:
    """n_modes as an int >= 1 whose end mode number step*n_modes + 1 is a float, as the power
    sums take its reciprocal; bool and non-integer values are refused."""
    try:
        if isinstance(n_modes, bool):
            raise TypeError
        n_modes = operator.index(n_modes)
    except TypeError:
        raise ValueError(f"the number of modes must be an integer, got {n_modes!r}") from None
    if n_modes < 1:
        raise ValueError("need at least one mode")
    if step * n_modes + 1 > sys.float_info.max:
        raise ValueError(f"{n_modes} modes reach mode number {step}*N + 1, past the float range")
    return n_modes


def _in_float_range(
    compute: Callable[[], float], what: str, beta: float, parameter: float
) -> float:
    """compute(), refused with a ValueError naming what it is ("<kind> determinant" or
    "<kind> oracle over <N> modes") if it leaves the float range: overflows, or falls below
    sys.float_info.min = 2**-1022, where no regular determinant lies."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value) or abs(value) < 2.0**-1022:
        raise ValueError(
            f"{what} at beta={beta}, parameter={parameter} leaves the float range"
        )
    return value


def _nearest_mode(kind: str, x: float) -> int:
    """The mode number h*k + 1 (k in Z) nearest x = beta*parameter/unit, signed as x."""
    step = _KINDS[kind].step
    return step * round((x - 1.0) / step) + 1


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
        where = (f"{m}*pi (periodic mode n = {m})" if _KINDS[kind].step == 1
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
    step: int  # h: mode index k has mode number m = h*k + 1; 1 periodic, 2 antiperiodic
    unit: float  # beta times the frequency of mode number 1: 2pi/h, so 2pi or pi
    pairs: str | None  # pair rule: None (no parameter), "shifted" or "curvature"
    closed: Callable[..., float]  # of (beta) if pairs is None, else of (parameter, beta)


_PBC, _APBC = (1, 2.0 * math.pi), (2, math.pi)
_KINDS = {
    "pbc_laplacian": _Kind(*_PBC, None, det_pbc_laplacian),
    "pbc_first_order": _Kind(*_PBC, None, det_pbc_first_order),
    "apbc_first_order_shifted": _Kind(*_APBC, "shifted", det_apbc_first_order),
    "pbc_curvature_block": _Kind(*_PBC, "curvature", det_pbc_curvature_block),
    "apbc_curvature_block": _Kind(*_APBC, "curvature", det_apbc_curvature_block),
}
OPERATOR_KINDS = tuple(_KINDS)


class OperatorSpec(_Value):
    """A fluctuation operator: kind, period beta, and spectral parameter.

    ``parameter`` is y for the curvature blocks and w for the shifted
    first-order operator; the Laplacian kinds do not depend on it and refuse a
    nonzero one.  The periodic kinds are primed: only their n = 0 mode is left
    out, so a vanishing mode pair is singular for oracle and closed form.
    """

    __slots__ = ("kind", "beta", "parameter")

    def __init__(self, kind: str, beta: float, parameter: float = 0.0):
        if kind not in _KINDS:
            raise ValueError(f"unknown operator kind {kind!r}; expected one of {OPERATOR_KINDS}")
        self.kind = kind
        self.beta = _require_positive_beta(beta)
        self.parameter = _require_finite(parameter, "parameter")
        if self.parameter and _KINDS[kind].pairs is None:
            raise ValueError(f"{kind} takes no parameter, got parameter={self.parameter}")

    def paired_mode_factors(self, n_modes: int):
        """Eigenvalue products over the symmetric mode pairs (n, -n) or (k, -k-1), as a
        numpy array: the raw route the tests check the oracle against, which needs numpy.

        Pairing keeps every partial product real and positive wherever the
        full regularized product is.
        """
        row = _KINDS[self.kind]
        freq = _mode_numbers(row.step, 0, _mode_count(n_modes, row.step)) * row.unit / self.beta
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


def _mode_numbers(step: int, start: int, stop: int):
    """m = step*k + 1 (k+1 or 2k+1) for k = start..stop-1, as a numpy array of floats: this
    module's one numpy import, made on call, for paired_mode_factors and zeta_det."""
    import numpy as np

    return np.arange(step * start + 1, step * stop + 1, step, dtype=float)


def closed_form(spec: OperatorSpec) -> float:
    """Zeta-regularized closed-form determinant for the given operator."""
    kind, beta, parameter = spec.kind, spec.beta, spec.parameter
    row = _KINDS[kind]
    args = (beta,) if row.pairs is None else (parameter, beta)
    return _in_float_range(lambda: row.closed(*args), f"{kind} determinant", beta, parameter)


class RegularizedDet(NamedTuple):
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
        if 1 <= m <= kind.step * (n_modes - 1) + 1:
            freq = m * kind.unit / spec.beta
            if freq == p:
                raise SingularOperatorError(
                    f"exactly-zero eigenvalue in mode pair m = {m}, parameter {spec.parameter}",
                    mode_index=m,
                )
            if m * m == c:
                c = math.nextafter(c, math.inf if p > freq else 0.0)
    return c


def _least_root(bound: float, limit: int) -> int:
    """The least integer m >= 1 with m^2 >= bound (0 <= bound <= inf), or limit if that is
    smaller.  Exact: m^2 >= bound iff m^2 >= its ceiling."""
    if bound > limit * limit:
        return limit
    return math.isqrt(math.ceil(bound) - 1) + 1 if bound else 1


def _series_split(step: int, c: float, stop: int) -> int:
    """Index of the first mode with m^2 >= 2^7 c (t <= 2^-7), or stop if it lies at or past
    stop: from there on the eight terms u - u^2/2 + ... - u^8/8 are log1p(u) (u = t, or -t on
    the curvature blocks) to within |u|^9/(9(1 - |u|)) < |u| 2^-59.  Exact: 2^7 c is an exact
    float."""
    first = _least_root(c * 2.0**7, step * stop + 1)
    return (first + step - 2) // step  # the least k with step*k + 1 >= first


# The power sums S_s = sum of 1/m^s (s = 2, 4, .., 16) over mode indices a..b-1 are differences
# T_s(q_a) - T_s(q_b) of the tails T_s(q) = sum over i >= 0 of (q + h i)^-s, q a mode number and
# h the step (1 periodic, 2 antiperiodic): zeta(s, q) or 2^-s zeta(s, q/2).  Euler-Maclaurin:
#   T_s(q) = q^(1-s)/(h(s-1)) + q^-s/2 + R_s(q),
#   R_s(q) = sum_k B_2k/(2k)! (s)_(2k-1) h^(2k-1) q^(1-s-2k).
# Below mode index _EM_FROM, T and R come from fixed-point tables, past it R from _EM_TERMS
# series terms, or 2 in the far tail of _power_sums' first path (q/h >= _EM_FEW_FROM): either
# leaves out under 2^-56 of T_s for s <= 8 (1e-18 at q/h = 64, s = 8) and under 2^-50 for
# s = 10..16, as their weight in the kernel's series allows: S_2j enters it at most
# 2^(-7(j-1))/j times S_2 (t <= 2^-7 on every mode it sums).
_EM_POWERS = (2, 4, 6, 8, 10, 12, 14, 16)
_EM_FROM = 64
_EM_TERMS = 5
_EM_FEW_FROM = 1100


def _em_coefficients(step: int) -> tuple[tuple[float, tuple[float, ...]], ...]:
    """Per power s: 1/(h(s-1)), and R_s's coefficients to _EM_TERMS terms, highest k first."""
    scaled = [(k, bernoulli(2 * k) * step ** (2 * k - 1) / math.factorial(2 * k))
              for k in range(_EM_TERMS, 0, -1)]
    return tuple(
        (1 / (step * (s - 1)),
         tuple(float(b * math.perm(s + 2 * k - 2, 2 * k - 1)) for k, b in scaled))
        for s in _EM_POWERS
    )


def _em_rests(step: int, q: int) -> list[float]:
    """R_2(q)..R_16(q) by Euler-Maclaurin to _EM_TERMS terms, for q >= _EM_FROM h."""
    y = 1.0 / q
    y2 = y * y
    ys = y  # y^(s+1), from s = 2
    rests = []
    for _, coefficients in _EM_COEFFICIENTS[step, _EM_TERMS]:
        ys *= y2
        p = 0.0
        for b in coefficients:
            p = p * y2 + b
        rests.append(ys * p)
    return rests


def _small_sums(step: int) -> tuple[list[tuple[float, ...]], list[tuple[float, ...]]]:
    """T_2..T_16 and R_2..R_16 at the mode indices below _EM_FROM, summed down in fixed point
    from the first mode past them, each rounded once."""
    one = 1 << 192  # in fixed point the sums of 1/m^s are exact to 2^-185
    first = step * _EM_FROM + 1
    tails, rests = [], []
    for s, rest in zip(_EM_POWERS, _em_rests(step, first)):
        g = step * (s - 1)
        tail = round(rest * one) + one * (2 * first + g) // (2 * g * first**s)
        tails.append([])
        rests.append([])
        for q in range(first - step, 0, -step):
            power = q**s
            tail += one // power
            tails[-1].append(tail / one)
            rests[-1].append((tail - one * (2 * q + g) // (2 * g * power)) / one)
    return tuple(list(zip(*(column[::-1] for column in table))) for table in (tails, rests))


_EM_COEFFICIENTS = {}  # keyed by (step, terms); 2 terms are the last two of _EM_TERMS
_SMALL_TAILS, _SMALL_RESTS = {}, {}  # per step, the eight sums at each mode index
for _step in (1, 2):
    _full = _EM_COEFFICIENTS[_step, _EM_TERMS] = _em_coefficients(_step)
    _EM_COEFFICIENTS[_step, 2] = tuple((lead, rest[-2:]) for lead, rest in _full)
    _SMALL_TAILS[_step], _SMALL_RESTS[_step] = _small_sums(_step)


def _power_sums(step: int, a: int, b: int) -> list[float]:
    """S2, S4, .., S16: the sums of 1/m^2..1/m^16 over the mode indices a..b-1 (0 <= a <= b),
    m = step*k + 1: S2..S8 within about one ulp, and S10..S16 too where both ends lie below
    _EM_FROM, elsewhere within their weight (see _EM_POWERS)."""
    qa, qb = step * a + 1, step * b + 1
    if a < _EM_FROM and qb >= _EM_FEW_FROM * step:
        # the near tail is tabled, and the far one, under a sixteenth of it, summed in floats
        y = 1.0 / qb
        y2, ys, sums = y * y, y, []  # ys = y^(s-1), from s = 2
        for near, (lead, (c2, c1)) in zip(_SMALL_TAILS[step][a], _EM_COEFFICIENTS[step, 2]):
            sums.append(near - ys * (lead + y * (0.5 + y * (c1 + y2 * c2))))
            ys *= y2
        return sums
    # Else the first two terms' difference comes from integers: a short range far out cancels
    # nothing.  Both ends keep _EM_TERMS series terms, so their smooth truncation errors cancel
    rests_a = _SMALL_RESTS[step][a] if a < _EM_FROM else _em_rests(step, qa)
    rests_b = _SMALL_RESTS[step][b] if b < _EM_FROM else _em_rests(step, qb)
    pa, pb, qa2, qb2, ta, tb = 1, 1, qa * qa, qb * qb, 2 * qa, 2 * qb
    sums = []
    for s, ra, rb in zip(_EM_POWERS, rests_a, rests_b):
        pa, pb, g = pa * qa2, pb * qb2, step * (s - 1)  # q^s, and h(s-1)
        # (2q + g)/(2 g q^s) at q_a less at q_b, over one denominator
        sums.append(((ta + g) * pb - (tb + g) * pa) / (2 * g * pa * pb) + (ra - rb))
    return sums


def _pure_block_log_ratio(kind: str, c: float, start: int, stop: int) -> float:
    """Sum of log(lambda(parameter) / lambda(0)) over mode pairs start..stop-1, streamed: the
    modes before the series split walked with one log each, t = c/m^2 on the float m, the
    rest summed as sum over j = 1..8 of (-1)^(j+1) v^j S_2j / j (v = c, or -c on the
    curvature blocks) from _power_sums, and math.fsum adding the logs and that sum, so the
    two meet with one rounding.

    A curvature mode's log is log(t - 1) while t > 2, log(|m*m - c| / (m*m)) for
    1/2 < t <= 2, where m*m - c is exact (Sterbenz) and so is m*m (m < 2^26.5, every head the
    CLI admits), and log1p(-t) below: next to a vanishing pair no rounding of t is amplified."""
    row = _KINDS[kind]
    step, curvature = row.step, row.pairs == "curvature"
    split = max(start, _series_split(step, c, stop))
    log_sum = 0.0
    if split < stop:  # no c*0 when an infinite c leaves no series
        s2, s4, s6, s8, s10, s12, s14, s16 = _power_sums(step, split, stop)
        v = -c if curvature else c
        high = s10 / 5.0 - v * (s12 / 6.0 - v * (s14 / 7.0 - 0.125 * v * s16))
        log_sum = v * (s2 - v * (0.5 * s4 - v * (s6 / 3.0 - v * (0.25 * s8 - v * high))))
    ms = range(step * start + 1, step * split + 1, step)
    if ms and not curvature:
        log_sum = fsum(chain((log_sum,), (log1p(c / (m * m)) for m in map(float, ms))))
    elif ms:  # three runs by the exact m^2: below c/2, below 2c, and the rest (all if c <= 1/2)
        above = band = 0
        if c > 0.5:
            beyond = ms[-1] + 1
            above = len(range(ms.start, _least_root(c / 2.0, beyond), ms.step))
            band = len(range(ms.start, _least_root(2.0 * c, beyond), ms.step))
        minus_c = -c
        log_sum = fsum(chain((log_sum,), (log(c / (m * m) - 1.0) for m in map(float, ms[:above])),
                             (log(abs(m * m - c) / (m * m)) for m in map(float, ms[above:band])),
                             (log1p(minus_c / (m * m)) for m in map(float, ms[band:]))))
    return 2.0 * log_sum if curvature else log_sum


def _ratio_oracle(
    spec: OperatorSpec,
    n_modes: int,
    walk: Callable[[str, float, int, int], float] = _pure_block_log_ratio,
) -> float:
    """Ratio-regularized partial eigenvalue product, its log-ratio walked by walk(kind, c, 0, N).

    prod_{|n| <= N} lambda_n(parameter) / lambda_n(0), times the closed-form
    reference determinant at parameter 0.  The Laplacian kinds return that
    reference with no walk: their eigenvalues do not depend on the parameter.
    """
    kind, beta = spec.kind, spec.beta
    n_modes = _mode_count(n_modes, _KINDS[kind].step)
    if _KINDS[kind].pairs is None:  # the reference at +0.0, named so in a refusal
        return closed_form(OperatorSpec(kind, beta))
    c = _ratio_scale(spec, n_modes)
    log_ratio = walk(kind, c, 0, n_modes)
    # an overflowing c drives the sum to inf, and a reference past the float range the
    # product: _in_float_range refuses either, naming N and the operator's own parameter
    closed = _KINDS[kind].closed
    return _in_float_range(lambda: closed(0.0, beta) * math.exp(log_ratio),
                           f"{kind} oracle over {n_modes} modes", beta, spec.parameter)


def _oracle_head(spec: OperatorSpec, n_modes: int) -> int:
    """The number of modes the pure kernel walks one by one on an oracle of n_modes modes: those
    before its series split.  The oracle's c is x^2 or one ulp off it (see _ratio_scale), which
    may move the split by one mode."""
    row = _KINDS[spec.kind]
    x = spec.beta * abs(spec.parameter) / row.unit
    return _series_split(row.step, x * x, n_modes)


def regularized_det(spec: OperatorSpec, n_modes: int) -> RegularizedDet:
    """Closed form and oracle in one record, the oracle walked by the pure kernel in O(head) at
    any N, with no numpy."""
    n_modes = _mode_count(n_modes, _KINDS[spec.kind].step)
    return RegularizedDet(closed_form(spec), _ratio_oracle(spec, n_modes), n_modes)
