"""The truncated-product oracle without numpy: its skeleton and a pure-Python kernel.

The oracle regularizes by ratio to parameter zero (see _ratio_oracle), a
reference that is scheme-independent for the ratios that enter indices.  The
Laplacian kinds return the closed-form reference at parameter 0 with no walk,
the others walk their mode pairs in blocks of _ORACLE_BLOCK, one kernel call
a block, and math.fsum adds the block sums.  A kernel maps (kind, c, start,
stop) to the block's log-ratio sum, with c = (beta*|parameter|/unit)^2 and
t = c/m^2 on mode number m: log1p(t) (shifted first-order) or 2 log|1 - t|
(curvature blocks).  Two kernels exist.  zeta_det's numpy kernel walks the
library's oracle_product and regularized_det at every size; the pure kernel
here streams its modes through generators, holds no list or array, and sums
each block exactly with math.fsum.  The two agree to about one ulp of the
log-ratio, and refuse alike, since every refusal comes from this skeleton.

regularized_det below is the entry point of the one-shot commands (`detreg`,
`verify`): up to PURE_MODE_LIMIT modes it walks the pure kernel, so the
process never imports numpy, whose import costs more than such a walk; above
it, it returns zeta_det.regularized_det, which loads numpy.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from math import fsum, log, log1p
from typing import Callable

from .closed_forms import (
    _KINDS,
    OperatorSpec,
    SingularOperatorError,
    _closed_form,
    _in_float_range,
    _nearest_mode,
    closed_form,
)

__all__ = ["RegularizedDet", "regularized_det"]

# Modes per oracle block: one 256 KiB float array in the numpy kernel, which stays in
# cache while the block's mode numbers become log-ratios.
_ORACLE_BLOCK = 1 << 15

# The pure kernel walks 110-120 ns a mode (Python 3.11, 2-core x86-64 VM), so a walk of
# 2^19 modes costs a one-shot process about what importing numpy does there (60-100 ms):
# longer walks are cheaper on numpy.
PURE_MODE_LIMIT = 1 << 19


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
    if _KINDS[kind].pairs is None:
        return _closed_form(kind, beta, 0.0)
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
