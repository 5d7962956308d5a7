"""The truncated-product oracle in blocks, the later ones walked on numpy:
oracle_product and regularized_det, for the benchmark's det-oracle workload.

It needs numpy, a test dependency, and neither the package nor any command
imports it: indexcalc.regularized_det is closed_forms'.  It stays as
det-oracle's walk until that workload's worker memory is measured honestly.

oracle_product walks closed_forms' oracle skeleton in blocks of _ORACLE_BLOCK
modes, and math.fsum adds the block sums.  Block 0 is the pure kernel's,
closed_forms._pure_block_log_ratio, which walks the modes with t = c/m^2 > 2^-7
and sums the rest as an eight-term series.

A later block's mode numbers m = h*k + 1 are _MODES, one block's m for each
step h, plus the block's offset h*start: integers below 2^53, so exact floats,
bit-identical to np.arange.  The block walks its modes with t = c/m^2 > 2^-26
with one log1p (or log(t - 1) where t > 1) each, and sums log1p(u) (u = t, or
-t on the curvature blocks) over the rest as sum(u) - sum(u^2)/2 = v (S2 - v
S4/2), v = c or -c and S2, S4 the sums of 1/m^2 and 1/m^4 there: the terms
dropped add up to under one ulp of u.  c scales the sums once, so a subnormal c keeps the digits a per-mode
t would lose to underflow.  np.einsum sums S4 in numpy's own loop on the
calling thread (np.dot and np.vdot would hand it to BLAS and its threads).
"""

from __future__ import annotations

import math

# numpy loads with this module, not inside the first walk: a det-oracle worker imports
# zeta_det before its timed operations, which should not pay numpy's import
import numpy as np

from .closed_forms import (
    _KINDS, RegularizedDet, _mode_numbers, _pure_block_log_ratio, _ratio_oracle,
)

# read from here by the benchmark: perfbench/worker.py builds OperatorSpec and catches
# SingularOperatorError, and perfbench/tracer.py wraps closed_form (called below) and
# OperatorSpec.paired_mode_factors
from .closed_forms import OperatorSpec, SingularOperatorError, closed_form

__all__ = ["oracle_product", "regularized_det"]

# Modes per oracle block: one 256 KiB float array, which stays in cache while the block's
# mode numbers become log-ratios.
_ORACLE_BLOCK = 1 << 15

# One block's mode numbers, keyed by _Kind.step; read-only
_MODES = {step: _mode_numbers(step, 0, _ORACLE_BLOCK) for step in (1, 2)}
_MODES[1].flags.writeable = _MODES[2].flags.writeable = False


def oracle_product(spec: OperatorSpec, n_modes: int) -> float:
    """Ratio-regularized partial eigenvalue product (see closed_forms._ratio_oracle), walked
    in blocks of _ORACLE_BLOCK modes: block 0 by the pure kernel, the later ones on numpy."""
    return _ratio_oracle(spec, n_modes, _blocked_log_ratio)


def _blocked_log_ratio(kind: str, c: float, start: int, stop: int) -> float:
    """The log-ratio over mode pairs start..stop-1, one _block_log_ratio call a block; math.fsum
    adds the block sums, so the result does not depend on their order."""
    if stop - start <= _ORACLE_BLOCK:
        return _block_log_ratio(kind, c, start, stop)  # fsum of one value is that value
    return math.fsum(
        _block_log_ratio(kind, c, block, min(block + _ORACLE_BLOCK, stop))
        for block in range(start, stop, _ORACLE_BLOCK)
    )


# From t = 2^-26 down, t - t^2/2 is log1p(t) to within one ulp of t (module docstring)
_SERIES_T = 2.0**-26


def _block_log_ratio(kind: str, c: float, start: int, stop: int) -> float:
    """The log-ratio over mode pairs start..stop-1, at most _ORACLE_BLOCK of them: block 0 by
    the pure kernel, a later one on numpy."""
    if not start:
        return _pure_block_log_ratio(kind, c, 0, stop)
    row = _KINDS[kind]
    curvature = row.pairs == "curvature"
    signed_c = -c if curvature else c  # u = signed_c/m^2: t, or -t rising towards 0 with m
    # m = table + the block's offset, squared in place
    m2 = _MODES[row.step][: stop - start] + row.step * start
    np.square(m2, out=m2)
    # t = c/m^2 <= _SERIES_T from the first m^2 >= c/_SERIES_T on: found on m^2, before the
    # divides overwrite it.  Those modes are summed as a series, the ones before walked
    series_m2 = c / _SERIES_T
    series = 0 if m2[0] >= series_m2 else int(np.searchsorted(m2, series_m2))
    log_sum = 0.0
    if series < m2.size:  # c scales the sums once, so no t = c/m^2 underflows
        inverse = np.divide(1.0, m2[series:], out=m2[series:])
        s2, s4 = float(np.sum(inverse)), float(np.einsum("i,i", inverse, inverse))
        log_sum = signed_c * (s2 - 0.5 * signed_c * s4)
    if series:
        head = np.divide(signed_c, m2[:series], out=m2[:series])
        walked = head
        if curvature:  # t > 1 on a leading run of modes only, where the log is log(t - 1)
            above = int(np.searchsorted(head, -1.0))
            np.subtract(-1.0, head[:above], out=head[:above])
            np.log(head[:above], out=head[:above])
            walked = head[above:]
        np.log1p(walked, out=walked)
        log_sum += float(np.sum(head))
    return 2.0 * log_sum if curvature else log_sum


def regularized_det(spec: OperatorSpec, n_modes: int) -> RegularizedDet:
    """Closed form and oracle in one record, the oracle walked by oracle_product."""
    return RegularizedDet(closed_form(spec), oracle_product(spec, n_modes), n_modes)
