"""The truncated-product oracle's numpy kernel, _block_log_ratio.

oracle_product and regularized_det walk closed_forms' oracle skeleton with this
kernel at every mode count, so a library caller gets the same floats from every
call.

The kernel reads its mode numbers m from four constant tables, built at import:
one block's mode numbers for each parity (_MODES: the periodic m = 1..B and the
antiperiodic m = 1, 3, ..., 2B-1, B = _ORACLE_BLOCK) and their squares
(_SQUARES), each a read-only 256 KiB float array.  Block 0 divides by the
squares table; a later block squares table + offset.  The values are
bit-identical to np.arange followed by squaring: every m is an integer below
2^53, so table, offset and sum are exact floats, and m*m is the same IEEE
operation on the same m.

Each block splits at its first mode with t = c/m^2 <= 2^-26, found by one
np.searchsorted on m^2.  The modes before it are walked with one log1p (or
log(t - 1) where t > 1) each.  From it on, log1p(u) (u = t, or -t on the
curvature blocks) is summed as sum(u) - sum(u^2)/2: the terms dropped,
u^3/3 - u^4/4 + ..., add up to less than |u| 2^-52/3, under one ulp of u.
np.einsum sums the squares in numpy's own loop, on the calling thread;
np.dot and np.vdot would hand them to BLAS and its threads.  Most modes of
a long walk lie past the split, where the series costs about a quarter of
np.log1p's time.  Every mode still enters through its own float
t, so the oracle shares nothing with the closed forms.  The pure kernel in
closed_forms keeps one log1p per mode and an exact math.fsum: it is the
reference the tests hold this sum to.
"""

from __future__ import annotations

# numpy loads with this module, not inside the first walk: a det-oracle worker imports
# zeta_det before its timed operations, which should not pay numpy's import
import numpy as np

from .closed_forms import _KINDS, _ORACLE_BLOCK, RegularizedDet, _ratio_oracle

# read from here by the benchmark: perfbench/worker.py builds OperatorSpec and catches
# SingularOperatorError, and perfbench/tracer.py wraps closed_form (called below) and
# OperatorSpec.paired_mode_factors
from .closed_forms import OperatorSpec, SingularOperatorError, closed_form

__all__ = ["oracle_product", "regularized_det"]


def _mode_numbers(periodic: bool, start: int, stop: int) -> np.ndarray:
    """m = n for n = start+1..stop (periodic kinds) or 2k+1 for k = start..stop-1."""
    if periodic:
        return np.arange(start + 1, stop + 1, dtype=float)
    return np.arange(2 * start + 1, 2 * stop, 2, dtype=float)


# Block 0's mode numbers and their squares, keyed by _Kind.periodic; read-only
_MODES = {periodic: _mode_numbers(periodic, 0, _ORACLE_BLOCK) for periodic in (True, False)}
_SQUARES = {periodic: m * m for periodic, m in _MODES.items()}
for _table in (*_MODES.values(), *_SQUARES.values()):
    _table.flags.writeable = False


def oracle_product(spec: OperatorSpec, n_modes: int) -> float:
    """Ratio-regularized partial eigenvalue product, walked by the numpy kernel.

    prod_{|n| <= N} lambda_n(parameter) / lambda_n(0), times the closed-form
    reference determinant at parameter 0 (see closed_forms._ratio_oracle).  Each
    block of modes computes t = c/m^2, with one c = (beta*|parameter|/unit)^2
    and m = n or 2k+1 read from the mode tables, and sums log1p(t) (shifted
    first-order) or 2 log|1 - t| (curvature blocks) pairwise, as a series from
    t <= 2^-26 on (see the module docstring).
    """
    return _ratio_oracle(spec, n_modes, _block_log_ratio)


# From t = 2^-26 down, t - t^2/2 is log1p(t) to within one ulp of t (module docstring)
_SERIES_T = 2.0**-26


def _block_log_ratio(kind: str, c: float, start: int, stop: int) -> float:
    """Sum of log(lambda(parameter) / lambda(0)) over mode pairs start..stop-1,
    at most _ORACLE_BLOCK of them."""
    row = _KINDS[kind]
    if start:  # m = table + the block's offset, squared in place
        offset = start if row.periodic else 2 * start
        m2 = _MODES[row.periodic][: stop - start] + offset
        out = np.multiply(m2, m2, out=m2)
    else:  # the squares table is read-only: the divide writes a fresh array
        m2, out = _SQUARES[row.periodic][:stop], None
    # t = c/m^2 <= _SERIES_T from the first m^2 >= c/_SERIES_T on: found on m^2, before
    # the divide overwrites it.  Those modes are summed as a series, the ones before walked
    series_m2 = c / _SERIES_T
    series = 0 if m2[0] >= series_m2 else int(np.searchsorted(m2, series_m2))
    curvature = row.pairs == "curvature"
    u = np.divide(-c if curvature else c, m2, out=out)  # t, or -t rising towards 0 with m
    tail, log_sum = u[series:], 0.0
    if tail.size:
        log_sum = float(np.sum(tail)) - 0.5 * float(np.einsum("i,i", tail, tail))
    if series:
        head = u[:series]
        if curvature:  # t > 1 on a leading run of modes only, where the log is log(t - 1)
            above = int(np.searchsorted(head, -1.0))
            np.subtract(-1.0, head[:above], out=head[:above])
            np.log(head[:above], out=head[:above])
            head = head[above:]
        np.log1p(head, out=head)
        log_sum += float(np.sum(u[:series]))
    return 2.0 * log_sum if curvature else log_sum


def regularized_det(spec: OperatorSpec, n_modes: int) -> RegularizedDet:
    """Closed form and oracle in one record, the oracle walked by the numpy kernel."""
    return RegularizedDet(closed_form(spec), oracle_product(spec, n_modes), n_modes)
