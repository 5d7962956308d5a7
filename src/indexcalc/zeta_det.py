"""The truncated-product oracle's numpy kernel, _block_log_ratio.

oracle_product and regularized_det walk closed_forms' oracle skeleton with this
kernel at every mode count, so a library caller gets the same floats from every
call.

The kernel reads its mode numbers m from four constant tables, built at import:
one block's mode numbers for each parity (_MODES: the periodic m = 1..B and the
antiperiodic m = 1, 3, ..., 2B-1, B = _ORACLE_BLOCK) and their squares
(_SQUARES), each a read-only 256 KiB float array.  Block 0 reads the squares
table; a later block squares table + offset.  The values are bit-identical to
np.arange followed by squaring: every m is an integer below 2^53, so table,
offset and sum are exact floats, and m*m is the same IEEE operation on the same m.

Each block splits at its first mode with t = c/m^2 <= 2^-26, found by one
np.searchsorted on m^2.  The modes before it, the head, are walked with one
log1p (or log(t - 1) where t > 1) each.  From it on, log1p(u) (u = t, or -t on
the curvature blocks) is summed as sum(u) - sum(u^2)/2: the terms dropped,
u^3/3 - u^4/4 + ..., add up to less than |u| 2^-52/3, under one ulp of u.  Most
modes of a long walk lie past the split.

A later block divides c by each m^2 and sums the series over those floats t,
the squares by np.einsum, in numpy's own loop on the calling thread (np.dot and
np.vdot would hand them to BLAS and its threads).  Block 0 divides only its
head.  Its mode numbers do not depend on c, so its series is
s*c*S2 - c^2*S4/2 (s = 1, or -1 on the curvature blocks), with S2 and S4 the
sums of 1/m^2 and 1/m^4 over its modes past the split.  Eight more read-only
(B+1)-float arrays, 2 MiB in all (_INVERSE_SUMS), hold their suffix sums for
each parity: hi[k], the float sum of the terms from mode k to the block's end,
and lo[k], the running sum of its rounding errors, so (hi[a] - hi[b]) +
(lo[a] - lo[b]) is the sum over modes a..b-1 to about one ulp.  Block
0's series then costs a few scalar reads instead of three passes over the block.
A later block's modes enter through their own float t, block 0's series modes
through their own float 1/m^2 and one c: either way the oracle sums the
spectrum mode by mode and uses no closed form.  The pure kernel in closed_forms
keeps one log1p per mode and an exact math.fsum: it is the reference the tests
hold this sum to.
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


_SUM_CHUNK = 2048  # floats of scratch while the sum tables are built


def _inverse_power_sums(squares: np.ndarray) -> tuple[np.ndarray, ...]:
    """Suffix sums (hi, lo) of 1/m^2, then of 1/m^4 = (1/m^2)^2, over squares' m^2, built
    in place.  hi[k] is the float sum of the terms from k on, added from the last and
    smallest, and lo[k] the running sum of those additions' rounding errors, so
    (hi[a] - hi[b]) + (lo[a] - lo[b]) is the sum of the terms a..b-1 to about one ulp."""
    hi2, lo2, hi4, lo4 = tables = np.zeros((4, squares.size + 1))
    np.divide(1.0, squares, out=lo2[:-1])  # each lo holds its terms until their errors
    np.multiply(lo2[:-1], lo2[:-1], out=lo4[:-1])
    scratch = np.empty(_SUM_CHUNK)
    for hi, lo in ((hi2[::-1], lo2[::-1]), (hi4[::-1], lo4[::-1])):  # from the block's end
        np.cumsum(lo[1:], out=hi[1:])
        # TwoSum of s = a + b (s = hi[k], a = hi[k-1], b the term): with d = s - a, the
        # error is (a - (s - d)) + (b - d).  A chunk at a time, so the scratch stays small
        for k in range(1, hi.size, _SUM_CHUNK):
            end = k + _SUM_CHUNK
            s, a, b = hi[k:end], hi[k - 1 : end - 1], lo[k:end]
            d = np.subtract(s, a, out=scratch[: s.size])
            np.subtract(b, d, out=b)
            np.subtract(s, d, out=d)
            np.subtract(a, d, out=d)
            np.add(d, b, out=b)
        np.cumsum(lo[1:], out=lo[1:])
    return tuple(tables)


# Block 0's mode numbers, their squares, and the suffix sums of 1/m^2 and 1/m^4 over
# them, keyed by _Kind.periodic; read-only
_MODES = {periodic: _mode_numbers(periodic, 0, _ORACLE_BLOCK) for periodic in (True, False)}
_SQUARES = {periodic: m * m for periodic, m in _MODES.items()}
_INVERSE_SUMS = {periodic: _inverse_power_sums(m2) for periodic, m2 in _SQUARES.items()}
for _table in (*_MODES.values(), *_SQUARES.values(), *_INVERSE_SUMS[True], *_INVERSE_SUMS[False]):
    _table.flags.writeable = False


def oracle_product(spec: OperatorSpec, n_modes: int) -> float:
    """Ratio-regularized partial eigenvalue product, walked by the numpy kernel.

    prod_{|n| <= N} lambda_n(parameter) / lambda_n(0), times the closed-form
    reference determinant at parameter 0 (see closed_forms._ratio_oracle).  Each
    block of modes computes t = c/m^2, with one c = (beta*|parameter|/unit)^2
    and m = n or 2k+1 read from the mode tables, and sums log1p(t) (shifted
    first-order) or 2 log|1 - t| (curvature blocks) pairwise, as a series from
    t <= 2^-26 on; block 0 reads that series' sums of 1/m^2 and 1/m^4 from
    constant tables (see the module docstring).
    """
    return _ratio_oracle(spec, n_modes, _block_log_ratio)


# From t = 2^-26 down, t - t^2/2 is log1p(t) to within one ulp of t (module docstring)
_SERIES_T = 2.0**-26


def _range_sum(hi: np.ndarray, lo: np.ndarray, a: int, b: int) -> float:
    """Sum of the terms a..b-1 of an _inverse_power_sums table pair (hi, lo)."""
    return (hi.item(a) - hi.item(b)) + (lo.item(a) - lo.item(b))


def _block_log_ratio(kind: str, c: float, start: int, stop: int) -> float:
    """Sum of log(lambda(parameter) / lambda(0)) over mode pairs start..stop-1,
    at most _ORACLE_BLOCK of them."""
    row = _KINDS[kind]
    if start:  # m = table + the block's offset, squared in place
        offset = start if row.periodic else 2 * start
        m2 = _MODES[row.periodic][: stop - start] + offset
        np.multiply(m2, m2, out=m2)
    else:
        m2 = _SQUARES[row.periodic][:stop]
    # t = c/m^2 <= _SERIES_T from the first m^2 >= c/_SERIES_T on: found on m^2, before
    # a divide overwrites it.  Those modes are summed as a series, the ones before walked
    series_m2 = c / _SERIES_T
    series = 0 if m2[0] >= series_m2 else int(np.searchsorted(m2, series_m2))
    curvature = row.pairs == "curvature"
    signed_c = -c if curvature else c  # u = signed_c/m^2: t, or -t rising towards 0 with m
    log_sum = 0.0
    if start:
        u = np.divide(signed_c, m2, out=m2)
        head, tail = u[:series], u[series:]
        if tail.size:
            log_sum = float(np.sum(tail)) - 0.5 * float(np.einsum("i,i", tail, tail))
    else:  # block 0's sums of 1/m^2 and 1/m^4 are tabled: only the head is divided
        if series < stop:  # no c*0 when an infinite c leaves no series
            hi2, lo2, hi4, lo4 = _INVERSE_SUMS[row.periodic]
            log_sum = signed_c * _range_sum(hi2, lo2, series, stop)
            log_sum -= 0.5 * c * c * _range_sum(hi4, lo4, series, stop)
        head = np.divide(signed_c, m2[:series])
    if series:
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
    """Closed form and oracle in one record, the oracle walked by the numpy kernel."""
    return RegularizedDet(closed_form(spec), oracle_product(spec, n_modes), n_modes)
