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

A later block splits at its first mode with t = c/m^2 <= 2^-26, found by one
np.searchsorted on m^2.  The modes before it, the head, are walked with one
log1p (or log(t - 1) where t > 1) each.  From it on, log1p(u) (u = t, or -t on
the curvature blocks) is summed as sum(u) - sum(u^2)/2: the terms dropped,
u^3/3 - u^4/4 + ..., add up to less than |u| 2^-52/3, under one ulp of u.  It
divides c by each m^2 and sums the series over those floats t, the squares by
np.einsum, in numpy's own loop on the calling thread (np.dot and np.vdot would
hand them to BLAS and its threads).

Block 0's mode numbers do not depend on c, so it sums a longer series from
tables.  It splits at its first mode with m^2 >= 2^13 c (t <= 2^-13), an index
found in integers from c, about 90 x modes in (x = sqrt(c) = beta|y|/unit).
Past it log1p(u) is summed as u - u^2/2 + u^3/3 - u^4/4, whose dropped terms
add up to less than |u| 2^-53: s c S2 - c^2 S4/2 + s c^3 S6/3 - c^4 S8/4 (s = 1,
or -1 on the curvature blocks), S2k the sum of 1/m^2k over those modes.
_INVERSE_SUMS holds, per parity, (B+1)-float read-only suffix sums hi2, hi4, hi6
and hi8 (the float sum of the terms from mode k to the block's end) and lo2, the
running sum of hi2's rounding errors, so (hi2[a] - hi2[b]) + (lo2[a] - lo2[b]) is
S2 over modes a..b-1 to about one ulp.  S4 and S6 need no such correction, as
their terms are at most 2^-14 and 2^-26 of the first; lo2 and hi8, whose values
enter below 2^-40 of the sum, are float32, so all the tables take 3 MiB.  The
head before the split is walked by the pure kernel,
closed_forms._pure_block_log_ratio, up to _PURE_HEAD_MODES modes, where that
costs less than numpy's per-call overhead, and on numpy like a later block's
head past them.

A later block's modes enter through their own float t, block 0's series modes
through their own float 1/m^2 and one c: either way the oracle sums the
spectrum mode by mode and uses no closed form.  The pure kernel in closed_forms
keeps one log1p per mode and an exact math.fsum: it is the reference the tests
hold this sum to.
"""

from __future__ import annotations

import math

# numpy loads with this module, not inside the first walk: a det-oracle worker imports
# zeta_det before its timed operations, which should not pay numpy's import
import numpy as np

from .closed_forms import (
    _KINDS,
    _ORACLE_BLOCK,
    RegularizedDet,
    _pure_block_log_ratio,
    _ratio_oracle,
)

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
    """(hi2, lo2, hi4, hi6, hi8): suffix sums of 1/m^2, 1/m^4, 1/m^6 and 1/m^8 over
    squares' m^2, from the float 1/m^2 and its products (1/m^4 = (1/m^2)^2, 1/m^6 =
    1/m^2 * 1/m^4, 1/m^8 = (1/m^4)^2).  hi[k] is the float sum of the terms from k on,
    added from the last and smallest, and lo2[k] the running sum of hi2's rounding errors,
    so (hi2[a] - hi2[b]) + (lo2[a] - lo2[b]) is the sum of 1/m^2 over a..b-1 to about one
    ulp.  lo2 and hi8 are built in float64, in the rows of hi4 and hi6 before those hold
    their own terms, and kept as float32, so the build needs no more memory than its result."""
    hi2, hi4, hi6 = np.zeros((3, squares.size + 1))
    hi, lo = hi2[::-1], hi4[::-1]  # from the block's end
    np.divide(1.0, squares, out=hi4[:-1])  # lo holds the terms 1/m^2 until their errors
    np.cumsum(lo[1:], out=hi[1:])
    # TwoSum of s = a + b (s = hi[k], a = hi[k-1], b the term): with d = s - a, the error
    # is (a - (s - d)) + (b - d).  A chunk at a time, so the scratch stays small
    scratch = np.empty(_SUM_CHUNK)
    for k in range(1, hi.size, _SUM_CHUNK):
        end = min(k + _SUM_CHUNK, hi.size)
        s, a, b = hi[k:end], hi[k - 1 : end - 1], lo[k:end]
        d = np.subtract(s, a, out=scratch[: s.size])
        np.subtract(b, d, out=b)
        np.subtract(s, d, out=d)
        np.subtract(a, d, out=d)
        np.add(d, b, out=b)
    np.cumsum(lo[1:], out=lo[1:])
    lo2 = hi4.astype(np.float32)
    np.divide(1.0, squares, out=hi4[:-1])
    np.square(hi4[:-1], out=hi4[:-1])
    np.square(hi4[:-1], out=hi6[:-1])
    np.cumsum(hi6[-2::-1], out=hi6[-2::-1])
    hi8 = hi6.astype(np.float32)
    np.divide(1.0, squares, out=hi6[:-1])
    np.multiply(hi6[:-1], hi4[:-1], out=hi6[:-1])
    for row in (hi4, hi6):
        np.cumsum(row[-2::-1], out=row[-2::-1])
    return hi2, lo2, hi4, hi6, hi8


# Block 0's mode numbers, their squares, and the suffix sums of 1/m^2..1/m^8 over them,
# keyed by _Kind.periodic; read-only
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
    t <= 2^-26 on; block 0 sums a four-term series from t <= 2^-13 on, read from
    constant tables, and walks a short head in pure Python (see the module docstring).
    """
    return _ratio_oracle(spec, n_modes, _block_log_ratio)


# From t = 2^-26 down, t - t^2/2 is log1p(t) to within one ulp of t (module docstring)
_SERIES_T = 2.0**-26
# Block 0's series starts at its first m^2 >= 2^13 c, where t - t^2/2 + t^3/3 - t^4/4 is
# log1p(t) to within half an ulp of t; every block-0 m^2 is below 2^32
_BLOCK_ZERO_SPLIT = 2.0**13
_BLOCK_ZERO_M2 = 2.0**32

# Block 0's head walks in pure Python up to this many modes, on numpy past them.  Timed
# after a 10^5-mode walk had flushed the caches (Python 3.11, 2-core x86-64 VM), the pure
# head cost 110-120 ns a mode over a 4-5 us base, the numpy head 9-19 us at 16-160
# modes, and the two crossed at about 50 modes on apbc_first_order_shifted and 70 on the
# curvature blocks.
_PURE_HEAD_MODES = 64


def _block_zero_split(periodic: bool, c: float, stop: int) -> int:
    """Index of block 0's first mode with m^2 >= 2^13 c (t <= 2^-13), or stop if it lies at
    or past stop.  Exact: 2^13 c is an exact float, and m^2 >= it iff m^2 >= its ceiling."""
    bound = c * _BLOCK_ZERO_SPLIT
    if not bound < _BLOCK_ZERO_M2:  # an infinite c too
        return stop
    first = math.isqrt(math.ceil(bound) - 1) + 1 if bound else 1  # least m, m^2 >= bound
    return min(first - 1 if periodic else first // 2, stop)  # m = k+1, or the odd m = 2k+1


def _range_sums(periodic: bool, a: int, b: int) -> tuple[float, float, float, float]:
    """S2, S4, S6 and S8: the sums of 1/m^2..1/m^8 over block 0's modes a..b-1."""
    hi2, lo2, hi4, hi6, hi8 = _INVERSE_SUMS[periodic]
    s2 = (hi2.item(a) - hi2.item(b)) + (lo2.item(a) - lo2.item(b))
    return (s2, hi4.item(a) - hi4.item(b), hi6.item(a) - hi6.item(b), hi8.item(a) - hi8.item(b))


def _block_log_ratio(kind: str, c: float, start: int, stop: int) -> float:
    """Sum of log(lambda(parameter) / lambda(0)) over mode pairs start..stop-1,
    at most _ORACLE_BLOCK of them."""
    row = _KINDS[kind]
    curvature = row.pairs == "curvature"
    signed_c = -c if curvature else c  # u = signed_c/m^2: t, or -t rising towards 0 with m
    log_sum = 0.0
    if start:  # m = table + the block's offset, squared in place
        offset = start if row.periodic else 2 * start
        m2 = _MODES[row.periodic][: stop - start] + offset
        np.multiply(m2, m2, out=m2)
        # t = c/m^2 <= _SERIES_T from the first m^2 >= c/_SERIES_T on: found on m^2, before
        # the divide overwrites it.  Those modes are summed as a series, the ones before walked
        series_m2 = c / _SERIES_T
        series = 0 if m2[0] >= series_m2 else int(np.searchsorted(m2, series_m2))
        u = np.divide(signed_c, m2, out=m2)
        head, tail = u[:series], u[series:]
        if tail.size:
            log_sum = float(np.sum(tail)) - 0.5 * float(np.einsum("i,i", tail, tail))
    else:  # block 0's series sums are tabled: only the head is divided and walked
        series = _block_zero_split(row.periodic, c, stop)
        if series < stop:  # no c*0 when an infinite c leaves no series
            s2, s4, s6, s8 = _range_sums(row.periodic, series, stop)
            v = signed_c
            log_sum = v * s2 - v * v * (0.5 * s4 - v * (s6 / 3.0 - 0.25 * v * s8))
        if series <= _PURE_HEAD_MODES:
            head_sum = _pure_block_log_ratio(kind, c, 0, series)
            return (2.0 * log_sum if curvature else log_sum) + head_sum
        head = np.divide(signed_c, _SQUARES[row.periodic][:series])
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
