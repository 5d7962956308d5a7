"""Truncated-product oracles for the zeta-regularized circle determinants.

The closed forms, the operator kinds and OperatorSpec live in closed_forms,
which does not import numpy; this module re-exports them and adds the check:
a truncated-infinite-product oracle, which regularizes by ratio to parameter
zero (see oracle_product); that reference is scheme-independent for the
ratios that enter indices.  regularized_det puts closed form and oracle in
one record.

The oracle reads its mode numbers m from constant tables, built on first use
by _mode_table: one block's mode numbers for each parity (the periodic
m = 1..B and the antiperiodic m = 1, 3, ..., 2B-1, B = _ORACLE_BLOCK) and
their squares, each a read-only 256 KiB float array.  A one-block walk reads
only its parity's squares table; a longer one also that parity's mode
numbers; all four hold 1 MiB.  Block 0 divides by the squares table; a later
block squares table + offset.  The values are bit-identical to np.arange
followed by squaring: every m is an integer below 2^53, so table, offset and
sum are exact floats, and m*m is the same IEEE operation on the same m.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

# numpy loads with this module, not inside the first walk: a det-oracle worker imports
# zeta_det before its timed operations, which should not pay numpy's import
import numpy as np

from .closed_forms import (
    _KINDS,
    OPERATOR_KINDS,
    OperatorSpec,
    SingularOperatorError,
    _closed_form,
    _in_float_range,
    _nearest_mode,
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

# Modes per oracle block: one 256 KiB float array, which stays in cache while
# the block's mode numbers become log-ratios.  The mode numbers of one block
# and their squares are kept as tables (see _mode_table below).
_ORACLE_BLOCK = 1 << 15


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


def _mode_numbers(periodic: bool, start: int, stop: int) -> np.ndarray:
    """m = n for n = start+1..stop (periodic kinds) or 2k+1 for k = start..stop-1."""
    if periodic:
        return np.arange(start + 1, stop + 1, dtype=float)
    return np.arange(2 * start + 1, 2 * stop, 2, dtype=float)


def _mode_frequencies(kind: str, beta: float, start: int, stop: int) -> np.ndarray:
    """nu_n or omega_k = m*unit/beta for the same modes."""
    row = _KINDS[kind]
    return _mode_numbers(row.periodic, start, stop) * row.unit / beta


# Block 0's mode numbers and their squares, keyed by (_Kind.periodic, squared)
_TABLES: dict[tuple[bool, bool], np.ndarray] = {}


def _mode_table(periodic: bool, squared: bool) -> np.ndarray:
    """Block 0's mode numbers of one parity, or their squares: read-only, built on first use."""
    table = _TABLES.get((periodic, squared))
    if table is None:
        table = _mode_numbers(periodic, 0, _ORACLE_BLOCK)
        if squared:
            np.multiply(table, table, out=table)
        table.flags.writeable = False
        _TABLES[periodic, squared] = table
    return table


@dataclass(frozen=True)
class RegularizedDet:
    """Closed-form determinant together with its truncated-product oracle."""

    closed_form: float
    oracle_value: float
    oracle_modes: int

    @property
    def delta(self) -> float:
        return self.oracle_value - self.closed_form


def oracle_product(spec: OperatorSpec, n_modes: int) -> float:
    """Ratio-regularized partial eigenvalue product.

    prod_{|n| <= N} lambda_n(parameter) / lambda_n(0), times the closed-form
    reference determinant at parameter 0.  The Laplacian kinds return that
    reference with no walk: their eigenvalues do not depend on the parameter.
    For the others each block of modes computes t = c/m^2, with one
    c = (beta*|parameter|/unit)^2 and m = n or 2k+1 read from the mode tables
    (_mode_table), and sums log1p(t) (shifted first-order) or 2 log|1 - t|
    (curvature blocks) pairwise; math.fsum adds the block sums of a walk past
    one block, so the result does not depend on their order.
    """
    n_modes = _mode_count(n_modes)
    kind, beta = spec.kind, spec.beta
    if _KINDS[kind].pairs is None:
        return _closed_form(kind, beta, 0.0)
    c = _ratio_scale(spec, n_modes)
    if n_modes <= _ORACLE_BLOCK:
        log_ratio = _block_log_ratio(kind, c, 0, n_modes)  # fsum of one value is that value
    else:
        log_ratio = math.fsum(
            _block_log_ratio(kind, c, start, min(start + _ORACLE_BLOCK, n_modes))
            for start in range(0, n_modes, _ORACLE_BLOCK)
        )
    # an overflowing c drives the sum to inf, which _in_float_range refuses
    return _in_float_range(
        lambda: _closed_form(kind, beta, 0.0) * math.exp(log_ratio), kind, beta, spec.parameter
    )


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


def _block_log_ratio(kind: str, c: float, start: int, stop: int) -> float:
    """Sum of log(lambda(parameter) / lambda(0)) over mode pairs start..stop-1,
    at most _ORACLE_BLOCK of them."""
    row = _KINDS[kind]
    if start:  # m = table + the block's offset, squared in place
        offset = start if row.periodic else 2 * start
        m2 = _mode_table(row.periodic, False)[: stop - start] + offset
        out = np.multiply(m2, m2, out=m2)
    else:  # the squares table is read-only: the divide writes a fresh array
        m2, out = _mode_table(row.periodic, True)[:stop], None
    if row.pairs != "curvature":
        t = np.divide(c, m2, out=out)
        return float(np.sum(np.log1p(t, out=t)))
    minus_t = np.divide(-c, m2, out=out)  # rises towards 0 with m
    # t > 1 on a leading run of modes only, where the log is log(t - 1)
    above = int(np.searchsorted(minus_t, -1.0))
    head, tail = minus_t[:above], minus_t[above:]
    np.subtract(-1.0, head, out=head)
    np.log(head, out=head)
    np.log1p(tail, out=tail)
    return 2.0 * float(np.sum(minus_t))


def regularized_det(spec: OperatorSpec, n_modes: int) -> RegularizedDet:
    """Closed form and oracle in one record, for reports and the CLI."""
    return RegularizedDet(closed_form(spec), oracle_product(spec, n_modes), n_modes)
