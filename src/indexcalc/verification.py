"""Self-contained acceptance checks behind the `verify` subcommand.

Each criterion contributes named checks with an expected and a computed
value; tolerances are fixed here, not configurable.  The quick mode trims
the oracle mode counts; --all runs the full-size ratio oracles (10^5 modes)
with the same tolerances.  Both sizes walk closed_forms.regularized_det's
pure-Python kernel, so verify never imports numpy.  The catalog is read
before any criterion runs, and an index that comes out non-integer fails its
row ("non-integer <v>").  Runtime rows print microseconds: a criterion that
takes under half a millisecond still reads above zero.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import catalog as _catalog
from . import closed_forms
from . import index_engine as engine
from .clifford import MAX_HALF_DIM, ComplexRational, gamma_identities
from .genera import a_hat_class, l_class, signature_integrand_identity_check, todd_class

__all__ = ["VerifyCheck", "VerifyReport", "run_verification"]

ORACLE_TOL_RATIO = 1e-4
CLOSED_FORM_FLOAT_TOL = 1e-12  # float evaluation of exact identities

FULL_MODES_RATIO = 10**5
QUICK_MODES = 10**4

RUNTIME_LIMITS = {
    "determinant-closed-forms": 5.0,
    "ratio-identity": 10.0,
    "fermionic-identities": 2.0,
    "signature-integrand": 5.0,
    "genus-coefficients": 5.0,
    "catalog-indices": 5.0,
}


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    expected: str
    computed: str
    status: bool


@dataclass
class VerifyReport:
    checks: list[VerifyCheck] = field(default_factory=list)

    @property
    def n_pass(self) -> int:
        return sum(1 for c in self.checks if c.status)

    @property
    def n_fail(self) -> int:
        return len(self.checks) - self.n_pass

    @property
    def passed(self) -> bool:
        return self.n_fail == 0

    def add(self, name: str, expected, computed, status: bool) -> None:
        self.checks.append(VerifyCheck(name, str(expected), str(computed), bool(status)))


def _timed(report: VerifyReport, label: str, fn) -> None:
    start = time.perf_counter()
    fn(report)
    elapsed = time.perf_counter() - start
    limit = RUNTIME_LIMITS.get(label)
    if limit is not None:
        report.add(
            f"{label}: runtime", f"< {limit:g} s", f"{elapsed:.6f} s", elapsed < limit
        )


def _within(report: VerifyReport, name: str, delta: float, tol: float) -> None:
    """A row that passes when |delta| <= tol."""
    report.add(name, f"|delta| <= {tol:g}", f"delta={delta:.3e}", abs(delta) <= tol)


def _check_determinants(report: VerifyReport) -> None:
    for beta in (0.5, 1.0, 2.0):
        closed = closed_forms.det_pbc_laplacian(beta)
        report.add(
            f"det_pbc_laplacian(beta={beta:g})", beta * beta, closed, closed == beta * beta
        )
        via_zeta = math.exp(closed_forms.pbc_laplacian_log_det_zeta(beta))
        _within(report, f"exp(-zeta'(0)) = det_pbc_laplacian (beta={beta:g})",
                via_zeta - closed, CLOSED_FORM_FLOAT_TOL)


def _check_ratio_identity(modes: int):
    def run(report: VerifyReport) -> None:
        beta = 1.0
        for y in (0.3, 1.0, 2.0):
            closed = closed_forms.det_apbc_curvature_block(y, beta)
            ratio = closed_forms.det_apbc_curvature_block_via_ratio(y, beta)
            _within(report, f"I(2b)/I(b) = (2cos(b y/2))^2 at y={y:g}",
                    ratio - closed, CLOSED_FORM_FLOAT_TOL)
            spec = closed_forms.OperatorSpec("apbc_curvature_block", beta, y)
            oracle = closed_forms.regularized_det(spec, modes).oracle_value
            _within(report, f"apbc block oracle (y={y:g}, N={modes:g})",
                    oracle - closed, ORACLE_TOL_RATIO)

    return run


def _exact(ok: bool) -> str:
    return "exact" if ok else "violated"


def _check_fermionic(report: VerifyReport) -> None:
    for n in range(1, MAX_HALF_DIM + 1):
        ids = gamma_identities(n)
        report.add(f"clifford relations (n={n})", "exact", _exact(ids.clifford), ids.clifford)
        report.add(f"gamma^a hermitian (n={n})", "exact", _exact(ids.hermitian), ids.hermitian)
        report.add(f"trace gamma_(2n+1) (n={n})", 0, ids.trace, ids.trace == 0)
        square_ok = ids.square_trace == 2**n
        report.add(f"trace gamma_(2n+1)^2 (n={n})", 2**n, ids.square_trace, square_ok)
        grading = f"gamma_(2n+1)^2 = 1, anticommutes with gamma^a (n={n})"
        report.add(grading, "exact", _exact(ids.grading), ids.grading)
        expected = repr(ComplexRational.i_power(n))
        norm_ok = ids.normalization_ok
        report.add(f"normalization i^n (n={n})", expected, repr(ids.normalization), norm_ok)


def _check_signature_integrand(report: VerifyReport) -> None:
    for l in range(0, 5):
        ok = signature_integrand_identity_check(l)
        report.add(f"2^l prod f(x/2) = prod f(x) at volume degree (l={l})", True, ok, ok)


# frozen classical expansions (the tests recompute them by brute force); shown=None prints all
_GENUS_ROWS = (
    ("L_1 = p1/3", l_class, 2, 4, {(1, 0): Fraction(1, 3)}, (1, 0)),
    ("L_2 = (7 p2 - p1^2)/45", l_class, 2, 8,
     {(0, 1): Fraction(7, 45), (2, 0): Fraction(-1, 45)}, None),
    ("A_1 = -p1/24", a_hat_class, 2, 4, {(1, 0): Fraction(-1, 24)}, (1, 0)),
    ("A_2 = (7 p1^2 - 4 p2)/5760", a_hat_class, 2, 8,
     {(2, 0): Fraction(7, 5760), (0, 1): Fraction(-1, 1440)}, None),
    ("Td_2 = (c1^2 + c2)/12", todd_class, 2, 4,
     {(2, 0): Fraction(1, 12), (0, 1): Fraction(1, 12)}, None),
    ("Td_3 = c1 c2 / 24", todd_class, 3, 6, {(1, 1, 0): Fraction(1, 24)}, None),
)


def _check_genus_coefficients(report: VerifyReport) -> None:
    polynomial = functools.cache(lambda build, half_dim: build(half_dim).polynomial)
    for name, build, half_dim, degree, frozen, shown in _GENUS_ROWS:
        terms = polynomial(build, half_dim).degree_part(degree).terms
        computed = sorted(terms.items()) if shown is None else terms.get(shown, 0)
        report.add(name, ", ".join(map(str, frozen.values())), computed, terms == frozen)


# frozen reference values, independent of the catalog's own expected tables
_CRITERION_6 = (
    ("cp2", "signature", 1),
    ("k3", "signature", -16),
    ("cp1xcp1", "signature", 0),
    ("cp1", "dolbeault", 1),
    ("cp2", "dolbeault", 1),
    ("cp3", "dolbeault", 1),
    ("k3", "dolbeault", 2),
    ("k3", "spin", 2),
    ("k3", "euler", 24),
    *[("cp1", f"dolbeault:O({k})", k + 1) for k in range(-2, 4)],
)


def _index_row(report: VerifyReport, index, label: str, name: str, key: str, expected: int):
    """A row comparing ``index(name, key)`` with ``expected``; "non-integer <v>" fails it."""
    computed = index(name, key)
    report.add(label, expected, computed, computed == expected)


def _check_catalog_indices(report: VerifyReport, catalog, index) -> None:
    for name, key, expected in _CRITERION_6:
        kind, _, bundle_name = key.partition(":")
        label = f"{kind}({name}{', ' + bundle_name if bundle_name else ''})"
        _index_row(report, index, label, name, key, expected)
    # every recorded expectation across the catalog, as an integrality sweep
    for entry in catalog:
        for key, expected in sorted(entry.expected.items()):
            _index_row(report, index, f"catalog {entry.name}: {key}", entry.name, key, expected)


def _check_mod4_vanishing(report: VerifyReport, catalog, index) -> None:
    hit = False
    for entry in catalog:
        if entry.manifold.real_dim % 4 == 2:
            hit = True
            label = f"signature vanishes on {entry.name} (dim {entry.manifold.real_dim})"
            _index_row(report, index, label, entry.name, "signature", 0)
    report.add("catalog contains dim = 2 mod 4 descriptors", True, hit, hit)


def _check_beta_independence(report: VerifyReport) -> None:
    for beta in (0.1, 1.0, 10.0):
        value = closed_forms.fermion_partition(0.0, beta)
        report.add(f"fermion_partition(0, beta={beta:g})", 2.0, value, value == 2.0)
    for fn in engine.INDEX_FUNCTIONS.values():
        params = inspect.signature(fn).parameters
        ok = "beta" not in params
        report.add(f"{fn.__name__} has no beta parameter", True, ok, ok)


def run_verification(full: bool = False) -> VerifyReport:
    """Run every acceptance criterion; `full` uses the large oracle mode counts."""
    # one catalog snapshot per run, read before any criterion; each index computed at most once
    catalog = _catalog.effective_catalog()
    entries = {entry.name: entry for entry in catalog}

    @functools.cache
    def index(name: str, key: str) -> Fraction | str:
        """The index's value, or "non-integer <v>": the outcome is kept, not an exception."""
        kind, _, bundle_name = key.partition(":")
        try:
            return entries[name].index(kind, bundle_name or None).value
        except engine.InconsistentIndexError as exc:
            return f"non-integer {exc.value}"

    report = VerifyReport()
    ratio_modes = FULL_MODES_RATIO if full else QUICK_MODES
    _timed(report, "determinant-closed-forms", _check_determinants)
    _timed(report, "ratio-identity", _check_ratio_identity(ratio_modes))
    _timed(report, "fermionic-identities", _check_fermionic)
    _timed(report, "signature-integrand", _check_signature_integrand)
    _timed(report, "genus-coefficients", _check_genus_coefficients)
    _timed(report, "catalog-indices", lambda r: _check_catalog_indices(r, catalog, index))
    _check_mod4_vanishing(report, catalog, index)
    _check_beta_independence(report)
    return report
