"""Self-contained acceptance checks behind the `verify` subcommand.

Each criterion contributes named checks with an expected and a computed
value; tolerances are fixed here, not configurable.  The quick mode trims
the oracle mode counts; --all runs the full-size oracles (10^6 modes) with
the same tolerances.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import catalog as _catalog
from . import index_engine as engine
from . import zeta_det
from .clifford import ComplexRational, gamma_identities
from .genera import a_hat_class, l_class, signature_integrand_identity_check, todd_class

__all__ = ["VerifyCheck", "VerifyReport", "run_verification"]

ORACLE_TOL_LAPLACIAN = 1e-5
ORACLE_TOL_RATIO = 1e-4
CLOSED_FORM_FLOAT_TOL = 1e-12  # float evaluation of exact identities

FULL_MODES_LAPLACIAN = 10**6
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
            f"{label}: runtime", f"< {limit:g} s", f"{elapsed:.3f} s", elapsed < limit
        )


def _check_determinants(modes: int):
    def run(report: VerifyReport) -> None:
        for beta in (0.5, 1.0, 2.0):
            closed = zeta_det.det_pbc_laplacian(beta)
            report.add(
                f"det_pbc_laplacian(beta={beta:g})", beta * beta, closed, closed == beta * beta
            )
            oracle = zeta_det.oracle_product(zeta_det.OperatorSpec("pbc_laplacian", beta), modes)
            report.add(
                f"det_pbc_laplacian oracle (beta={beta:g}, N={modes:g})",
                f"|delta| <= {ORACLE_TOL_LAPLACIAN:g}",
                f"delta={oracle - closed:.3e}",
                abs(oracle - closed) <= ORACLE_TOL_LAPLACIAN,
            )

    return run


def _check_ratio_identity(modes: int):
    def run(report: VerifyReport) -> None:
        beta = 1.0
        for y in (0.3, 1.0, 2.0):
            closed = zeta_det.det_apbc_curvature_block(y, beta)
            ratio = zeta_det.det_apbc_curvature_block_via_ratio(y, beta)
            report.add(
                f"I(2b)/I(b) = (2cos(b y/2))^2 at y={y:g}",
                f"|delta| <= {CLOSED_FORM_FLOAT_TOL:g}",
                f"delta={ratio - closed:.3e}",
                abs(ratio - closed) <= CLOSED_FORM_FLOAT_TOL,
            )
            oracle = zeta_det.oracle_product(
                zeta_det.OperatorSpec("apbc_curvature_block", beta, y), modes
            )
            report.add(
                f"apbc block oracle (y={y:g}, N={modes:g})",
                f"|delta| <= {ORACLE_TOL_RATIO:g}",
                f"delta={oracle - closed:.3e}",
                abs(oracle - closed) <= ORACLE_TOL_RATIO,
            )

    return run


def _exact(ok: bool) -> str:
    return "exact" if ok else "violated"


def _check_fermionic(report: VerifyReport) -> None:
    for n in range(1, 6):
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


def _check_genus_coefficients(report: VerifyReport) -> None:
    # classical expansions, frozen; the acceptance test recomputes them by brute force
    l2 = l_class(2).polynomial
    report.add(
        "L_1 = p1/3",
        "1/3",
        str(l2.degree_part(4).terms.get((1, 0), 0)),
        l2.degree_part(4).terms == {(1, 0): Fraction(1, 3)},
    )
    report.add(
        "L_2 = (7 p2 - p1^2)/45",
        "7/45, -1/45",
        str(sorted(l2.degree_part(8).terms.items())),
        l2.degree_part(8).terms == {(0, 1): Fraction(7, 45), (2, 0): Fraction(-1, 45)},
    )
    a2 = a_hat_class(2).polynomial
    report.add(
        "A_1 = -p1/24",
        "-1/24",
        str(a2.degree_part(4).terms.get((1, 0), 0)),
        a2.degree_part(4).terms == {(1, 0): Fraction(-1, 24)},
    )
    report.add(
        "A_2 = (7 p1^2 - 4 p2)/5760",
        "7/5760, -1/1440",
        str(sorted(a2.degree_part(8).terms.items())),
        a2.degree_part(8).terms
        == {(2, 0): Fraction(7, 5760), (0, 1): Fraction(-1, 1440)},
    )
    td2 = todd_class(2).polynomial
    report.add(
        "Td_2 = (c1^2 + c2)/12",
        "1/12, 1/12",
        str(sorted(td2.degree_part(4).terms.items())),
        td2.degree_part(4).terms == {(2, 0): Fraction(1, 12), (0, 1): Fraction(1, 12)},
    )
    td3 = todd_class(3).polynomial
    report.add(
        "Td_3 = c1 c2 / 24",
        "1/24",
        str(sorted(td3.degree_part(6).terms.items())),
        td3.degree_part(6).terms == {(1, 1, 0): Fraction(1, 24)},
    )


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


def _check_catalog_indices(report: VerifyReport, catalog, index) -> None:
    for name, key, expected in _CRITERION_6:
        kind, _, bundle_name = key.partition(":")
        label = f"{kind}({name}{', ' + bundle_name if bundle_name else ''})"
        try:
            rep = index(name, key)
        except engine.InconsistentIndexError as exc:
            report.add(label, expected, f"non-integer {exc.value}", False)
            continue
        integral = rep.value.denominator == 1
        report.add(label, expected, rep.value, integral and rep.integer_value == expected)
    # every recorded expectation across the catalog, as an integrality sweep
    for entry in catalog:
        for key, expected in sorted(entry.expected.items()):
            rep = index(entry.name, key)
            report.add(
                f"catalog {entry.name}: {key}",
                expected,
                rep.value,
                rep.value == Fraction(expected),
            )


def _check_mod4_vanishing(report: VerifyReport, catalog, index) -> None:
    hit = False
    for entry in catalog:
        if entry.manifold.real_dim % 4 == 2:
            hit = True
            rep = index(entry.name, "signature")
            report.add(
                f"signature vanishes on {entry.name} (dim {entry.manifold.real_dim})",
                0,
                rep.value,
                rep.value == 0,
            )
    report.add("catalog contains dim = 2 mod 4 descriptors", True, hit, hit)


def _check_beta_independence(report: VerifyReport) -> None:
    for beta in (0.1, 1.0, 10.0):
        value = zeta_det.fermion_partition(0.0, beta)
        report.add(f"fermion_partition(0, beta={beta:g})", 2.0, value, value == 2.0)
    for fn in engine.INDEX_FUNCTIONS.values():
        params = inspect.signature(fn).parameters
        ok = "beta" not in params
        report.add(f"{fn.__name__} has no beta parameter", True, ok, ok)


def run_verification(full: bool = False) -> VerifyReport:
    """Run every acceptance criterion; `full` uses the large oracle mode counts."""
    report = VerifyReport()
    det_modes = FULL_MODES_LAPLACIAN if full else QUICK_MODES
    ratio_modes = FULL_MODES_RATIO if full else QUICK_MODES
    _timed(report, "determinant-closed-forms", _check_determinants(det_modes))
    _timed(report, "ratio-identity", _check_ratio_identity(ratio_modes))
    _timed(report, "fermionic-identities", _check_fermionic)
    _timed(report, "signature-integrand", _check_signature_integrand)
    _timed(report, "genus-coefficients", _check_genus_coefficients)
    # one catalog snapshot per run; each of its indices is computed at most once
    catalog = _catalog.effective_catalog()
    entries = {entry.name: entry for entry in catalog}

    @functools.cache
    def index(name: str, key: str) -> engine.IndexReport:
        entry = entries[name]
        kind, _, bundle_name = key.partition(":")
        bundle = entry.bundles[bundle_name] if bundle_name else None
        return engine.compute_index(entry.manifold, kind, bundle)

    _timed(report, "catalog-indices", lambda r: _check_catalog_indices(r, catalog, index))
    _check_mod4_vanishing(report, catalog, index)
    _check_beta_independence(report)
    return report
