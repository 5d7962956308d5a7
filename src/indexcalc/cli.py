"""Command-line surface.

Subcommands:
    genus           print a genus class polynomial
    index           evaluate an index on a catalog or file descriptor; the
                    complex names are the keys of index_engine.INDEX_FUNCTIONS
    detreg          closed-form vs oracle regularized determinant
    fermion-checks  gamma-matrix and Berezin identity table
    verify          run the acceptance suite

Exit codes: 0 success, 1 check failure, 2 usage or descriptor error.
Every subcommand accepts --format {text,json}.

Only detreg, fermion-checks and verify load numpy: each imports its modules
when it runs, so genus and index start without it.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from . import catalog as _catalog
from . import index_engine as engine
from .genera import GenusClass, a_hat_class, l_class, todd_class

__all__ = ["build_parser", "run_cli", "main"]

_GENUS_BUILDERS = {"L": l_class, "Ahat": a_hat_class, "Todd": todd_class}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indexcalc",
        description="Exact characteristic-class genera, regularized determinants, "
        "and topological index evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"indexcalc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_genus = sub.add_parser("genus", help="print a genus class polynomial")
    p_genus.add_argument("--kind", required=True, choices=sorted(_GENUS_BUILDERS))
    p_genus.add_argument("--half-dim", required=True, type=int, dest="half_dim")
    _add_format(p_genus)

    p_index = sub.add_parser("index", help="evaluate an index on a manifold descriptor")
    p_index.add_argument(
        "--manifold", required=True, help="catalog name or path to a descriptor file"
    )
    p_index.add_argument(
        "--complex", required=True, choices=tuple(engine.INDEX_FUNCTIONS), dest="complex_kind"
    )
    p_index.add_argument("--bundle", help="bundle name from the descriptor")
    _add_format(p_index)

    p_det = sub.add_parser("detreg", help="zeta-regularized determinant and its oracle")
    # no argparse choices: OperatorSpec refuses an unknown kind and lists the valid ones
    p_det.add_argument("--op", required=True, help="operator kind")
    p_det.add_argument("--beta", required=True, type=float)
    p_det.add_argument("--param", type=float, default=0.0)
    p_det.add_argument("--oracle-modes", type=int, default=10**5, dest="oracle_modes")
    _add_format(p_det)

    p_fermion = sub.add_parser("fermion-checks", help="gamma and Berezin identity table")
    p_fermion.add_argument("--max-n", type=int, default=5, dest="max_n")
    _add_format(p_fermion)

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument(
        "--all",
        action="store_true",
        dest="full",
        help="use full-size determinant oracles (10^6 modes)",
    )
    _add_format(p_verify)
    return parser


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")


def _emit(payload: dict, text_lines: list[str], fmt: str, out) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, ensure_ascii=False), file=out)
    else:
        for line in text_lines:
            print(line, file=out)


def _float_str(value: float) -> str:
    return format(value, ".12g")


def _cmd_genus(args, out) -> int:
    if args.half_dim < 0:
        raise ValueError(f"--half-dim must be non-negative, got {args.half_dim}")
    genus: GenusClass = _GENUS_BUILDERS[args.kind](args.half_dim)
    poly = genus.polynomial
    payload = {
        "kind": genus.kind,
        "half_dim": genus.half_dim,
        "truncation": poly.truncation,
        "polynomial": str(poly),
        "terms": {
            poly.monomial_name(exps): f"{c.numerator}/{c.denominator}"
            for exps, c in poly.sorted_terms()
        },
    }
    _emit(payload, [str(poly)], args.format, out)
    return 0


def _cmd_index(args, out) -> int:
    entry = _catalog.resolve_manifold(args.manifold)
    bundle = None
    if args.bundle is not None:
        if args.bundle not in entry.bundles:
            raise engine.DescriptorError(
                f"{entry.name}: no bundle named {args.bundle!r}; "
                f"available: {', '.join(sorted(entry.bundles)) or 'none'}"
            )
        bundle = entry.bundles[args.bundle]
    report = engine.compute_index(entry.manifold, args.complex_kind, bundle)
    payload = {
        "manifold": entry.name,
        "complex": report.complex_kind,
        "value": report.integer_value,
        "density": str(report.density),
    }
    if args.bundle is not None:
        payload["bundle"] = args.bundle
    _emit(payload, [str(report.integer_value)], args.format, out)
    return 0


def _cmd_detreg(args, out) -> int:
    from . import zeta_det

    if args.oracle_modes < 1:
        raise ValueError(f"--oracle-modes must be at least 1, got {args.oracle_modes}")
    spec = zeta_det.OperatorSpec(kind=args.op, beta=args.beta, parameter=args.param)
    record = zeta_det.regularized_det(spec, args.oracle_modes)
    payload = {
        "op": spec.kind,
        "beta": spec.beta,
        "param": spec.parameter,
        "modes": record.oracle_modes,
        "closed": record.closed_form,
        "oracle": record.oracle_value,
        "delta": record.delta,
    }
    lines = [
        f"closed={_float_str(record.closed_form)}",
        f"oracle={_float_str(record.oracle_value)}",
        f"delta={_float_str(record.delta)}",
    ]
    _emit(payload, lines, args.format, out)
    return 0


def _cmd_fermion_checks(args, out) -> int:
    from .clifford import gamma_identities

    if not 1 <= args.max_n <= 5:
        raise ValueError("--max-n must be between 1 and 5")
    results = [gamma_identities(n) for n in range(1, args.max_n + 1)]
    rows = [
        {
            "n": r.n,
            "clifford": r.clifford,
            "hermitian": r.hermitian,
            "chirality": r.chirality_ok,
            "normalization": repr(r.normalization),
            "normalization_ok": r.normalization_ok,
        }
        for r in results
    ]
    all_ok = all(
        r["clifford"] and r["hermitian"] and r["chirality"] and r["normalization_ok"]
        for r in rows
    )

    def mark(ok: bool) -> str:
        return "PASS" if ok else "FAIL"

    lines = ["  n  clifford  hermitian  chirality  normalization"]
    for r in rows:
        lines.append(
            f"  {r['n']}  {mark(r['clifford']):>8}  {mark(r['hermitian']):>9}  "
            f"{mark(r['chirality']):>9}  {r['normalization']:>4} {mark(r['normalization_ok'])}"
        )
    lines.append(f"fermion-checks: {'all passed' if all_ok else 'FAILURES'}")
    payload = {"rows": rows, "passed": all_ok}
    _emit(payload, lines, args.format, out)
    return 0 if all_ok else 1


def _cmd_verify(args, out) -> int:
    from .verification import run_verification

    report = run_verification(full=args.full)
    lines = []
    for check in report.checks:
        status = "PASS" if check.status else "FAIL"
        lines.append(
            f"{status}  {check.name}  expected={check.expected}  computed={check.computed}"
        )
    lines.append(f"{report.n_pass}/{len(report.checks)} checks passed")
    payload = {
        "checks": [
            {
                "name": c.name,
                "expected": c.expected,
                "computed": c.computed,
                "status": c.status,
            }
            for c in report.checks
        ],
        "passed": report.passed,
        "n_pass": report.n_pass,
        "n_fail": report.n_fail,
    }
    _emit(payload, lines, args.format, out)
    return 0 if report.passed else 1


_COMMANDS = {
    "genus": _cmd_genus,
    "index": _cmd_index,
    "detreg": _cmd_detreg,
    "fermion-checks": _cmd_fermion_checks,
    "verify": _cmd_verify,
}


def run_cli(argv: list[str] | None = None, out=None, err=None) -> int:
    """Dispatch a command line; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # DescriptorError, InconsistentIndexError and SingularOperatorError are ValueErrors
    try:
        return _COMMANDS[args.command](args, out)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=err)
        return 2


def main() -> None:
    sys.exit(run_cli())
