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

Each subcommand imports its modules when it runs, so genus, index and
fermion-checks start without numpy or the determinant code.  detreg and
verify walk the determinant oracle through closed_forms.regularized_det, so
neither loads numpy at its default sizes; only detreg with an --oracle-modes
past closed_forms.PURE_MODE_LIMIT does, once OperatorSpec has accepted the
operator.
JSON output and descriptor files are loaded on use too: text output never
imports json, and only a descriptor path or a catalog directory loads
descriptor_file.

main() runs one command per process.  It turns the garbage collector off for
the command, whose objects are freed by reference counting, and freezes every
object still alive before it exits, so interpreter shutdown skips its full
collections.  run_cli, which callers use in-process, keeps normal collection.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from contextlib import redirect_stderr, redirect_stdout

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
        "--manifold",
        required=True,
        help="catalog name or path to a descriptor file; a name without a path separator "
        "or .json suffix reads a file of that name only if no catalog entry has it",
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
    # argparse takes only -<digits>[.<digits>] for a negative number and would end --beta or
    # --param at -1e17 or -inf; as values they reach float() and OperatorSpec's own refusals
    p_det._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)
    _add_format(p_det)

    p_fermion = sub.add_parser("fermion-checks", help="gamma and Berezin identity table")
    # no default here: reading clifford.MAX_HALF_DIM would import clifford, about 5 ms
    # of its own under python -X importtime, for every command
    p_fermion.add_argument("--max-n", type=int, dest="max_n")
    _add_format(p_fermion)

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument(
        "--all",
        action="store_true",
        dest="full",
        help="use full-size determinant oracles (10^5 modes)",
    )
    _add_format(p_verify)
    return parser


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")


def _emit(payload: dict, text_lines: list[str], fmt: str, out) -> None:
    if fmt == "json":
        import json

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
        "terms": _catalog._poly_to_json(poly),
    }
    _emit(payload, [str(poly)], args.format, out)
    return 0


def _cmd_index(args, out) -> int:
    entry = _catalog.resolve_manifold(args.manifold)
    report = entry.index(args.complex_kind, args.bundle)
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
    # the mode count and the operator are checked before a walk past
    # closed_forms.PURE_MODE_LIMIT modes loads numpy
    if args.oracle_modes < 1:
        raise ValueError(f"--oracle-modes must be at least 1, got {args.oracle_modes}")
    from .closed_forms import OperatorSpec, regularized_det

    spec = OperatorSpec(kind=args.op, beta=args.beta, parameter=args.param)
    record = regularized_det(spec, args.oracle_modes)
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
    from .clifford import MAX_HALF_DIM, gamma_identities

    max_n = MAX_HALF_DIM if args.max_n is None else args.max_n
    if not 1 <= max_n <= MAX_HALF_DIM:
        raise ValueError(f"--max-n must be between 1 and {MAX_HALF_DIM}, got {max_n}")
    results = [gamma_identities(n) for n in range(1, max_n + 1)]
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
    from dataclasses import asdict

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
        "checks": [asdict(c) for c in report.checks],
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
        # argparse prints usage errors to sys.stderr, --help and --version to sys.stdout
        with redirect_stdout(out), redirect_stderr(err):
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
    gc.disable()
    try:
        code = run_cli()
        sys.stdout.flush()  # a closed stdout fails here, not in the flush at exit
    except BrokenPipeError:
        # as the signal module docs advise: send the flush at exit to devnull, exit 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    gc.freeze()  # shutdown's collections skip the frozen objects
    sys.exit(code)
