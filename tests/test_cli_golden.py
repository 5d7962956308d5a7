"""Golden outputs of the exact CLI commands.

`cli_golden.json` maps each command line (its argv joined by spaces) to the
sha256 of its exit code, stdout and stderr, so a refactor that changes any
byte of an exact output fails here.  `verify` prints wall-clock readings and
float deltas; both are masked before hashing.  `detreg` appears only with
inputs it refuses: its values depend on the platform's libm, its refusals
print no computed float.

After a deliberate output change, rewrite the table from the root of a
checkout with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
from pathlib import Path

import pytest

from indexcalc.catalog import CATALOG_DIR_ENV, builtin_catalog, catalog_entry
from indexcalc.cli import run_cli
from indexcalc.index_engine import INDEX_FUNCTIONS

TABLE = Path(__file__).with_name("cli_golden.json")

_RUNTIME = re.compile(r"\b\d+\.\d+ s\b")
_DELTA = re.compile(r"delta=[-+0-9.e]+")


# singular curvature blocks (y = n*2pi/beta, (2k+1)*pi/beta), a parameter on a Laplacian
# kind, an unknown kind, no modes, a parameter past the float resolution, an infinite beta
_DETREG_REFUSALS = (
    ("pbc_curvature_block", "1", "--param", "6.283185307179586"),
    ("pbc_curvature_block", "1", "--param", "-12.566370614359172"),
    ("apbc_curvature_block", "1", "--param", "3.141592653589793"),
    ("apbc_curvature_block", "2", "--param", "-4.71238898038469"),
    ("pbc_laplacian", "1", "--param", "0.7"),
    ("pbc_first_order", "2", "--param", "-3"),
    ("dirichlet", "1"),
    ("pbc_laplacian", "1", "--oracle-modes", "0"),
    ("pbc_curvature_block", "1", "--param", "1e17"),
    ("apbc_curvature_block", "1", "--param=-1e17"),
    ("pbc_laplacian", "inf"),
)


def _commands() -> list[list[str]]:
    base = [["genus", "--kind", kind, "--half-dim", str(n)]
            for kind in ("L", "Ahat", "Todd") for n in range(6)]
    base += [["index", "--manifold", entry.name, "--complex", kind]
             for entry in builtin_catalog() for kind in INDEX_FUNCTIONS]
    base += [["index", "--manifold", "cp1", "--complex", kind, "--bundle", bundle]
             for bundle in sorted(catalog_entry("cp1").bundles) for kind in ("dolbeault", "spin")]
    base += [["fermion-checks"], ["verify"], ["verify", "--all"]]
    base += [["detreg", "--op", op, "--beta", beta, *rest] for op, beta, *rest in _DETREG_REFUSALS]
    return [argv + ["--format", fmt] for argv in base for fmt in ("text", "json")]


def _digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(argv, out=out, err=err)
    stdout = _DELTA.sub("delta=<float>", _RUNTIME.sub("<runtime> s", out.getvalue()))
    return hashlib.sha256(json.dumps([code, stdout, err.getvalue()]).encode()).hexdigest()


COMMANDS = _commands()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(TABLE.read_text(encoding="utf-8"))


def test_table_covers_exactly_the_commands(golden):
    assert list(golden) == [" ".join(argv) for argv in COMMANDS]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_output_matches_golden(argv, golden, monkeypatch):
    monkeypatch.delenv(CATALOG_DIR_ENV, raising=False)
    assert _digest(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    os.environ.pop(CATALOG_DIR_ENV, None)
    table = {" ".join(argv): _digest(argv) for argv in COMMANDS}
    TABLE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
