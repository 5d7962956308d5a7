"""The package surface: lazily resolved public names and a cold start that loads only the
code its command runs."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import indexcalc

SRC = Path(__file__).resolve().parents[1] / "src"

_CHILD = """
import io
import sys
import indexcalc
loaded = sorted(m for m in sys.modules if m.startswith("indexcalc.") or m == "numpy")
assert loaded == [], loaded
from indexcalc.cli import run_cli
assert run_cli(["index", "--manifold", "k3", "--complex", "spin"]) == 0
assert run_cli(["genus", "--kind", "Todd", "--half-dim", "3"]) == 0
assert run_cli(["fermion-checks"], io.StringIO()) == 0
assert "numpy" not in sys.modules, "index, genus or fermion-checks imported numpy"
assert "dataclasses" not in sys.modules, "index, genus or fermion-checks imported dataclasses"
assert "json" not in sys.modules, "text-format index, genus or fermion-checks imported json"
assert "indexcalc.descriptor_file" not in sys.modules, "a built-in entry loaded descriptor_file"
err = io.StringIO()
assert run_cli(["detreg", "--op", "pbc_laplacian", "--beta", "1", "--oracle-modes", "0"],
               io.StringIO(), err) == 2
assert err.getvalue() == "error: --oracle-modes must be at least 1, got 0\\n", err.getvalue()
assert "numpy" not in sys.modules, "the --oracle-modes refusal imported numpy"
"""


def test_cold_index_and_genus_never_import_numpy():
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _CHILD],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["2", "1 + 1/2·c1 + 1/12·c2 + 1/12·c1^2 + 1/24·c1·c2"]


def _child(code: str, *args: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that writes no bytecode, with only src/ on its path."""
    return subprocess.run(
        [sys.executable, "-B", "-c", code, *args],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_importing_zeta_det_loads_numpy():
    """numpy loads with zeta_det, not in its first walk.  A det-oracle worker imports zeta_det
    before its timed operations; when a prototype made numpy lazy inside zeta_det, numpy's
    import moved into the timed region, and one 20-s seed-1 det-oracle run read run_s
    0.184 -> 0.295 s and op_tail_ms 3.35 -> 4.33 ms.  The closed forms alone need no numpy."""
    proc = _child(
        "import sys\n"
        "import indexcalc.closed_forms\n"
        "assert 'numpy' not in sys.modules, 'closed_forms imported numpy'\n"
        "import indexcalc.zeta_det\n"
        "assert 'numpy' in sys.modules, 'zeta_det did not import numpy'\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_public_determinant_records_and_closed_forms_load_no_numpy():
    """Only oracle_product and regularized_det come from zeta_det, which imports numpy."""
    proc = _child(
        "import sys\n"
        "import indexcalc\n"
        "for name in ('OperatorSpec', 'RegularizedDet', 'det_pbc_laplacian',\n"
        "             'det_pbc_curvature_block', 'det_apbc_curvature_block',\n"
        "             'det_apbc_first_order', 'fermion_partition'):\n"
        "    getattr(indexcalc, name)\n"
        "spec = indexcalc.OperatorSpec('pbc_curvature_block', 1.0, 0.5)\n"
        "assert indexcalc.det_pbc_curvature_block(spec.parameter, spec.beta) > 0\n"
        "assert 'numpy' not in sys.modules, 'a closed form or record imported numpy'\n"
        "indexcalc.oracle_product\n"
        "assert 'numpy' in sys.modules, 'oracle_product did not import numpy'\n"
    )
    assert proc.returncode == 0, proc.stderr


_DETREG_REFUSALS = [
    (["--op", "pbc_laplacian", "--beta", "inf"], "beta must be finite and positive, got inf"),
    (["--op", "apbc_curvature_block", "--beta", "1", "--param", "nan"],
     "parameter must be finite, got nan"),
    (["--op", "nosuch", "--beta", "1"],
     "unknown operator kind 'nosuch'; expected one of ('pbc_laplacian', 'pbc_first_order', "
     "'apbc_first_order_shifted', 'pbc_curvature_block', 'apbc_curvature_block')"),
    (["--op", "pbc_first_order", "--beta", "1", "--param", "0.7"],
     "pbc_first_order takes no parameter, got parameter=0.7"),
]

_DETREG_CHILD = """
import io
import json
import sys
from indexcalc.cli import run_cli
argv, expected_err = json.loads(sys.argv[1])
out, err = io.StringIO(), io.StringIO()
code = run_cli(["detreg", *argv], out, err)
print(json.dumps([code, out.getvalue(), err.getvalue(), "numpy" in sys.modules]))
"""


@pytest.mark.parametrize("argv, message", _DETREG_REFUSALS, ids=["beta", "param", "op", "laplacian"])
def test_refused_detreg_never_loads_numpy(argv, message):
    proc = _child(_DETREG_CHILD, json.dumps([argv, message]))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [2, "", f"error: {message}\n", False]


_NUMPY_FREE_CHILD = """
import io
import sys
from indexcalc.cli import run_cli
for argv in (["verify"], ["verify", "--all"],
             *(["detreg", "--op", kind, "--beta", "1", "--param", "0.5"] for kind in sys.argv[1:])):
    out = io.StringIO()
    assert run_cli(argv, out) == 0, argv
    assert argv[0] == "verify" or out.getvalue().startswith("closed="), out.getvalue()
    loaded = [m for m in ("numpy", "indexcalc.zeta_det") if m in sys.modules]
    assert not loaded, f"{argv} loaded {loaded}"
"""


def test_verify_and_default_size_detreg_never_load_numpy():
    """verify walks three oracles of 10^4 modes, verify --all three of 10^5 and detreg one of
    10^5 by default: all below PURE_MODE_LIMIT, so the pure kernel walks them and zeta_det,
    which imports numpy, never loads."""
    walking = ("apbc_first_order_shifted", "pbc_curvature_block", "apbc_curvature_block")
    proc = _child(_NUMPY_FREE_CHILD, *walking)
    assert proc.returncode == 0, proc.stderr


_ABOVE_LIMIT_CHILD = """
import io
import sys
from indexcalc.cli import run_cli
from indexcalc.closed_forms import PURE_MODE_LIMIT
argv = ["detreg", "--op", "pbc_curvature_block", "--beta", "1.3", "--param", "2.1",
        "--oracle-modes", str(PURE_MODE_LIMIT + 1), "--format", "json"]
out = io.StringIO()
assert run_cli(argv, out) == 0
assert "numpy" in sys.modules, "a walk past PURE_MODE_LIMIT did not load numpy"
print(out.getvalue())
"""


def test_detreg_past_the_limit_loads_numpy_and_prints_zeta_det_values():
    from indexcalc import zeta_det
    from indexcalc.closed_forms import PURE_MODE_LIMIT

    proc = _child(_ABOVE_LIMIT_CHILD)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    spec = zeta_det.OperatorSpec("pbc_curvature_block", 1.3, 2.1)
    record = zeta_det.regularized_det(spec, PURE_MODE_LIMIT + 1)
    assert (doc["modes"], doc["closed"], doc["oracle"], doc["delta"]) == (
        PURE_MODE_LIMIT + 1, record.closed_form, record.oracle_value, record.delta
    )


_ON_USE_CHILD = """
import io
import sys
from indexcalc.cli import run_cli
assert "json" not in sys.modules
assert run_cli(["index", "--manifold", "k3", "--complex", "spin", "--format", "json"],
               io.StringIO()) == 0
assert "json" in sys.modules, "--format json did not load json"
assert "indexcalc.descriptor_file" not in sys.modules
assert run_cli(["index", "--manifold", sys.argv[1], "--complex", "euler"], io.StringIO()) == 0
assert "indexcalc.descriptor_file" in sys.modules, "a descriptor path skipped descriptor_file"
"""


def test_json_output_and_descriptor_files_load_their_code_on_use(tmp_path):
    from indexcalc.catalog import catalog_entry, save_descriptor

    path = tmp_path / "cp2.json"
    save_descriptor(catalog_entry("cp2"), path)
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _ON_USE_CHILD, str(path)],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_python_m_indexcalc_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "indexcalc", "--version"],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "indexcalc 0.1.0\n", "")


_TRACED_CHILD = """
import io
import json
import sys
sys.path.insert(0, sys.argv[1])
import tracer
spans = tracer.Tracer()
spans.install()
from indexcalc.cli import run_cli
for argv in (["index", "--manifold", "cp1", "--complex", "dolbeault", "--bundle", "O(1)"],
             ["index", "--manifold", "k3", "--complex", "spin"]):
    assert run_cli(argv, io.StringIO()) == 0, argv
print(json.dumps(spans.export()["calls"]))
"""


def test_benchmark_tracer_still_finds_the_index_functions():
    """perfbench/tracer.py wraps the index functions, their registry and chern_character
    by name; one twisted and one untwisted index must show up in its spans."""
    perfbench = SRC.parent / "perfbench"
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _TRACED_CHILD, str(perfbench)],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout)
    assert calls["cli.run_cli"] == 2
    assert calls["index_engine.dolbeault_index"] == calls["index_engine.spin_index"] == 1
    assert calls["index_engine.evaluate"] == 2
    assert calls["genera.chern_character"] == 1  # the twisted index only


_TRACED_DETREG = """
import io
import json
import sys
sys.path.insert(0, sys.argv[1])
import tracer
spans = tracer.Tracer()
spans.install()
from indexcalc.cli import run_cli
from indexcalc.closed_forms import PURE_MODE_LIMIT
argv = ["detreg", "--op", "apbc_curvature_block", "--beta", "1", "--param", "0.5",
        "--oracle-modes", str(PURE_MODE_LIMIT + 1)]
assert run_cli(argv, io.StringIO()) == 0
print(json.dumps(spans.export()["calls"]))
"""


def test_benchmark_tracer_still_finds_the_determinant_layer():
    """perfbench/tracer.py wraps zeta_det.oracle_product and closed_form by name; a traced
    detreg past PURE_MODE_LIMIT, which walks zeta_det's numpy kernel, must show one span of
    each (the oracle's reference needs no closed_form call)."""
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _TRACED_DETREG, str(SRC.parent / "perfbench")],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout)
    assert calls["zeta_det.oracle_product"] == calls["zeta_det.closed_form"] == 1


def test_benchmark_worker_answers_a_det_oracle_stream():
    """perfbench/worker.py builds zeta_det.OperatorSpec, calls zeta_det.regularized_det and
    catches zeta_det.SingularOperatorError: on a tiny det-oracle stream every answer is a
    value or that refusal, and none an error."""
    perfbench = SRC.parent / "perfbench"
    spec = importlib.util.spec_from_file_location("workloads", perfbench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ops = workloads.make_stream("det-oracle", 1, tiny=True)
    proc = subprocess.run(
        [sys.executable, "-B", str(perfbench / "worker.py")],
        input=json.dumps({"ops": ops, "trace": False}),
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    answers = json.loads(proc.stdout)["answers"]
    assert len(answers) == len(ops)
    refused = [answer for answer in answers if answer == {"refused": "SingularOperatorError"}]
    values = [answer for answer in answers if set(answer) == {"closed", "oracle"}]
    assert refused and len(refused) + len(values) == len(answers), answers


@pytest.mark.parametrize("name", [n for n in indexcalc.__all__ if n != "__version__"])
def test_public_name_resolves_to_its_submodule_object(name):
    module = importlib.import_module(f"indexcalc.{indexcalc._SUBMODULE[name]}")
    assert getattr(indexcalc, name) is getattr(module, name)
    assert name in module.__all__


def test_dir_and_star_import_list_every_public_name():
    assert set(indexcalc.__all__) <= set(dir(indexcalc))
    namespace: dict = {}
    exec("from indexcalc import *", namespace)
    assert set(indexcalc.__all__) <= set(namespace)
    assert len(indexcalc.__all__) == len(set(indexcalc.__all__))


def test_submodule_attribute_and_unknown_attribute():
    assert indexcalc.zeta_det is importlib.import_module("indexcalc.zeta_det")
    from indexcalc import zeta_det  # noqa: F401

    with pytest.raises(AttributeError, match="no_such_name"):
        indexcalc.no_such_name


def test_benchmark_operator_kinds_match_closed_forms():
    """perfbench/workloads.py keeps its own copy of the kinds, read here as source text
    (not imported), so a kind added or renamed in closed_forms cannot drop out of det-oracle."""
    tree = ast.parse((SRC.parent / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    (kinds,) = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["OPERATOR_KINDS"]
    ]
    from indexcalc.closed_forms import OPERATOR_KINDS

    assert kinds == OPERATOR_KINDS
