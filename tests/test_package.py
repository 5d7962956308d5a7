"""The package surface: lazily resolved public names and a cold start that loads only the
code its command runs."""

from __future__ import annotations

import ast
import compileall
import importlib
import importlib.util
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import indexcalc
from indexcalc import cli

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


def _child(code: str, *args: str, path: Path = SRC) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that writes no bytecode, with only ``path`` (by default
    src/) on its path."""
    return subprocess.run(
        [sys.executable, "-B", "-c", code, *args],
        env={"PYTHONPATH": str(path)},
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


_PEAK_RSS_CHILD = """
import numpy
def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
import indexcalc.exact_algebra
before = peak_kib()
import indexcalc.closed_forms
between = peak_kib()
import indexcalc.zeta_det
print(between - before, peak_kib() - between)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_importing_closed_forms_then_zeta_det_raises_peak_rss_by_at_most_0_5_then_1_mib(tmp_path):
    """Each module's own rise of the peak RSS (VmHWM, which exec resets, unlike the ru_maxrss a
    child inherits from its parent), with numpy and exact_algebra (and its fractions) already
    loaded: closed_forms builds its Euler-Maclaurin tables of about 2000 floats, read at
    212-224 KiB, and zeta_det its two 256 KiB mode tables, read at 520-528 KiB.

    The child imports a copy of the package compiled to bytecode first: a module compiled from
    source at import, whichever one it is, raises the peak by about 1.5 MiB, so a stale or
    missing bytecode cache would decide the reading."""
    package = tmp_path / "indexcalc"
    shutil.copytree(SRC / "indexcalc", package, ignore=shutil.ignore_patterns("__pycache__"))
    assert compileall.compile_dir(package, quiet=1)
    proc = _child(_PEAK_RSS_CHILD, path=tmp_path)
    assert proc.returncode == 0, proc.stderr
    closed_forms_kib, zeta_det_kib = map(int, proc.stdout.split())
    assert closed_forms_kib <= 0.5 * 1024
    assert zeta_det_kib <= 1024


_NO_NUMPY_CHILD = """
import io
import math
import sys
sys.modules["numpy"] = None  # every import of numpy raises ImportError
import indexcalc
from indexcalc import closed_forms
from indexcalc.cli import run_cli
for name in indexcalc.__all__:
    getattr(indexcalc, name)
assert indexcalc.regularized_det is closed_forms.regularized_det
for kind in ("apbc_first_order_shifted", "pbc_curvature_block", "apbc_curvature_block"):
    spec = indexcalc.OperatorSpec(kind, 1.0, 0.5)
    for n_modes in (1, (1 << 15) + 1, 2 * 10**9):
        record = indexcalc.regularized_det(spec, n_modes)
        assert record == closed_forms.regularized_det(spec, n_modes), (kind, n_modes)
long_head = ["--op", "pbc_curvature_block", "--beta", "2", "--param", str(6000.5 * math.pi),
             "--oracle-modes", str(2 * 10**9)]
for argv in (["index", "--manifold", "k3", "--complex", "spin"],
             ["genus", "--kind", "Todd", "--half-dim", "3"],
             ["fermion-checks"],
             ["detreg", "--op", "apbc_curvature_block", "--beta", "1", "--param", "0.5"],
             ["detreg", *long_head],
             ["verify"],
             ["verify", "--all"]):
    assert run_cli(argv, io.StringIO()) == 0, argv
try:
    import indexcalc.zeta_det
except ImportError:
    pass
else:
    raise AssertionError("zeta_det imported without numpy")
"""


def test_package_and_every_command_run_without_numpy():
    """numpy is a test dependency only: with it unimportable, every public name resolves,
    the exported regularized_det is closed_forms', and every subcommand exits 0; only
    zeta_det, det-oracle's numpy walk, fails to import."""
    proc = _child(_NO_NUMPY_CHILD)
    assert proc.returncode == 0, proc.stderr


def test_runtime_dependencies_are_empty_and_numpy_is_a_test_extra():
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parent / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["dependencies"] == []
    assert any(req.startswith("numpy") for req in project["optional-dependencies"]["test"])


# the largest float is an even integer M: the least counts with step*N + 1 > M, per step
_LARGEST_FLOAT = int(sys.float_info.max)
_PAST_FLOATS = (("pbc_curvature_block", 1, _LARGEST_FLOAT),
                ("apbc_curvature_block", 2, _LARGEST_FLOAT // 2))

_DETREG_REFUSALS = [
    (["--op", "pbc_laplacian", "--beta", "inf"], "beta must be finite and positive, got inf"),
    (["--op", "apbc_curvature_block", "--beta", "1", "--param", "nan"],
     "parameter must be finite, got nan"),
    (["--op", "nosuch", "--beta", "1"],
     "unknown operator kind 'nosuch'; expected one of ('pbc_laplacian', 'pbc_first_order', "
     "'apbc_first_order_shifted', 'pbc_curvature_block', 'apbc_curvature_block')"),
    (["--op", "pbc_first_order", "--beta", "1", "--param", "0.7"],
     "pbc_first_order takes no parameter, got parameter=0.7"),
    *((["--op", op, "--beta", "1", "--param", "0.5", "--oracle-modes", str(modes)],
       f"{modes} modes reach mode number {step}*N + 1, past the float range")
      for op, step, modes in _PAST_FLOATS),
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


@pytest.mark.parametrize(
    "argv, message", _DETREG_REFUSALS,
    ids=["beta", "param", "op", "laplacian", "modes-past-floats-step-1",
         "modes-past-floats-step-2"],
)
def test_refused_detreg_never_loads_numpy(argv, message):
    proc = _child(_DETREG_CHILD, json.dumps([argv, message]))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [2, "", f"error: {message}\n", False]


_OVER_BUDGET = {
    "half-dim": (["genus", "--kind", "L", "--half-dim", "1000"],
                 f"--half-dim must be at most {cli.MAX_GENUS_HALF_DIM}, got 1000"),
    # beta*param/(2 pi) = 2,965,820.98: the series starts two modes past a head of 2^25
    "oracle-head": (["detreg", "--op", "pbc_curvature_block", "--beta", "2", "--param",
                     "9317401.4", "--oracle-modes", str(2 * 10**9)],
                    "pbc_curvature_block oracle at beta=2.0, parameter=9317401.4 walks a head "
                    f"of {cli.MAX_ORACLE_HEAD + 2} modes, above the {cli.MAX_ORACLE_HEAD} allowed"),
}


@pytest.mark.parametrize("name", _OVER_BUDGET)
def test_work_budget_refusals_exit_2_within_a_second(name):
    """Uncapped, genus --half-dim 1000 ran past a 15 s timeout, and a head one past 2^25
    modes walked for about 5 s; with the caps, a fresh interpreter refuses each at once."""
    argv, message = _OVER_BUDGET[name]
    proc, elapsed = _cold_indexcalc(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")
    assert elapsed < 1.0


def _cold_indexcalc(argv: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    """indexcalc argv in a fresh interpreter, and its wall time in seconds."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "indexcalc", *argv],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=10,
    )
    return proc, time.perf_counter() - start


@pytest.mark.parametrize("op, step, modes", _PAST_FLOATS, ids=["step-1", "step-2"])
def test_mode_counts_on_both_sides_of_the_float_range_within_a_second(op, step, modes):
    """--oracle-modes is no work budget: the largest count whose end mode number step*N + 1
    is a float runs cold in under a second, and the next one exits 2 naming itself."""
    argv = ["detreg", "--op", op, "--beta", "1", "--param", "0.5", "--oracle-modes"]
    proc, elapsed = _cold_indexcalc([*argv, str(modes - 1)])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("closed=") and elapsed < 1.0
    proc, elapsed = _cold_indexcalc([*argv, str(modes)])
    message = f"{modes} modes reach mode number {step}*N + 1, past the float range"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")
    assert elapsed < 1.0


# the torus T^50: no generators and tangent class 1, so only its real_dim sets the cost
_T50 = {"schema_version": 1,
        "manifold": {"name": "t50", "real_dim": 50, "kind": "complex", "generators": [],
                     "evaluation": {}, "tangent_class": {"1": "1/1"}},
        "expected": {"signature": 0}}
_OVER_BUDGET_DESCRIPTORS = {
    "index-file": (["index", "--manifold", "{dir}/t50.json", "--complex", "signature"], False),
    "index-catalog-dir": (["index", "--manifold", "t50", "--complex", "dolbeault"], True),
    "verify-catalog-dir": (["verify"], True),
}


@pytest.mark.parametrize("name", _OVER_BUDGET_DESCRIPTORS)
def test_descriptor_past_the_genus_budget_exits_2_within_a_second(name, tmp_path):
    """A descriptor of real_dim 50 asks for a genus at half-dim 25, past the budget of
    genus --half-dim: index on it, and verify with it in the catalog directory, refuse it
    before any genus is built."""
    argv, catalog_dir = _OVER_BUDGET_DESCRIPTORS[name]
    (tmp_path / "t50.json").write_text(json.dumps(_T50))
    env = {"PYTHONPATH": str(SRC)}
    if catalog_dir:
        env["INDEXCALC_CATALOG_DIR"] = str(tmp_path)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "indexcalc", *(a.format(dir=tmp_path) for a in argv)],
        env=env, capture_output=True, text=True, timeout=10,
    )
    elapsed = time.perf_counter() - start
    message = (f"t50: real_dim 50 is above {2 * cli.MAX_GENUS_HALF_DIM}, the largest a "
               "command builds a genus for")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")
    assert elapsed < 1.0


_NUMPY_FREE_CHILD = """
import io
import sys
from indexcalc.cli import run_cli
detreg = ["detreg", "--beta", "1", "--param", "0.5", "--op"]
for argv in (["verify"], ["verify", "--all"], *(detreg + [kind] for kind in sys.argv[1:]),
             detreg + ["apbc_curvature_block", "--oracle-modes", str(10**12)]):
    out = io.StringIO()
    assert run_cli(argv, out) == 0, argv
    assert argv[0] == "verify" or out.getvalue().startswith("closed="), out.getvalue()
    loaded = [m for m in ("numpy", "indexcalc.zeta_det") if m in sys.modules]
    assert not loaded, f"{argv} loaded {loaded}"
"""


def test_verify_and_short_head_detreg_never_load_numpy():
    """verify and verify --all each walk three oracles of 10^5 modes, and detreg one of 10^5
    by default and one of 10^12 here: the pure kernel walks each head, a few modes, and
    zeta_det, which imports numpy, never loads."""
    walking = ("apbc_first_order_shifted", "pbc_curvature_block", "apbc_curvature_block")
    proc = _child(_NUMPY_FREE_CHILD, *walking)
    assert proc.returncode == 0, proc.stderr


_NO_DATACLASSES_CHILD = """
import io
import sys
from indexcalc.cli import run_cli
assert run_cli(["detreg", "--op", "pbc_laplacian", "--beta", "inf"], io.StringIO(),
               io.StringIO()) == 2
assert run_cli(["detreg", "--op", "apbc_curvature_block", "--beta", "1", "--param", "0.5"],
               io.StringIO()) == 0
loaded = [m for m in ("dataclasses", "inspect") if m in sys.modules]
assert not loaded, f"the --beta inf refusal or a default-size detreg loaded {loaded}"
assert run_cli(["verify"], io.StringIO()) == 0
assert "dataclasses" not in sys.modules, "verify imported dataclasses"
"""


def test_verify_and_detreg_never_import_dataclasses():
    """The determinant and verify records are a _Value class and named tuples, so neither
    command loads dataclasses; detreg does not load the inspect it would pull in either."""
    proc = _child(_NO_DATACLASSES_CHILD)
    assert proc.returncode == 0, proc.stderr


_NO_INSPECT_CHILD = """
import io
import sys
from indexcalc.cli import run_cli
assert run_cli(["verify"], io.StringIO()) == 0
assert run_cli(["verify", "--all", "--format", "json"], io.StringIO()) == 0
assert "inspect" not in sys.modules, "verify imported inspect"
"""


def test_verify_never_imports_inspect():
    """verify's beta rows read each index function's parameter names from its code object,
    so verify does not load inspect (6.3 ms of a cold verify under -X importtime)."""
    proc = _child(_NO_INSPECT_CHILD)
    assert proc.returncode == 0, proc.stderr


# beta*param/(2 pi) = 6000.5: the series starts at m = 543,104, past 2^19 + 1 modes
_LONG_HEAD = ["--op", "pbc_curvature_block", "--beta", "2", "--param", str(6000.5 * math.pi)]

_LONG_HEAD_CHILD = """
import io
import sys
from indexcalc.cli import run_cli
argv = ["detreg", *sys.argv[1:], "--format", "json"]
out = io.StringIO()
assert run_cli(argv, out) == 0
loaded = [m for m in ("numpy", "indexcalc.zeta_det") if m in sys.modules]
assert not loaded, f"a long head loaded {loaded}"
print(out.getvalue())
"""


@pytest.mark.parametrize("n_modes", [(1 << 19) + 1, 2 * 10**9])
def test_detreg_with_a_long_head_walks_it_without_numpy(n_modes):
    """A head of 543,103 modes, all of a walk of 2^19 + 1 modes and a small part of one of
    2*10^9, walks in pure Python: the command prints closed_forms._ratio_oracle's value and
    loads neither numpy nor zeta_det."""
    from indexcalc import closed_forms

    proc = _child(_LONG_HEAD_CHILD, *_LONG_HEAD, "--oracle-modes", str(n_modes))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    spec = closed_forms.OperatorSpec("pbc_curvature_block", 2.0, 6000.5 * math.pi)
    closed, oracle = closed_forms.closed_form(spec), closed_forms._ratio_oracle(spec, n_modes)
    assert (doc["modes"], doc["closed"], doc["oracle"], doc["delta"]) == (
        n_modes, closed, oracle, oracle - closed
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


@pytest.mark.parametrize("workload", ["det-oracle", "cli-cold"])
def test_benchmark_runs_its_workloads_traced(workload):
    """perfbench/tracer.py binds its spans by name: a tiny traced run of each workload must
    answer correctly, and det-oracle's must show zeta_det.oracle_product, which no CLI command
    reaches, and the closed_form that zeta_det.regularized_det calls, and cli-cold's
    cli.run_cli, so a rename in src/ fails here."""
    proc = subprocess.run(
        [sys.executable, "-B", str(SRC.parent / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1", "--tiny"],
        cwd=SRC.parent,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], result
    spans = (["zeta_det.oracle_product", "zeta_det.closed_form"] if workload == "det-oracle"
             else ["cli.run_cli"])
    for span in spans:
        assert result["metrics"][f"{span}.calls"]["value"] > 0, span


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
    assert indexcalc.closed_forms is importlib.import_module("indexcalc.closed_forms")
    from indexcalc import closed_forms  # noqa: F401

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
