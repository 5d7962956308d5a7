"""indexcalc benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
One driver process runs one fresh worker interpreter at a time (a closed
loop with one client, no threads).  Each pass runs the workload's whole
seeded operation stream in a fresh worker; passes repeat until ``--seconds``
is used up.  Answers are checked here, against ``reference.py``, after the
passes.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of one traced pass,
taken with the same seed as an untraced pass whose answers must match.
The line before it is a ``{"detail": ...}`` object with data that is not
gated: tail percentile and sample counts, the verify runtimes beside their
limits, the tracing overhead and ``src_lines``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import reference
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKER = Path(__file__).resolve().parent / "worker.py"
CATALOG_DIR_ENV = "INDEXCALC_CATALOG_DIR"

SETUP_PROBES = 9
MIN_PASSES = 3
CHILD_TIMEOUT_S = 120
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

SETUP_PROBE = (
    "import time; s = time.monotonic(); a = time.perf_counter(); import indexcalc; "
    "b = time.perf_counter(); print(s, b - a, time.monotonic(), indexcalc.__file__)"
)
NUMPY_PROBE = "import time; a = time.perf_counter(); import numpy; print(time.perf_counter() - a)"
CLI_MAIN = "from indexcalc.cli import main; main()"

VERIFY_CRITERIA = (
    "determinant-closed-forms",
    "ratio-identity",
    "fermionic-identities",
    "signature-integrand",
    "genus-coefficients",
    "catalog-indices",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_rate": "ratio",
    "peak_rss_mb": "MB",
}

# Spans reported with calls, busy and self time; spans reported with calls
# and busy time.
_FULL_SPANS = (
    "exact_algebra.mul",
    "exact_algebra.symmetric_reduce",
    "exact_algebra.substitute",
    "index_engine.signature_index",
    "index_engine.dolbeault_index",
    "index_engine.spin_index",
    "index_engine.de_rham_euler",
    "zeta_det.oracle_product",
)
_CALL_SPANS = (
    "genera.l_class",
    "genera.a_hat_class",
    "genera.todd_class",
    "genera.chern_character",
    "genera.chern_to_pontryagin",
    "index_engine.evaluate",
    "zeta_det.paired_mode_factors",
    "zeta_det.closed_form",
    "cli.run_cli",
    "catalog.builtin_catalog",
    "catalog.catalog_entry",
    "catalog.load_descriptor",
    "verification.run_verification",
    "clifford.build_gamma",
    "clifford.normalization_psi2",
)
_COUNTERS = {
    "exact_algebra.mul.term_pairs": "count",
    "exact_algebra.symmetric_reduce.input_terms": "count",
    "exact_algebra.substitute.output_terms": "count",
    "genera.genus.output_terms": "count",
    "index_engine.density_terms": "count",
    "zeta_det.modes": "count",
    "zeta_det.bytes_computed": "B",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in _FULL_SPANS:
        units.update({f"{span}.calls": "count", f"{span}.s": "s", f"{span}.self_s": "s"})
    units.update({"genera.multiplicative_sequence.s": "s", "genera.multiplicative_sequence.self_s": "s"})
    for span in _CALL_SPANS:
        units.update({f"{span}.calls": "count", f"{span}.s": "s"})
    units.update(_COUNTERS)
    units.update({
        "exact_algebra.mul.useful_pair_ratio": "ratio",
        "genera.genus.repeat_ratio": "ratio",
        "cli.interpreter_s": "s",
        "cli.import_numpy_s": "s",
        "cli.import_s": "s",
        "trace.overhead_s": "s",
    })
    units.update({f"verification.{c}.s": "s" for c in VERIFY_CRITERIA})
    return units


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


# -- child processes ------------------------------------------------------


def child_env(catalog_dir: Path | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop(CATALOG_DIR_ENV, None)
    if catalog_dir is not None:
        env[CATALOG_DIR_ENV] = str(catalog_dir)
    return env


def spawn(argv, stdin_text="", env=None, cwd=None):
    """Run a child to completion; returns (exit code, stdout, stderr, spawn time)."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env or child_env(), cwd=cwd or ROOT, text=True,
    )
    try:
        out, err = proc.communicate(stdin_text, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child {argv[1:3]} timed out after {CHILD_TIMEOUT_S} s") from None
    return proc.returncode, out, err, spawned


def run_worker(job: dict) -> dict:
    code, out, err, _ = spawn([sys.executable, str(WORKER)], json.dumps(job))
    if code != 0:
        raise BenchError(f"worker exited with {code}:\n{err[-2000:]}")
    return json.loads(out)


def setup_probe() -> tuple[float, float, float]:
    """(set-up, interpreter start, import) seconds of one fresh interpreter."""
    code, out, err, spawned = spawn([sys.executable, "-c", SETUP_PROBE])
    if code != 0:
        raise BenchError(f"import indexcalc failed:\n{err[-2000:]}")
    started, imported, ready, where = out.split(maxsplit=3)
    where = where.strip()
    if not Path(where).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"indexcalc was imported from {where}, not from {SRC}")
    return float(ready) - spawned, float(started) - spawned, float(imported)


def numpy_probe() -> float:
    code, out, err, _ = spawn([sys.executable, "-c", NUMPY_PROBE])
    if code != 0:
        raise BenchError(f"import numpy failed:\n{err[-2000:]}")
    return float(out)


# -- cli-cold -------------------------------------------------------------


def _monomial(exps) -> str:
    return "·".join(f"h{i + 1}^{e}" for i, e in enumerate(exps) if e) or "1"


def descriptor(name: str, ns, real_dim=None) -> dict:
    """Schema-1 descriptor of CP^n1 x ..., written without the package's writer.

    The tangent class is prod (1 + h_i)^(n_i + 1) in the free ring, so every
    top-degree monomial gets an evaluation (1 on prod h_i^n_i, else 0).
    """
    top = sum(ns)
    tangent = {
        _monomial(e): f"{math.prod(math.comb(n + 1, x) for n, x in zip(ns, e))}/1"
        for e in itertools.product(*(range(n + 2) for n in ns))
        if sum(e) <= top
    }
    evaluation = {
        _monomial(e): int(list(e) == list(ns))
        for e in itertools.product(range(top + 1), repeat=len(ns))
        if sum(e) == top
    }
    return {
        "schema_version": 1,
        "manifold": {
            "name": name,
            "real_dim": 2 * top if real_dim is None else real_dim,
            "kind": "complex",
            "generators": [[f"h{i + 1}", 2] for i in range(len(ns))],
            "evaluation": evaluation,
            "tangent_class": tangent,
        },
        "expected": {
            "signature": int(all(n % 2 == 0 for n in ns)),
            "dolbeault": 1,
            "euler": math.prod(n + 1 for n in ns),
        },
    }


def write_cli_inputs() -> Path:
    """Descriptor files for INDEXCALC_CATALOG_DIR and the bad-input probe."""
    catalog_dir = WORK / "catalog"
    catalog_dir.mkdir(parents=True, exist_ok=True)
    for name, ns in workloads.CATALOG_DIR_MANIFOLDS.items():
        (catalog_dir / f"{name}.json").write_text(json.dumps(descriptor(name, ns), indent=2))
    bad = descriptor("bad_cp2", (2,), real_dim=4.9)
    (WORK / workloads.BAD_DESCRIPTOR).write_text(json.dumps(bad, indent=2))
    return catalog_dir


def cli_pass(ops, trace: bool, catalog_dir: Path) -> dict:
    """One pass of the CLI script; each invocation is a fresh interpreter."""
    latencies, answers, layers = [], [], []
    for op in ops:
        env = child_env(catalog_dir if op["catalog_dir"] else None)
        if trace:
            argv, stdin_text = [sys.executable, str(WORKER)], json.dumps({"cli": op["argv"]})
        else:
            argv, stdin_text = [sys.executable, "-c", CLI_MAIN, *op["argv"]], ""
        code, out, err, spawned = spawn(argv, stdin_text, env=env, cwd=WORK)
        latencies.append(time.monotonic() - spawned)
        if trace:
            if code != 0:
                raise BenchError(f"traced cli worker exited with {code}:\n{err[-2000:]}")
            result = json.loads(out)
            layers.append(result["layers"])
            code, out, err = result["exit"], result["stdout"], result["stderr"]
        answers.append({"exit": code, "stdout": out, "stderr": err})
    return {"run_s": sum(latencies), "latencies": latencies, "answers": answers,
            "layers": merge_layers(layers) if trace else None}


# -- answer checks --------------------------------------------------------


def _terms_from_names(names, monomials) -> dict[tuple[int, ...], Fraction]:
    """Parse {"p1^2·p2^1": "n/d"} over the given generator names."""
    terms = {}
    for key, text in monomials.items():
        exps = [0] * len(names)
        if key != "1":
            for factor in key.split("·"):
                name, power = factor.split("^")
                exps[names.index(name)] += int(power)
        terms[tuple(exps)] = Fraction(text)
    return terms


def _genus_names(kind: str, n: int) -> list[str]:
    return [f"{'c' if kind == 'Todd' else 'p'}{i + 1}" for i in range(n)]


def check_genus(op, ans) -> bool:
    names = _genus_names(op["kind"], op["n"])
    if ans.get("names") != names or ans.get("kind") != op["kind"] or ans.get("half_dim") != op["n"]:
        return False
    terms = {tuple(e): Fraction(c) for e, c in ans["terms"]}
    return reference.genus_check(op["kind"], op["n"], terms)


def check_index(op, ans) -> bool:
    want = reference.index_value(op["manifold"], op["query"], op["twist"])
    if want.denominator != 1:
        return ans == {"refused": "InconsistentIndexError"}
    return ans == {"value": str(want)}


def check_det(op, ans) -> bool:
    if reference.det_is_singular(op["kind"], op["beta"], op["param"]):
        return ans == {"refused": "SingularOperatorError"}
    if "closed" not in ans:
        return False
    return reference.det_check(op["kind"], op["beta"], op["param"], op["modes"],
                               ans["closed"], ans["oracle"])


_REQUIRED_FIELDS = {
    "index": {"manifold", "complex", "value", "density"},
    "verify": {"checks", "passed", "n_pass", "n_fail"},
    "fermion": {"rows", "passed"},
    "genus": {"kind", "half_dim", "truncation", "polynomial", "terms"},
    "detreg": {"op", "beta", "param", "modes", "closed", "oracle", "delta"},
}


def check_cli(op, ans) -> bool:
    expect, argv = op["expect"], op["argv"]
    if ans["exit"] != expect["exit"]:
        return False
    check = expect["check"]
    if check == "refusal":
        return any(token in ans["stderr"] for token in expect["names"])
    out = ans["stdout"]
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        try:
            doc = json.loads(out)
        except ValueError:
            return False
        if not _REQUIRED_FIELDS[check] <= set(doc):
            return False
        if check == "index":
            return doc["value"] == expect["value"]
        if check in ("verify", "fermion"):
            return doc["passed"] is True
        if check == "genus":
            kind = {"Ahat": "A_hat"}.get(expect["kind"], expect["kind"])
            names = _genus_names(kind, expect["n"])
            return reference.genus_check(kind, expect["n"], _terms_from_names(names, doc["terms"]))
        return reference.det_check(expect["kind"], expect["beta"], expect["param"],
                                   expect["modes"], doc["closed"], doc["oracle"])
    lines = out.strip().splitlines()
    if not lines:
        return False
    if check == "index":
        return lines == [str(expect["value"])]
    if check == "verify":
        passed, total = lines[-1].split()[0].split("/")
        return passed == total
    if check == "fermion":
        return lines[-1] == "fermion-checks: all passed"
    if check == "detreg":
        return [line.split("=")[0] for line in lines] == ["closed", "oracle", "delta"]
    return True


CHECKS = {"genus": check_genus, "index": check_index, "det": check_det, "cli": check_cli}

_RUNTIME = re.compile(r"\d+\.\d+ s\b")


def comparable(ans):
    """An answer with wall-clock readings (verify's runtime gates) masked."""
    return json.loads(_RUNTIME.sub("<runtime>", json.dumps(ans, sort_keys=True)))


def score(ops, answers) -> tuple[int, list[int]]:
    """(wrong answers, indices of wrong answers outside the known defects)."""
    wrong, unexpected = 0, []
    for i, (op, ans) in enumerate(zip(ops, answers)):
        if not CHECKS[op["op"]](op, ans):
            wrong += 1
            if not op.get("known_defect"):
                unexpected.append(i)
    return wrong, unexpected


def verify_runtimes(ops, answers) -> dict[str, dict[str, float]]:
    """Seconds and limit of each "<criterion>: runtime" check, summed over verify --format json runs."""
    out = {c: {"s": 0.0, "limit_s": None} for c in VERIFY_CRITERIA}
    for op, ans in zip(ops, answers):
        argv = op.get("argv", [])
        if argv[:1] != ["verify"] or "json" not in argv:
            continue
        try:
            checks = json.loads(ans["stdout"])["checks"]
        except (ValueError, KeyError):
            continue  # check_cli counts the malformed output as a wrong answer
        for check in checks:
            criterion, sep, label = check["name"].rpartition(": ")
            if sep and label == "runtime" and criterion in out:
                out[criterion]["s"] += float(check["computed"].split()[0])
                out[criterion]["limit_s"] = float(check["expected"].split()[1])
    return out


# -- statistics -----------------------------------------------------------


def percentile(values, q: float) -> float:
    data = sorted(values)
    pos = (len(data) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples beyond it."""
    for q in TAIL_LADDER:
        if n * (1 - q / 100) >= TAIL_MIN_BEYOND:
            return q
    return TAIL_LADDER[-1]


def merge_layers(parts) -> dict:
    merged = {"calls": {}, "busy_ns": {}, "self_ns": {}, "counters": {}}
    for part in parts:
        for table, values in part.items():
            for key, value in values.items():
                merged[table][key] = merged[table].get(key, 0) + value
    return merged


def layer_metrics(layers, probes, numpy_s, runtimes, overhead_s) -> dict[str, float]:
    calls, busy, own, counters = (layers[k] for k in ("calls", "busy_ns", "self_ns", "counters"))
    values = {}
    for span in (*_FULL_SPANS, *_CALL_SPANS, "genera.multiplicative_sequence"):
        values[f"{span}.calls"] = calls.get(span, 0)
        values[f"{span}.s"] = busy.get(span, 0) / 1e9
        values[f"{span}.self_s"] = own.get(span, 0) / 1e9
    values.update({name: counters.get(name, 0) for name in _COUNTERS})
    pairs = counters.get("exact_algebra.mul.term_pairs", 0)
    builds = counters.get("genera.genus.builds", 0)
    values["exact_algebra.mul.useful_pair_ratio"] = (
        counters.get("exact_algebra.mul.useful_pairs", 0) / pairs if pairs else 0.0)
    values["genera.genus.repeat_ratio"] = (
        counters.get("genera.genus.repeats", 0) / builds if builds else 0.0)
    values["cli.interpreter_s"] = statistics.median(p[1] for p in probes)
    values["cli.import_s"] = statistics.median(p[2] for p in probes)
    values["cli.import_numpy_s"] = numpy_s
    values.update({f"verification.{c}.s": r["s"] for c, r in runtimes.items()})
    values["trace.overhead_s"] = overhead_s
    return {name: values[name] for name in per_layer_units()}


def src_lines() -> int:
    """Physical lines of src/indexcalc/*.py, as `wc -l` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in sorted((SRC / "indexcalc").glob("*.py")))


# -- main -----------------------------------------------------------------


def run_pass(workload, ops, trace, catalog_dir) -> dict:
    if workload == "cli-cold":
        return cli_pass(ops, trace, catalog_dir)
    return run_worker({"ops": ops, "trace": trace})


def end_to_end(args, ops, catalog_dir, probes, detail) -> tuple[list[dict], dict]:
    """Untraced passes until the next one would overrun --seconds.

    At least MIN_PASSES run, unless the budget is already spent.
    """
    start, passes = time.monotonic(), []
    while True:
        passes.append(run_pass(args.workload, ops, False, catalog_dir))
        elapsed = time.monotonic() - start
        enough = args.tiny or len(passes) >= MIN_PASSES or elapsed >= args.seconds
        if enough and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    latencies = [x for p in passes for x in p["latencies"]]
    # chosen from the sample count every run reaches, so it is the same on every run
    tail_q = tail_percentile(min(len(latencies), MIN_PASSES * len(ops)))
    detail.update({"passes": len(passes), "latency_samples": len(latencies),
                   "op_tail_percentile": tail_q,
                   "verify_runtime_s": verify_runtimes(ops, passes[0]["answers"])})
    return passes, {
        "setup_s": statistics.median(p[0] for p in probes),
        "run_s": statistics.median(p["run_s"] for p in passes),
        "op_p50_ms": 1000 * percentile(latencies, 50),
        "op_tail_ms": 1000 * percentile(latencies, tail_q),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def per_layer(args, ops, catalog_dir, probes, detail) -> tuple[list[dict], dict]:
    """One untraced and one traced pass with the same inputs."""
    plain = run_pass(args.workload, ops, False, catalog_dir)
    traced = run_pass(args.workload, ops, True, catalog_dir)
    overhead = traced["run_s"] - plain["run_s"]
    runtimes = verify_runtimes(ops, traced["answers"])
    numpy_s = statistics.median(numpy_probe() for _ in range(len(probes)))
    same = [comparable(a) for a in plain["answers"]] == [comparable(a) for a in traced["answers"]]
    detail.update({"traced_run_s": traced["run_s"], "untraced_run_s": plain["run_s"],
                   "tracing_overhead_s": overhead, "traced_answers_match": same,
                   "verify_runtime_s": runtimes})
    return [plain, traced], layer_metrics(traced["layers"], probes, numpy_s, runtimes, overhead)


def measure(args) -> tuple[dict, dict]:
    if not (SRC / "indexcalc" / "__init__.py").is_file():
        raise BenchError(f"no indexcalc package under {SRC}; run from the root of a checkout")
    ops = workloads.make_stream(args.workload, args.seed, tiny=args.tiny)
    catalog_dir = write_cli_inputs() if args.workload == "cli-cold" else None
    setup_probe()  # warm the bytecode and file caches; not counted
    probes = [setup_probe() for _ in range(2 if args.tiny else SETUP_PROBES)]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs_sha256": hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest(),
        "ops_per_pass": len(ops),
        "load": "closed loop, one client, one worker interpreter at a time",
        "setup_samples": len(probes),
        "src_lines": src_lines(),
        "src_lines_counted_as": "newlines in src/indexcalc/*.py, as wc -l counts them",
    }
    measure_passes = per_layer if args.trace else end_to_end
    passes, metrics = measure_passes(args, ops, catalog_dir, probes, detail)

    attempted = failed = 0
    unexpected = []
    for p in passes:
        wrong, bad = score(ops, p["answers"])
        attempted += len(ops)
        failed += wrong
        unexpected += [ops[i] | {"answer": p["answers"][i]} for i in bad]
    metrics["ok_rate"] = 1 - failed / attempted
    detail["known_defects_wrong_per_pass"] = sum(
        not CHECKS[op["op"]](op, ans)
        for op, ans in zip(ops, passes[0]["answers"]) if op.get("known_defect"))
    detail["unexpected_wrong"] = unexpected[:5]
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    result = {
        "correct": detail.get("traced_answers_match", True) and not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="shrink every stream, for the smoke check")
    args = parser.parse_args(argv)
    try:
        detail, result = measure(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
