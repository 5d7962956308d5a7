"""One pass of a workload in a fresh interpreter.

Reads a job from stdin as JSON and writes one JSON result line to stdout.
Jobs:

- ``{"ops": [...], "trace": bool}``: run an API stream (genus, index or det
  operations) and report the stream's wall time, each operation's latency
  and its answer.
- ``{"cli": argv}``: call ``indexcalc.cli.run_cli(argv)`` in this process
  with tracing on, for the traced ``cli-cold`` run.

Inputs are materialised before the clock starts; answers are serialised
after it stops and are checked by the parent, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
import time
from fractions import Fraction

import tracer as tracing


def _manifold(ns, api):
    """CP^n1 x ... x CP^nk from public classes: generators h_i of degree 2."""
    gens = tuple((f"h{i + 1}", 2) for i in range(len(ns)))
    top = sum(ns)
    real_dim = 2 * top
    one = api.GradedPolynomial.constant(gens, real_dim, Fraction(1))
    tangent = one
    for i, n in enumerate(ns):
        tangent = tangent * (one + api.GradedPolynomial.generator(gens, real_dim, f"h{i + 1}")) ** (n + 1)
    # densities live in the free ring, so every top-degree monomial needs a value
    evaluation = {
        e: int(list(e) == list(ns))
        for e in itertools.product(range(top + 1), repeat=len(ns))
        if sum(e) == top
    }
    return api.ManifoldDescriptor(
        name="x".join(f"cp{n}" for n in ns),
        real_dim=real_dim,
        kind="complex",
        generators=gens,
        evaluation=evaluation,
        tangent_class=tangent,
    )


def _line_bundle(manifold, twist, api):
    total = manifold.one()
    for i, k in enumerate(twist):
        total = total + Fraction(k) * api.GradedPolynomial.generator(
            manifold.generators, manifold.real_dim, f"h{i + 1}"
        )
    return api.BundleDescriptor(rank=1, total_chern=total)


def _prepare(ops, indexcalc):
    """Turn each op into a zero-argument call plus a serialiser for its answer."""
    from indexcalc import genera, index_engine, zeta_det

    builders = {"L": "l_class", "A_hat": "a_hat_class", "Todd": "todd_class"}
    manifolds = {}
    calls = []
    for op in ops:
        if op["op"] == "genus":
            name, n = builders[op["kind"]], op["n"]
            calls.append((lambda name=name, n=n: getattr(genera, name)(n), _genus_answer))
        elif op["op"] == "index":
            key = tuple(op["manifold"])
            if key not in manifolds:
                manifolds[key] = _manifold(key, indexcalc)
            m = manifolds[key]
            bundle = _line_bundle(m, op["twist"], indexcalc) if op["twist"] else None
            query = op["query"].removesuffix("_twisted")
            fname = {"euler": "de_rham_euler"}.get(query, f"{query}_index")
            args = (m,) if bundle is None else (m, bundle)
            calls.append((lambda fname=fname, args=args: getattr(index_engine, fname)(*args),
                          lambda report: {"value": str(report.value)}))
        elif op["op"] == "det":
            spec = zeta_det.OperatorSpec(kind=op["kind"], beta=op["beta"], parameter=op["param"])
            calls.append((lambda spec=spec, n=op["modes"]: zeta_det.regularized_det(spec, n),
                          lambda rec: {"closed": rec.closed_form, "oracle": rec.oracle_value}))
        else:
            raise ValueError(f"unknown op {op['op']!r}")
    return calls


def _genus_answer(genus):
    return {
        "kind": genus.kind,
        "half_dim": genus.half_dim,
        "names": [name for name, _ in genus.polynomial.generators],
        "terms": [[list(e), f"{c.numerator}/{c.denominator}"] for e, c in genus.polynomial.terms.items()],
    }


def run_stream(ops, trace):
    import indexcalc
    from indexcalc.index_engine import InconsistentIndexError
    from indexcalc.zeta_det import SingularOperatorError

    refusals = (InconsistentIndexError, SingularOperatorError)
    tracer = tracing.Tracer()
    if trace:
        tracer.install()
    calls = _prepare(ops, indexcalc)
    outcomes, latencies = [], []
    begin = time.perf_counter()
    for call, _ in calls:
        start = time.perf_counter()
        try:
            outcome = (True, call())
        except refusals as exc:
            outcome = (False, {"refused": type(exc).__name__})
        except Exception as exc:  # any other exception is a wrong answer, kept for the report
            outcome = (False, {"error": f"{type(exc).__name__}: {exc}"})
        latencies.append(time.perf_counter() - start)
        outcomes.append(outcome)
    run_s = time.perf_counter() - begin
    answers = [serialise(value) if ok else value for (ok, value), (_, serialise) in zip(outcomes, calls)]
    return {"run_s": run_s, "latencies": latencies, "answers": answers,
            "layers": tracer.export() if trace else None}


def run_cli(argv):
    tracer = tracing.Tracer()
    tracer.install()
    from indexcalc import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_cli(argv, out=out, err=err)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "layers": tracer.export()}


def main() -> None:
    job = json.load(sys.stdin)
    if "cli" in job:
        result = run_cli(job["cli"])
    else:
        result = run_stream(job["ops"], job["trace"])
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
