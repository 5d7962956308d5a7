"""Outside-in per-layer timing for indexcalc.

The tracer wraps public functions of each ``indexcalc`` module from here,
so nothing inside the package changes.  A wrapper is installed under every
name a caller looks the function up by: module globals bound with
``from .x import f``, module-level dicts such as ``cli._GENUS_BUILDERS``,
and class attributes for methods.

Per span name it keeps calls, busy time and self time.  Busy time counts
only the outermost of nested calls to one name; self time is busy time minus
the time covered by child spans.  Counters (term counts, mode counts) are
computed after a call returns, and the time they take is excluded from the
enclosing spans.
"""

from __future__ import annotations

import bisect
import functools
import importlib
from collections import Counter
from time import perf_counter_ns

LAYERS = (
    "exact_algebra",
    "genera",
    "index_engine",
    "zeta_det",
    "clifford",
    "catalog",
    "verification",
    "cli",
)


class _Frame:
    __slots__ = ("child_ns", "hidden_ns")

    def __init__(self):
        self.child_ns = 0  # time covered by child spans, their counters included
        self.hidden_ns = 0  # counter time anywhere inside this span


class Tracer:
    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.busy_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self._depth: Counter[str] = Counter()
        self._stack: list[_Frame] = [_Frame()]
        self._genus_seen: set[tuple[str, int]] = set()

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` timed under span ``name``; ``count(args, result)`` adds counters."""
        stack, depth = self._stack, self._depth

        def close(frame, elapsed, counted_ns):
            stack.pop()
            depth[name] -= 1
            self.calls[name] += 1
            self.self_ns[name] += elapsed - frame.child_ns
            if not depth[name]:
                self.busy_ns[name] += elapsed - frame.hidden_ns
            parent = stack[-1]
            parent.child_ns += elapsed + counted_ns
            parent.hidden_ns += frame.hidden_ns + counted_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            depth[name] += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(frame, perf_counter_ns() - start, 0)
                raise
            elapsed = perf_counter_ns() - start
            counted_ns = 0
            if count is not None:
                count(args, result)
                counted_ns = perf_counter_ns() - start - elapsed
            close(frame, elapsed, counted_ns)
            return result

        return traced

    # -- counters ------------------------------------------------------

    def _count_mul(self, args, result):
        a, b = args
        if not hasattr(b, "terms"):
            return
        degrees_b = sorted(b.degree_of_term(e) for e in b.terms)
        useful = sum(
            bisect.bisect_right(degrees_b, a.truncation - a.degree_of_term(e)) for e in a.terms
        )
        self.counters["exact_algebra.mul.term_pairs"] += len(a.terms) * len(b.terms)
        self.counters["exact_algebra.mul.useful_pairs"] += useful

    def _count_genus(self, args, result):
        key = (result.kind, result.half_dim)
        self.counters["genera.genus.builds"] += 1
        self.counters["genera.genus.repeats"] += key in self._genus_seen
        self.counters["genera.genus.output_terms"] += len(result.polynomial.terms)
        self._genus_seen.add(key)

    def _count_modes(self, args, result):
        self.counters["zeta_det.modes"] += args[1]

    def _count_mode_factors(self, args, result):
        self.counters["zeta_det.bytes_computed"] += result.nbytes

    def _adder(self, key, measure):
        def count(args, result):
            self.counters[key] += measure(args, result)

        return count

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions of every indexcalc layer, wherever bound."""
        mods = {name: importlib.import_module(f"indexcalc.{name}") for name in LAYERS}
        namespaces = [vars(m) for m in mods.values()] + [vars(importlib.import_module("indexcalc"))]
        namespaces += [v for ns in list(namespaces) for v in ns.values() if isinstance(v, dict)]

        def rebind(original, wrapped):
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        ns[key] = wrapped

        def function(module, fname, count=None):
            original = getattr(mods[module], fname)
            rebind(original, self.wrap(f"{module}.{fname}", original, count))

        def method(module, cls, fname, span, count=None):
            owner = getattr(mods[module], cls)
            setattr(owner, fname, self.wrap(f"{module}.{span}", getattr(owner, fname), count))

        terms_out = lambda args, result: len(result.terms)  # noqa: E731
        method("exact_algebra", "GradedPolynomial", "__mul__", "mul", self._count_mul)
        method("exact_algebra", "GradedPolynomial", "substitute", "substitute",
               self._adder("exact_algebra.substitute.output_terms", terms_out))
        function("exact_algebra", "symmetric_reduce",
                 self._adder("exact_algebra.symmetric_reduce.input_terms",
                             lambda args, result: len(args[0].terms)))
        function("genera", "multiplicative_sequence")
        for builder in ("l_class", "a_hat_class", "todd_class"):
            function("genera", builder, self._count_genus)
        function("genera", "chern_character")
        function("genera", "chern_to_pontryagin")
        for index in ("signature_index", "dolbeault_index", "spin_index", "de_rham_euler"):
            function("index_engine", index)
        function("index_engine", "evaluate",
                 self._adder("index_engine.density_terms", lambda args, result: len(args[0].terms)))
        function("zeta_det", "oracle_product", self._count_modes)
        method("zeta_det", "OperatorSpec", "paired_mode_factors", "paired_mode_factors",
               self._count_mode_factors)
        function("zeta_det", "closed_form")
        for fname in ("builtin_catalog", "catalog_entry", "load_descriptor"):
            function("catalog", fname)
        function("verification", "run_verification")
        function("clifford", "build_gamma")
        function("clifford", "normalization_psi2")
        function("cli", "run_cli")

    def export(self) -> dict:
        return {
            "calls": dict(self.calls),
            "busy_ns": dict(self.busy_ns),
            "self_ns": dict(self.self_ns),
            "counters": dict(self.counters),
        }
