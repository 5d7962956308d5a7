"""Seeded operation streams for the four workloads.

A stream is plain JSON data; the worker turns each entry into one call on
``indexcalc`` (or one CLI invocation for ``cli-cold``).  Draws that decide
how much work a stream holds are stratified, and stream compositions are
fixed, so a stream's total cost hardly depends on the seed.  The seed
decides order, twists, operator parameters and CLI arguments.
"""

from __future__ import annotations

import itertools
import math
import random

WORKLOADS = ("genus-tower", "index-mix", "det-oracle", "cli-cold")

GENUS_KINDS = ("L", "A_hat", "Todd")
# Largest tower that fits a run: half-dim 7 costs about 6 s a pass, and
# half-dim 8 alone would add more than 30 s.
GENUS_TOWER_HALF_DIM = 7

INDEX_QUERIES = ("signature", "dolbeault", "dolbeault_twisted", "spin", "spin_twisted", "euler")
INDEX_OPS_PER_PASS = 160
# Zipf exponent over (manifold, query) classes, and the fixed shuffle that
# sets their popularity order.  This order puts the median and the 95th
# percentile ranks inside runs of a single query class, so neither lands on
# a jump between classes of very different cost.
INDEX_ZIPF = 1.2
INDEX_POPULARITY_ORDER = 596
MAX_COMPLEX_DIM = 6

OPERATOR_KINDS = (
    "pbc_laplacian",
    "pbc_first_order",
    "apbc_first_order_shifted",
    "pbc_curvature_block",
    "apbc_curvature_block",
)
DET_OPS_PER_PASS = 450
DET_SINGULAR_OPS = 10
# Half-angles z = beta*param/2 stay this far from every singular point.
DET_SINGULAR_GAP = 0.2

# Classical indices of the built-in catalog entries, written out here so
# the benchmark does not trust the catalog's own records.
BUILTIN_INDICES = {
    "cp1": {"signature": 0, "dolbeault": 1, "euler": 2},
    "cp2": {"signature": 1, "dolbeault": 1, "euler": 3},
    "cp3": {"signature": 0, "dolbeault": 1, "euler": 4},
    "cp1xcp1": {"signature": 0, "dolbeault": 1, "euler": 4, "spin": 0},
    "k3": {"signature": -16, "dolbeault": 2, "spin": 2, "euler": 24},
    "t2": {"signature": 0, "dolbeault": 0, "euler": 0},
    "t4": {"signature": 0, "dolbeault": 0, "spin": 0, "euler": 0},
    "s4": {"signature": 0, "spin": 0},
    "cp2xcp2": {"signature": 1, "dolbeault": 1, "euler": 9},
}
CP1_BUNDLE_TWISTS = range(-2, 4)

# Descriptor files placed in INDEXCALC_CATALOG_DIR: projective spaces and
# products that are not built in, as complex dimensions of the factors.
CATALOG_DIR_MANIFOLDS = {"cp4": (4,), "cp5": (5,), "cp1xcp2": (1, 2)}
BAD_DESCRIPTOR = "real_dim_4.9.json"


def manifold_pool() -> list[tuple[int, ...]]:
    """CP^n for n <= 6 and products of 2-4 projective spaces, complex dim <= 6."""
    pool = [(n,) for n in range(1, MAX_COMPLEX_DIM + 1)]
    for parts in (2, 3, 4):
        for ns in itertools.product(range(MAX_COMPLEX_DIM, 0, -1), repeat=parts):
            if sum(ns) <= MAX_COMPLEX_DIM and list(ns) == sorted(ns, reverse=True):
                pool.append(ns)
    return pool


def _largest_remainder(weights: list[float], total: int) -> list[int]:
    scaled = [w * total / sum(weights) for w in weights]
    counts = [int(s) for s in scaled]
    order = sorted(range(len(weights)), key=lambda i: scaled[i] - counts[i], reverse=True)
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


def genus_tower(rng: random.Random, tiny: bool) -> list[dict]:
    """The tower climbs half-dim 1..H; the seed orders the three kinds on each level."""
    ops = []
    for n in range(1, (3 if tiny else GENUS_TOWER_HALF_DIM) + 1):
        ops += [{"op": "genus", "kind": k, "n": n} for k in rng.sample(GENUS_KINDS, len(GENUS_KINDS))]
    return ops


def index_mix(rng: random.Random, tiny: bool) -> list[dict]:
    """Zipf-skewed query classes (manifold, query) in a fixed popularity order.

    The class counts are fixed, so the share of queries that reuse a genus
    class is too; the seed shuffles the stream and draws the line-bundle
    twists.
    """
    classes = [(ns, q) for ns in manifold_pool() for q in INDEX_QUERIES]
    random.Random(INDEX_POPULARITY_ORDER).shuffle(classes)
    total = 24 if tiny else INDEX_OPS_PER_PASS
    counts = _largest_remainder([(r + 1) ** -INDEX_ZIPF for r in range(len(classes))], total)
    ops = []
    for (ns, query), count in zip(classes, counts):
        for _ in range(count):
            twist = None
            if query.endswith("_twisted"):
                twist = [rng.randint(-2, 3) for _ in ns]
            ops.append({"op": "index", "manifold": list(ns), "query": query, "twist": twist})
    rng.shuffle(ops)
    return ops


def _away_from(z: float, singular) -> bool:
    return all(abs(z - s) >= DET_SINGULAR_GAP for s in singular)


def _regular_det_params(rng: random.Random, kind: str) -> tuple[float, float]:
    """Log-uniform beta and parameter, away from singular points."""
    beta = 10 ** rng.uniform(math.log10(0.2), math.log10(5.0))
    if kind == "apbc_first_order_shifted":
        return beta, 2 * 10 ** rng.uniform(-2, 1) / beta
    if not kind.endswith("curvature_block"):
        return beta, 0.0
    if kind.startswith("pbc"):
        singular = [n * math.pi for n in range(1, 4)]
    else:
        singular = [(m + 0.5) * math.pi for m in range(3)]
    while True:
        z = 10 ** rng.uniform(-2, math.log10(3 * math.pi))
        if _away_from(z, singular):
            return beta, 2 * z / beta


def det_oracle(rng: random.Random, tiny: bool) -> list[dict]:
    """Regularized determinants over every operator kind.

    Mode counts are log-uniform on [10^4, 10^6], one draw per stratum so the
    total mode count is nearly the same for every seed.  A few exactly
    singular curvature-block parameters expect SingularOperatorError.
    """
    n_ops = 25 if tiny else DET_OPS_PER_PASS
    lo, hi = (2.0, 3.0) if tiny else (4.0, 6.0)
    strata = [(i + rng.random()) / n_ops for i in range(n_ops)]
    rng.shuffle(strata)
    ops = []
    for i, u in enumerate(strata):
        kind = OPERATOR_KINDS[i % len(OPERATOR_KINDS)]
        beta, param = _regular_det_params(rng, kind)
        ops.append({"op": "det", "kind": kind, "beta": beta, "param": param,
                    "modes": int(round(10 ** (lo + (hi - lo) * u)))})
    for j in range(2 if tiny else DET_SINGULAR_OPS):
        beta = 10 ** rng.uniform(math.log10(0.2), math.log10(5.0))
        if j % 2:
            kind, param = "pbc_curvature_block", 2 * math.pi * rng.choice((1, 2)) / beta
        else:
            kind, param = "apbc_curvature_block", math.pi * rng.choice((1, 3)) / beta
        ops.append({"op": "det", "kind": kind, "beta": beta, "param": param,
                    "modes": int(round(10 ** rng.uniform(lo, hi)))})
    rng.shuffle(ops)
    return ops


def _cli(argv, expect, catalog_dir=False, known_defect=False) -> dict:
    return {"op": "cli", "argv": argv, "expect": expect, "catalog_dir": catalog_dir,
            "known_defect": known_defect}


def cli_cold(rng: random.Random, tiny: bool) -> list[dict]:
    """About thirty CLI invocations, each in a fresh interpreter.

    The seed picks the complex queried on each entry, the output format of
    each invocation and the genus/detreg arguments.  Bad inputs must end in
    exit 2 with a message naming the input; three of them exit 0 at the
    seed commit and are marked ``known_defect``.
    """
    fmt_cycle = itertools.cycle(("text", "json") if rng.random() < 0.5 else ("json", "text"))

    def fmt():
        return ["--format", next(fmt_cycle)]

    ops = []
    for name, table in BUILTIN_INDICES.items():
        kind = rng.choice(sorted(table))
        ops.append(_cli(["index", "--manifold", name, "--complex", kind, *fmt()],
                        {"exit": 0, "check": "index", "value": table[kind]}))
    for k in CP1_BUNDLE_TWISTS:
        ops.append(_cli(["index", "--manifold", "cp1", "--complex", "dolbeault",
                         "--bundle", f"O({k})", *fmt()],
                        {"exit": 0, "check": "index", "value": k + 1}))
    for name, ns in CATALOG_DIR_MANIFOLDS.items():
        kind = rng.choice(("signature", "dolbeault", "euler"))
        value = {"signature": int(all(n % 2 == 0 for n in ns)), "dolbeault": 1,
                 "euler": math.prod(n + 1 for n in ns)}[kind]
        ops.append(_cli(["index", "--manifold", name, "--complex", kind, *fmt()],
                        {"exit": 0, "check": "index", "value": value}, catalog_dir=True))
    ops.append(_cli(["verify", "--format", "json"], {"exit": 0, "check": "verify"}))
    ops.append(_cli(["verify", "--all", "--format", "json"], {"exit": 0, "check": "verify"}))
    ops.append(_cli(["verify", "--format", "text"], {"exit": 0, "check": "verify"}))
    ops.append(_cli(["verify", "--format", "json"], {"exit": 0, "check": "verify"}, catalog_dir=True))
    for _ in range(2):
        ops.append(_cli(["fermion-checks", *fmt()], {"exit": 0, "check": "fermion"}))
    for _ in range(2):
        kind = rng.choice(("L", "Ahat", "Todd"))
        n = rng.randint(2, 4)
        ops.append(_cli(["genus", "--kind", kind, "--half-dim", str(n), *fmt()],
                        {"exit": 0, "check": "genus", "kind": kind, "n": n}))
    for _ in range(2):
        kind = rng.choice(OPERATOR_KINDS)
        beta, param = _regular_det_params(rng, kind)
        ops.append(_cli(["detreg", "--op", kind, "--beta", repr(beta), "--param", repr(param), *fmt()],
                        {"exit": 0, "check": "detreg", "kind": kind, "beta": beta,
                         "param": param, "modes": 10**5}))
    ops.append(_cli(["index", "--manifold", "nosuchmanifold", "--complex", "euler"],
                    {"exit": 2, "check": "refusal", "names": ["nosuchmanifold"]}))
    ops.append(_cli(["genus", "--kind", "L", "--half-dim", "-1"],
                    {"exit": 2, "check": "refusal", "names": ["half-dim", "-1"]}))
    ops.append(_cli(["detreg", "--op", "pbc_laplacian", "--beta", "inf"],
                    {"exit": 2, "check": "refusal", "names": ["beta", "inf"]},
                    known_defect=True))
    ops.append(_cli(["detreg", "--op", "apbc_first_order_shifted", "--beta", "1", "--param", "nan"],
                    {"exit": 2, "check": "refusal", "names": ["param", "nan"]},
                    known_defect=True))
    ops.append(_cli(["index", "--manifold", BAD_DESCRIPTOR, "--complex", "euler"],
                    {"exit": 2, "check": "refusal", "names": ["real_dim", "4.9"]},
                    known_defect=True))
    if tiny:
        ops = ops[:3] + ops[-5:]
    rng.shuffle(ops)
    return ops


GENERATORS = {
    "genus-tower": genus_tower,
    "index-mix": index_mix,
    "det-oracle": det_oracle,
    "cli-cold": cli_cold,
}


def make_stream(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), tiny)
