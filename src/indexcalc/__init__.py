"""Exact-arithmetic characteristic classes, zeta-regularized determinants of
circle operators, fermionic normalization checks, and topological index
evaluation on characteristic-number descriptors.

Importing the package loads no submodule: each public name is imported from
its submodule on first use (PEP 562).  No public name needs numpy:
regularized_det is closed_forms', the route every command walks.
"""

import importlib

__version__ = "0.1.0"

# public name -> defining submodule; the only list of the package's exports
_EXPORTS = {
    "exact_algebra": (
        "bernoulli", "TaylorSeries", "genus_series", "GradedPolynomial",
    ),
    "genera": (
        "GenusClass", "multiplicative_sequence", "l_class", "a_hat_class", "todd_class",
        "chern_character", "chern_to_pontryagin", "signature_integrand_identity_check",
    ),
    "closed_forms": (
        "OperatorSpec", "RegularizedDet", "det_pbc_laplacian", "det_pbc_curvature_block",
        "det_apbc_curvature_block", "det_apbc_first_order", "fermion_partition",
        "regularized_det",
    ),
    "clifford": (
        "ComplexRational", "GrassmannElement", "PauliString", "build_gamma", "chirality",
        "berezin_integrate", "normalization_psi2",
    ),
    "index_engine": (
        "ManifoldDescriptor", "BundleDescriptor", "IndexReport", "evaluate", "signature_index",
        "dolbeault_index", "spin_index", "de_rham_euler", "INDEX_FUNCTIONS", "compute_index",
    ),
    "catalog": (
        "CatalogEntry", "builtin_catalog", "catalog_entry", "load_descriptor", "save_descriptor",
    ),
    "verification": ("VerifyReport", "run_verification"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_SUBMODULE]


def __getattr__(name: str):
    if name in _SUBMODULE:
        return getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    if name in _EXPORTS:  # indexcalc.closed_forms etc. without importing them first
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
