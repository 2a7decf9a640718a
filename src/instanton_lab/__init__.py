"""Exact-arithmetic instanton-sheaf toolkit on a fixed catalog of polarized varieties.

Modules:

* :mod:`instanton_lab.chow` -- Chow-ring presentations, classes, intersection numbers;
* :mod:`instanton_lab.catalog` -- the polarized-variety catalog;
* :mod:`instanton_lab.cohomology` -- exact line-bundle cohomology engines and tables;
* :mod:`instanton_lab.rr` -- Riemann-Roch, slopes, Chern-class arithmetic;
* :mod:`instanton_lab.instanton` -- the instanton condition checker;
* :mod:`instanton_lab.monads` -- monad shapes and multiplicity formulas;
* :mod:`instanton_lab.classify` -- brute-force line-bundle classification scans;
* :mod:`instanton_lab.replays` -- the paper's other replays: table transforms,
  stability and decision procedures, constructions and worked examples;
* :mod:`instanton_lab.cli` -- the ``instanton-lab`` command-line front-end.

The names in ``__all__`` are re-exported lazily (PEP 562): ``import
instanton_lab`` loads no submodule, and the first access to an exported name,
as in ``from instanton_lab import build_table``, imports its defining module
(listed in ``_EXPORTS``) and binds the module's own object here.  Submodules
resolve as attributes the same way, so a command-line call compiles only the
modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

#: exported name -> defining submodule, written module by module
_EXPORTS = {
    name: module
    for module, names in {
        "catalog": ("VarietyCatalogEntry", "curve", "flag3", "parse_variety", "prime_fano",
            "projective_space", "quadric", "scroll_generic", "scroll_p1", "triple_p1"),
        "chow": ("ChowClass", "ChowRingPresentation", "integrate", "multiply", "preset_ring"),
        "cohomology": ("CohomologyTable", "CohVector", "bott_pn", "build_table", "coh_curve",
            "coh_flag3", "coh_product", "coh_projective_space", "coh_quadric", "coh_scroll_p1",
            "line_bundle_cohomology", "serre_dual_vector"),
        "errors": ("InfeasibleError", "InstantonLabError", "MalformedDataError",
            "UnknownVarietyError", "UnsupportedBundleError", "VarietyMismatchError", "WindowError"),
        "instanton": ("InstantonVerdict", "check_instanton", "natural_cohomology_window"),
        "monads": ("MonadShape", "monad_acm", "monad_p1p3", "monad_pn",
            "monad_quadric_nonordinary", "monad_quadric_ordinary", "monad_scroll3",
            "monad_space_nonordinary", "rank_from_chi"),
        "rr": ("ChernData", "chern_poly_instanton_pn", "chi", "chi_twisted", "cyclic_c1",
            "normalization_twist", "quantum_chern_identity", "serre_construction_chern", "slope",
            "slope_condition"),
        "classify": ("ClassificationReport", "classify_flag_lines", "classify_segre_lines"),
        "replays": ("BettiShape", "betti_shape_check", "chi_polynomial", "classify_cyclic_lines",
            "curve_quantum", "cyclic_rank2_stability_cases", "direct_sum", "discrepancy_probes",
            "fano_instanton_bridge", "hoppe_rank2", "horrocks_gate", "prime_fano_family",
            "pushforward_model", "regularity_report", "restriction_transform",
            "scroll_construction_report", "segre_stable_example", "surface_quantum_formulas",
            "ulrich_dual_table", "veronese_quantum"),
    }.items()
    for name in names
}

_SUBMODULES = frozenset(_EXPORTS.values()) | {"cli", "util"}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
