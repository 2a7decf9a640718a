"""Exact-arithmetic instanton-sheaf toolkit on a fixed catalog of polarized varieties.

Modules:

* :mod:`instanton_lab.chow` -- Chow-ring presentations, classes, intersection numbers;
* :mod:`instanton_lab.catalog` -- the polarized-variety catalog;
* :mod:`instanton_lab.cohomology` -- exact line-bundle cohomology engines and tables;
* :mod:`instanton_lab.rr` -- Riemann-Roch, slopes, Chern-class arithmetic;
* :mod:`instanton_lab.instanton` -- the instanton condition checker and table transforms;
* :mod:`instanton_lab.monads` -- monad shapes and multiplicity formulas;
* :mod:`instanton_lab.classify` -- brute-force classification, stability and examples;
* :mod:`instanton_lab.cli` -- the ``instanton-lab`` command-line front-end.
"""

from .catalog import (
    VarietyCatalogEntry,
    curve,
    flag3,
    parse_variety,
    prime_fano,
    projective_space,
    quadric,
    scroll_generic,
    scroll_p1,
    triple_p1,
)
from .chow import ChowClass, ChowRingPresentation, integrate, multiply, preset_ring
from .cohomology import (
    CohomologyTable,
    CohVector,
    bott_pn,
    build_table,
    coh_curve,
    coh_flag3,
    coh_product,
    coh_projective_space,
    coh_quadric,
    coh_scroll_p1,
    line_bundle_cohomology,
    serre_dual_vector,
)
from .errors import (
    InfeasibleError,
    InstantonLabError,
    MalformedDataError,
    UnknownVarietyError,
    UnsupportedBundleError,
    VarietyMismatchError,
    WindowError,
)
from .instanton import (
    BettiShape,
    InstantonVerdict,
    betti_shape_check,
    check_instanton,
    chi_polynomial,
    direct_sum,
    horrocks_gate,
    natural_cohomology_window,
    pushforward_model,
    rank_from_chi,
    regularity_report,
    restriction_transform,
    ulrich_dual_table,
    veronese_quantum,
)
from .monads import (
    MonadShape,
    monad_acm,
    monad_p1p3,
    monad_pn,
    monad_quadric_nonordinary,
    monad_quadric_ordinary,
    monad_scroll3,
    monad_space_nonordinary,
    serre_construction_chern,
)
from .rr import (
    ChernData,
    chern_poly_instanton_pn,
    chi,
    chi_curve,
    chi_surface,
    chi_threefold,
    chi_twisted,
    cyclic_c1,
    normalization_twist,
    quantum_chern_identity,
    slope,
    slope_condition,
)
from .classify import (
    ClassificationReport,
    classify_cyclic_lines,
    classify_flag_lines,
    classify_segre_lines,
    curve_quantum,
    cyclic_rank2_stability_cases,
    discrepancy_probes,
    fano_instanton_bridge,
    hoppe_rank2,
    prime_fano_family,
    scroll_construction_report,
    segre_stable_example,
    surface_quantum_formulas,
)

__version__ = "0.1.0"
