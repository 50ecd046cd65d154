"""Surplus extraction on finite state spaces: geometry, menus, duality.

The library answers three families of questions about a screening
environment with belief vectors pi(t) over finitely many states and
information rents v(t):

* geometry - which beliefs are extreme, exposed, or only eventually
  exposed through a nested chain of faces (`surplex.geometry`);
* construction - explicit menus of state-contingent payments that
  extract all surplus on finite type tables, or all but epsilon on a
  continuum of types (`surplex.extraction`, `surplex.models`);
* duality - the primal linear program whose value measures the
  unavoidable surplus, solved as one small block per type, and its dual
  measure, assembled from the blocks' optimal measures and checked for
  feasibility against the full dual,
  with disintegration diagnostics that exhibit a belief-dependence
  witness when extraction fails (`surplex.duality`).

Everything runs on a self-contained dense simplex solver
(`surplex.lp`).  The `surplex` command line drives scenario configs and
emits reports and plot data; see the demos directory for narrative
walkthroughs.
"""

from surplex.duality import (
    DualityReport,
    DualMeasures,
    VseInstance,
    analyze,
    build_dual,
    build_primal,
    disintegrate,
    solve_primal,
)
from surplex.extraction import (
    Classification,
    Contract,
    ExtractionReport,
    Menu,
    classify_type,
    compress_menu,
    full_extraction_lp,
    full_extraction_menu,
    verify_menu,
    virtual_extraction_menu,
)
from surplex.geometry import (
    ExposureChain,
    FiniteBeliefSet,
    affine_dimension,
    expose_set,
    exposure_chain,
    face_of,
    is_extreme,
    prob_vector,
)
from surplex.lp import (
    CertificateReport,
    LinearProgram,
    LpSolution,
    check_certificate,
    solve,
)
from surplex.models import (
    ParametricModel,
    TabularModel,
    chord_functional,
    counterexample_model,
    curve_point,
    embed,
    endpoint_separator,
    sample,
    validate_lipschitz,
)

__all__ = [
    "CertificateReport",
    "Classification",
    "Contract",
    "DualMeasures",
    "DualityReport",
    "ExposureChain",
    "ExtractionReport",
    "FiniteBeliefSet",
    "LinearProgram",
    "LpSolution",
    "Menu",
    "ParametricModel",
    "TabularModel",
    "VseInstance",
    "affine_dimension",
    "analyze",
    "build_dual",
    "build_primal",
    "check_certificate",
    "chord_functional",
    "classify_type",
    "compress_menu",
    "counterexample_model",
    "curve_point",
    "disintegrate",
    "embed",
    "endpoint_separator",
    "expose_set",
    "exposure_chain",
    "face_of",
    "full_extraction_lp",
    "full_extraction_menu",
    "is_extreme",
    "prob_vector",
    "sample",
    "solve",
    "solve_primal",
    "validate_lipschitz",
    "verify_menu",
    "virtual_extraction_menu",
]

__version__ = "0.1.0"
