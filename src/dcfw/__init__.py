"""Projection-free difference-of-convex optimization over polytopes.

Solvers (DCA outer loop, Frank-Wolfe and blended pairwise conditional
gradient subsolvers), linear minimization oracles, benchmark problem
families, QAP instance file I/O, and a benchmark harness.
"""

from .bench import (
    BenchResult,
    VARIANTS,
    load_results,
    performance_profile,
    run_suite,
    shifted_geomean,
    summarize_table,
    variant_config,
)
from .dca import (
    DcaConfig,
    DcProblem,
    OracleFailure,
    RunRecord,
    Subproblem,
    boosted_step,
    dc_gap_bounds,
    dca_solve,
    linearize,
)
from .fw import (
    ActiveSet,
    Agnostic,
    FwStats,
    Secant,
    bpcg,
    fw_gap,
    grid_two_level,
    secant_line_search,
    vanilla_fw,
)
from .lmo import (
    BirkhoffPolytope,
    KSparsePolytope,
    L1Ball,
    LinearMinimizationOracle,
    ProbabilitySimplex,
    birkhoff_lmo,
)
from .problems import (
    gen_hard_dc,
    gen_quadratic_dc,
    initial_point,
    qap_dc_oracles,
)
from .qaplib import (
    QapInstance,
    QaplibParseError,
    parse_qaplib,
    scan_directory,
    serialize_qaplib,
)

__all__ = [
    "ActiveSet",
    "Agnostic",
    "BenchResult",
    "BirkhoffPolytope",
    "DcProblem",
    "DcaConfig",
    "FwStats",
    "KSparsePolytope",
    "L1Ball",
    "LinearMinimizationOracle",
    "OracleFailure",
    "ProbabilitySimplex",
    "QapInstance",
    "QaplibParseError",
    "RunRecord",
    "Secant",
    "Subproblem",
    "VARIANTS",
    "birkhoff_lmo",
    "boosted_step",
    "bpcg",
    "dc_gap_bounds",
    "dca_solve",
    "fw_gap",
    "gen_hard_dc",
    "gen_quadratic_dc",
    "grid_two_level",
    "initial_point",
    "linearize",
    "load_results",
    "parse_qaplib",
    "performance_profile",
    "qap_dc_oracles",
    "run_suite",
    "scan_directory",
    "secant_line_search",
    "serialize_qaplib",
    "shifted_geomean",
    "summarize_table",
    "vanilla_fw",
    "variant_config",
]
