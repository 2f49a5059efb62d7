"""Projection-free difference-of-convex optimization over polytopes.

Solvers (DCA outer loop, Frank-Wolfe and blended pairwise conditional
gradient subsolvers), linear minimization oracles, benchmark problem
families, QAP instance file I/O, and a benchmark harness.
"""

from .bench import (
    BenchResult,
    load_results,
    performance_profile,
    run_suite,
    shifted_geomean,
    summarize_table,
)
from .dca import (
    DcaConfig,
    DcProblem,
    OracleFailure,
    RunRecord,
    VARIANTS,
    dca_solve,
)
from .fw import (
    ActiveSet,
    Agnostic,
    Secant,
    bpcg,
    vanilla_fw,
)
from .lmo import (
    BirkhoffPolytope,
    KSparsePolytope,
    LinearMinimizationOracle,
    ProbabilitySimplex,
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
    "KSparsePolytope",
    "LinearMinimizationOracle",
    "OracleFailure",
    "ProbabilitySimplex",
    "QapInstance",
    "QaplibParseError",
    "RunRecord",
    "Secant",
    "VARIANTS",
    "bpcg",
    "dca_solve",
    "gen_hard_dc",
    "gen_quadratic_dc",
    "initial_point",
    "load_results",
    "parse_qaplib",
    "performance_profile",
    "qap_dc_oracles",
    "run_suite",
    "scan_directory",
    "serialize_qaplib",
    "shifted_geomean",
    "summarize_table",
    "vanilla_fw",
]
