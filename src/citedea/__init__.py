"""Citation indices and input-oriented CCR efficiency analysis for researchers."""

from .analysis import (
    AnalysisError,
    CorrelationPair,
    MetricReport,
    build_report,
    rank,
    rank_correlation,
)
from .corpus import (
    CorpusError,
    DmuAggregate,
    PaperRecord,
    ResearcherProfile,
    aggregate,
    parse_aggregates,
    parse_h_values,
    parse_paper_columns,
    parse_papers,
    parse_profiles,
)
from .dea import (
    DEFAULT_EPSILON,
    DeaError,
    DmuSet,
    EfficiencyScore,
    build_ccr_lp,
    ccr_all,
    ccr_efficiency,
    frontier,
)
from .indices import (
    INDEX_NAMES,
    PenaltyParams,
    compute_indices,
    index_table,
)
from .lp import (
    FEASIBILITY_TOL,
    LinearProgram,
    LpSolution,
    LpStatus,
    solve_lp,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "CorpusError",
    "CorrelationPair",
    "DEFAULT_EPSILON",
    "DeaError",
    "DmuAggregate",
    "DmuSet",
    "EfficiencyScore",
    "FEASIBILITY_TOL",
    "INDEX_NAMES",
    "LinearProgram",
    "LpSolution",
    "LpStatus",
    "MetricReport",
    "PaperRecord",
    "PenaltyParams",
    "ResearcherProfile",
    "aggregate",
    "build_ccr_lp",
    "build_report",
    "ccr_all",
    "ccr_efficiency",
    "compute_indices",
    "frontier",
    "index_table",
    "parse_aggregates",
    "parse_h_values",
    "parse_paper_columns",
    "parse_papers",
    "parse_profiles",
    "rank",
    "rank_correlation",
    "solve_lp",
]
