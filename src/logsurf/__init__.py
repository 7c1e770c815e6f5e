"""Exact-arithmetic calculus on weighted dual graphs of log surfaces."""

from .errors import (
    CoeffOutOfRange,
    DanglingEdge,
    DuplicateId,
    InvalidSite,
    LogSurfError,
    NotAChain,
    NotAdmissible,
    NotApplicable,
    NotLogTerminal,
    NotMinimal,
    NotNegativeDefinite,
    NotPeelable,
    ParseError,
    SelfLoop,
    TooLarge,
    UnknownVertex,
    ValidationError,
)
from .graph import (
    DualGraph,
    Edge,
    LogSurfaceModel,
    Vertex,
    blow_down,
    blow_up,
    branching_number,
    contracts_to_smooth_point,
    find_shapes,
    is_negative_definite,
)
from .invariants import (
    BarkDivisor,
    ChainData,
    CoefficientVector,
    GermGraph,
    bark_chain,
    bark_D,
    chain_data,
    coefficient_divisor_uniform,
    coefficients_linear,
    discriminant,
    total_coefficient,
)
from .classify import (
    EpsVerdict,
    GermClass,
    HalfClass,
    alexeev_compare,
    classify_germ,
    classify_half,
    duval_type,
    eps_check,
)
from .mmp import (
    ALEVerdict,
    AlmostMinDecomposition,
    CurveVerdict,
    MMPRun,
    PeelingData,
    RedundantVerdict,
    almost_log_exceptional,
    almost_minimalize,
    enumerate_runs,
    is_partial_mmp_run,
    log_exceptional,
    peel,
    redundant,
    relative_k_mmp,
    relative_mmp,
    run_mmp,
    squeeze,
)
from .documents import (
    fixture_corpus,
    format_rational,
    load_fixture,
    model_from_dict,
    parse_document,
    parse_rational,
    serialize_model,
    to_dot,
)

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
