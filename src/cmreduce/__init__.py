"""Reduction types of CM abelian varieties and supersingular curve search.

The pipeline: classify CM types combinatorially (cm_types), decide how a
prime splits in the CM field (splitting), predict the reduction type from
the splitting (predictor), compute the actual invariants of the reduced
curve (invariants), and tie everything together over a curated curve
catalog (generator). The cmreduce console script fronts all of it.
"""

from .cm_types import (
    CMType,
    TypeClass,
    count_E,
    count_E_primitive,
    count_P,
    cyclic_period,
    enumerate_classes,
)
from .errors import (
    BadReductionError,
    CatalogError,
    CMReduceError,
    DomainError,
    InternalInconsistencyError,
    MissingDataError,
    NotSquarefreeError,
    PrimeSearchTimeout,
    RamifiedPrimeError,
    ResourceLimitError,
)
from .generator import (
    Catalog,
    CMCurveRecord,
    GenerationResult,
    SweepResult,
    VerifyReport,
    catalog_load,
    generate,
    reduce_curve,
    sweep,
    verify,
)
from .invariants import (
    ReducedCurve,
    ReductionProfile,
    a_number,
    cartier_manin,
    classify_group_scheme,
    l_polynomial,
    newton_slopes,
    p_rank,
    point_count,
    reduction_profile,
)
from .predictor import (
    Prediction,
    predict_for_genus,
    type_norm_orbit,
)
from .splitting import (
    CyclicCMField,
    SplittingType,
    find_prime,
    residue_class_table,
    split_by_factorization,
    split_by_residue,
    stickelberger_parity,
)

__version__ = "0.1.0"

__all__ = [
    "BadReductionError",
    "CMCurveRecord",
    "CMReduceError",
    "CMType",
    "Catalog",
    "CatalogError",
    "CyclicCMField",
    "DomainError",
    "GenerationResult",
    "InternalInconsistencyError",
    "MissingDataError",
    "NotSquarefreeError",
    "Prediction",
    "PrimeSearchTimeout",
    "RamifiedPrimeError",
    "ReducedCurve",
    "ReductionProfile",
    "ResourceLimitError",
    "SplittingType",
    "SweepResult",
    "TypeClass",
    "VerifyReport",
    "a_number",
    "cartier_manin",
    "catalog_load",
    "classify_group_scheme",
    "count_E",
    "count_E_primitive",
    "count_P",
    "cyclic_period",
    "enumerate_classes",
    "find_prime",
    "generate",
    "l_polynomial",
    "newton_slopes",
    "p_rank",
    "point_count",
    "predict_for_genus",
    "reduce_curve",
    "reduction_profile",
    "residue_class_table",
    "split_by_factorization",
    "split_by_residue",
    "stickelberger_parity",
    "sweep",
    "type_norm_orbit",
    "verify",
]
