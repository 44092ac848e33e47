"""repro — why-not explanations for reverse skyline queries.

A complete, from-scratch reproduction of Islam, Zhou & Liu, *On Answering
Why-not Questions in Reverse Skyline Queries* (ICDE 2013): skyline and
reverse-skyline substrates (including an R-tree and BBRS), the four
why-not algorithms (MWP, MQP, exact safe region, MWQ), the approximate
safe region, data generators, and the full experiment harness.

Quick start::

    import numpy as np
    from repro import WhyNotEngine

    points = np.array([[5, 30], [7.5, 42], [2.5, 70], [7.5, 90],
                       [24, 20], [20, 50], [26, 70], [16, 80]])
    engine = WhyNotEngine(points)          # monochromatic, as in the paper
    q = np.array([8.5, 55.0])
    engine.reverse_skyline(q)              # -> customer positions
    engine.explain(0, q).describe()        # why is customer 0 missing?
    engine.modify_why_not_point(0, q)      # Algorithm 1
    engine.modify_both(0, q)               # Algorithm 4
"""

from repro.config import (
    CostWeights,
    DominancePolicy,
    RTreeConfig,
    WhyNotConfig,
)
from repro.core import (
    ApproximateDSLStore,
    RelaxationOption,
    leave_one_out_regions,
    relaxation_analysis,
    WhyNotAnswer,
    answer_why_not,
    answer_why_not_batch,
    Candidate,
    Explanation,
    MinMaxNormalizer,
    ModificationResult,
    MWQCase,
    MWQResult,
    SafeRegion,
    WhyNotEngine,
    compute_safe_region,
    explain_why_not,
    modify_query_and_why_not_point,
    modify_query_point,
    modify_why_not_point,
)
from repro.exceptions import (
    DimensionMismatchError,
    EmptyDatasetError,
    IndexCorruptionError,
    InvalidParameterError,
    ReproError,
    StaleSessionError,
)
from repro.geometry import Box, BoxRegion
from repro.index import RTree, ScanIndex, SpatialIndex
from repro.kernels import (
    batch_lambda_counts,
    batch_verify_membership,
    batch_window_membership,
)
from repro.obs import (
    MetricsRegistry,
    Observability,
    Tracer,
    environment_provenance,
    export_obs,
    render_span_tree,
    to_prometheus,
    validate_export,
)
from repro.plan import (
    PlanCache,
    PlanReport,
    PreparedPlan,
    render_plan_tree,
)
from repro.skyline import (
    dynamic_skyline_indices,
    reverse_skyline_bbrs,
    reverse_skyline_naive,
    skyline_indices,
)
from repro.store import (
    CustomerStore,
    Mutation,
    ProductStore,
    Snapshot,
    VersionedStore,
    WhyNotSession,
)

__version__ = "1.0.0"

__all__ = [
    "WhyNotEngine",
    "WhyNotConfig",
    "DominancePolicy",
    "CostWeights",
    "RTreeConfig",
    "Candidate",
    "Explanation",
    "ModificationResult",
    "MWQCase",
    "MWQResult",
    "SafeRegion",
    "MinMaxNormalizer",
    "ApproximateDSLStore",
    "WhyNotAnswer",
    "answer_why_not",
    "answer_why_not_batch",
    "RelaxationOption",
    "leave_one_out_regions",
    "relaxation_analysis",
    "explain_why_not",
    "modify_why_not_point",
    "modify_query_point",
    "modify_query_and_why_not_point",
    "compute_safe_region",
    "skyline_indices",
    "dynamic_skyline_indices",
    "reverse_skyline_naive",
    "reverse_skyline_bbrs",
    "batch_window_membership",
    "batch_lambda_counts",
    "batch_verify_membership",
    "PlanCache",
    "PlanReport",
    "PreparedPlan",
    "render_plan_tree",
    "Observability",
    "Tracer",
    "MetricsRegistry",
    "export_obs",
    "render_span_tree",
    "to_prometheus",
    "validate_export",
    "environment_provenance",
    "Box",
    "BoxRegion",
    "SpatialIndex",
    "ScanIndex",
    "RTree",
    "ProductStore",
    "CustomerStore",
    "VersionedStore",
    "Mutation",
    "Snapshot",
    "WhyNotSession",
    "ReproError",
    "DimensionMismatchError",
    "EmptyDatasetError",
    "InvalidParameterError",
    "IndexCorruptionError",
    "StaleSessionError",
    "__version__",
]
