"""On-demand multimodal transit design with latent-demand adoption.

The toolkit covers the fixed-demand network design problem (solved
exactly as one arc-flow linear program on HiGHS, with an exhaustive
oracle for tiny instances), the lexicographic multimodal router, the
rider choice model with adoption-quality metrics, three trip-based and
two arc-based approximation algorithms, and a command-line front end.
The benchmark harness lives outside the package, in ``bench/``.
"""

from .instance import (
    CostParams,
    Instance,
    InstanceParseError,
    Trip,
    ValidationError,
    WeightTable,
    derive_weights,
    load_instance,
    save_instance,
)
from .generator import GeneratorConfig, TripClass, generate_synthetic
from .router import Design, Route, is_direct_trip, route
from .dfd import (
    CapExceeded,
    DfdSolution,
    SolveError,
    balanced_designs,
    enumerate_dfd,
    make_cut,
    solve_dfd,
    solve_master,
)
from .adoption import (
    DesignEvaluation,
    ExactTinyResult,
    choice,
    design_objective,
    eval_design,
    exact_tiny,
)
from .trace import HeuristicTrace, TraceRecord, write_trace_csv
from .trip_heuristics import default_step, eta_grre, rho_gagr, rho_grad
from .arc_heuristics import (
    adoption_ub,
    arc_s1,
    arc_s2,
    expand,
    find_cycles,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "CostParams",
    "Design",
    "DesignEvaluation",
    "DfdSolution",
    "ExactTinyResult",
    "GeneratorConfig",
    "HeuristicTrace",
    "Instance",
    "InstanceParseError",
    "Route",
    "SolveError",
    "TraceRecord",
    "Trip",
    "TripClass",
    "ValidationError",
    "WeightTable",
    "adoption_ub",
    "arc_s1",
    "arc_s2",
    "balanced_designs",
    "choice",
    "default_step",
    "derive_weights",
    "design_objective",
    "enumerate_dfd",
    "eta_grre",
    "eval_design",
    "exact_tiny",
    "expand",
    "find_cycles",
    "generate_synthetic",
    "is_direct_trip",
    "load_instance",
    "make_cut",
    "rho_gagr",
    "rho_grad",
    "route",
    "save_instance",
    "solve_dfd",
    "solve_master",
    "write_trace_csv",
]
