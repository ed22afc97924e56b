"""Optimal intervention control of a discrete-time absorbing chain.

The process evolves freely on internal states until it hits one of two
absorbing boundary states; an intervention then restarts it at an
internal state drawn from a controllable distribution, at a cost. The
package evaluates the long-run average income per boundary-to-boundary
cycle in closed form, finds the deterministic restart policy that
optimizes it, and verifies both against step-by-step simulation.
"""

from .absorption import (
    AbsorptionAnalysis,
    analyze_chain,
    check_positivity,
    fundamental_solve,
)
from .errors import (
    CycleLimitError,
    DegenerateChainError,
    NumericOverflowError,
    PositivityError,
    SingularSystemError,
    TuningError,
)
from .model import (
    ChainSpec,
    Strategy,
    ValidationReport,
    Violation,
    chain_spec_from_dict,
    degenerate_strategy,
    load_chain_spec,
    load_strategy,
    strategy_from_dict,
    to_doc,
    validate_chain,
    validate_strategy,
)
from .optimizer import (
    OptimalControl,
    RefutationReport,
    refute_with_random_strategies,
    solve_tuning,
)
from .simulator import (
    SimulationStats,
    TrajectoryEvent,
    sample_trajectory,
    simulate,
)
from .stationary import (
    CostCoefficients,
    cost_coefficients,
    embedded_transition,
    indicator,
    stationary_distribution,
    visit_income,
)

__version__ = "0.1.0"

__all__ = [
    "AbsorptionAnalysis",
    "ChainSpec",
    "CostCoefficients",
    "CycleLimitError",
    "DegenerateChainError",
    "NumericOverflowError",
    "OptimalControl",
    "PositivityError",
    "RefutationReport",
    "SimulationStats",
    "SingularSystemError",
    "Strategy",
    "TrajectoryEvent",
    "TuningError",
    "ValidationReport",
    "Violation",
    "analyze_chain",
    "chain_spec_from_dict",
    "check_positivity",
    "cost_coefficients",
    "degenerate_strategy",
    "embedded_transition",
    "fundamental_solve",
    "indicator",
    "load_chain_spec",
    "load_strategy",
    "refute_with_random_strategies",
    "sample_trajectory",
    "simulate",
    "solve_tuning",
    "stationary_distribution",
    "strategy_from_dict",
    "to_doc",
    "validate_chain",
    "validate_strategy",
    "visit_income",
]
