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
    absorption_probabilities,
    analyze_chain,
    check_positivity,
    expected_income,
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
    chain_spec_to_dict,
    degenerate_strategy,
    dump_chain_spec,
    dump_strategy,
    load_chain_spec,
    load_strategy,
    strategy_from_dict,
    strategy_to_dict,
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
    simulate_replicated,
)
from .stationary import (
    CostCoefficients,
    EmbeddedChain,
    cost_coefficients,
    embedded_chain,
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
    "EmbeddedChain",
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
    "absorption_probabilities",
    "analyze_chain",
    "chain_spec_from_dict",
    "chain_spec_to_dict",
    "check_positivity",
    "cost_coefficients",
    "degenerate_strategy",
    "dump_chain_spec",
    "dump_strategy",
    "embedded_chain",
    "embedded_transition",
    "expected_income",
    "fundamental_solve",
    "indicator",
    "load_chain_spec",
    "load_strategy",
    "refute_with_random_strategies",
    "sample_trajectory",
    "simulate",
    "simulate_replicated",
    "solve_tuning",
    "stationary_distribution",
    "strategy_from_dict",
    "strategy_to_dict",
    "validate_chain",
    "validate_strategy",
    "visit_income",
]
