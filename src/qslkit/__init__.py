"""Quantumness witness, open-system dynamics, and speed-limit timescales.

Quantifies the incompatibility generated between an initial and a
time-evolved quantum state, propagates unitary / dephasing / dissipative
dynamics with and without environmental memory, and evaluates the
speed-limit timescale for quantumness generation against exact evolution
times and the weaker fidelity-decay bound.
"""

from .bounds import (
    BoundReport,
    evaluate_crossings,
    quantumness_dephasing,
    quantumness_dissipation,
    speed_dissipation,
    tau_b_fidelity,
    tau_q_dephasing,
    tau_q_from_trajectory,
    tau_q_unitary,
    unitary_speed_squared,
)
from .generators import (
    Dephasing,
    Dissipation,
    PositivityLossError,
    Stirap,
    Trajectory,
    UnitaryControl,
    UnitaryTwoLevel,
    dephasing_closed_state,
    dissipation_closed_state,
    hamiltonian_2l,
    hamiltonian_stirap,
    propagate,
    propagate_many,
    unitary_state,
)
from .harness import (
    GhzScalingReport,
    ScenarioConfig,
    ScenarioResult,
    ValidationReport,
    fig1,
    fig2,
    fig3,
    ghz_scaling,
    run_scenario,
    validate,
)
from .matcore import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityDiagnostics,
    commutator,
    from_pure,
    hs_norm,
    min_eigenvalue,
    purity,
    validate_density,
)
from .memory import MemoryFunctions, OUParams, RiccatiBlowupError
from .witness import (
    generation_speed,
    pure_state_quantumness,
    quantumness,
    quantumness_rate,
    random_density_matrix,
    random_pure_state,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "DensityDiagnostics",
    "Dephasing",
    "Dissipation",
    "GhzScalingReport",
    "MemoryFunctions",
    "OUParams",
    "PositivityLossError",
    "RiccatiBlowupError",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "ScenarioConfig",
    "ScenarioResult",
    "Stirap",
    "Trajectory",
    "UnitaryControl",
    "UnitaryTwoLevel",
    "ValidationReport",
    "commutator",
    "dephasing_closed_state",
    "dissipation_closed_state",
    "evaluate_crossings",
    "fig1",
    "fig2",
    "fig3",
    "from_pure",
    "generation_speed",
    "ghz_scaling",
    "hamiltonian_2l",
    "hamiltonian_stirap",
    "hs_norm",
    "min_eigenvalue",
    "propagate",
    "propagate_many",
    "pure_state_quantumness",
    "purity",
    "quantumness",
    "quantumness_dephasing",
    "quantumness_dissipation",
    "quantumness_rate",
    "random_density_matrix",
    "random_pure_state",
    "run_scenario",
    "speed_dissipation",
    "tau_b_fidelity",
    "tau_q_dephasing",
    "tau_q_from_trajectory",
    "tau_q_unitary",
    "unitary_speed_squared",
    "unitary_state",
    "validate",
    "validate_density",
]
