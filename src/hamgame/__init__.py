"""Regularized-leader learning on network games as a conservative system.

The package simulates follow-the-regularized-leader dynamics on polymatrix
games, instruments the trajectories with the conserved energy, Fenchel
coupling and Bregman distance, and provides the transforms (constant-sum
normalization, bipartite folding, 2x2 scalar reduction) under which the
conservation statements carry over.
"""

from .analysis import (
    AnalysisReport,
    FloorEstimate,
    boundary_approach,
    build_report,
    fenchel_bregman_series,
    floor_distance,
    make_reference,
    monotone_energy_check,
    recurrence_report,
    volume_ratio,
)
from .dynamics import (
    IntegratorConfig,
    SystemState,
    Trajectory,
    sample_payoff_ball,
    simulate,
)
from .fileio import GameFileError, LoadedGame, game_fingerprint, load_game_file
from .fileio import read_trajectory_csv, write_trajectory_csv, write_trajectory_metadata
from .games import (
    BipartiteReduction,
    Classification,
    GameKind,
    GeneralizedGame,
    MixedProfile,
    NetworkGame,
    Reduced2x2,
    bipartite_partition,
    classify_game,
    default_regularizers,
    normalize_constant_sum,
    payoff_fields,
    reduce_2x2_to_generalized,
    reduce_bipartite_to_two_agent,
    shift_payoffs_to_zero_drift,
    solve_2x2_fully_mixed_nash,
    verify_nash,
)
from .hamiltonian import (
    EnergyReading,
    StructureReport,
    verify_hamiltonian_structure,
)
from .regularizers import (
    ProductRegularizer,
    Regularizer,
    bregman_distance,
    choice_map,
    conjugate_value,
    fenchel_coupling,
    gradient_h,
    h_value,
    payoffs_from_profile,
    project_simplex,
    restrict_to_interval,
)

__version__ = "0.1.0"
