"""Hybrid discrete/continuous-variable teleportation on truncated Fock grids."""

from .fock import (
    MeasurementRangeError,
    NonFiniteAmplitudeError,
    QubitState,
    TailMassError,
    default_cutoff,
    fidelity,
)
from .displaced import (
    MatrixElementTable,
    coherent_state,
    displaced_number_state,
    matrix_element,
    matrix_element_table,
    overall_factor,
)
from .optics import (
    BeamSplitterParams,
    HybridChannel,
    channel_state,
    displacement_matrix,
    htbs_residual,
    negativity,
    negativity_closed_form,
    negativity_numeric,
)
from .protocol import (
    BruteForceRecord,
    Outcome,
    SingularFactorError,
    TeleportRecord,
    UnknownQubit,
    am_probability,
    amp_factor_dual,
    amp_factor_single,
    bob_states_dual,
    brute_force_pipeline,
    correct,
    direct_success_probability,
    dual_rail_records,
    maximize_direct_success,
    outcome_probability_dual,
    pair_sum_probability,
    single_rail_pipeline,
    z_power_for,
)
from .demodulation import (
    AMQubit,
    DemodResult,
    demod_displacement,
    demod_swap,
    initially_am_dual,
    initially_am_dual_total_reference,
    initially_am_single,
    initially_am_totals,
    overall_success,
    overall_success_report,
    q_best,
    q_displacement_chain,
    q_swap,
    single_rail_demod_additions,
)

__version__ = "0.1.0"
