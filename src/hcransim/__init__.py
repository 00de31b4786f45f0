"""Link-level downlink simulator for a heterogeneous cloud radio access
network: user-centric clustering, pilot scheduling under reuse, MMSE channel
estimation, rate lower bounds, and robust transmit beamforming."""

from .beamforming import (
    BeamformerSet,
    ConvergenceError,
    PowerBudget,
    QcqpProblem,
    RtdState,
    StackLayout,
    assemble_qcqp,
    mse_and_equalizer,
    qcqp_objective,
    rtd_solve,
    solve_qcqp,
    stack_layout,
    update_u,
)
from .channel import (
    AggregatedLinks,
    TrainingConfig,
    TrueChannels,
    draw_small_scale,
    estimate_channels,
    perfect_channel_state,
    prelog_factor,
)
from .experiments import (
    ExperimentConfig,
    SweepResult,
    load_config,
    run_mse_sweep,
    run_se_sweep,
    run_tightness,
    schedule_one,
    solve_one,
)
from .pilot_scheduler import (
    ConflictGraph,
    PilotAssignment,
    build_conflict_graph,
    compute_beta,
    dsatur_color,
    dsatur_random_schedule,
    es_schedule,
    group_by_pilot,
    make_assignment,
    psa_schedule,
    sum_mse,
    validate_assignment,
)
from .rate_bounds import (
    build_covariances,
    interference_plus_noise,
    link_amplitudes,
    lower_bound_rates,
    monte_carlo_rates,
    useful_amplitude,
)
from .scenario import (
    ScenarioConfig,
    Topology,
    cluster_ues,
    generate_topology,
    load_topology,
    pathloss_gain,
    save_topology,
    with_seed,
)
from .util import dbm_to_watt, watt_to_dbm

__version__ = "0.1.0"
