"""Simulator for polarization-OAM hybrid-entangled photon-pair erasure.

Two-photon states carry a polarization qubit and an orbital angular
momentum index per arm.  The package builds down-conversion sources,
applies optical elements (q-plates, wave plates, polarizers, fibers,
analysis holograms), computes exact coincidence statistics, simulates
counted data, and analyzes fringe visibility against which-path
distinguishability.
"""

from .hilbert import (
    JointKet,
    LocalKet,
    OamOverflowError,
    apply_local,
    basis_ket,
    joint_ket,
    local_ket,
    polarization_ket,
    project,
    state_overlap,
    tensor,
)
from .elements import (
    DelaySpec,
    FiberSpec,
    HologramSpec,
    PolarizerSpec,
    QPlateSpec,
    WavePlateSpec,
    binary_mask_overlap,
    qplate_operator,
    sector_projector,
    waveplate_jones,
    waveplate_operator,
)
from .experiment import (
    CountingModel,
    EventRecord,
    EventTable,
    ExperimentConfig,
    NullOutcomeError,
    ScanSeries,
    SourceSpec,
    build_source_state,
    causal_order_probability,
    coincidence_probability,
    conditional_grid,
    hybrid_eraser_config,
    run_pipeline,
    simulate_counts,
    simulate_timeline,
    theta_scan,
)
from .analysis import (
    ComplementarityRecord,
    FringeFit,
    TwoPathModel,
    complementarity_check,
    count_azimuthal_lobes,
    distinguishability,
    fit_sinusoid,
    oam_fringe_visibility,
    render_azimuthal_pattern,
    theoretical_visibility,
    two_path_pattern,
    visibility_curve,
)
from .configio import ConfigError, RunSpec, ScanSpec, emit_config, parse_config

__version__ = "0.1.0"
