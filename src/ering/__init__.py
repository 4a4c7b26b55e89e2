"""Toolkit for engineering, analyzing and simulating two-qubit
polarization-entangled mixed states from an E-ring SPDC source."""

from .states import (
    BASIS,
    bell_state,
    check_density_matrix,
    mems,
    mix,
    nonmax_state,
    projector,
    singlet,
    tune_entanglement,
    tuning_entanglement_bound,
    werner,
    werner_from_fidelity,
)
from .entanglement import (
    MEMS,
    WERNER,
    classify,
    concurrence,
    is_separable_ppt,
    linear_entropy,
    tangle,
    tangle_curve,
)
from .bell import (
    AnglePlan,
    BlochSetting,
    ChshSettings,
    CountsTable,
    STANDARD_PLAN,
    chsh,
    chsh_from_counts,
    chsh_max_from_correlation_matrix,
    chsh_optimal_family,
    chsh_optimize,
    correlation,
)
from .source import (
    SectorPartition,
    SourceConfig,
    displacement_visibility,
    mems_partition,
    ou_mandel_scan,
    phase_from_displacement,
    ring_diameter,
    sector_area,
    simulate_bell_test,
    simulate_coincidences,
    synthesize,
    werner_partition,
)
from .tomography import (
    TomoData,
    TomoSetting,
    fidelity,
    linear_reconstruct,
    ml_reconstruct,
    simulate_tomography,
    standard_settings,
)
from .errors import ConvergenceError, InputFormatError

__version__ = "0.1.0"
