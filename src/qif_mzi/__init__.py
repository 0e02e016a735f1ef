"""Post-selected two-electron Mach-Zehnder interference.

Two electrons traverse parallel arms of a Mach-Zehnder interferometer and
repel each other only when they co-propagate.  Post-selecting the exit ports
can flip the sign of the momentum each electron appears to have gained,
producing an effective electrostatic attraction between like charges.  This
package provides the closed-form model, independent brute-force grid
oracles that validate it, and an SI-unit calculator for a laboratory-scale
realisation.
"""

from .analytic import (
    EhrenfestBalance,
    MeanSurface,
    ehrenfest_check,
    marginal_density,
    mean_postselected,
    mean_postselected_packet_overlap,
    mean_surface,
    port_amplitudes,
    port_marginal_density,
    port_mean_momenta,
    port_probabilities,
    postselect_norm,
    reduced_state,
    term_decomposition,
)
from .core import (
    BALANCED_R,
    DARK_THRESHOLD,
    AliasingError,
    ConfigError,
    DarkPortError,
    GaussianPacket,
    GridError,
    GridSpanError,
    InterferometerParams,
    PortPair,
    kick_sign,
)
from .experiment import (
    CODATA2018,
    DerivedSetup,
    ExperimentInputs,
    PhysicalConstants,
    TuneResult,
    ValidityCheck,
    derive_setup,
    free_spread_width,
    separation_for_alpha,
    to_model,
    tune_separation,
)
from .numeric import (
    Distribution1D,
    KickOracleResult,
    MomentumGrid,
    default_grid,
    joint_marginal_oracle,
    kernel_purity,
    momentum_kick_oracle,
)

__version__ = "0.1.0"
