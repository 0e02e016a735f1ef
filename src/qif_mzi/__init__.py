"""Post-selected two-electron Mach-Zehnder interference.

Two electrons traverse parallel arms of a Mach-Zehnder interferometer and
repel each other only when they co-propagate.  Post-selecting the exit ports
can flip the sign of the momentum each electron appears to have gained,
producing an effective electrostatic attraction between like charges.  This
package provides the closed-form model, independent brute-force grid
oracles that validate it, and an SI-unit calculator for a laboratory-scale
realisation.

Submodules and the names exported here load on first use (PEP 562), so
``import qif_mzi`` alone imports neither numpy nor any submodule.
"""

import importlib

# each exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in (
    ("analytic", "EhrenfestBalance MeanSurface ehrenfest_check marginal_density mean_postselected "
                 "mean_postselected_packet_overlap mean_surface port_amplitudes port_marginal_density "
                 "port_mean_momenta port_probabilities postselect_norm reduced_state term_decomposition"),
    ("core", "BALANCED_R DARK_THRESHOLD AliasingError ConfigError DarkPortError GaussianPacket GridError "
             "GridSpanError InterferometerParams PortPair kick_sign"),
    ("experiment", "CODATA2018 DerivedSetup ExperimentInputs PhysicalConstants TuneResult ValidityCheck "
                   "derive_setup free_spread_width separation_for_alpha tune_separation"),
    ("numeric", "Distribution1D KickOracleResult MomentumGrid default_grid joint_marginal_oracle kernel_purity "
                "momentum_kick_oracle"),
) for name in names.split()}
_SUBMODULES = ("analytic", "cli", "core", "experiment", "floatfmt", "numeric", "verify")

# the names a star import gave when the package imported these four submodules eagerly
__all__ = ["analytic", "core", "experiment", "numeric", *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)  # the import binds it here
    if name in _EXPORTS:
        value = globals()[name] = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
