"""SI-unit design calculator for a laboratory realisation of the interferometer.

Two parallel electron beams a distance d apart traverse an interferometer of
length L at longitudinal speed v.  While co-propagating they exchange the
transverse impulse

    delta = F t,   F = q^2 / (4 pi eps0 d^2),   t = L / v,

and the constant term of the linearised Coulomb energy imprints the phase

    alpha = -q^2 t / (4 pi eps0 hbar d),

tunable to a multiple of 2 pi through d alone (t does not depend on d).  The
transverse momentum width follows the minimum-uncertainty-style convention
2 W = hbar / waist, so delta/W and alpha bridge directly into
:class:`~qif_mzi.core.InterferometerParams`.

The validity report quantifies the assumptions behind the impulsive-kick
model: beams much narrower than their separation (which also bounds the
linearisation error), potential energy dominating the transverse kinetic
term, negligible transverse spreading, and a kick-induced fringe spacing far
larger than the beam so no spatial fringes wash the effect out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .core import BALANCED_R, InterferometerParams

__all__ = [
    "PhysicalConstants",
    "CODATA2018",
    "ExperimentInputs",
    "ValidityCheck",
    "DerivedSetup",
    "derive_setup",
    "free_spread_width",
    "TuneResult",
    "separation_for_alpha",
    "tune_separation",
    "to_model",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA 2018 values; immutable."""

    q: float = 1.602176634e-19       # electron charge, C
    eps0: float = 8.8541878128e-12   # vacuum permittivity, F/m
    hbar: float = 1.054571817e-34    # reduced Planck constant, J s
    h: float = 6.62607015e-34        # Planck constant, J s
    m_e: float = 9.1093837015e-31    # electron mass, kg


CODATA2018 = PhysicalConstants()


def free_spread_width(initial_width: float, t: float, mass: float) -> float:
    """Width of a freely spreading Gaussian beam after time ``t`` (SI units).

    initial_width * sqrt(1 + (hbar t / (2 m initial_width^2))^2); tends to
    hbar t / (2 m initial_width) for large t.
    """
    if not initial_width > 0.0:
        raise ValueError(f"initial width must be positive, got {initial_width!r}")
    if not mass > 0.0:
        raise ValueError(f"mass must be positive, got {mass!r}")
    if t < 0.0:
        raise ValueError(f"time must be >= 0, got {t!r}")
    rate = CODATA2018.hbar * t / (2.0 * mass * initial_width * initial_width)
    return initial_width * math.sqrt(1.0 + rate * rate)


@dataclass(frozen=True)
class ExperimentInputs:
    """Geometry and beam parameters, all SI."""

    separation: float          # distance d between the parallel beams, m
    length: float              # interferometer length L, m
    speed: float               # longitudinal speed v, m/s
    waist_transverse: float    # transverse beam waist at the entrance, m
    waist_longitudinal: float  # initial longitudinal width, m

    def __post_init__(self):
        for name in ("separation", "length", "speed", "waist_transverse", "waist_longitudinal"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class ValidityCheck:
    """One named ratio check; ``passed`` compares ratio against threshold."""

    name: str
    ratio: float
    threshold: float
    require_at_least: bool  # True: ratio >= threshold must hold; False: ratio <= threshold
    passed: bool

    def describe(self) -> str:
        op = ">=" if self.require_at_least else "<="
        verdict = "PASS" if self.passed else "FAIL"
        return f"{verdict} {self.name}: ratio {self.ratio:.4g} {op} {self.threshold:g}"


@dataclass(frozen=True)
class DerivedSetup:
    """Every derived quantity of one experimental configuration (SI units)."""

    inputs: ExperimentInputs
    transit_time: float               # s
    force: float                      # N
    delta: float                      # kg m/s
    momentum_width: float             # W, kg m/s
    delta_over_width: float
    alpha: float                      # rad, signed (negative: attractive phase convention)
    fringe_spacing: float             # h / delta, m
    longitudinal_spread: float        # width after transit, m
    transverse_spread: float          # width after transit, m
    transverse_spread_relative: float
    kinetic_scale: float              # (2W)^2 / 2m, J
    potential_scale: float            # q^2 waist / (4 pi eps0 d^2), J
    validity: tuple[ValidityCheck, ...]


def _derived(name: str, formula) -> float:
    """``formula()``, refused with a ValueError naming the quantity unless it is a finite double."""
    try:
        value = formula()
    except ArithmeticError:  # an overflow, or a divisor that underflowed to zero
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"derived {name} is not a finite double for these inputs")
    return value


def _checks(inputs: ExperimentInputs, derived: dict) -> tuple[ValidityCheck, ...]:
    extent = max(derived["transverse_spread"], derived["longitudinal_spread"])
    entries = (
        ("separation_to_extent", lambda: inputs.separation / extent, 100.0, True),
        ("potential_to_kinetic", lambda: derived["potential_scale"] / derived["kinetic_scale"], 5.0, True),
        ("fringe_to_beam", lambda: derived["fringe_spacing"] / inputs.waist_transverse, 10.0, True),
        ("linearization_error", lambda: (extent / inputs.separation) ** 2, 1e-3, False),
        ("transverse_spread", lambda: derived["transverse_spread_relative"], 1e-3, False),
    )
    ratios = [(name, _derived(f"{name} ratio", formula), threshold, at_least)
              for name, formula, threshold, at_least in entries]
    return tuple(
        ValidityCheck(name, ratio, threshold, at_least, ratio >= threshold if at_least else ratio <= threshold)
        for name, ratio, threshold, at_least in ratios
    )


def derive_setup(inputs: ExperimentInputs) -> DerivedSetup:
    """All derived numbers for one configuration; pure and deterministic.

    Raises ValueError naming the first derived quantity that is not a finite
    double (inputs far outside any laboratory range can overflow one).
    """
    constants = CODATA2018  # the set free_spread_width uses too
    coulomb = constants.q * constants.q / (4.0 * math.pi * constants.eps0)
    derived: dict[str, float] = {}
    formulas = {  # in order: each formula reads only the quantities above it
        "transit_time": lambda: inputs.length / inputs.speed,
        "force": lambda: coulomb / inputs.separation**2,
        "delta": lambda: derived["force"] * derived["transit_time"],
        "momentum_width": lambda: constants.hbar / (2.0 * inputs.waist_transverse),
        "delta_over_width": lambda: derived["delta"] / derived["momentum_width"],
        "alpha": lambda: -coulomb * derived["transit_time"] / (constants.hbar * inputs.separation),
        "fringe_spacing": lambda: constants.h / derived["delta"],
        "longitudinal_spread": lambda: free_spread_width(
            inputs.waist_longitudinal, derived["transit_time"], constants.m_e),
        "transverse_spread": lambda: free_spread_width(inputs.waist_transverse, derived["transit_time"], constants.m_e),
        "transverse_spread_relative": lambda: derived["transverse_spread"] / inputs.waist_transverse - 1.0,
        "kinetic_scale": lambda: (2.0 * derived["momentum_width"]) ** 2 / (2.0 * constants.m_e),
        "potential_scale": lambda: coulomb * inputs.waist_transverse / inputs.separation**2,
    }
    for name, formula in formulas.items():
        derived[name] = _derived(name, formula)
    return DerivedSetup(inputs=inputs, validity=_checks(inputs, derived), **derived)


class TuneResult(NamedTuple):
    separation: float   # adjusted d, m
    n_multiple: int     # |alpha| = 2 pi n at the adjusted d
    setup: DerivedSetup


def separation_for_alpha(inputs: ExperimentInputs, alpha_magnitude: float) -> float:
    """Separation at which |alpha| equals the requested magnitude.

    t = L/v does not depend on d, so |alpha| scales as 1/d and inverts
    exactly: d_new = d |alpha(d)| / target.
    """
    if not alpha_magnitude > 0.0:
        raise ValueError(f"target |alpha| must be positive, got {alpha_magnitude!r}")
    setup = derive_setup(inputs)
    return inputs.separation * abs(setup.alpha) / alpha_magnitude


def tune_separation(inputs: ExperimentInputs, n: int | None = None) -> TuneResult:
    """Adjust d so that |alpha| is an exact multiple of 2 pi (e^{i alpha} = 1).

    With ``n`` omitted, the multiple nearest to |alpha(d)| / 2 pi is used.
    """
    setup = derive_setup(inputs)
    magnitude = abs(setup.alpha)
    if n is None:
        n = round(magnitude / (2.0 * math.pi))
        if n < 1:
            raise ValueError(f"|alpha| = {magnitude:.3g} rad is nearest to 0 x 2 pi; request a positive multiple")
    elif n < 1:
        raise ValueError(f"target multiple must be a positive integer, got {n!r}")
    separation = separation_for_alpha(inputs, 2.0 * math.pi * n)
    if not (math.isfinite(separation) and separation > 0.0):
        raise ValueError(f"the tuned separation for |alpha| = {n} x 2 pi is {separation!r}, not a positive double")
    try:
        tuned = derive_setup(replace(inputs, separation=separation))
    except ValueError as err:
        raise ValueError(f"at the tuned separation {separation:g} m, {err}") from None
    return TuneResult(separation, int(n), tuned)


def to_model(setup: DerivedSetup, phi: float) -> InterferometerParams:
    """Bridge a physical setup into the dimensionless engine, at a balanced splitter and in units of W.

    Preserves delta/W and alpha (the engines only consume cos alpha, so the
    stored sign is inert but traceable).  In the physical setup delta and
    alpha are coupled through d and t; the model treats them as independent
    knobs.
    """
    return InterferometerParams(r=BALANCED_R, phi=phi, alpha=setup.alpha, delta=setup.delta_over_width)
