"""Shared domain types for the two-electron interferometer model.

Conventions
-----------
Natural units: hbar = 1.  Momenta carry the same unit as the packet width
W, so p/W and delta/W are the dimensionless axes used by every report.
SI quantities exist only in :mod:`qif_mzi.experiment`.

Sign conventions: a reflection at either splitter has amplitude i*r with r
real, a transmission has t = sqrt(1 - r^2); the co-propagation Coulomb kick
displaces electron 1 by -delta and electron 2 by +delta (they repel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "DARK_THRESHOLD",
    "BALANCED_R",
    "DarkPortError",
    "GridError",
    "GridSpanError",
    "AliasingError",
    "ConfigError",
    "GaussianPacket",
    "InterferometerParams",
    "PortPair",
    "kick_sign",
]

#: Normalisations / probabilities at or below this are treated as exact
#: zeros (dark post-selection) rather than round-off survivors.
DARK_THRESHOLD = 1e-12

#: Reflection magnitude of a 50/50 splitter.
BALANCED_R = math.sqrt(0.5)


class DarkPortError(ValueError):
    """The selected outcome has zero probability; conditional quantities are undefined."""


class GridError(ValueError):
    """A sampling grid cannot support the requested operation."""


class GridSpanError(GridError):
    """Analytic tail mass outside the grid exceeds the truncation budget."""


class AliasingError(GridError):
    """Grid spacing is too coarse for the requested phase oscillation."""


class ConfigError(ValueError):
    """Invalid run-configuration document or flag set."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


@dataclass(frozen=True)
class GaussianPacket:
    """Unit-norm real Gaussian momentum wavefunction.

        amplitude(p) = pi**(-1/4) width**(-1/2) exp(-(p - center)^2 / (2 width^2))

    The squared amplitude integrates to one, so :meth:`density` is a
    probability density; its standard deviation is width / sqrt(2).  Only the
    packet writes its shape: amplitude, overlap, tail mass, aliasing bound and
    position form.
    """

    width: float
    center: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.width) and self.width > 0.0):
            raise ValueError(f"packet width must be finite and positive, got {self.width!r}")
        if not np.isfinite(self.center):
            raise ValueError(f"packet center must be finite, got {self.center!r}")

    def __call__(self, p):
        """Amplitude at momentum ``p`` (scalar or array)."""
        arr = np.asarray(p, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError("momentum argument must be finite")
        u = np.minimum(np.abs(arr - self.center) / self.width, 64.0)  # exp(-u^2 / 2) is 0.0 long before u * u overflows
        amp = (math.pi ** -0.25 / math.sqrt(self.width)) * np.exp(-0.5 * u * u)
        return float(amp) if amp.ndim == 0 else amp

    def density(self, p):
        """Probability density (squared amplitude) at momentum ``p``."""
        amp = self(p)
        return amp * amp

    def overlap(self, shift):
        """Inner product with the copy displaced by ``shift`` (a float or an array): exp(-(shift / width)^2 / 4), in
        (0, 1] and 1 only at shift 0.  |shift| / width is clamped at 64, where the overlap is already 0.0 and u * u
        cannot overflow."""
        u = np.minimum(abs(shift) / self.width, 64.0)
        return np.exp(-0.25 * u * u)

    def tail_mass(self, lo: float, hi: float) -> float:
        """Probability mass of the density outside [lo, hi]."""
        return 0.5 * (math.erfc((hi - self.center) / self.width) + math.erfc((self.center - lo) / self.width))

    def alias_bound(self, spacing: float) -> float:
        """Relative aliasing error bound of Simpson on the density at ``spacing`` h: (8/3) exp(-pi^2 W^2 / 4 h^2)."""
        u = self.width / spacing
        return (8.0 / 3.0) * math.exp(-0.25 * math.pi * math.pi * u * u)

    def position_amplitude(self, x):
        """Position wavefunction conjugate to the momentum amplitude (hbar = 1), at ``x`` (an array):
        pi^(-1/4) W^(1/2) exp(-(W x)^2 / 2) exp(i center x)."""
        psi = (math.pi ** -0.25) * math.sqrt(self.width) * np.exp(-0.5 * (self.width * x) ** 2)
        return psi * np.exp(1j * self.center * x)

    def shifted(self, shift: float) -> "GaussianPacket":
        """The same packet displaced in momentum by ``shift``."""
        return GaussianPacket(self.width, self.center + shift)


def kick_sign(electron: int) -> float:
    """-1 for electron 1, +1 for electron 2: the repulsive kick pushes them apart."""
    if electron == 1:
        return -1.0
    if electron == 2:
        return 1.0
    raise ValueError(f"electron index must be 1 or 2, got {electron!r}")


@dataclass(frozen=True)
class InterferometerParams:
    """Dimensionless knobs of the two-electron interferometer.

    r      reflection magnitude of both (identical) splitters, in [0, 1];
           the transmission t = sqrt(1 - r^2) is derived, never stored.
    phi    relative phase between the two paths (radians).
    alpha  phase acquired by the co-propagating (interacting) branches.
    delta  magnitude of the mutual momentum kick, >= 0.
    width  momentum width W of the initial packets, > 0.
    """

    r: float
    phi: float
    alpha: float
    delta: float
    width: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.r) and 0.0 <= self.r <= 1.0):
            raise ValueError(f"reflection amplitude must lie in [0, 1], got {self.r!r}")
        if not (np.isfinite(self.phi) and np.isfinite(self.alpha)):
            raise ValueError("phases must be finite")
        if not (np.isfinite(self.delta) and self.delta >= 0.0):
            raise ValueError(f"kick magnitude must be >= 0, got {self.delta!r}")
        if not (np.isfinite(self.width) and self.width > 0.0):
            raise ValueError(f"packet width must be positive, got {self.width!r}")

    @property
    def t(self) -> float:
        """Transmission amplitude sqrt(1 - r^2)."""
        return math.sqrt(1.0 - self.r * self.r)

    @property
    def delta_over_width(self) -> float:
        return self.delta / self.width

    def packet(self) -> GaussianPacket:
        """Initial (unkicked) packet, identical for both electrons."""
        return GaussianPacket(self.width)

    def kicked_packet(self, electron: int) -> GaussianPacket:
        """Packet after the co-propagation kick: centred at -delta (e1) or +delta (e2)."""
        return GaussianPacket(self.width, kick_sign(electron) * self.delta)


class PortPair(Enum):
    """Exit assignment: first letter is electron 1's port, second electron 2's."""

    CC = "cc"
    CD = "cd"
    DC = "dc"
    DD = "dd"

