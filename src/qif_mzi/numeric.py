"""Brute-force grid oracles that cross-check the closed forms.

Independent computation paths:

* composite Simpson quadrature on uniform momentum grids (norms, means,
  overlaps of sampled wavefunctions and densities);
* a two-particle product-grid construction of the post-selected joint state
  (its squared modulus, built in cache-sized row blocks of one real plane),
  marginalised numerically - checks the closed-form densities;
* the impulsive momentum kick realised the long way round: position-space
  Gaussian, multiply by exp(-i delta x), discrete Fourier transform back -
  checks that a linear potential rigidly displaces the momentum density;
* the trace of rho^2 from the grid-sampled kernel of a reduced state, also
  squared in row blocks of one real plane - checks the Gram algebra purity.

Every Simpson grid is held to one resolution policy,
:meth:`MomentumGrid.require_resolved`: each packet's tail mass outside the
grid and aliasing bound at its spacing, as the packet states them, both
within ``TAIL_BUDGET``.

Simpson on these analytic Gaussians converges far faster than its h^4 bound
because all derivatives vanish at the grid edges, which is what makes the
1e-10-ish tolerances cheap.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import (
    AliasingError,
    DARK_THRESHOLD,
    DarkPortError,
    GaussianPacket,
    GridError,
    GridSpanError,
    InterferometerParams,
    kick_sign,
)

__all__ = [
    "DEFAULT_SPAN",
    "DEFAULT_GRID_POINTS",
    "DEFAULT_JOINT_POINTS",
    "DEFAULT_KICK_POINTS",
    "TAIL_BUDGET",
    "MomentumGrid",
    "default_grid",
    "Distribution1D",
    "joint_marginal_oracle",
    "KickOracleResult",
    "momentum_kick_oracle",
    "kernel_purity",
]

DEFAULT_SPAN = 8.0          # half-width of default grids, in units of W
DEFAULT_GRID_POINTS = 2001  # 1D quadrature grid
DEFAULT_JOINT_POINTS = 513  # per axis of the two-particle product grid
DEFAULT_KICK_POINTS = 4096  # DFT size of the momentum-kick oracle
TAIL_BUDGET = 1e-10         # allowed tail mass outside a grid, and Simpson aliasing error inside it
_BLOCK_BYTES = 1 << 17      # row block of the product-grid oracles: 128 KiB stays in a core's L2 cache


def blocks(shape: tuple[int, int], cells: int) -> list[tuple[slice, slice]]:
    """Row-major blocks of at most ``cells`` cells tiling an (n, m) grid: whole rows, or slices of one if m > cells."""
    width = min(shape[1], cells) or 1
    height = cells // width
    return [np.s_[i:i + height, j:j + width] for i in range(0, shape[0], height) for j in range(0, shape[1], width)]


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform 1D momentum grid with an odd point count.

    Odd n enables composite Simpson weights; the ``points`` array is
    computed once per grid and is read-only, since every caller shares it.
    """

    p_min: float
    p_max: float
    n: int

    def __post_init__(self):
        width = float(self.p_max) - float(self.p_min)  # Python floats: an overflow is inf, not a RuntimeWarning
        if not (math.isfinite(width) and width > 0.0):  # a NaN or infinite bound makes the width NaN or infinite
            raise GridError(f"grid bounds must be ordered and a finite width apart, got {self.p_min!r}, {self.p_max!r}")
        if self.n < 3 or self.n % 2 == 0:
            raise GridError(f"composite Simpson needs an odd point count >= 3, got {self.n!r}")

    @property
    def spacing(self) -> float:
        return (self.p_max - self.p_min) / (self.n - 1)

    @cached_property
    def points(self) -> np.ndarray:
        points = np.linspace(self.p_min, self.p_max, self.n)
        points.flags.writeable = False
        return points

    def simpson_weights(self) -> np.ndarray:
        w = np.ones(self.n)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return w * (self.spacing / 3.0)

    def integrate(self, values) -> float:
        """Composite Simpson estimate of the integral of sampled values."""
        values = np.asarray(values)
        if values.shape != (self.n,):
            raise GridError(f"expected {self.n} samples, got shape {values.shape}")
        acc = self.simpson_weights() @ values
        return complex(acc) if np.iscomplexobj(values) else float(acc)

    def density_mean(self, density) -> float:
        """First moment of a sampled density, normalised by its own integral."""
        density = np.asarray(density, dtype=float)
        w = self.simpson_weights()
        total = w @ density
        if abs(total) <= DARK_THRESHOLD:
            raise DarkPortError("density integrates to ~0; mean undefined")
        return float((w @ (self.points * density)) / total)

    def require_resolved(self, packets) -> None:
        """Refuse a grid that truncates a packet (GridSpanError) or samples one too coarsely (AliasingError).

        Both the tail mass outside the grid and Simpson's aliasing bound must stay within ``TAIL_BUDGET``.
        """
        for packet in packets:
            tail = packet.tail_mass(self.p_min, self.p_max)
            if tail > TAIL_BUDGET:
                raise GridSpanError(
                    f"grid [{self.p_min:g}, {self.p_max:g}] truncates a branch centred at "
                    f"{packet.center:g} (tail mass {tail:.2e} > {TAIL_BUDGET:g})"
                )
        for packet in packets:
            bound = packet.alias_bound(self.spacing)
            if bound > TAIL_BUDGET:
                raise AliasingError(
                    f"spacing h = {self.spacing / packet.width:g} W, alias bound {bound:.1e} > {TAIL_BUDGET:g}"
                )


def default_grid(width: float = 1.0, n: int = DEFAULT_GRID_POINTS) -> MomentumGrid:
    """Symmetric grid spanning +-DEFAULT_SPAN*width."""
    return MomentumGrid(-DEFAULT_SPAN * width, DEFAULT_SPAN * width, n)


@dataclass(frozen=True, eq=False)
class Distribution1D:
    """Sampled probability density on a momentum grid."""

    grid: MomentumGrid
    values: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n,):
            raise GridError(f"expected {self.grid.n} samples, got shape {values.shape}")
        if not np.all(np.isfinite(values)):  # NaN passes every comparison below
            raise ValueError("density samples must be finite")
        peak = float(values.max())
        if float(values.min()) < -1e-12 * max(peak, 1.0):
            raise ValueError("density samples must be non-negative")
        object.__setattr__(self, "values", np.maximum(values, 0.0))
        if self.normalized:
            total = self.grid.integrate(self.values)
            if abs(total - 1.0) > 1e-10:
                raise ValueError(f"density flagged normalised but integrates to {total!r}")

    def mean(self) -> float:
        return self.grid.density_mean(self.values)


def joint_marginal_oracle(
    params: InterferometerParams, electron: int, grid: MomentumGrid | None = None
) -> Distribution1D:
    """One-electron marginal obtained from the full two-particle state.

    Builds  Psi(p1, p2) = Phi(p1) Phi(p2) + c Phi(p1 + d) Phi(p2 - d),  c = e^{i alpha} cos(phi),
    on the product grid, squares it, and integrates out the other electron
    with Simpson weights.  Entirely independent of the closed-form marginal
    it is used to check.

    Every packet is real and only c is complex, so Psi is built in place as two real parts,
    Re Psi = Phi(x)Phi + Re(c) K and Im Psi = Im(c) K with K = Phi_kick1 (x) Phi_kick2,
    squared and summed.  That is the complex arithmetic bit for bit: a complex times a
    real multiplies each part by that real, and the zero imaginary parts it adds are exact.

    |Psi|^2 is written into one n x n plane in cache-sized row blocks: the peak is that plane and
    two block buffers, allocated once a call, for K and for Re(c) K.  Each block's outer products
    Phi(x)Phi and K are formed by ``einsum("i,j->ij")``, faster than a broadcast multiply (18
    against 28 us a 31 x 513 block on an AVX-512 Xeon, numpy 2.4.6) and with the same bits: einsum
    adds each product to a zeroed output, every product is one rounding of two packet samples >= +0,
    so it is never -0.0, and +0 + x = x.
    Simpson contracts the whole plane in one product, since BLAS orders its sums by the matrix
    shape and a product per block would change the marginal's last bits.
    """
    kick_sign(electron)  # refuses an electron other than 1 or 2 before any plane is built
    if grid is None:
        grid = default_grid(params.width, n=DEFAULT_JOINT_POINTS)
    base = params.packet()
    kicked1 = params.kicked_packet(1)
    kicked2 = params.kicked_packet(2)
    # both axes carry a displaced branch, so all three centres must fit
    grid.require_resolved((base, kicked1, kicked2))

    p = grid.points
    free, k1, k2 = base(p), kicked1(p), kicked2(p)
    coeff = cmath.exp(1j * params.alpha) * math.cos(params.phi)
    n = grid.n
    cells = min(n * n, _BLOCK_BYTES // 8)
    density2d, block, scaled = np.empty((n, n)), np.empty(cells), np.empty(cells)
    for rows, cols in blocks((n, n), _BLOCK_BYTES // 8):
        re = density2d[rows, cols]
        im = block[: re.size].reshape(re.shape)
        t = scaled[: re.size].reshape(re.shape)
        np.einsum("i,j->ij", free[rows], free[cols], out=re)
        np.einsum("i,j->ij", k1[rows], k2[cols], out=im)
        np.multiply(im, coeff.real, out=t)
        re += t
        im *= coeff.imag
        re *= re
        im *= im
        re += im

    w = grid.simpson_weights()
    marginal = density2d @ w if electron == 1 else w @ density2d
    total = grid.integrate(marginal)
    if total <= DARK_THRESHOLD:
        raise DarkPortError("post-selected probability vanishes on the grid; marginal undefined")
    return Distribution1D(grid, marginal / total, normalized=True)


class KickOracleResult(NamedTuple):
    """Deviation metrics between the DFT-kicked density and the rigid shift."""

    max_density_deviation: float
    mean_shift: float        # numeric mean minus the original packet centre
    width_change: float      # numeric std minus the rigidly-shifted std, same rule
    position_norm: float     # Riemann integral of |psi|^2 dx
    momentum_norm: float     # Riemann integral of the transformed density dp


def momentum_kick_oracle(packet: GaussianPacket, delta: float, n_points: int = DEFAULT_KICK_POINTS) -> KickOracleResult:
    """Apply the kick as a position-space phase and transform back numerically.

    The position wavefunction conjugate to the packet is multiplied by
    exp(-i delta x) (hbar = 1) and carried to momentum space by a DFT on the
    conjugate grid pair, whose momentum band reaches 8 W + |delta| either side
    of the packet centre; the resulting density is compared against the
    analytically displaced packet ``packet.shifted(-delta)``.  Moment metrics
    use plain Riemann sums, which are spectrally accurate here because the
    densities vanish at the band edges.
    """
    if n_points < 16:
        raise GridError(f"kick oracle needs at least 16 points, got {n_points!r}")
    width, center = packet.width, packet.center
    halfspan = 8.0 * width + abs(delta)
    dp = 2.0 * halfspan / n_points
    p = (center - halfspan) + dp * np.arange(n_points)
    dx = 2.0 * math.pi / (n_points * dp)
    if abs(delta) * dx >= 0.5 * math.pi:
        raise AliasingError(
            f"phase advance per sample |delta|*dx = {abs(delta) * dx:.3f} rad; "
            "refine the grid (must stay well below pi)"
        )
    shifted = packet.shifted(-delta)
    lo, hi = p[0], p[0] + n_points * dp
    tail = shifted.tail_mass(lo, hi)
    if tail > TAIL_BUDGET:
        raise GridSpanError(
            f"kicked packet centred at {shifted.center:g} leaks {tail:.2e} past the band "
            f"[{lo:g}, {hi:g}]"
        )

    x = dx * (np.arange(n_points) - n_points // 2)
    psi = packet.position_amplitude(x)
    psi_kicked = psi * np.exp(-1j * delta * x)

    spectrum = np.fft.fft(psi_kicked * np.exp(-1j * lo * x))
    phases = np.exp(-1j * (p - lo) * x[0])
    transformed = (dx / math.sqrt(2.0 * math.pi)) * phases * spectrum
    dens = transformed.real**2 + transformed.imag**2
    dens_ref = shifted.density(p)

    def _mean_std(rho: np.ndarray) -> tuple[float, float]:
        total = rho.sum() * dp
        m1 = float((p * rho).sum() * dp / total)
        var = float((((p - m1) ** 2) * rho).sum() * dp / total)
        return m1, math.sqrt(var)

    mean_num, std_num = _mean_std(dens)
    _, std_ref = _mean_std(dens_ref)
    return KickOracleResult(
        max_density_deviation=float(np.max(np.abs(dens - dens_ref))),
        mean_shift=mean_num - center,
        width_change=std_num - std_ref,
        position_norm=float((np.abs(psi_kicked) ** 2).sum() * dx),
        momentum_norm=float(dens.sum() * dp),
    )


def kernel_purity(coeff: np.ndarray, basis, grid: MomentumGrid | None = None) -> float:
    """Purity of rho = sum_ij coeff_ij |b_i><b_j| from its grid-sampled kernel.

    Samples K(p, p') on the grid and weights it with sqrt-Simpson weights,
    S = W^1/2 K W^1/2; purity = tr(S^2) / tr(S)^2 = ||S||_F^2 / tr(S)^2 for
    Hermitian S.  Independent of the Gram-matrix route (no basis inner
    products are used).  S is built and weighted in row blocks, each squared
    into one real plane; both sums keep their order, so the bits hold.
    """
    if grid is None:
        widths = {b.width for b in basis}
        grid = default_grid(max(widths), n=DEFAULT_JOINT_POINTS)
    grid.require_resolved(basis)
    sampled = np.stack([b(grid.points) for b in basis])
    right = np.asarray(coeff) @ sampled
    root_w = np.sqrt(grid.simpson_weights())
    squares, diagonal = np.empty((grid.n, grid.n)), np.empty(grid.n, dtype=complex)
    for rows, cols in blocks((grid.n, grid.n), _BLOCK_BYTES // 16):
        block = sampled.T[rows] @ right[:, cols]
        block *= root_w[rows, None]
        block *= root_w[None, cols]
        on_diagonal = block.diagonal(rows.start - cols.start)  # empty in a slice of a row that misses p = p'
        diagonal[rows][: on_diagonal.size] = on_diagonal
        np.square(block.real, out=squares[rows, cols])
        squares[rows, cols] += np.square(block.imag)
    total = float(np.sum(diagonal).real)
    if total <= DARK_THRESHOLD:
        raise DarkPortError("kernel trace vanishes; purity undefined")
    return float(np.sum(squares)) / (total * total)
