"""Oracle-equivalence suites: every closed form against an independent route.

Each check returns a :class:`CheckResult` with the observed worst deviation
and its tolerance; the CLI ``verify`` mode prints them and the acceptance
tests assert them.  Random draws come from :func:`pcg64_doubles`, numpy's seeded
default stream computed without ``numpy.random``, so outputs are byte-stable.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import analytic, numeric
from .core import BALANCED_R, InterferometerParams

__all__ = ["CheckResult", "HEADLINE_PARAMS", "run_all"]

#: Working point of the reference figures: balanced splitter, delta = 0.3 W,
#: phi = 3 pi / 4, alpha = 0.
HEADLINE_PARAMS = InterferometerParams(r=BALANCED_R, phi=0.75 * math.pi, alpha=0.0, delta=0.3, width=1.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_deviation: float
    tolerance: float
    passed: bool
    detail: str = ""

    @staticmethod
    def from_deviation(name: str, deviation: float, tolerance: float, detail: str = "") -> "CheckResult":
        return CheckResult(name, float(deviation), float(tolerance), bool(deviation <= tolerance), detail)

    def describe(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        line = f"{verdict} {self.name}: max deviation {self.max_deviation:.3e} (tolerance {self.tolerance:.1e})"
        if self.detail:
            line += f" [{self.detail}]"
        return line


_MASK32, _MASK64, _MASK128 = ((1 << bits) - 1 for bits in (32, 64, 128))
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """SeedSequence's hash: xor in a running 32-bit constant, advance it by ``mult``, multiply, fold."""
    def hashmix(value: int) -> int:
        nonlocal const
        const, value = const * mult & _MASK32, value ^ const
        value = value * const & _MASK32
        return value ^ value >> 16
    return hashmix


def pcg64_doubles(seed: int) -> Iterator[float]:
    """The doubles of ``numpy.random.default_rng(seed).random()``, bit for bit, for any int seed >= 0: numpy's
    SeedSequence hashes the seed's 32-bit words, least significant first, into a pool of four and expands it
    into PCG64's 128-bit state and increment, and each double is the top 53 bits of one XSL-RR 128/64 output
    (O'Neill, "PCG", HMC-CS-2014-0905)."""
    entropy = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    # the pool's four hashed words mix into one another, then each word beyond the pool into all four
    cells = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)] + entropy[4:]
    for src, dst in [(src, dst) for src in range(len(cells)) for dst in range(4) if src != dst]:
        mixed = (0xCA01F9DD * cells[dst] - 0x4973F715 * hashmix(cells[src])) & _MASK32
        cells[dst] = mixed ^ mixed >> 16
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
    words = [hashmix(cells[i % 4]) for i in range(8)]  # generate_state(4, uint64), each uint64 low word first
    state, seq = (words[i + 1] << 96 | words[i] << 64 | words[i + 3] << 32 | words[i + 2] for i in (0, 4))
    inc = (seq << 1 | 1) & _MASK128
    state = ((inc + state) * _PCG_MULT + inc) & _MASK128  # a step from 0, add the seeded state, a step
    while True:
        state = (state * _PCG_MULT + inc) & _MASK128
        word, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        yield (((word >> rot | word << 64 - rot) & _MASK64) >> 11) * 2.0**-53


def _draw_params(stream: Iterator[float], draws: int, delta_max: float) -> np.ndarray:
    """Uniform draws of (r, phi, alpha, delta) in [0, 1) x [0, 2 pi)^2 x [0, delta_max), one row each."""
    uniforms = np.reshape([next(stream) for _ in range(4 * draws)], (draws, 4))
    return np.array([1.0, 2.0 * math.pi, 2.0 * math.pi, delta_max]) * uniforms


def check_marginal_oracle(draws: int, seed: int) -> CheckResult:
    """Two-particle marginalisation vs the closed-form densities, every draw on one default joint grid.

    Draws exclude dark and near-dark selections (norm < 1e-3), where the
    normalised comparison is ill-conditioned rather than wrong.
    """
    stream = pcg64_doubles(seed)
    grid = numeric.default_grid(1.0, n=numeric.DEFAULT_JOINT_POINTS)
    deviations = []
    for _ in range(draws):
        while True:
            params = InterferometerParams(*_draw_params(stream, 1, delta_max=3.0)[0].tolist(), width=1.0)
            if analytic.postselect_norm(params) >= 1e-3:
                break
        electron = 1 if next(stream) < 0.5 else 2
        oracle = numeric.joint_marginal_oracle(params, electron, grid)
        closed = analytic.marginal_density(params, electron, grid.points, normalized=True)
        deviations.append(np.max(np.abs(oracle.values - closed)))
    # np.max, not max: Python's max(0.0, nan) is 0.0, and a NaN deviation must fail the check
    return CheckResult.from_deviation("marginal_oracle_vs_closed_form", np.max(deviations), 1e-9, f"{draws} draws")


def check_momentum_kick(n_points: int = numeric.DEFAULT_KICK_POINTS) -> list[CheckResult]:
    """DFT momentum-kick oracle against the rigid closed-form shift."""
    packet = HEADLINE_PARAMS.packet()
    kicked = numeric.momentum_kick_oracle(packet, 0.3, n_points)
    identity = numeric.momentum_kick_oracle(packet, 0.0, n_points)
    parseval = np.max(np.abs([kicked.momentum_norm - kicked.position_norm,
                              identity.momentum_norm - identity.position_norm]))
    return [
        CheckResult.from_deviation(
            "kick_oracle_density",
            np.max(np.abs([kicked.max_density_deviation, kicked.mean_shift + 0.3, kicked.width_change])),
            1e-8,
            f"mean shift {kicked.mean_shift:+.10f} W",
        ),
        CheckResult.from_deviation(
            "kick_oracle_identity",
            np.max(np.abs([identity.max_density_deviation, identity.mean_shift, identity.width_change])),
            1e-12,
        ),
        CheckResult.from_deviation("kick_oracle_parseval", parseval, 1e-12),
    ]


def check_port_sums(draws: int, seed: int) -> list[CheckResult]:
    """Unitarity, the unconditioned momentum balance, and portwise negation, over all draws at once."""
    r, phi, alpha, delta = _draw_params(pcg64_doubles(seed), draws, delta_max=4.0).T
    ports = analytic.port_states(r, phi, alpha, delta)
    kick = delta[:, None]
    flux1, flux2 = ports.flux(-kick), ports.flux(kick)
    rt = r * np.sqrt(1.0 - r * r)
    worst_unitarity = np.max(np.abs(ports.norm().sum(axis=-1) - 1.0))
    worst_balance = np.max(np.abs(flux1.sum(axis=-1) + 2.0 * rt * rt * delta))  # closed form -2 t^2 r^2 delta
    worst_negation = np.max(np.abs(ports.mean(-kick) + ports.mean(kick)))  # dark ports: both exact zeros
    worst_total = np.max(np.abs((flux1 + flux2).sum(axis=-1)))
    tag = f"{draws} draws"
    return [
        CheckResult.from_deviation("port_probability_sum", worst_unitarity, 1e-12, tag),
        CheckResult.from_deviation("momentum_balance_vs_closed_form", worst_balance, 1e-10, tag),
        CheckResult.from_deviation("electron2_negation", worst_negation, 1e-12, tag),
        CheckResult.from_deviation("two_electron_total_momentum", worst_total, 1e-12, tag),
    ]


def check_mean_conventions() -> CheckResult:
    """Quadrature mean of the marginal vs the closed form, at the headline point, on the default 1D grid.

    The detail line reports both overlap conventions and their difference;
    the quadrature tracks the squared-overlap (branch) form.
    """
    params = HEADLINE_PARAMS
    grid = numeric.default_grid(params.width)
    grid.require_resolved((params.packet(), params.kicked_packet(1)))
    density = analytic.marginal_density(params, 1, grid.points, normalized=True)
    quad_mean = grid.density_mean(density)
    closed = analytic.mean_postselected(params, 1)
    single = analytic.mean_postselected_packet_overlap(params)
    detail = (
        f"branch-overlap {closed:+.6f} W, single-overlap {single:+.6f} W, "
        f"difference {single - closed:+.6f} W"
    )
    return CheckResult.from_deviation("postselected_mean_quadrature", abs(quad_mean - closed), 1e-9, detail)


def check_purity_routes() -> CheckResult:
    """Gram-algebra purity vs the trace of rho^2 from the kernel sampled on the default joint grid."""
    branches, basis = analytic.reduced_state(HEADLINE_PARAMS, 1)
    gram_route = float(branches.purity())
    grid = numeric.default_grid(HEADLINE_PARAMS.width, n=numeric.DEFAULT_JOINT_POINTS)
    kernel_route = numeric.kernel_purity(branches.coefficients(), basis, grid)
    return CheckResult.from_deviation(
        "reduced_purity_two_routes",
        abs(gram_route - kernel_route),
        1e-6,
        f"gram {gram_route:.8f}, kernel {kernel_route:.8f}",
    )


def run_all(seed: int) -> list[CheckResult]:
    """The full verification battery, in a fixed order, at fixed resolutions: the default grids of
    :mod:`.numeric`, 100 marginal draws and 1000 port draws."""
    results = [check_marginal_oracle(100, seed)]
    results.extend(check_momentum_kick())
    results.extend(check_port_sums(1000, seed + 1))
    results.append(check_mean_conventions())
    results.append(check_purity_routes())
    return results
