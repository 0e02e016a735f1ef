"""Closed-form engine for the post-selected two-electron interferometer.

Post-selecting electron 1 at port D and electron 2 at port C leaves the
joint momentum state

    |Psi_ps>  propto  |Phi>|Phi>  +  e^{i alpha} cos(phi) |Phi^->|Phi^+> ,

where |Phi^-+> are the packets displaced by -+delta.  Everything in this
module is an exact function of (r, phi, alpha, delta, W): the one-electron
marginal densities and their direct/interference split, post-selected mean
momenta (in two overlap conventions), the branch amplitudes of all four
exit-port pairs, per-port probabilities and means, the unconditioned
momentum balance, and the reduced one-electron states expressed in the
non-orthogonal basis {unkicked, kicked}.  Each of these is read off one
array-native engine, :class:`TwoBranchState`: the free amplitude, the
kicked amplitude and the overlap of the two branches.

The single-packet overlap is I = exp(-delta^2 / 4 W^2)
(:meth:`GaussianPacket.overlap`); the two-electron branch overlap is I^2.
The post-selected mean of electron 1,

    <p1> = -delta cos(phi) (cos(phi) + cos(alpha) I^2) / N ,
    N    = 1 + cos^2(phi) + 2 cos(phi) cos(alpha) I^2 ,

is positive (momentum toward the other electron, i.e. effective attraction)
exactly where cos(phi) (cos(phi) + cos(alpha) I^2) < 0: where cos(phi) lies
strictly between 0 and -cos(alpha) I^2, below 0 when cos(alpha) > 0 and
above 0 when cos(alpha) < 0.
"""

from __future__ import annotations

import cmath
from typing import NamedTuple

import numpy as np

from .core import (
    DARK_THRESHOLD,
    DarkPortError,
    GaussianPacket,
    InterferometerParams,
    PortPair,
    kick_sign,
)

__all__ = [
    "TwoBranchState",
    "postselect_norm",
    "term_decomposition",
    "marginal_density",
    "mean_postselected",
    "mean_postselected_packet_overlap",
    "MeanSurface",
    "mean_surface",
    "port_states",
    "port_amplitudes",
    "port_probabilities",
    "port_mean_momenta",
    "port_marginal_density",
    "EhrenfestBalance",
    "ehrenfest_check",
    "reduced_state",
]


#: The unit-width packet: its overlap at a kick in units of W is the one route to I.
_UNIT = GaussianPacket(1.0)


class TwoBranchState(NamedTuple):
    """The two-branch state  a |Phi>|Phi> + b |Phi^->|Phi^+>  behind every conditional quantity.

    ``free`` (a) and ``kicked`` (b) are complex amplitudes; ``overlap`` is
    the packet overlap I, which weights the one-electron cross term, and
    ``branch_overlap`` the overlap of the two joint branches (I^2, or I in
    the single-overlap convention), which enters the norm and the flux.
    Fields may be scalars or broadcastable arrays.  Every quantity is
    written once, in real arithmetic, so a state evaluated alone and the
    same state inside an array give bit-identical results.
    """

    free: complex | np.ndarray
    kicked: complex | np.ndarray
    overlap: float | np.ndarray
    branch_overlap: float | np.ndarray

    def gram(self):
        """Gram coefficients (|a|^2, |b|^2, Re(a* b))."""
        ar, ai, br, bi = self.free.real, self.free.imag, self.kicked.real, self.kicked.imag
        return ar * ar + ai * ai, br * br + bi * bi, ar * br + ai * bi

    def norm(self):
        """Probability of the state: |a|^2 + |b|^2 + 2 Re(a* b) times the branch overlap."""
        aa, bb, ab = self.gram()
        return (aa + bb) + 2.0 * ab * self.branch_overlap

    def flux(self, kick):
        """P <p> of an electron whose kicked packet sits at ``kick``; vanishes with P at dark states."""
        ar, ai, br, bi = self.free.real, self.free.imag, self.kicked.real, self.kicked.imag
        g = self.branch_overlap
        return kick * br * (br + ar * g) + kick * bi * (bi + ai * g)

    def mean(self, kick):
        """Conditional mean momentum, flux / norm; exact zeros where the norm is dark."""
        norm = self.norm()
        lit = norm > DARK_THRESHOLD
        return np.where(lit, self.flux(kick) / np.where(lit, norm, 1.0), 0.0)

    def terms(self, f0, f1):
        """Direct and interference terms of the unnormalised density of an electron with packets f0, f1."""
        aa, bb, ab = self.gram()
        return aa * (f0 * f0) + bb * (f1 * f1), 2.0 * self.overlap * ab * f0 * f1

    def density(self, f0, f1):
        """One electron's unnormalised density: the sum of :meth:`terms`."""
        direct, cross = self.terms(f0, f1)
        return direct + cross

    def purity(self):
        """Purity of either electron's reduced state: 1 - 2 |a|^2 |b|^2 (1 - I^2)^2 / N^2, at most 1 by construction."""
        aa, bb, _ = self.gram()
        norm = self.norm()
        loss = 1.0 - self.overlap * self.overlap
        return 1.0 - 2.0 * aa * bb * (loss * loss) / (norm * norm)

    def coefficients(self) -> np.ndarray:
        """Reduced one-electron coefficients [[|a|^2, I a b*], [I a* b, |b|^2]] on the last two axes."""
        aa, bb, ab = self.gram()
        ab_imag = self.free.real * self.kicked.imag - self.free.imag * self.kicked.real
        off = self.overlap * (ab - 1j * ab_imag)
        return _matrix(aa + 0j, off, np.conj(off), bb + 0j)


def _matrix(m00, m01, m10, m11) -> np.ndarray:
    """2x2 matrices stacked on the last two axes."""
    parts = np.broadcast_arrays(m00, m01, m10, m11)
    return np.stack(parts, -1).reshape(parts[0].shape + (2, 2))


def _dc_states(delta_over_width, phi, alpha: float) -> tuple[TwoBranchState, TwoBranchState]:
    """The DC state scaled to a = 1, on floats or arrays: (the I^2 state, b = cos(phi) e^{i alpha}; the single-overlap
    state, b = cos(phi) with branch overlap I).  A point's I and cos(phi) become Python floats, faster than numpy
    scalars and rounding as an array does, so a point's closed forms and its mean_surface cell agree bit for bit."""
    i1, c = (x if x.ndim else float(x) for x in (_UNIT.overlap(delta_over_width), np.cos(phi)))
    return TwoBranchState(1.0, c * cmath.exp(1j * alpha), i1, i1 * i1), TwoBranchState(1.0, c, i1, i1)


def _postselected(params: InterferometerParams) -> TwoBranchState:
    """The post-selected (DC) state scaled to a = 1: b = cos(phi) e^{i alpha}."""
    return _dc_states(params.delta_over_width, params.phi, params.alpha)[0]


def _lit_norm(state: TwoBranchState, message: str) -> float:
    """The state's norm; DarkPortError(message) where it is dark."""
    norm = float(state.norm())
    if norm <= DARK_THRESHOLD:
        raise DarkPortError(message.format(norm=norm))
    return norm


def _density(state: TwoBranchState, params: InterferometerParams, electron: int, p, normalized: bool, dark: str):
    """One electron's density in ``state``; normalising a dark state raises DarkPortError(dark)."""
    dens = state.density(params.packet()(p), params.kicked_packet(electron)(p))
    return dens / _lit_norm(state, dark) if normalized else dens


def postselect_norm(params: InterferometerParams) -> float:
    """Quadrature norm of the unnormalised post-selected marginal.

    N = 1 + cos^2(phi) + 2 cos(phi) cos(alpha) I^2.  Vanishes only for the
    dark combinations (delta = 0 with destructive phases).
    """
    return float(_postselected(params).norm())


def term_decomposition(params: InterferometerParams, p):
    """Split electron 1's unnormalised marginal into its direct and interference terms.

    Returns (T_a, T_b): T_a >= 0 collects the two branch densities, T_b is
    the cross term, negative wherever cos(phi) cos(alpha) < 0.  Their sum is
    bit-identical to ``marginal_density(params, 1, p, normalized=False)``.
    """
    return _postselected(params).terms(params.packet()(p), params.kicked_packet(1)(p))


def marginal_density(params: InterferometerParams, electron: int, p, normalized: bool = False):
    """One-electron momentum density after post-selection (electron 1 at D, 2 at C).

    The electron-2 density is the mirror image of electron 1's.  With
    ``normalized`` the result integrates to one; a dark post-selection
    raises :class:`DarkPortError` instead of dividing by ~0.
    """
    dark = "post-selected probability vanishes (norm {norm:.3e}); density undefined"
    return _density(_postselected(params), params, electron, p, normalized, dark)


def mean_postselected(params: InterferometerParams, electron: int = 1) -> float:
    """Post-selected mean momentum; positive for electron 1 signals effective attraction.

    Uses the branch overlap I^2, the form consistent with integrating the
    marginal density.  The electron-2 value is the exact negation.
    """
    state = _postselected(params)
    _lit_norm(state, "post-selected probability vanishes (norm {norm:.3e}); mean undefined")
    return float(state.mean(kick_sign(electron) * params.delta))


def mean_postselected_packet_overlap(params: InterferometerParams) -> float:
    """Electron-1 mean with the packet overlap I entering once instead of squared.

    Alternative convention for the same closed form, stated for e^{i alpha} = 1
    (alpha is ignored).  It shares the sign structure of
    :func:`mean_postselected` but disagrees quantitatively; the quadrature of
    the marginal density singles out the squared-overlap form, so both are
    exposed and reported side by side rather than silently reconciled.
    """
    state = _dc_states(params.delta_over_width, params.phi, params.alpha)[1]
    _lit_norm(state, "post-selected probability vanishes (norm {norm:.3e}); mean undefined")
    return float(state.mean(-params.delta))


class MeanSurface(NamedTuple):
    """Vectorised post-selected means over a parameter grid, in units of W."""

    mean: np.ndarray                 # branch-overlap (I^2) convention
    mean_single_overlap: np.ndarray  # packet-overlap (I) convention, alpha = 0 form
    norm: np.ndarray                 # post-selection norm N of the I^2 convention


def mean_surface(delta_over_width, phi, alpha: float = 0.0) -> MeanSurface:
    """Broadcast ``mean_postselected`` (both conventions) over parameter arrays.

    Grid points with a vanishing post-selection norm (the removable dark
    points, e.g. delta = 0 with phi = pi at alpha = 0, where the directional
    limit of the mean is 0) are emitted as exact zeros; they remain
    identifiable through the returned ``norm`` column.
    """
    d = np.asarray(delta_over_width, dtype=float)
    state, single = _dc_states(d, np.asarray(phi, dtype=float), alpha)
    return MeanSurface(state.mean(-d), single.mean(-d), state.norm())


# ---------------------------------------------------------------------------
# Exit-port algebra
# ---------------------------------------------------------------------------

def port_states(r, phi, alpha, delta, width=1.0) -> TwoBranchState:
    """Two-branch states of the four exit-port pairs, broadcast over parameter arrays.

    The last axis runs over the exit pairs in :class:`PortPair` order (CC,
    CD, DC, DD).  A branch's exit amplitudes are the 2x2 matrix S P S^T,
    indexed by the exits of electrons 1 and 2: S = [[t, i r], [i r, t]]
    takes the paths (A, B) to the exits (C, D), and P holds the branch's
    amplitude for each pair of paths, with the path phase common to all
    ports divided out so that the double-transmission amplitude comes out
    real.  Electron 1 enters the side that transmits into path A; electron 2
    the side that reflects into A.
    """
    r, phi, alpha, delta = np.broadcast_arrays(r, phi, alpha, delta)
    t = np.sqrt(1.0 - r * r)
    split = _matrix(t, 1j * r, 1j * r, t)
    free = _matrix(0.0, t * t, -r * r, 0.0)  # paths (A, B) and (B, A)
    # paths (A, A) and (B, B): i r t e^{i (alpha +- phi)}, built from real parts so that arrays round like scalars
    rt, plus, minus = r * t, alpha + phi, alpha - phi
    kicked = _matrix(rt * (1j * np.cos(plus) - np.sin(plus)), 0.0, 0.0, rt * (1j * np.cos(minus) - np.sin(minus)))
    shape = r.shape + (4,)
    i1 = np.broadcast_to(_UNIT.overlap(delta / width)[..., None], shape)
    exits = [(split @ paths @ np.swapaxes(split, -1, -2)).reshape(shape) for paths in (free, kicked)]
    return TwoBranchState(*exits, i1, i1 * i1)


def _ports(params: InterferometerParams) -> TwoBranchState:
    return port_states(params.r, params.phi, params.alpha, params.delta, params.width)


def port_amplitudes(params: InterferometerParams) -> dict[PortPair, TwoBranchState]:
    """The two-branch state at every exit-port pair (see :func:`port_states`)."""
    return dict(zip(PortPair, (TwoBranchState(*fields) for fields in zip(*_ports(params)))))


def port_probabilities(params: InterferometerParams) -> dict[PortPair, float]:
    """Detection probability of each exit-port pair; the four values sum to one.

    Each is the Gram norm |a|^2 + |b|^2 + 2 Re(a* b) I^2 of a two-branch
    state whose branches overlap by I per electron.
    """
    return dict(zip(PortPair, _ports(params).norm().tolist()))


def port_mean_momenta(params: InterferometerParams, electron: int) -> dict[PortPair, float | None]:
    """Conditional mean momentum at each exit-port pair; ``None`` marks dark ports.

    The DC entry reproduces :func:`mean_postselected`; the electron-2 map is
    the portwise negation of electron 1's.
    """
    states = _ports(params)
    probs, means = states.norm().tolist(), states.mean(kick_sign(electron) * params.delta).tolist()
    return {port: None if prob <= DARK_THRESHOLD else mean for port, prob, mean in zip(PortPair, probs, means)}


def port_marginal_density(params: InterferometerParams, port: PortPair, electron: int, p):
    """Momentum density of one electron conditioned on an arbitrary exit-port pair.

    Conditioning on DC reproduces the normalised :func:`marginal_density` to
    rounding (about 1e-15 relative, 1e-13 where the density nearly cancels);
    conditioning on CC at a balanced splitter isolates the purely kicked
    branch (the free amplitude vanishes there), giving the displaced packet
    density.  A dark port raises :class:`DarkPortError` naming its probability.
    """
    state = port_amplitudes(params)[port]
    dark = f"post-selected probability vanishes (P({port.name}) = {{norm:.3e}}); density undefined"
    return _density(state, params, electron, p, normalized=True, dark=dark)


class EhrenfestBalance(NamedTuple):
    """Unconditioned mean electron-1 momentum, closed form vs port-weighted sum."""

    closed_form: float
    weighted_sum: float


def ehrenfest_check(params: InterferometerParams) -> EhrenfestBalance:
    """Electron 1's mean momentum without post-selection, computed two ways.

    closed_form is -2 t^2 r^2 delta: the kick of the interacting branch times
    the co-propagation probability.  weighted_sum accumulates P_jk <p1>_jk as
    per-port fluxes, so dark ports contribute their (vanishing) flux rather
    than 0 * undefined.  Electron 2's balance is the exact negation.
    """
    rt = params.r * params.t
    closed = -2.0 * rt * rt * params.delta
    return EhrenfestBalance(closed, float(_ports(params).flux(-params.delta).sum()))


# ---------------------------------------------------------------------------
# Reduced one-electron states
# ---------------------------------------------------------------------------

def reduced_state(params: InterferometerParams, electron: int) -> tuple[TwoBranchState, tuple[GaussianPacket, ...]]:
    """Partial trace of the post-selected joint state over the other electron, as (branches, basis).

    In the non-orthogonal basis of the unkicked and kicked packets, the
    reduced state is rho = sum_ij M_ij |b_i><b_j| with M = ``branches.coefficients()``;
    the basis Gram matrix is [[1, I], [I, 1]], tr(M G) is ``branches.norm()``,
    and ``branches.purity()`` is its exact purity.
    """
    branches = _postselected(params)
    _lit_norm(branches, "post-selected probability vanishes; reduced state undefined")
    return branches, (params.packet(), params.kicked_packet(electron))
