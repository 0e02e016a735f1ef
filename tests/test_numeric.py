import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qif_mzi import (
    AliasingError,
    BALANCED_R,
    DarkPortError,
    GaussianPacket,
    GridError,
    GridSpanError,
    InterferometerParams,
    analytic,
    numeric,
)
from qif_mzi.numeric import (
    Distribution1D,
    MomentumGrid,
    default_grid,
    joint_marginal_oracle,
    kernel_purity,
    momentum_kick_oracle,
)

HEADLINE = InterferometerParams(BALANCED_R, 0.75 * math.pi, 0.0, 0.3, 1.0)


# ---------------------------------------------------------------------------
# grids and quadrature
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(GridError):
        MomentumGrid(-1.0, 1.0, 4)  # even
    with pytest.raises(GridError):
        MomentumGrid(-1.0, 1.0, 1)  # too few
    with pytest.raises(GridError):
        MomentumGrid(1.0, -1.0, 11)  # unordered
    grid = MomentumGrid(-8.0, 8.0, 2001)
    assert grid.spacing == pytest.approx(16.0 / 2000.0)
    assert grid.points[0] == -8.0 and grid.points[-1] == 8.0


def test_cached_grid_points_are_read_only():
    grid = default_grid()
    with pytest.raises(ValueError):
        grid.points[0] = 123.0
    fresh = MomentumGrid(-8.0, 8.0, 2001)
    assert fresh.points[0] == -8.0
    assert np.array_equal(fresh.points, np.linspace(-8.0, 8.0, 2001))


def test_simpson_weights_structure():
    grid = MomentumGrid(0.0, 4.0, 5)
    w = grid.simpson_weights()
    h = 1.0
    assert np.allclose(w, np.array([1.0, 4.0, 2.0, 4.0, 1.0]) * h / 3.0)
    assert grid.integrate(np.ones(5)) == pytest.approx(4.0, rel=1e-14)


def test_simpson_norm_of_unit_packet():
    grid = default_grid()
    samples = GaussianPacket(1.0)(grid.points)
    assert grid.integrate(np.abs(samples) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_simpson_mean_of_displaced_packet():
    grid = default_grid()
    packet = GaussianPacket(1.0).shifted(-0.3)
    assert grid.density_mean(packet.density(grid.points)) == pytest.approx(-0.3, abs=1e-10)
    assert grid.density_mean(np.abs(packet(grid.points)) ** 2) == pytest.approx(-0.3, abs=1e-10)


def test_sampled_overlap_matches_closed_form():
    grid = default_grid()
    base = GaussianPacket(1.0)(grid.points)
    shifted = GaussianPacket(1.0).shifted(-0.3)(grid.points)
    assert grid.integrate(np.conj(base) * shifted) == pytest.approx(0.9777512371933363, abs=1e-10)


def test_simpson_convergence_is_superpolynomial_until_floor():
    # Gaussian moments: each halving of the spacing should gain at least two
    # orders of magnitude until round-off, far better than the h^4 guarantee.
    packet = GaussianPacket(1.0)
    errors = []
    for n in (17, 33, 65, 129):
        grid = MomentumGrid(-8.0, 8.0, n)
        errors.append(abs(grid.integrate(packet.density(grid.points)) - 1.0))
    assert errors[0] < 0.1
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= max(coarse / 100.0, 1e-12)
    assert errors[-1] <= 1e-12


def test_distribution_validation():
    grid = MomentumGrid(-1.0, 1.0, 5)
    with pytest.raises(ValueError):
        Distribution1D(grid, np.array([1.0, -0.5, 1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        Distribution1D(grid, np.ones(5), normalized=True)  # integrates to 2
    dist = Distribution1D(grid, np.ones(5) * 0.5, normalized=True)
    assert dist.mean() == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(GridError, match="expected 5 samples, got shape"):
        Distribution1D(grid, np.ones(4))
    with pytest.raises(GridError, match="expected 5 samples, got shape"):
        grid.integrate(np.ones(4))
    with pytest.raises(DarkPortError, match="mean undefined"):
        grid.density_mean(np.zeros(5))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("normalized", [False, True])
def test_distribution_refuses_non_finite_samples(bad, normalized):
    # every min/max and |total - 1| comparison is false for NaN, so only an explicit check refuses it
    grid = MomentumGrid(-1.0, 1.0, 5)
    values = np.ones(5) * 0.5
    values[2] = bad
    with pytest.raises(ValueError, match="finite"):
        Distribution1D(grid, values, normalized=normalized)


# ---------------------------------------------------------------------------
# two-particle marginal oracle
# ---------------------------------------------------------------------------

def test_oracle_reduces_to_bare_packet_at_phi_half_pi():
    params = InterferometerParams(BALANCED_R, math.pi / 2, 0.0, 0.7, 1.0)
    oracle = joint_marginal_oracle(params, 1)
    expected = params.packet().density(oracle.grid.points)
    assert np.max(np.abs(oracle.values - expected)) < 1e-12


def test_oracle_matches_closed_form_at_headline():
    for electron in (1, 2):
        oracle = joint_marginal_oracle(HEADLINE, electron)
        closed = analytic.marginal_density(HEADLINE, electron, oracle.grid.points, normalized=True)
        assert np.max(np.abs(oracle.values - closed)) < 1e-10


def test_oracle_mean_reproduces_anomalous_value():
    oracle = joint_marginal_oracle(HEADLINE, 1)
    assert oracle.mean() == pytest.approx(0.35670404722052823, abs=1e-6)
    assert oracle.mean() > 0.0


@settings(max_examples=15, deadline=None)
@given(
    st.floats(0.0, 3.0),
    st.floats(0.0, 2.0 * math.pi),
    st.floats(0.0, 2.0 * math.pi),
    st.integers(1, 2),
)
def test_oracle_matches_closed_form_random_draws(delta, phi, alpha, electron):
    params = InterferometerParams(BALANCED_R, phi, alpha, delta, 1.0)
    if analytic.postselect_norm(params) < 1e-3:
        return
    grid = default_grid(n=numeric.DEFAULT_JOINT_POINTS)
    oracle = joint_marginal_oracle(params, electron, grid)
    closed = analytic.marginal_density(params, electron, grid.points, normalized=True)
    assert np.max(np.abs(oracle.values - closed)) < 1e-9


def _complex_oracle_marginal(params, electron, grid):
    """The product-grid marginal from the complex field, the construction the real planes must reproduce."""
    p = grid.points
    base = params.packet()
    coeff = cmath.exp(1j * params.alpha) * math.cos(params.phi)
    field = np.outer(base(p), base(p)) + coeff * np.outer(params.kicked_packet(1)(p), params.kicked_packet(2)(p))
    density2d = field.real**2 + field.imag**2
    w = grid.simpson_weights()
    marginal = density2d @ w if electron == 1 else w @ density2d
    return marginal / grid.integrate(marginal)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.0, 1.0),
    st.floats(-2.0 * math.pi, 2.0 * math.pi),
    st.floats(-2.0 * math.pi, 2.0 * math.pi).filter(lambda a: a != 0.0),
    st.floats(0.0, 3.0),
    st.integers(1, 2),
    # 128 KiB row blocks: all 97 rows fit in one; 513 = 16 * 31 + 17 and 1025 = 68 * 15 + 5 end in a short one
    st.sampled_from((97, numeric.DEFAULT_JOINT_POINTS, 1025)),
)
def test_oracle_real_planes_match_complex_field_bit_for_bit(r, phi, alpha, delta, electron, n):
    params = InterferometerParams(r, phi, alpha, delta, 1.0)
    if analytic.postselect_norm(params) < 1e-3:  # near-dark, skipped as the verify suite does
        return
    grid = default_grid(n=n)
    oracle = joint_marginal_oracle(params, electron, grid)
    assert np.array_equal(oracle.values, _complex_oracle_marginal(params, electron, grid))


@settings(max_examples=20, deadline=None)
@given(
    st.floats(0.0, 1.0),
    st.floats(-2.0 * math.pi, 2.0 * math.pi),
    st.floats(-2.0 * math.pi, 2.0 * math.pi),
    st.floats(0.0, 3.0),
    st.integers(1, 2),
)
def test_oracle_bits_hold_where_packet_samples_underflow_to_zero(r, phi, alpha, delta, electron):
    # past |p| = 38.6 W exp(-p^2 / 2) is 0.0, so the products hold rows and columns of exact zeros
    params, grid = InterferometerParams(r, phi, alpha, delta, 1.0), MomentumGrid(-40.0, 40.0, 1025)
    if analytic.postselect_norm(params) < 1e-3:
        return
    assert not params.packet()(grid.points).all()
    oracle = joint_marginal_oracle(params, electron, grid)
    assert np.array_equal(oracle.values, _complex_oracle_marginal(params, electron, grid))


def test_oracle_peak_allocation_is_one_real_plane_and_row_blocks(traced_peak):
    params = InterferometerParams(0.6, 0.75 * math.pi, 0.4, 0.3, 1.0)
    grid = default_grid(n=numeric.DEFAULT_JOINT_POINTS)
    # the squared density plane plus two 128 KiB row blocks; whole-plane temporaries would add at least one more
    _, peak = traced_peak(lambda: joint_marginal_oracle(params, 1, grid), warm=True)
    assert peak <= 1.25 * 8 * grid.n**2  # n x n float64 planes


def test_both_oracles_hold_one_real_plane_at_the_joint_grid_bound(traced_peak):
    # one plane of about 34 MB per oracle call at n = 2049, the default joint grid at a quarter of its spacing
    n = 2049
    params, grid = InterferometerParams(0.6, 1.1, 0.7, 0.8, 1.0), default_grid(n=n)
    branches, basis = analytic.reduced_state(params, 1)
    _, oracle = traced_peak(lambda: joint_marginal_oracle(params, 1, grid), warm=True)
    _, purity = traced_peak(lambda: kernel_purity(branches.coefficients(), basis, grid), warm=True)
    assert max(oracle, purity) <= 1.25 * 8 * n**2


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 50), st.integers(0, 50), st.integers(1, 64))
def test_blocks_tile_the_grid_once_in_row_major_order(n, m, cells):
    # the one block helper of the oracles, the sweep's evaluation and the table writer
    order = np.arange(n * m).reshape(n, m)
    pieces = [order[block] for block in numeric.blocks((n, m), cells)]
    assert all(0 < piece.size <= cells for piece in pieces)
    assert np.array_equal(np.concatenate([piece.ravel() for piece in pieces] + [order.ravel()[:0]]), order.ravel())
    if m <= cells:
        assert all(piece.shape[1] == m for piece in pieces)


def test_oracles_are_unchanged_by_blocks_that_slice_a_row(monkeypatch):
    # a row of more than _BLOCK_BYTES (n > 16,384 for the marginal, 8,192 for the purity) is cut into slices; the
    # same cut at n = 97 must give the bits of whole-row blocks, the kernel's diagonal included
    params, grid = InterferometerParams(0.6, 1.1, 0.7, 0.8, 1.0), default_grid(n=97)
    branches, basis = analytic.reduced_state(params, 1)
    oracle, purity = joint_marginal_oracle(params, 1, grid), kernel_purity(branches.coefficients(), basis, grid)
    monkeypatch.setattr(numeric, "_BLOCK_BYTES", 16 * 40)  # 40 complex or 80 real cells: slices of one row
    assert np.array_equal(joint_marginal_oracle(params, 1, grid).values, oracle.values)
    assert kernel_purity(branches.coefficients(), basis, grid) == purity


def test_oracle_rejects_narrow_grid():
    params = InterferometerParams(BALANCED_R, 0.75 * math.pi, 0.0, 3.0, 1.0)
    with pytest.raises(GridSpanError):
        joint_marginal_oracle(params, 1, MomentumGrid(-4.0, 4.0, 257))


def test_grid_resolution_is_one_check_for_tail_and_spacing():
    packets = (GaussianPacket(1.0), GaussianPacket(1.0, 3.0))
    MomentumGrid(-12.0, 12.0, 97).require_resolved(packets)  # h = W / 4: alias bound 1.9e-17
    with pytest.raises(GridSpanError, match="truncates a branch centred at 3"):
        MomentumGrid(-8.0, 5.0, 2001).require_resolved(packets)
    with pytest.raises(AliasingError, match=r"spacing h = 1\.5 W, alias bound 8\.9e-01 > 1e-10"):
        MomentumGrid(-12.0, 12.0, 17).require_resolved(packets)
    # a grid that both truncates and aliases reports the truncation
    with pytest.raises(GridSpanError):
        MomentumGrid(-8.0, 5.0, 9).require_resolved(packets)


@pytest.mark.parametrize("grid, error", [
    (MomentumGrid(-8.0, 8.0, 9), AliasingError),      # h = 2 W
    (MomentumGrid(-8.0, 8.0, 33), AliasingError),     # h = W / 2: alias bound 1.4e-4
    (MomentumGrid(-2.0, 2.0, 513), GridSpanError),    # tail mass 4.7e-3 outside the grid
])
def test_oracles_refuse_unresolved_grids(grid, error):
    with pytest.raises(error):
        joint_marginal_oracle(HEADLINE, 1, grid)
    branches, basis = analytic.reduced_state(HEADLINE, 1)
    with pytest.raises(error):
        kernel_purity(branches.coefficients(), basis, grid)


def test_oracle_dark_port_raises():
    dark = InterferometerParams(BALANCED_R, math.pi, 0.0, 0.0, 1.0)
    with pytest.raises(DarkPortError):
        joint_marginal_oracle(dark, 1)
    branches, basis = analytic.reduced_state(HEADLINE, 1)
    with pytest.raises(DarkPortError, match="kernel trace vanishes"):
        kernel_purity(np.zeros_like(branches.coefficients()), basis)


def test_oracle_refuses_an_electron_other_than_1_or_2(traced_peak):
    with pytest.raises(ValueError, match="electron index must be 1 or 2, got 3"):
        joint_marginal_oracle(HEADLINE, 3, MomentumGrid(-8.0, 8.0, 129))

    def refused():
        with pytest.raises(ValueError, match="electron index must be 1 or 2, got 0"):
            joint_marginal_oracle(HEADLINE, 0, MomentumGrid(-8.0, 8.0, 513))

    # refused before any allocation: at n = 513 the plane is 2.1 MB and each block buffer 128 KiB
    _, peak = traced_peak(refused)
    assert peak < 100_000


def test_port_norm_oracle_matches_closed_probability():
    # 2D Simpson norm of a port's two-branch joint state vs the Gram form
    grid = default_grid(n=numeric.DEFAULT_JOINT_POINTS)
    p = grid.points
    base = HEADLINE.packet()
    f1 = np.outer(base(p), base(p))
    f2 = np.outer(HEADLINE.kicked_packet(1)(p), HEADLINE.kicked_packet(2)(p))
    w = grid.simpson_weights()
    probs = analytic.port_probabilities(HEADLINE)
    for port, amp in analytic.port_amplitudes(HEADLINE).items():
        field = amp.free * f1 + amp.kicked * f2
        norm2d = w @ (field.real**2 + field.imag**2) @ w
        assert norm2d == pytest.approx(probs[port], abs=1e-12)


# ---------------------------------------------------------------------------
# momentum-kick oracle
# ---------------------------------------------------------------------------

def test_kick_identity_at_zero_delta():
    result = momentum_kick_oracle(GaussianPacket(1.0), 0.0)
    assert result.max_density_deviation < 1e-12
    assert abs(result.mean_shift) < 1e-12
    assert abs(result.width_change) < 1e-12


def test_kick_displaces_density_rigidly():
    result = momentum_kick_oracle(GaussianPacket(1.0), 0.3)
    assert result.max_density_deviation < 1e-8
    assert result.mean_shift == pytest.approx(-0.3, abs=1e-8)
    assert abs(result.width_change) < 1e-10


def test_kick_oracle_handles_off_centre_packets():
    result = momentum_kick_oracle(GaussianPacket(2.0, 1.5), 0.8)
    assert result.max_density_deviation < 1e-8
    assert result.mean_shift == pytest.approx(-0.8, abs=1e-8)


def test_kick_oracle_parseval():
    for delta in (0.0, 0.3, 2.0):
        result = momentum_kick_oracle(GaussianPacket(1.0), delta)
        assert abs(result.momentum_norm - result.position_norm) < 1e-12
        assert result.momentum_norm == pytest.approx(1.0, abs=1e-10)


def test_kick_oracle_aliasing_guard():
    # with the automatic band the phase advance saturates at pi; delta = 10 W
    # pushes it past the pi/2 guard for any point count
    with pytest.raises(AliasingError):
        momentum_kick_oracle(GaussianPacket(1.0), 10.0)
    with pytest.raises(GridError, match="at least 16 points, got 8"):
        momentum_kick_oracle(GaussianPacket(1.0), 0.3, 8)


def test_kick_oracle_band_guard():
    # the band is 8 W + |delta| either side of the centre; at a centre of 1e20 W rounding collapses it
    with pytest.raises(GridSpanError):
        momentum_kick_oracle(GaussianPacket(1.0, 1e20), 0.3)


# ---------------------------------------------------------------------------
# kernel purity and free spreading
# ---------------------------------------------------------------------------

def test_kernel_purity_agrees_with_gram_route():
    branches, basis = analytic.reduced_state(HEADLINE, 1)
    assert kernel_purity(branches.coefficients(), basis) == pytest.approx(branches.purity(), abs=1e-6)


def test_kernel_purity_with_complex_phase():
    params = InterferometerParams(0.6, 1.1, 0.7, 0.8, 1.0)
    branches, basis = analytic.reduced_state(params, 1)
    assert kernel_purity(branches.coefficients(), basis) == pytest.approx(branches.purity(), abs=1e-9)


def test_kernel_purity_peak_allocation_is_one_real_plane_and_row_blocks(traced_peak):
    branches, basis = analytic.reduced_state(InterferometerParams(0.6, 1.1, 0.7, 0.8, 1.0), 1)
    coeff, grid = branches.coefficients(), default_grid(n=numeric.DEFAULT_JOINT_POINTS)
    # the squares plane plus one 128 KiB complex row block; a whole complex kernel would add two more planes
    assert traced_peak(lambda: kernel_purity(coeff, basis, grid), warm=True)[1] <= 1.25 * 8 * grid.n**2


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.0, 1.0),
    st.floats(-2.0 * math.pi, 2.0 * math.pi),
    st.floats(-2.0 * math.pi, 2.0 * math.pi),
    st.floats(0.0, 3.0),
    st.integers(1, 2),
    # 128 KiB complex row blocks: 89 fits one block, and 241, 513 and 1025 end in a short one
    st.sampled_from((89, 241, 513, 1025)),
)
def test_kernel_purity_in_place_matches_out_of_place_formula_bit_for_bit(r, phi, alpha, delta, electron, n):
    params = InterferometerParams(r, phi, alpha, delta, 1.0)
    if analytic.postselect_norm(params) < 1e-3:
        return
    branches, basis = analytic.reduced_state(params, electron)
    coeff, grid = branches.coefficients(), MomentumGrid(-12.0, 12.0, n)
    sampled = np.stack([b(grid.points) for b in basis])
    kernel = sampled.T @ (coeff @ sampled)
    root_w = np.sqrt(grid.simpson_weights())
    w = root_w[:, None] * kernel * root_w[None, :]
    total = float(np.trace(w).real)
    expected = float(np.sum(w.real**2 + w.imag**2)) / (total * total)
    assert kernel_purity(coeff, basis, grid) == expected


def _eigen_purity(coeff, basis, grid):
    """Reference route: eigenvalues of the symmetrised sqrt-Simpson-weighted kernel."""
    sampled = np.stack([b(grid.points) for b in basis])
    root_w = np.sqrt(grid.simpson_weights())
    sym = root_w[:, None] * (sampled.T @ (np.asarray(coeff) @ sampled)) * root_w[None, :]
    lam = np.linalg.eigvalsh(0.5 * (sym + sym.conj().T))
    return float((lam @ lam) / lam.sum() ** 2)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 2.0 * math.pi),
    st.floats(0.0, 2.0 * math.pi),
    st.floats(0.0, 3.0),
    st.integers(1, 2),
)
def test_kernel_trace_purity_matches_eigendecomposition(r, phi, alpha, delta, electron):
    params = InterferometerParams(r, phi, alpha, delta, 1.0)
    if analytic.postselect_norm(params) < 1e-3:
        return
    branches, basis = analytic.reduced_state(params, electron)
    coeff, grid = branches.coefficients(), MomentumGrid(-12.0, 12.0, 241)
    assert kernel_purity(coeff, basis, grid) == pytest.approx(_eigen_purity(coeff, basis, grid), abs=1e-12)
