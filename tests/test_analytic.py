import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qif_mzi import (
    BALANCED_R,
    DARK_THRESHOLD,
    DarkPortError,
    GaussianPacket,
    InterferometerParams,
    PortPair,
    analytic,
    kick_sign,
)
from qif_mzi.numeric import default_grid

# Working point of the reference figures: balanced splitter, delta = 0.3 W,
# phi = 3 pi / 4, alpha = 0.
HEADLINE = InterferometerParams(BALANCED_R, 0.75 * math.pi, 0.0, 0.3, 1.0)

# frozen from the quadrature / Gram oracles (see tests below re-deriving them)
HEADLINE_NORM = 0.14801539559710375
HEADLINE_MEAN = 0.35670404722052823
HEADLINE_MEAN_SINGLE_OVERLAP = 0.4896537219239096
HEADLINE_P_DC = 0.03700384889927594
HEADLINE_P_CD = 0.7129961511007241
HEADLINE_PURITY = 0.91162258767061


@st.composite
def params_st(draw, delta_max=4.0):
    return InterferometerParams(
        r=draw(st.floats(0.0, 1.0)),
        phi=draw(st.floats(0.0, 2.0 * math.pi)),
        alpha=draw(st.floats(0.0, 2.0 * math.pi)),
        delta=draw(st.floats(0.0, delta_max)),
        width=draw(st.floats(0.25, 4.0)),
    )


# ---------------------------------------------------------------------------
# overlaps and densities
# ---------------------------------------------------------------------------

def test_overlap_matches_quadrature_oracle():
    # the overlap depends on delta / W alone: each width sees the same frozen values
    for width in (0.5, 1.0, 2.0):
        grid = default_grid(width)
        packet = GaussianPacket(width)
        for delta_over_width, frozen in ((0.3, 0.9777512371933363), (2.0, 0.36787944117144233)):
            delta = delta_over_width * width
            quad = grid.integrate(packet(grid.points) * packet.shifted(-delta)(grid.points))
            closed = packet.overlap(delta)
            assert closed == pytest.approx(frozen, rel=1e-14)
            assert quad == pytest.approx(closed, abs=1e-10)


def test_overlap_of_identical_packets_is_one():
    assert GaussianPacket(2.0).overlap(0.0) == 1.0


@given(st.floats(0.0, 10.0), st.floats(0.2, 4.0))
def test_overlap_in_unit_interval(delta, width):
    value = GaussianPacket(width).overlap(delta)
    assert 0.0 < value <= 1.0


def test_overlap_rejects_bad_width():
    with pytest.raises(ValueError):
        GaussianPacket(0.0).overlap(0.3)


@pytest.mark.parametrize("width", [0.5, 1.0, 2.0])
def test_overlap_of_an_array_is_the_scalar_overlaps(width):
    packet = GaussianPacket(width)
    # both signs, a subnormal, and kicks past the clamp at 64 W
    deltas = np.array([0.0, 5e-324, 0.3, -0.3, 1.7, 2.0 * width, 20.0, -150.0, 1e300]) * width
    overlaps = packet.overlap(deltas)
    assert overlaps.shape == deltas.shape
    assert overlaps.tobytes() == np.array([packet.overlap(float(d)) for d in deltas]).tobytes()


def test_norm_matches_quadrature():
    grid = default_grid()
    quad = grid.integrate(analytic.marginal_density(HEADLINE, 1, grid.points))
    closed = analytic.postselect_norm(HEADLINE)
    assert closed == pytest.approx(HEADLINE_NORM, rel=1e-14)
    assert quad == pytest.approx(closed, abs=1e-12)


@given(params_st())
def test_terms_sum_to_unnormalised_marginal_exactly(params):
    p = np.linspace(-6.0 * params.width, 6.0 * params.width, 101)
    direct, cross = analytic.term_decomposition(params, p)
    assert np.array_equal(direct + cross, analytic.marginal_density(params, 1, p))
    assert np.all(direct >= 0.0)


@given(params_st())
def test_cross_term_sign(params):
    sign = math.cos(params.phi) * math.cos(params.alpha)
    _, cross = analytic.term_decomposition(params, np.linspace(-2.0, 2.0, 31) * params.width)
    if sign < 0.0:
        assert np.all(cross <= 0.0)
    elif sign > 0.0:
        assert np.all(cross >= 0.0)


def test_marginal_normalised_integrates_to_one():
    grid = default_grid()
    dens = analytic.marginal_density(HEADLINE, 1, grid.points, normalized=True)
    assert grid.integrate(dens) == pytest.approx(1.0, abs=1e-10)
    assert np.all(dens >= 0.0)


def test_marginal_at_phi_half_pi_is_the_bare_packet():
    params = InterferometerParams(BALANCED_R, math.pi / 2, 0.0, 0.7, 1.0)
    p = np.linspace(-6.0, 6.0, 201)
    dens = analytic.marginal_density(params, 1, p, normalized=True)
    assert np.max(np.abs(dens - params.packet().density(p))) < 1e-15


@given(params_st())
def test_electron2_marginal_mirrors_electron1(params):
    p = np.linspace(-6.0 * params.width, 6.0 * params.width, 101)
    assert np.array_equal(
        analytic.marginal_density(params, 2, p),
        analytic.marginal_density(params, 1, -p),
    )


def test_dark_port_raises_not_nan():
    dark = InterferometerParams(BALANCED_R, math.pi, 0.0, 0.0, 1.0)
    with pytest.raises(DarkPortError):
        analytic.marginal_density(dark, 1, 0.0, normalized=True)
    with pytest.raises(DarkPortError):
        analytic.mean_postselected(dark, 1)
    with pytest.raises(DarkPortError):
        analytic.mean_postselected_packet_overlap(dark)
    with pytest.raises(DarkPortError):
        analytic.reduced_state(dark, 1)


# ---------------------------------------------------------------------------
# post-selected means
# ---------------------------------------------------------------------------

def test_mean_zero_without_kick():
    params = InterferometerParams(BALANCED_R, 0.3, 0.2, 0.0, 1.0)
    assert analytic.mean_postselected(params, 1) == 0.0
    assert analytic.mean_postselected_packet_overlap(params) == 0.0


@given(st.floats(0.01, 4.0), st.floats(0.25, 4.0))
def test_mean_at_phi_zero_is_half_kick(delta, width):
    params = InterferometerParams(BALANCED_R, 0.0, 0.0, delta, width)
    assert analytic.mean_postselected(params, 1) == pytest.approx(-delta / 2.0, rel=1e-15)
    assert analytic.mean_postselected_packet_overlap(params) == pytest.approx(-delta / 2.0, rel=1e-15)


def test_mean_at_phi_half_pi_vanishes():
    params = InterferometerParams(BALANCED_R, math.pi / 2, 0.0, 1.0, 1.0)
    assert abs(analytic.mean_postselected(params, 1)) < 1e-15


def test_headline_means_frozen():
    assert analytic.mean_postselected(HEADLINE, 1) == pytest.approx(HEADLINE_MEAN, rel=1e-13)
    assert analytic.mean_postselected(HEADLINE, 1) > 0.0  # effective attraction
    assert analytic.mean_postselected_packet_overlap(HEADLINE) == pytest.approx(
        HEADLINE_MEAN_SINGLE_OVERLAP, rel=1e-13
    )


def test_headline_mean_matches_quadrature_oracle():
    grid = default_grid()
    dens = analytic.marginal_density(HEADLINE, 1, grid.points, normalized=True)
    assert grid.density_mean(dens) == pytest.approx(analytic.mean_postselected(HEADLINE, 1), abs=1e-12)


@given(params_st())
def test_mean_negation_between_electrons(params):
    norm = analytic.postselect_norm(params)
    if norm <= 1e-9:
        return
    assert analytic.mean_postselected(params, 2) == -analytic.mean_postselected(params, 1)


@example(InterferometerParams(0.0, 2.0, 0.0, 5e-324, 1.0))  # the mean underflows to 0.0
@given(params_st())
def test_mean_sign_structure(params):
    norm = analytic.postselect_norm(params)
    if norm <= 1e-9:
        return
    c = math.cos(params.phi)
    ca = math.cos(params.alpha)
    i2 = GaussianPacket(params.width).overlap(params.delta) ** 2
    # A kicked mean of magnitude delta |c (c + cos(alpha) I^2)| / N below the
    # smallest normal double rounds to a subnormal or to zero: its sign is undefined.
    if params.delta > 0.0 and params.delta * abs(c * (c + ca * i2)) / norm < sys.float_info.min:
        return
    anomalous = params.delta > 0.0 and c * (c + ca * i2) < 0.0
    assert (analytic.mean_postselected(params, 1) > 0.0) == anomalous


@given(params_st())
def test_alpha_parity_of_postselected_quantities(params):
    # The post-selected (DC) and double-transmission (CD) branches carry a
    # real free amplitude, so they see alpha only through cos(alpha); the CC
    # and DD ports individually do not (their free amplitude is imaginary
    # against a kicked amplitude with phase structure), but their pair sum
    # does.
    flipped = InterferometerParams(params.r, params.phi, -params.alpha, params.delta, params.width)
    if analytic.postselect_norm(params) > 1e-9:
        assert analytic.mean_postselected(params, 1) == pytest.approx(
            analytic.mean_postselected(flipped, 1), rel=1e-12, abs=1e-15
        )
    probs = analytic.port_probabilities(params)
    probs_flipped = analytic.port_probabilities(flipped)
    for port in (PortPair.DC, PortPair.CD):
        assert probs[port] == pytest.approx(probs_flipped[port], rel=1e-12, abs=1e-15)
    assert probs[PortPair.CC] + probs[PortPair.DD] == pytest.approx(
        probs_flipped[PortPair.CC] + probs_flipped[PortPair.DD], rel=1e-12, abs=1e-15
    )


def test_mean_surface_matches_scalar_path():
    # 0.8249, 1.2196 and 0.1158 are kicks where math.exp and np.exp round I differently: one route to I keeps a
    # point alone and inside the surface bit-identical
    deltas = np.array([0.0, 0.3, 1.5, 0.8249, 1.2196, 0.1158])
    phis = np.array([0.1, 2.0, 4.0])
    surface = analytic.mean_surface(deltas[:, None], phis[None, :], alpha=0.4)
    for i, d in enumerate(deltas):
        for j, f in enumerate(phis):
            params = InterferometerParams(BALANCED_R, float(f), 0.4, float(d), 1.0)
            assert surface.mean[i, j] == analytic.mean_postselected(params, 1)
            assert surface.mean_single_overlap[i, j] == analytic.mean_postselected_packet_overlap(params)
            assert surface.norm[i, j] == analytic.postselect_norm(params)


def test_mean_surface_dark_point_convention():
    surface = analytic.mean_surface(np.array([0.0]), np.array([math.pi]), alpha=0.0)
    assert surface.norm[0] <= 1e-12
    assert surface.mean[0] == 0.0
    assert surface.mean_single_overlap[0] == 0.0


def test_attraction_at_positive_cos_phi_where_cos_alpha_is_negative():
    # alpha = 2, delta/W = 0.5: cos(alpha) I^2 = -0.367, and cos(phi) = +0.2004 lies between 0 and +0.367
    assert math.cos(1.369) > 0.0
    assert float(analytic.mean_surface(0.5, 1.369, 2.0).mean) == pytest.approx(0.018722, abs=1e-6)


@given(st.floats(0.01, 4.0), st.floats(0.0, 2.0 * math.pi), st.floats(-100.0, 100.0))
def test_mean_sign_is_the_sign_of_minus_c_times_c_plus_g(delta_over_width, phi, alpha):
    # <p1> = -delta c (c + g) / N with c = cos(phi), g = cos(alpha) I^2 and N > 0: attraction exactly where
    # c (c + g) < 0, for every alpha
    c = math.cos(phi)
    product = c * (c + math.cos(alpha) * math.exp(-delta_over_width**2 / 2.0))
    if abs(product) > 1e-9:
        assert np.sign(analytic.mean_surface(delta_over_width, phi, alpha).mean) == np.sign(-product)


# ---------------------------------------------------------------------------
# exit-port algebra
# ---------------------------------------------------------------------------

def _expected_amplitudes(params):
    """Closed-form branch coefficients, written out independently of the builder."""
    r, t = params.r, params.t
    ea = cmath.exp(1j * params.alpha)
    ep = cmath.exp(1j * params.phi)
    em = cmath.exp(-1j * params.phi)
    irt = 1j * r * t
    c2 = 2.0 * r * r * t * t
    return {
        PortPair.CC: (irt * (t * t - r * r), irt * ea * (t * t * ep - r * r * em)),
        PortPair.DD: (irt * (t * t - r * r), irt * ea * (t * t * em - r * r * ep)),
        PortPair.CD: (complex(t**4 + r**4), -c2 * ea * math.cos(params.phi)),
        PortPair.DC: (complex(-c2), -c2 * ea * math.cos(params.phi)),
    }


@settings(max_examples=60)
@given(params_st())
def test_port_amplitudes_match_closed_forms(params):
    built = analytic.port_amplitudes(params)
    for port, (free, kicked) in _expected_amplitudes(params).items():
        assert abs(built[port].free - free) < 1e-14
        assert abs(built[port].kicked - kicked) < 1e-14


def test_port_algebra_batch_matches_scalar_path():
    rng = np.random.default_rng(7)
    r, phi, alpha, delta, width = (np.array([1.0, 2.0 * math.pi, 2.0 * math.pi, 4.0, 4.0]) * rng.random((64, 5))).T
    r[:3] = (0.0, 1.0, BALANCED_R)  # splitters with dark ports
    width = width + 0.25
    states = analytic.port_states(r, phi, alpha, delta, width)
    probs = states.norm()
    means = {electron: states.mean(kick_sign(electron) * delta[:, None]) for electron in (1, 2)}
    for k in range(r.size):
        params = InterferometerParams(*(float(x[k]) for x in (r, phi, alpha, delta, width)))
        for j, (port, prob) in enumerate(analytic.port_probabilities(params).items()):
            assert probs[k, j] == prob
        for electron in (1, 2):
            for j, mean in enumerate(analytic.port_mean_momenta(params, electron).values()):
                assert means[electron][k, j] == (0.0 if mean is None else mean)


def test_transparent_splitters_route_to_cd():
    params = InterferometerParams(0.0, 0.9, 0.4, 0.3, 1.0)
    amps = analytic.port_amplitudes(params)
    assert abs(abs(amps[PortPair.CD].free) - 1.0) < 1e-15
    assert abs(amps[PortPair.CD].kicked) < 1e-15
    for port in (PortPair.CC, PortPair.DC, PortPair.DD):
        assert abs(amps[port].free) < 1e-15 and abs(amps[port].kicked) < 1e-15


def test_mirror_splitters_route_to_cd():
    params = InterferometerParams(1.0, 0.9, 0.4, 0.3, 1.0)
    amps = analytic.port_amplitudes(params)
    assert abs(abs(amps[PortPair.CD].free) - 1.0) < 1e-15
    probs = analytic.port_probabilities(params)
    assert probs[PortPair.CD] == pytest.approx(1.0, abs=1e-15)


def test_balanced_splitter_darkens_cc_dd_free_branch():
    amps = analytic.port_amplitudes(HEADLINE)
    assert abs(amps[PortPair.CC].free) < 1e-15
    assert abs(amps[PortPair.DD].free) < 1e-15
    assert amps[PortPair.DC].free.real == pytest.approx(-0.5, rel=1e-14)
    assert amps[PortPair.DC].kicked.real == pytest.approx(0.35355339059327373, rel=1e-13)


def test_headline_port_probabilities_frozen():
    probs = analytic.port_probabilities(HEADLINE)
    assert probs[PortPair.CC] == pytest.approx(0.125, abs=1e-14)
    assert probs[PortPair.DD] == pytest.approx(0.125, abs=1e-14)
    assert probs[PortPair.DC] == pytest.approx(HEADLINE_P_DC, rel=1e-13)
    assert probs[PortPair.CD] == pytest.approx(HEADLINE_P_CD, rel=1e-13)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-14)


def test_dc_probability_without_kick_is_coherent_sum():
    params = InterferometerParams(BALANCED_R, 0.75 * math.pi, 0.0, 0.0, 1.0)
    expected = (1.0 + math.cos(params.phi)) ** 2 / 4.0
    assert analytic.port_probabilities(params)[PortPair.DC] == pytest.approx(expected, rel=1e-13)
    assert expected == pytest.approx(0.02144660940672625, rel=1e-13)


@given(params_st())
def test_port_probabilities_sum_to_one(params):
    assert sum(analytic.port_probabilities(params).values()) == pytest.approx(1.0, abs=1e-12)


def test_headline_port_means():
    means = analytic.port_mean_momenta(HEADLINE, 1)
    assert means[PortPair.CC] == pytest.approx(-HEADLINE.delta, rel=1e-13)  # pure kicked branch
    assert means[PortPair.DC] == pytest.approx(analytic.mean_postselected(HEADLINE, 1), rel=1e-13)


def test_dark_port_means_flagged_none():
    params = InterferometerParams(0.0, 0.9, 0.4, 0.3, 1.0)  # only CD is lit
    means = analytic.port_mean_momenta(params, 1)
    assert means[PortPair.CC] is None
    assert means[PortPair.DC] is None
    assert means[PortPair.DD] is None
    assert means[PortPair.CD] == 0.0  # no interaction possible


@given(params_st())
def test_port_means_negate_between_electrons(params):
    means1 = analytic.port_mean_momenta(params, 1)
    means2 = analytic.port_mean_momenta(params, 2)
    for port in PortPair:
        if means1[port] is None:
            assert means2[port] is None
        else:
            assert abs(means1[port] + means2[port]) < 1e-12


def test_ehrenfest_balanced_headline():
    balance = analytic.ehrenfest_check(HEADLINE)
    assert balance.closed_form == pytest.approx(-0.15, rel=1e-14)
    assert balance.weighted_sum == pytest.approx(-0.15, rel=1e-13)


def test_ehrenfest_no_reflection_means_no_interaction():
    balance = analytic.ehrenfest_check(InterferometerParams(0.0, 0.9, 0.4, 0.3, 1.0))
    assert balance.closed_form == 0.0
    assert abs(balance.weighted_sum) < 1e-15


@given(params_st())
def test_ehrenfest_weighted_sum_matches_closed_form(params):
    balance = analytic.ehrenfest_check(params)
    assert abs(balance.weighted_sum - balance.closed_form) < 1e-10


# ---------------------------------------------------------------------------
# reduced states
# ---------------------------------------------------------------------------

def _gram(branches):
    """The basis Gram matrix [[1, I], [I, 1]] of a reduced state."""
    i1 = branches.overlap
    return np.array([[1.0, i1], [i1, 1.0]])


def _purity(params):
    return analytic.reduced_state(params, 1)[0].purity()


def test_reduced_state_structure():
    branches, basis = analytic.reduced_state(HEADLINE, 1)
    coeff = branches.coefficients()
    assert np.array_equal(coeff, coeff.conj().T)  # Hermitian
    assert coeff[0, 0] == 1.0
    assert branches.overlap == GaussianPacket(HEADLINE.width).overlap(HEADLINE.delta)
    assert np.trace(coeff @ _gram(branches)).real == pytest.approx(analytic.postselect_norm(HEADLINE), rel=1e-14)
    assert basis[1].center == -HEADLINE.delta
    assert analytic.reduced_state(HEADLINE, 2)[1][1].center == HEADLINE.delta


def test_headline_purity_frozen():
    assert _purity(HEADLINE) == pytest.approx(HEADLINE_PURITY, rel=1e-12)


def test_purity_is_one_for_pure_corners():
    no_kick = InterferometerParams(BALANCED_R, 0.75 * math.pi, 0.0, 0.0, 1.0)
    assert abs(_purity(no_kick) - 1.0) < 1e-12
    quarter = InterferometerParams(BALANCED_R, math.pi / 2, 0.0, 0.3, 1.0)
    assert abs(_purity(quarter) - 1.0) < 1e-12


@given(params_st())
@example(InterferometerParams(0.0, 3.1875, 0.0, 0.0, 1.0))  # norm 1.1e-6: the Gram trace route gave 1 + 2.2e-11
def test_purity_bounds(params):
    if analytic.postselect_norm(params) <= 1e-9:
        return
    purity = _purity(params)
    assert 0.0 < purity <= 1.0


@given(params_st())
def test_purity_closed_form_matches_gram_trace(params):
    # reference: tr((M G)^2) / tr(M G)^2 from the coefficient and Gram matrices, whose rounding grows as 1/N
    norm = analytic.postselect_norm(params)
    if norm <= 1e-9:
        return
    branches, _ = analytic.reduced_state(params, 1)
    mg = branches.coefficients() @ _gram(branches)
    trace = np.trace(mg).real
    assert branches.purity() == pytest.approx(np.trace(mg @ mg).real / (trace * trace), abs=1e-13 / norm)


@settings(max_examples=40)
@given(params_st(), st.integers(1, 2))
def test_reduced_density_agrees_with_marginal(params, electron):
    if analytic.postselect_norm(params) <= 1e-6:
        return
    p = np.linspace(-5.0 * params.width, 5.0 * params.width, 41)
    branches, basis = analytic.reduced_state(params, electron)
    kernel = branches.density(basis[0](p), basis[1](p)) / branches.norm()  # rho(p, p)
    closed = analytic.marginal_density(params, electron, p, normalized=True)
    assert np.max(np.abs(kernel - closed)) < 1e-12


# ---------------------------------------------------------------------------
# per-port marginals
# ---------------------------------------------------------------------------

def test_dc_port_marginal_equals_postselected_marginal():
    p = np.linspace(-6.0, 6.0, 201)
    via_port = analytic.port_marginal_density(HEADLINE, PortPair.DC, 1, p)
    direct = analytic.marginal_density(HEADLINE, 1, p, normalized=True)
    assert np.max(np.abs(via_port - direct)) < 1e-12
    # seeded draws at any splitter; as in verify, near-dark selections (N < 1e-3) are skipped, and so are dark DC pairs
    p = np.linspace(-10.0, 10.0, 401)
    for row in np.array([1.0, 2.0 * math.pi, 2.0 * math.pi, 3.0]) * np.random.default_rng(2024).random((1000, 4)):
        params = InterferometerParams(*row.tolist(), width=1.0)
        dark = analytic.port_probabilities(params)[PortPair.DC] <= DARK_THRESHOLD
        if dark or analytic.postselect_norm(params) < 1e-3:
            continue
        for electron in (1, 2):
            closed = analytic.marginal_density(params, electron, p, normalized=True)
            via_port = analytic.port_marginal_density(params, PortPair.DC, electron, p)
            assert np.max(np.abs(via_port - closed)) <= 1e-12 * np.max(closed)


def test_cc_port_marginal_is_the_kicked_packet_at_balance():
    p = np.linspace(-6.0, 6.0, 201)
    dens1 = analytic.port_marginal_density(HEADLINE, PortPair.CC, 1, p)
    dens2 = analytic.port_marginal_density(HEADLINE, PortPair.CC, 2, p)
    assert np.max(np.abs(dens1 - HEADLINE.kicked_packet(1).density(p))) < 1e-12
    assert np.max(np.abs(dens2 - HEADLINE.kicked_packet(2).density(p))) < 1e-12


def test_port_marginal_dark_port_raises():
    params = InterferometerParams(0.0, 0.9, 0.4, 0.3, 1.0)
    with pytest.raises(DarkPortError):
        analytic.port_marginal_density(params, PortPair.DC, 1, 0.0)
