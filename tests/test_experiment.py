import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qif_mzi import (
    CODATA2018,
    BALANCED_R,
    ExperimentInputs,
    derive_setup,
    free_spread_width,
    separation_for_alpha,
    to_model,
    tune_separation,
)

BASELINE = ExperimentInputs(
    separation=2e-3,
    length=4e-2,
    speed=2e6,
    waist_transverse=1e-5,
    waist_longitudinal=2e-7,
)


def test_constants_are_codata_2018():
    assert CODATA2018.q == 1.602176634e-19
    assert CODATA2018.eps0 == 8.8541878128e-12
    assert CODATA2018.hbar == 1.054571817e-34
    assert CODATA2018.h == 6.62607015e-34
    assert CODATA2018.m_e == 9.1093837015e-31


def test_inputs_validation():
    with pytest.raises(ValueError):
        ExperimentInputs(0.0, 4e-2, 2e6, 1e-5, 2e-7)
    with pytest.raises(ValueError):
        ExperimentInputs(2e-3, 4e-2, -2e6, 1e-5, 2e-7)
    with pytest.raises(ValueError):
        ExperimentInputs(2e-3, 4e-2, 2e6, math.inf, 2e-7)


def test_baseline_derived_values():
    setup = derive_setup(BASELINE)
    assert setup.transit_time == pytest.approx(2e-8, rel=1e-14)
    assert setup.force == pytest.approx(5.767693880854339e-23, rel=1e-12)
    assert setup.delta == pytest.approx(1.1535387761708678e-30, rel=1e-12)
    assert setup.momentum_width == pytest.approx(5.2728590849999994e-30, rel=1e-12)
    assert setup.delta_over_width == pytest.approx(0.2187691264976917, rel=1e-12)
    assert setup.alpha == pytest.approx(-21.876912649769167, rel=1e-12)
    assert setup.alpha / math.pi == pytest.approx(-6.963637575600754, rel=1e-12)
    assert setup.fringe_spacing == pytest.approx(5.744124330172074e-4, rel=1e-12)
    assert setup.longitudinal_spread == pytest.approx(5.791835969002182e-6, rel=1e-12)
    assert setup.transverse_spread_relative == pytest.approx(6.700848271523618e-5, rel=1e-9)
    assert setup.kinetic_scale == pytest.approx(6.104264314980788e-29, rel=1e-12)
    assert setup.potential_scale == pytest.approx(5.767693880854339e-28, rel=1e-12)


def test_kick_is_force_times_transit():
    setup = derive_setup(BASELINE)
    assert setup.delta == setup.force * setup.transit_time
    assert setup.delta_over_width == setup.delta / setup.momentum_width


def test_scaling_with_separation():
    base = derive_setup(BASELINE)
    doubled = derive_setup(dataclasses.replace(BASELINE, separation=2.0 * BASELINE.separation))
    assert doubled.delta / base.delta == pytest.approx(0.25, rel=1e-12)  # ~ 1/d^2
    assert doubled.alpha / base.alpha == pytest.approx(0.5, rel=1e-12)   # ~ 1/d


def test_baseline_validity_checks_pass():
    checks = {c.name: c for c in derive_setup(BASELINE).validity}
    assert set(checks) == {
        "separation_to_extent",
        "potential_to_kinetic",
        "fringe_to_beam",
        "linearization_error",
        "transverse_spread",
    }
    assert all(c.passed for c in checks.values())
    assert checks["separation_to_extent"].ratio == pytest.approx(200.0, rel=1e-3)
    assert checks["potential_to_kinetic"].ratio == pytest.approx(9.449, rel=1e-3)
    assert checks["fringe_to_beam"].ratio == pytest.approx(57.44, rel=1e-3)
    assert checks["linearization_error"].ratio == pytest.approx(2.5e-5, rel=2e-3)
    assert checks["transverse_spread"].ratio == pytest.approx(6.7e-5, rel=1e-2)


def test_validity_failure_is_reported_not_raised():
    cramped = dataclasses.replace(BASELINE, separation=2e-4)
    checks = {c.name: c for c in derive_setup(cramped).validity}
    assert not checks["separation_to_extent"].passed  # ratio 20 < 100
    assert "FAIL" in checks["separation_to_extent"].describe()


def test_tune_to_six_pi():
    tuned = tune_separation(BASELINE, 3)
    assert tuned.separation == pytest.approx(2.3212125252002514e-3, rel=1e-12)
    assert tuned.setup.alpha / math.pi == pytest.approx(-6.0, rel=1e-12)


def test_tune_nearest_picks_six_pi_from_baseline():
    # |alpha| = 6.96 pi: 0.96 pi below is closer than 1.04 pi above
    tuned = tune_separation(BASELINE)
    assert tuned.n_multiple == 3
    assert tuned.separation == pytest.approx(2.3212125252002514e-3, rel=1e-12)


def test_tune_rejects_nonpositive_targets():
    with pytest.raises(ValueError):
        tune_separation(BASELINE, 0)
    with pytest.raises(ValueError):
        separation_for_alpha(BASELINE, 0.0)


def test_derived_quantities_outside_double_range_are_named():
    # separation^2 underflows to 0 and the Coulomb force overflows
    with pytest.raises(ValueError, match="derived force is not a finite double"):
        derive_setup(dataclasses.replace(BASELINE, separation=1e-170))
    # the transit time is finite, the spreading of a 2e-7 m packet over it is not
    with pytest.raises(ValueError, match="derived longitudinal_spread is not a finite double"):
        derive_setup(dataclasses.replace(BASELINE, speed=1e-300))


def test_tune_nearest_refuses_zero_multiple():
    wide = dataclasses.replace(BASELINE, separation=1.0)  # |alpha| = 0.044 rad rounds to 0 x 2 pi
    with pytest.raises(ValueError, match="nearest to 0 x 2 pi"):
        tune_separation(wide)
    assert tune_separation(wide, 1).setup.alpha == pytest.approx(-2.0 * math.pi, rel=1e-12)


def test_exact_inversion_for_seven_pi():
    d7 = separation_for_alpha(BASELINE, 7.0 * math.pi)
    assert d7 == pytest.approx(1.9896107358859296e-3, rel=1e-12)
    setup = derive_setup(dataclasses.replace(BASELINE, separation=d7))
    assert abs(setup.alpha) / math.pi == pytest.approx(7.0, rel=1e-12)


@given(st.floats(5e-4, 1e-2))
def test_tuned_alpha_is_a_clean_multiple(separation):
    inputs = dataclasses.replace(BASELINE, separation=separation)
    tuned = tune_separation(inputs)
    residual = abs(tuned.setup.alpha) % (2.0 * math.pi)
    assert min(residual, 2.0 * math.pi - residual) <= 1e-9


def test_derive_setup_is_deterministic():
    assert derive_setup(BASELINE) == derive_setup(BASELINE)


def test_bridge_to_model():
    setup = derive_setup(BASELINE)
    params = to_model(setup, phi=0.75 * math.pi)
    assert params.r == BALANCED_R
    assert params.delta_over_width == setup.delta_over_width
    assert params.alpha == setup.alpha
    assert math.cos(params.alpha) == math.cos(setup.alpha)
    assert params.width == 1.0


def test_free_spread_identity_at_zero_time():
    assert free_spread_width(1e-6, 0.0, 9.1093837015e-31) == 1e-6


def test_free_spread_reference_values():
    m_e = 9.1093837015e-31
    assert free_spread_width(200e-9, 2e-8, m_e) == pytest.approx(5.791835969002182e-06, rel=1e-12)
    relative = free_spread_width(10e-6, 2e-8, m_e) / 10e-6 - 1.0
    assert relative == pytest.approx(6.700848271523618e-05, rel=1e-9)


@given(st.floats(1e-8, 1e-4), st.floats(1e-10, 1e-5))
def test_free_spread_monotone_and_asymptotic(width0, t):
    m_e = 9.1093837015e-31
    hbar = 1.054571817e-34
    now = free_spread_width(width0, t, m_e)
    later = free_spread_width(width0, 2.0 * t, m_e)
    assert later >= now >= width0
    t_long = 1e9 * (2.0 * m_e * width0 * width0 / hbar)
    asymptote = hbar * t_long / (2.0 * m_e * width0)
    assert free_spread_width(width0, t_long, m_e) == pytest.approx(asymptote, rel=1e-9)


def test_free_spread_validation():
    with pytest.raises(ValueError):
        free_spread_width(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        free_spread_width(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        free_spread_width(1.0, 1.0, 0.0)
