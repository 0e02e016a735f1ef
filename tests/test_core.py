import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qif_mzi import BALANCED_R, GaussianPacket, InterferometerParams, PortPair, kick_sign
from qif_mzi.numeric import MomentumGrid

PI_QUARTER_INV = 0.7511255444649425  # pi ** (-1/4)


def test_packet_peak_value():
    packet = GaussianPacket(1.0)
    assert packet(0.0) == pytest.approx(PI_QUARTER_INV, rel=1e-15)


def test_packet_one_sigma_value():
    # pi**(-1/4) * exp(-1/2), evaluated directly
    packet = GaussianPacket(1.0)
    assert packet(1.0) == pytest.approx(0.45558067201133257, rel=1e-14)
    assert packet(1.0) == pytest.approx(PI_QUARTER_INV * math.exp(-0.5), rel=1e-15)


@given(st.floats(0.0, 6.0), st.floats(0.2, 4.0))
def test_packet_even_symmetry(p, width):
    packet = GaussianPacket(width)
    assert packet(p) == packet(-p)


@given(st.floats(0.2, 4.0), st.floats(-3.0, 3.0))
def test_packet_density_normalised(width, center):
    packet = GaussianPacket(width, center)
    grid = MomentumGrid(center - 8.0 * width, center + 8.0 * width, 2001)
    assert abs(grid.integrate(packet.density(grid.points)) - 1.0) < 1e-10


def test_packet_vectorised_evaluation():
    packet = GaussianPacket(2.0, 0.5)
    p = np.array([-1.0, 0.5, 2.0])
    values = packet(p)
    assert values.shape == (3,)
    assert values[1] == packet(0.5)


@given(st.floats(-5.0, 5.0), st.floats(-3.0, 3.0), st.floats(0.2, 4.0))
def test_shift_moves_evaluation_point(p, shift, width):
    base = GaussianPacket(width)
    assert base.shifted(shift)(p) == base(p - shift)


@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_shift_composition(a, b):
    base = GaussianPacket(1.0)
    assert base.shifted(a).shifted(b) == base.shifted(a + b)


def test_shift_zero_is_identity():
    packet = GaussianPacket(1.3, 0.4)
    assert packet.shifted(0.0) == packet


@pytest.mark.parametrize("width, center, lo, hi", [
    (1.0, 0.0, -2.0, 2.0),   # tail mass 4.7e-3, even
    (0.5, 0.3, -0.4, 1.5),   # 2.4e-2, mostly on the right
    (2.0, -1.0, -3.0, 4.0),  # 7.9e-2, mostly on the left
    (1.0, 2.0, -1.0, 3.0),   # 7.9e-2, centre off the middle of the interval
])
def test_tail_mass_is_one_minus_the_mass_inside(width, center, lo, hi):
    packet = GaussianPacket(width, center)
    grid = MomentumGrid(lo, hi, 4001)
    inside = grid.integrate(packet.density(grid.points))
    assert abs(packet.tail_mass(lo, hi) - (1.0 - inside)) < 1e-13


def test_alias_bound_bounds_the_simpson_error_of_the_norm():
    worst = 0.0
    for width in (0.5, 1.0, 2.0):
        for spacing in np.linspace(0.3, 1.6, 27) * width:
            k = math.ceil(12.0 * width / spacing)  # 12 W either side: no tail mass
            grid = MomentumGrid(-k * spacing, k * spacing, 2 * k + 1)
            for offset in (0.0, 0.13, 0.25, 0.37, 0.5, 0.71):  # packet centre between grid points, in units of h
                packet = GaussianPacket(width, offset * spacing)
                error = abs(grid.integrate(packet.density(grid.points)) - 1.0)
                bound = packet.alias_bound(grid.spacing)
                assert error <= bound
                worst = max(worst, error / bound)
    assert worst > 0.1  # the bound is within a factor of ten of the worst error


def test_packet_rejects_bad_width_and_nonfinite():
    with pytest.raises(ValueError):
        GaussianPacket(0.0)
    with pytest.raises(ValueError):
        GaussianPacket(-1.0)
    with pytest.raises(ValueError):
        GaussianPacket(math.nan)
    with pytest.raises(ValueError, match="center must be finite"):
        GaussianPacket(1.0, math.inf)
    packet = GaussianPacket(1.0)
    with pytest.raises(ValueError):
        packet(math.inf)
    with pytest.raises(ValueError):
        packet(np.array([0.0, math.nan]))


@given(st.floats(0.0, 1.0))
def test_transmission_complements_reflection(r):
    params = InterferometerParams(r=r, phi=0.0, alpha=0.0, delta=0.0)
    assert abs(params.r**2 + params.t**2 - 1.0) <= 4e-16


def test_params_validation():
    with pytest.raises(ValueError):
        InterferometerParams(r=1.2, phi=0.0, alpha=0.0, delta=0.0)
    with pytest.raises(ValueError):
        InterferometerParams(r=-0.1, phi=0.0, alpha=0.0, delta=0.0)
    with pytest.raises(ValueError):
        InterferometerParams(r=0.5, phi=0.0, alpha=0.0, delta=-0.2)
    with pytest.raises(ValueError):
        InterferometerParams(r=0.5, phi=0.0, alpha=0.0, delta=0.0, width=0.0)
    with pytest.raises(ValueError):
        InterferometerParams(r=0.5, phi=math.nan, alpha=0.0, delta=0.0)


def test_kicked_packets_move_apart():
    params = InterferometerParams(r=BALANCED_R, phi=0.0, alpha=0.0, delta=0.3)
    assert params.kicked_packet(1).center == -0.3
    assert params.kicked_packet(2).center == 0.3
    with pytest.raises(ValueError):
        params.kicked_packet(3)


def test_kick_sign_convention():
    assert kick_sign(1) == -1.0
    assert kick_sign(2) == 1.0


def test_port_pair_enumeration():
    assert [port.name for port in PortPair] == ["CC", "CD", "DC", "DD"]
    assert PortPair("dc") is PortPair.DC
