import math

import numpy as np
import pytest

from georelay.link import (
    LIGHT_SPEED_MPS,
    LinkParams,
    NodeChannel,
    aggregate_gain,
    build_channel,
)


def make_params(**kw):
    base = dict(
        carrier_hz=19.7e9,
        bandwidth_hz=40e6,
        tx_gain_db=40.0,
        rx_gain_db=10.0,
        attenuation_db=2.0,
        noise_level_db=-126.56,
    )
    base.update(kw)
    return LinkParams(**base)


def test_unit_gain_reduction():
    p = make_params(tx_gain_db=0.0, rx_gain_db=0.0, attenuation_db=0.0)
    c = LIGHT_SPEED_MPS
    n0 = 10 ** (p.noise_level_db / 10)
    expected = c * c / ((4 * math.pi * p.carrier_hz) ** 2 * n0 * p.bandwidth_hz)
    assert aggregate_gain(p) == pytest.approx(expected, rel=1e-14)


def test_gain_frequency_scaling():
    p1 = make_params()
    p2 = make_params(carrier_hz=2 * p1.carrier_hz)
    assert aggregate_gain(p2) == pytest.approx(aggregate_gain(p1) / 4.0, rel=1e-14)


def test_gain_against_high_precision():
    import mpmath

    mpmath.mp.dps = 50
    p = make_params()
    c = mpmath.mpf(repr(LIGHT_SPEED_MPS))
    num = mpmath.mpf(10) ** 4 * mpmath.mpf(10) ** 1 * c**2 * mpmath.mpf(10) ** (mpmath.mpf("-0.2"))
    den = (4 * mpmath.pi * mpmath.mpf("19.7e9")) ** 2 * mpmath.mpf(10) ** (mpmath.mpf("-12.656")) * mpmath.mpf("40e6")
    assert aggregate_gain(p) == pytest.approx(float(num / den), rel=1e-12)


def constant_channel(p, distance_m, span_s=1.0):
    """``build_channel`` cells of a link held at one slant distance."""
    return build_channel(p, lambda t: np.full_like(t, distance_m), (0.0, span_s), 1.0)


def test_snr_basics():
    """A cell's SNR per watt is L / d^2."""
    p = make_params()
    gain = aggregate_gain(p)
    assert constant_channel(p, math.sqrt(gain)).gains_per_w[0] == pytest.approx(1.0)  # L = d^2 normalization
    far, near = constant_channel(p, 2e7).gains_per_w[0], constant_channel(p, 1e7).gains_per_w[0]
    assert far == pytest.approx(near / 4.0)


def test_rate_values():
    """One 1 s cell at unit SNR per watt: bits are the Shannon rate W log2(1 + P)."""
    ch = NodeChannel(0.0, 1.0, 1.0, np.ones(1), np.ones(1), 1e6)
    assert ch.bits(np.zeros(1)) == 0.0
    assert ch.bits(np.ones(1)) == pytest.approx(1e6)
    assert ch.bits(np.full(1, 3.0)) == pytest.approx(2e6)


def test_rate_snr_round_trip():
    p = make_params()
    gain = aggregate_gain(p)
    # the last power gives an SNR of 1e-14, where 1 + SNR keeps about two digits
    tiny = 1e-14 * 1e7**2 / gain
    for power, d in ((3.0, 1e7), (40.0, 3.7e7), (0.5, 2e6), (tiny, 1e7)):
        closed = p.bandwidth_hz * math.log1p(power * gain / d**2) / math.log(2.0)
        assert constant_channel(p, d).bits(np.full(1, power)) == pytest.approx(closed, rel=1e-12)


def test_grid_partial_last_cell():
    """A 10.5 s window holds 11 cells, the last 0.5 s wide, and the distance
    is asked at their midpoints, 0.5 s to 10.25 s; an empty window holds
    none."""
    asked = []

    def distance(t):
        asked.append(t.copy())
        return np.full_like(t, 1e7)

    ch = build_channel(make_params(), distance, (0.0, 10.5), 1.0)
    assert ch.n_cells == 11
    assert ch.weights_s[-1] == pytest.approx(0.5)
    (mids,) = asked
    assert mids.size == 11
    assert mids[0] == pytest.approx(0.5)
    assert mids[-1] == pytest.approx(10.25)
    assert build_channel(make_params(), distance, (5.0, 5.0), 1.0).n_cells == 0


@pytest.mark.parametrize(
    "span, cells, last",
    [
        (10.0 + 5e-10, 10, 1.0 + 5e-10),  # a remainder of 5e-10 step joins the last cell
        (10.0 + 2e-9, 11, 2e-9),  # a remainder of 2e-9 step is a cell of its own
        (5e-10, 1, 5e-10),  # a window shorter than 1e-9 step is one cell
    ],
)
def test_grid_round_off_remainder(span, cells, last):
    """A remainder of at most 1e-9 step is round-off and widens the last cell;
    a longer one makes a cell. The weights sum to the window's length."""
    t_start = 3.0
    t_end = t_start + span
    ch = build_channel(make_params(), lambda t: np.full_like(t, 1e7), (t_start, t_end), 1.0)
    assert ch.n_cells == cells
    assert ch.weights_s[-1] == pytest.approx(last, rel=1e-6)
    assert np.all(ch.weights_s[:-1] == 1.0)
    assert float(np.sum(ch.weights_s)) == t_end - t_start


def test_profile_validation():
    """A channel's profile takes one power per cell and refuses any other length."""
    ch = constant_channel(make_params(), 1e7, span_s=10.0)
    with pytest.raises(ValueError):
        ch.profile(np.zeros(3))
    prof = ch.profile(np.ones(10))
    assert prof.values_w.shape == (10,)
    assert ch.energy(prof.values_w) == pytest.approx(10.0)


def test_delivered_bits_zero_profile():
    ch = constant_channel(make_params(), 1e7, span_s=100.0)
    assert ch.n_cells == 100
    assert ch.bits(np.zeros(100)) == 0.0


def test_delivered_bits_constant_channel_closed_form():
    p = make_params()
    d = 1.2e7
    power = 25.0
    span = 240.0
    ch = constant_channel(p, d, span_s=span)
    expected = span * p.bandwidth_hz * math.log1p(power * aggregate_gain(p) / d**2) / math.log(2.0)
    got = ch.bits(np.full(240, power))
    assert got == pytest.approx(expected, rel=1e-12)


def test_grid_refinement_on_reference_window(default_config):
    """Halving the step changes the integral by well under 0.1%."""
    from georelay.scenario import build_downlink_request

    req = build_downlink_request(default_config)
    ch1 = req.channel(0)
    import dataclasses

    req2 = dataclasses.replace(req, grid_step_s=0.5)
    ch2 = req2.channel(0)
    b1 = ch1.bits(np.full(ch1.n_cells, 20.0))
    b2 = ch2.bits(np.full(ch2.n_cells, 20.0))
    assert abs(b1 - b2) / b2 < 1e-3


def test_delivered_bits_monotone_and_concave():
    p = make_params()
    rng = np.random.default_rng(11)
    ch = build_channel(p, lambda t: 1e7 + 1e5 * np.sin(t / 50.0), (0.0, 60.0), 1.0)
    assert ch.n_cells == 60
    for _ in range(20):
        a = rng.uniform(0, 30, 60)
        b = rng.uniform(0, 30, 60)
        fa = ch.bits(a)
        fb = ch.bits(b)
        fm = ch.bits((a + b) / 2)
        assert fm >= (fa + fb) / 2 - 1e-6 * max(fa, fb)
        assert ch.bits(a + 1.0) >= fa


def test_build_channel_empty_window():
    p = make_params()
    ch = build_channel(p, lambda t: np.full_like(t, 1e7), (10.0, 5.0), 1.0)
    assert ch.n_cells == 0
    assert ch.bits(np.zeros(0)) == 0.0
