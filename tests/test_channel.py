"""Free-space link-budget arithmetic against frozen hand-computed values."""
import math

import pytest

from rislink.channel import (
    LinkGeometry,
    budget,
    db_to_linear,
    dbm_to_watt,
    pathloss_cascaded,
    pathloss_direct,
)
from rislink.config import default_geometry

GEOM = LinkGeometry(freq_hz=6e9, gain_tx_dbi=10.0, gain_rx_dbi=0.0, d1_m=50.0, d2_m=100.0)


def test_unit_conversions():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0)
    assert dbm_to_watt(30.0) == pytest.approx(1.0)
    assert dbm_to_watt(0.0) == pytest.approx(1e-3)


def test_frozen_path_gains():
    # hand-evaluated from c, f, gains, and distances; pinned once
    assert pathloss_cascaded(GEOM) == pytest.approx(3.141225001434129e-08, rel=1e-12)
    assert pathloss_direct(GEOM) == pytest.approx(0.000112461683915935, rel=1e-12)


def test_frozen_snr_scales_at_20dbm():
    bud = budget(GEOM, 20.0, noise_dbm=-74.0)
    assert bud.gamma0_ris == pytest.approx(2.478552319446076e-06, rel=1e-12)
    assert bud.gamma0_d == pytest.approx(31.76941106492355, rel=1e-12)


def test_budget_scales_linearly_with_power():
    low = budget(GEOM, 10.0)
    high = budget(GEOM, 20.0)
    assert high.gamma0_ris / low.gamma0_ris == pytest.approx(10.0, rel=1e-12)
    assert high.gamma0_d / low.gamma0_d == pytest.approx(10.0, rel=1e-12)


def test_cascaded_path_much_weaker_than_direct():
    assert pathloss_cascaded(GEOM) < 1e-3 * pathloss_direct(GEOM)


def test_direct_distance_is_diagonal():
    # moving the array midpoint without changing endpoints alters only
    # the cascaded product
    stretched = LinkGeometry(6e9, 10.0, 0.0, 100.0, 50.0)
    assert pathloss_direct(stretched) == pytest.approx(pathloss_direct(GEOM))
    assert pathloss_cascaded(stretched) == pytest.approx(pathloss_cascaded(GEOM))
    assert math.hypot(50.0, 100.0) == pytest.approx(111.80339887498948)


def test_default_geometry_matches_frozen():
    assert default_geometry() == GEOM


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        LinkGeometry(0.0, 10.0, 0.0, 50.0, 100.0)
    with pytest.raises(ValueError):
        LinkGeometry(6e9, 10.0, 0.0, -1.0, 100.0)
