"""Geometry, radio model, mobility and the communication graph."""

import math
import random

import pytest
from invariants import all_pairs_graph

from wsnhandoff.world import (MobilityPath, PacketOutcome, Point,
                              RadioProfile, comm_graph, halt_time,
                              links_within_reach, packet_outcome, position_at,
                              profile_for_range, received_power, route_length)

DELIVERED, ERRORED = PacketOutcome.DELIVERED, PacketOutcome.ERRORED


def test_distance():
    assert Point(0, 0).distance_to(Point(3, 4)) == 5.0
    assert Point(2, 2).distance_to(Point(2, 2)) == 0.0


def test_received_power_matches_log_distance_formula():
    rng = random.Random(11)
    for _ in range(200):
        profile = RadioProfile(tx_power_dbm=rng.uniform(-10, 30),
                               sensitivity_dbm=rng.uniform(-100, -40),
                               path_loss_exponent=rng.uniform(1.5, 4.0),
                               reference_loss_db=rng.uniform(30, 50))
        d = rng.uniform(0.1, 2000)
        expect = (profile.tx_power_dbm - profile.reference_loss_db
                  - 10.0 * profile.path_loss_exponent * math.log10(d))
        assert received_power(profile, d) == pytest.approx(expect)


def test_received_power_is_held_at_its_1_m_reference_inside_it():
    # reference_loss_db is the loss at 1 m; nearer, the distance is held
    # there, so radios on one point hear each other at tx - reference_loss
    for profile in (profile_for_range(100.0),
                    RadioProfile(7.5, -80.0, 1.0, 3.5, 31.0)):
        at_reference = profile.tx_power_dbm - profile.reference_loss_db
        assert [received_power(profile, d) for d in (0.0, 0.5, 1.0)] == [
            at_reference] * 3
        assert received_power(profile, 10.0) == (
            at_reference - 10.0 * profile.path_loss_exponent)


def test_range_radius_against_bisection_oracle():
    rng = random.Random(23)
    for _ in range(50):
        profile = RadioProfile(tx_power_dbm=rng.uniform(-5, 25),
                               sensitivity_dbm=rng.uniform(-95, -50),
                               path_loss_exponent=rng.uniform(1.5, 4.0),
                               reference_loss_db=rng.uniform(35, 45))
        # oracle: bisect the monotone received_power for the sensitivity
        # crossing instead of trusting the closed form
        lo, hi = 1e-3, 1e9
        for _ in range(200):
            mid = (lo + hi) / 2
            if received_power(profile, mid) >= profile.sensitivity_dbm:
                lo = mid
            else:
                hi = mid
        assert profile.range_radius() == pytest.approx(lo, rel=1e-9)


def test_profile_for_range_roundtrip():
    rng = random.Random(31)
    for _ in range(100):
        radius = rng.uniform(1, 5000)
        n = rng.uniform(1.5, 4.0)
        profile = profile_for_range(radius, tx_power_dbm=rng.uniform(-5, 30),
                                    path_loss_exponent=n)
        assert profile.range_radius() == pytest.approx(radius, rel=1e-12)


def test_packet_outcome_bands():
    profile = RadioProfile(tx_power_dbm=0, sensitivity_dbm=-80,
                           error_margin_db=3.0)
    assert packet_outcome(profile, -80.1) is PacketOutcome.LOST
    assert packet_outcome(profile, -80.0) is PacketOutcome.ERRORED
    assert packet_outcome(profile, -78.0) is PacketOutcome.ERRORED
    assert packet_outcome(profile, -77.0) is PacketOutcome.DELIVERED
    assert packet_outcome(profile, -10.0) is PacketOutcome.DELIVERED


def test_packet_outcome_zero_margin_never_errors():
    profile = RadioProfile(tx_power_dbm=0, sensitivity_dbm=-80)
    rng = random.Random(3)
    for _ in range(200):
        rx = rng.uniform(-120, -40)
        out = packet_outcome(profile, rx)
        assert out in (PacketOutcome.LOST, PacketOutcome.DELIVERED)
        assert (out is PacketOutcome.DELIVERED) == (rx >= -80)


def test_outcome_by_distance_with_margin():
    # 1 dB margin below a 150 m range puts the corrupt band at
    # (150 * 10^(-1/20), 150] metres
    profile = profile_for_range(150.0, error_margin_db=1.0)
    edge = 150.0 * 10 ** (-1.0 / 20.0)
    for d, want in ((50.0, PacketOutcome.DELIVERED),
                    (edge - 0.01, PacketOutcome.DELIVERED),
                    (edge + 0.01, PacketOutcome.ERRORED),
                    (149.9, PacketOutcome.ERRORED),
                    (150.1, PacketOutcome.LOST)):
        assert packet_outcome(profile, received_power(profile, d)) is want, d


# ---- mobility ----------------------------------------------------------


def _oracle_position(start, waypoints, speed, halt_fraction, t):
    """Arc-length walk written independently of the implementation."""
    pts = [start]
    for wp in waypoints:
        if wp != pts[-1]:
            pts.append(wp)
    seg_lens = [pts[i].distance_to(pts[i + 1]) for i in range(len(pts) - 1)]
    total = sum(seg_lens)
    s = min(speed * t, halt_fraction * total)
    for p, q, seg in zip(pts, pts[1:], seg_lens):
        if s <= seg and seg > 0:
            f = s / seg
            return Point(p.x + f * (q.x - p.x), p.y + f * (q.y - p.y))
        s -= seg
    return pts[-1]


def test_position_single_segment():
    path = MobilityPath((Point(100, 0),), speed=10.0, halt_fraction=1.0)
    start = Point(0, 0)
    assert position_at(path, start, 0.0) == Point(0, 0)
    p = position_at(path, start, 4.0)
    assert p.x == pytest.approx(40.0) and p.y == 0.0
    assert position_at(path, start, 10.0) == Point(100, 0)
    assert position_at(path, start, 99.0) == Point(100, 0)


def test_halt_at_fraction_of_route():
    path = MobilityPath((Point(1000, 190),), speed=8.0)  # halt_fraction 0.5
    start = Point(0, 190)
    t_halt = halt_time(path, start)
    assert t_halt == pytest.approx(62.5)
    frozen = position_at(path, start, t_halt)
    assert frozen.x == pytest.approx(500.0) and frozen.y == 190.0
    # identical Point from any later time
    assert position_at(path, start, t_halt + 12.3) == frozen
    assert position_at(path, start, 1e6) == frozen


def test_position_matches_oracle_on_random_polylines():
    rng = random.Random(77)
    for _ in range(100):
        start = Point(rng.uniform(-100, 100), rng.uniform(-100, 100))
        wps = tuple(Point(rng.uniform(-500, 500), rng.uniform(-500, 500))
                    for _ in range(rng.randint(1, 5)))
        speed = rng.uniform(0.5, 20)
        frac = rng.uniform(0.1, 1.0)
        path = MobilityPath(wps, speed, frac)
        for t in (0.0, rng.uniform(0, 30), rng.uniform(0, 300)):
            got = position_at(path, start, t)
            want = _oracle_position(start, wps, speed, frac, t)
            assert got.x == pytest.approx(want.x, abs=1e-9)
            assert got.y == pytest.approx(want.y, abs=1e-9)


def test_route_length_and_multi_segment_walk():
    start = Point(0, 0)
    path = MobilityPath((Point(30, 40), Point(30, 100)), speed=5.0,
                        halt_fraction=1.0)
    assert route_length(path, start) == pytest.approx(110.0)
    # 70 m of progress: past the first 50 m segment, 20 m up the second
    p = position_at(path, start, 14.0)
    assert p.x == pytest.approx(30.0) and p.y == pytest.approx(60.0)


def test_mobility_validation():
    # the walk's own rules are validate_scenario's (tests/test_scenario.py)
    with pytest.raises(ValueError):
        path = MobilityPath((Point(1, 1),), speed=1.0)
        position_at(path, Point(0, 0), -0.1)


# ---- communication graph ------------------------------------------------


def _links(d: float, profiles: dict) -> list:
    """What links_within_reach yields for radio a at the origin and radio b
    d metres east, with no reach skip in the way."""
    return list(links_within_reach(("a", 0.0, 0.0, math.inf),
                                   [("b", d, 0.0, math.inf)], profiles))


def test_the_link_rule_is_boundary_inclusive():
    profiles = {n: profile_for_range(150.0) for n in "ab"}
    assert _links(150.0, profiles) == [("b", DELIVERED, DELIVERED)]
    assert _links(150.0 + 1e-6, profiles) == []
    assert _links(1.0, profiles) == [("b", DELIVERED, DELIVERED)]


def test_asymmetric_profiles_use_the_weaker_radio():
    # b hears a 200 m away, but a cannot hear b: no edge (links are two-way)
    positions = {"a": Point(0, 0), "b": Point(200, 0)}
    profiles = {"a": profile_for_range(100, error_margin_db=1.0),
                "b": profile_for_range(300)}
    assert comm_graph(positions, profiles) == {"a": {}, "b": {}}
    # 90 m apart, b hears a clearly, and a hears b inside its error band
    # (89.1-100 m): each end's outcome is its own
    positions["b"] = Point(90, 0)
    assert comm_graph(positions, profiles) == {"a": {"b": DELIVERED},
                                               "b": {"a": ERRORED}}


def test_co_located_radios_link_at_reference_power():
    positions = {"a": Point(1, 1), "b": Point(1, 1), "c": Point(1, 1.5),
                 "d": Point(500, 1)}
    profiles = {n: profile_for_range(100) for n in positions}
    graph = comm_graph(positions, profiles)
    assert graph == {"a": {"b": DELIVERED, "c": DELIVERED},
                     "b": {"a": DELIVERED, "c": DELIVERED},
                     "c": {"a": DELIVERED, "b": DELIVERED}, "d": {}}
    assert graph == all_pairs_graph(positions, profiles)
