"""Geometry, node kinds, radio propagation and the communication graph.

Positions live on a 2-D plane in metres.  Received power follows the
log-distance path loss model

    rx_dbm = tx_power_dbm - reference_loss_db - 10 * exponent * log10(d)

for d of at least the 1 m reference distance, where reference_loss_db
applies; nearer, d is held at 1 m, as in ns-3's
LogDistancePropagationLossModel, so radios on one point still hear each
other.  One rule classifies every reception: packet_outcome of the received
power under the receiver's own profile.  Two radios link when neither hears
the other as LOST, and the communication graph keeps, for each link, how
each end hears the other.  The graph holds radios only: handsets, base
stations and motes.  Satellites and switching centres are reached over
engineered links (satellite frames, backhaul), which the caller models, so
it never hands them to the graph functions here.
"""

import math
from enum import Enum
from typing import NamedTuple


class Point(NamedTuple):
    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


class NodeKind(Enum):
    MOBILE_STATION = "mobile_station"
    BASE_STATION = "base_station"
    MOTE = "mote"
    SATELLITE = "satellite"
    MSC = "msc"


class RadioProfile(NamedTuple):
    """A radio's link budget; `scenario.validate_scenario` checks it."""
    tx_power_dbm: float
    sensitivity_dbm: float
    error_margin_db: float = 0.0
    path_loss_exponent: float = 2.0
    reference_loss_db: float = 40.0

    def range_radius(self) -> float:
        """Distance at which received power equals sensitivity exactly."""
        exp = (self.tx_power_dbm - self.reference_loss_db
               - self.sensitivity_dbm) / (10.0 * self.path_loss_exponent)
        return 10.0 ** exp


def profile_for_range(radius: float, tx_power_dbm: float = 0.0,
                      reference_loss_db: float = 40.0,
                      path_loss_exponent: float = 2.0,
                      error_margin_db: float = 0.0) -> RadioProfile:
    """Build a profile whose range_radius() is exactly `radius`."""
    sens = (tx_power_dbm - reference_loss_db
            - 10.0 * path_loss_exponent * math.log10(radius))
    return RadioProfile(tx_power_dbm, sens, error_margin_db,
                        path_loss_exponent, reference_loss_db)


def received_power(profile: RadioProfile, distance: float) -> float:
    return (profile.tx_power_dbm - profile.reference_loss_db
            - 10.0 * profile.path_loss_exponent
            * math.log10(distance if distance > 1.0 else 1.0))


class PacketOutcome(Enum):
    DELIVERED = "delivered"
    ERRORED = "errored"
    LOST = "lost"


def packet_outcome(profile: RadioProfile, rx_power_dbm: float) -> PacketOutcome:
    """Classify a reception.

    Below sensitivity the radio never locks; inside the error margin the
    frame locks but is corrupt and must not be handed to the MAC layer.
    """
    if rx_power_dbm < profile.sensitivity_dbm:
        return PacketOutcome.LOST
    if rx_power_dbm < profile.sensitivity_dbm + profile.error_margin_db:
        return PacketOutcome.ERRORED
    return PacketOutcome.DELIVERED


class MobilityPath(NamedTuple):
    """Waypoint route walked at constant speed, frozen at the halt point.

    The route is the polyline from the node's start position through the
    waypoints.  Once arc-length progress reaches halt_fraction of the total
    route length the position stays at that point forever.
    `scenario.validate_scenario` checks the route, speed and halt_fraction.
    """
    waypoints: tuple
    speed: float
    halt_fraction: float = 0.5


def _route(path: MobilityPath, start: Point) -> tuple:
    """The route's corners and its segments' lengths, in walking order.  A
    corner equal to the one before is dropped, so no length is zero."""
    pts = [start]
    for wp in path.waypoints:
        if wp != pts[-1]:
            pts.append(wp)
    return pts, [a.distance_to(b) for a, b in zip(pts, pts[1:])]


def route_length(path: MobilityPath, start: Point) -> float:
    return sum(_route(path, start)[1])


def halt_time(path: MobilityPath, start: Point) -> float:
    """Time at which the node reaches its halt point and stops."""
    return path.halt_fraction * route_length(path, start) / path.speed


def position_at(path: MobilityPath, start: Point, t: float) -> Point:
    """Position after walking for t seconds; clamped at the halt point.

    The halt position is computed from the same arc-length walk as every
    other position, so position_at(t) for any t past the halt time returns
    the identical Point.
    """
    if t < 0:
        raise ValueError("time must be >= 0")
    pts, segs = _route(path, start)
    s = min(path.speed * t, path.halt_fraction * sum(segs))
    for a, b, seg in zip(pts, pts[1:], segs):
        if s <= seg:
            f = s / seg
            return Point(a.x + f * (b.x - a.x), a.y + f * (b.y - a.y))
        s -= seg
    return pts[-1]


def reach_sq(profile: RadioProfile) -> float:
    """Squared distance past which `profile` hears nothing, as received
    power only falls with distance: (1 + 1e-6) * range_radius()**2, or inf
    when that radius overflows or rounding still hears a node just past it."""
    try:
        r = profile.range_radius()
    except OverflowError:
        return math.inf
    if r == 0 or received_power(
            profile, r * (1 + 4e-7)) >= profile.sensitivity_dbm:
        return math.inf
    return (1 + 1e-6) * r * r


def links_within_reach(node: tuple, others, profiles: dict):
    """Yield (b, how b hears node, how node hears b) for each of the
    `others`, in order, that `node` links with: neither outcome is LOST.

    `node` and each of `others` is an (id, x, y, reach_sq) entry.  A pair
    farther apart than either end's reach cannot link and is skipped; the
    distance of every other pair is worked out once, for both ends.
    """
    a, x, y, reach_a = node
    profile_a, lost = profiles[a], PacketOutcome.LOST
    for b, bx, by, reach_b in others:
        dx, dy = x - bx, y - by
        d2 = dx * dx + dy * dy
        if d2 > reach_a or d2 > reach_b:
            continue
        d, profile_b = math.hypot(dx, dy), profiles[b]
        b_hears = packet_outcome(profile_b, received_power(profile_b, d))
        a_hears = packet_outcome(profile_a, received_power(profile_a, d))
        if b_hears is not lost and a_hears is not lost:
            yield b, b_hears, a_hears


def comm_graph(positions: dict, profiles: dict) -> dict:
    """The communication graph of some radios at one instant: radio id ->
    {neighbour id: how that neighbour hears the radio}.

    positions/profiles map each radio's id to its Point / RadioProfile.
    Each radio is put through links_within_reach against the radios after
    it in id order, so each pair is tested once.
    """
    ids = sorted(positions)
    adj = {n: {} for n in ids}
    nodes = [(n, positions[n].x, positions[n].y, reach_sq(profiles[n]))
             for n in ids]
    for i, node in enumerate(nodes):
        a = node[0]
        for b, b_hears, a_hears in links_within_reach(node, nodes[i + 1:],
                                                      profiles):
            adj[a][b] = b_hears
            adj[b][a] = a_hears
    return adj
