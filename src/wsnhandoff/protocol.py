"""Handoff control plane: coverage-loss detection, discovery flooding over
the mote mesh, escalation to the switching centre, steering/satellite
decisions, link establishment and mote release.

The flow mirrors one handoff round trip: a mobile station that hears no
base station broadcasts a discovery request; active motes flood it (TTL
guarded, path accumulating; the simulation drops repeated copies) until
some mote with a base station in range hands it over; the base station
escalates to the switching centre, which steers the nearest feasible base
station onto the mobile, falls back to a satellite link, or, with neither,
decides nothing; once the link is up, every mote on the delivered path goes
to sleep to save its battery.
"""

from enum import Enum
from typing import NamedTuple

from .world import NodeKind, Point


class DiscoveryRequest(NamedTuple):
    request_id: int
    ms_id: str
    ms_location: Point
    ttl: int
    path: tuple = ()


class MoteMode(Enum):
    ACTIVE = "active"
    SLEEPING = "sleeping"


# Compared on every coverage check, bound once: a module global is read
# several times faster than an Enum class attribute.
BASE_STATION = NodeKind.BASE_STATION


class MoteState:
    """A mote's mode and spent energy; it keeps no per-request state."""
    __slots__ = ("mode", "energy_consumed")

    def __init__(self):
        self.mode = MoteMode.ACTIVE
        self.energy_consumed = 0


class Escalation(NamedTuple):
    request_id: int
    ms_id: str
    ms_location: Point
    relay_path: tuple
    bs_id: str


class DecisionOutcome(Enum):
    STEER = "steer"
    SATELLITE_FALLBACK = "satellite_fallback"


class MscDecision(NamedTuple):
    request_id: int
    outcome: DecisionOutcome
    bs_id: str = None


class LinkEndpoint(NamedTuple):
    kind: NodeKind
    node_id: str


class LinkRecord(NamedTuple):
    ms_id: str
    endpoint: LinkEndpoint
    established_at: float
    relay_path: tuple = ()


def detect_loss(row, kinds: dict) -> bool:
    """True when no base station is in a mobile station's graph row."""
    return not any(kinds[n] is BASE_STATION for n in row)


def make_discovery(ms_id: str, location: Point, ids, ttl) -> DiscoveryRequest:
    """Create a fresh discovery request, id next(ids), from location."""
    return DiscoveryRequest(next(ids), ms_id, location, ttl)


def mote_forward(mote_id: str, req: DiscoveryRequest, bs_neighbors: tuple,
                 active_neighbors: tuple):
    """Process the first copy of a discovery that an awake mote, off the
    request's path, receives: the simulation drops the rest.

    `bs_neighbors` are the mote's base-station neighbours in the static
    graph and `active_neighbors` its mote neighbours that are awake, each
    sorted by id.  An exhausted TTL returns None.  Otherwise the mote
    appends itself to the path, decrements the TTL and returns (request,
    dst, targets): (fwd, first adjacent base station, ()) to hand the
    request over, else (fwd, None, active neighbours not on the path) to
    re-flood it.  It spends no energy here: the mote pays when its queue
    transmits the forward.
    """
    if req.ttl == 0:
        return None
    path = req.path + (mote_id,)
    fwd = DiscoveryRequest(req.request_id, req.ms_id, req.ms_location,
                           req.ttl - 1, path)
    if bs_neighbors:
        return fwd, bs_neighbors[0], ()
    return fwd, None, tuple([n for n in active_neighbors if n not in path])


def bs_notify_msc(bs_id: str, req: DiscoveryRequest) -> Escalation:
    """Base station bs_id's escalation of req to the switching centre.  The
    simulation calls it for the first copy of req that bs_id receives."""
    return Escalation(req.request_id, req.ms_id, req.ms_location,
                      req.path, bs_id)


def steer_feasible(bs_position: Point, ms_location: Point,
                   max_steer_range: float) -> bool:
    """Can this base station's steerable beam reach the mobile station?"""
    return bs_position.distance_to(ms_location) <= max_steer_range


def msc_decide(request_id: int, ms_location: Point, bs_set: dict,
               max_steer_range: float, has_satellite: bool):
    """Pick the nearest steer-feasible base station, else satellite: an
    MscDecision, or None when neither is there to offer.

    bs_set maps base station id to Point; ties on distance break on the
    smaller id.
    """
    feasible = [(ms_location.distance_to(p), b)
                for b, p in bs_set.items()
                if steer_feasible(p, ms_location, max_steer_range)]
    if feasible:
        _, best = min(feasible)
        return MscDecision(request_id, DecisionOutcome.STEER, best)
    if not has_satellite:
        return None
    return MscDecision(request_id, DecisionOutcome.SATELLITE_FALLBACK)


def establish_link(decision: MscDecision, ms_id: str, relay_path: tuple,
                   decided_at: float, steering_delay: float,
                   satellite_acquisition_delay: float,
                   satellite_id: str = None) -> LinkRecord:
    """Turn a decision into a link record with the configured setup delay."""
    if decision.outcome is DecisionOutcome.STEER:
        endpoint = LinkEndpoint(NodeKind.BASE_STATION, decision.bs_id)
        at = decided_at + steering_delay
    else:
        endpoint = LinkEndpoint(NodeKind.SATELLITE, satellite_id)
        at = decided_at + satellite_acquisition_delay
    return LinkRecord(ms_id, endpoint, at, tuple(relay_path))


def release_motes(path, mote_states: dict):
    """Put every mote on a delivered relay path to sleep.

    Sleeping freezes energy_consumed; motes not on the path are untouched
    and re-releasing an already sleeping mote is a no-op.
    """
    for m in path:
        mote_states[m].mode = MoteMode.SLEEPING
