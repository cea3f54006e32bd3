"""Discovery flooding, escalation and the switching-centre decision."""

from itertools import count

import pytest

from wsnhandoff.protocol import (DecisionOutcome, DiscoveryRequest,
                                 MoteMode, bs_notify_msc, detect_loss,
                                 establish_link, make_discovery, mote_forward,
                                 msc_decide, release_motes, steer_feasible)
from wsnhandoff.scenario import NodeSpec, Scenario, SimParams
from wsnhandoff.simulation import Frame, Simulation
from wsnhandoff.world import (NodeKind, PacketOutcome, Point, comm_graph,
                              profile_for_range)


LINE_POSITIONS = {"ms": Point(0, 0), "m1": Point(80, 0), "m2": Point(160, 0),
                  "m3": Point(240, 0), "bs1": Point(320, 0)}
LINE_KINDS = {"ms": NodeKind.MOBILE_STATION, "m1": NodeKind.MOTE,
              "m2": NodeKind.MOTE, "m3": NodeKind.MOTE,
              "bs1": NodeKind.BASE_STATION}


def _line_graph():
    """The graph and kinds of the ms - m1 - m2 - m3 - bs1 chain, 80 m
    spacing, 100 m radios."""
    profiles = {n: profile_for_range(100) for n in LINE_POSITIONS}
    return comm_graph(LINE_POSITIONS, profiles), LINE_KINDS


def _rows(graph, kinds, mote):
    """The mote's sorted base-station and mote neighbours, as mote_forward
    takes them while every mote is awake."""
    row = sorted(graph[mote])
    return (tuple(n for n in row if kinds[n] is NodeKind.BASE_STATION),
            tuple(n for n in row if kinds[n] is NodeKind.MOTE))


def _line_sim(*extra):
    """A Simulation of the line world and the `extra` nodes; with no
    switching centre among them, it has none."""
    return Simulation(Scenario((*(
        NodeSpec(n, LINE_KINDS[n], p, profile_for_range(100))
        for n, p in sorted(LINE_POSITIONS.items())), *extra), {}))


def _hear(sim, rx, req, reached, src="ms"):
    """Deliver one clear copy of discovery `req`, whose flood has reached
    the nodes in `reached`, from src to mote rx, as a one-receiver burst,
    the way a run delivers every broadcast.  Returns the payloads, each
    (request, reached set), that rx's queue then holds."""
    frame = Frame("discovery", src, targets=(rx,), payload=(req, reached),
                  ip_ttl=req.ttl)
    sim._deliver_burst(0.0, 1, (rx,),
                       ("deliver", frame, {rx: PacketOutcome.DELIVERED}))
    return [f.payload for f in sim.node_queues[rx].items]


def test_detect_loss():
    graph, kinds = _line_graph()
    assert detect_loss(graph["ms"], kinds)  # bs1 is 320 m away
    positions = {"ms": Point(0, 0), "bs1": Point(90, 0)}
    kinds2 = {"ms": NodeKind.MOBILE_STATION, "bs1": NodeKind.BASE_STATION}
    near = comm_graph(positions,
                      {n: profile_for_range(100) for n in positions})
    assert not detect_loss(near["ms"], kinds2)


def test_make_discovery_ids_and_fields():
    ids = count(1)
    loc = Point(5, 5)
    r1 = make_discovery("ms", loc, ids, SimParams().default_ttl)
    r2 = make_discovery("ms", loc, ids, ttl=3)
    assert (r1.request_id, r2.request_id) == (1, 2)
    assert r1.ttl == SimParams().default_ttl == 16
    assert r2.ttl == 3
    assert r1.ms_location == loc and r1.ms_id == "ms" and r1.path == ()


def test_forward_unicasts_to_adjacent_base_station():
    graph, kinds = _line_graph()
    req = DiscoveryRequest(1, "ms", Point(0, 0), ttl=16, path=("m1", "m2"))
    forward = mote_forward("m3", req, *_rows(graph, kinds, "m3"))
    assert forward == (DiscoveryRequest(
        1, "ms", Point(0, 0), ttl=15, path=("m1", "m2", "m3")), "bs1", ())
    # received through a burst, the copy adds m3 to the flood's reached
    # set, and the forward, carrying that same set, is queued; the mote
    # pays when its queue transmits it, not here
    sim = _line_sim()
    reached = {"m1", "m2"}
    [(fwd, carried)] = _hear(sim, "m3", req, reached, src="m2")
    assert fwd == forward[0] and carried is reached
    assert reached == {"m1", "m2", "m3"}
    assert sim.mote_states["m3"].energy_consumed == 0


def test_forward_floods_when_no_base_station_adjacent():
    graph, kinds = _line_graph()
    req = DiscoveryRequest(7, "ms", Point(0, 0), ttl=16)
    fwd, bs_id, targets = mote_forward("m1", req, *_rows(graph, kinds, "m1"))
    assert bs_id is None
    assert targets == ("m2",)  # ms is not a mote, m1 now on the path
    assert fwd.ttl == 15
    assert fwd.path == ("m1",)


def test_forward_excludes_path_and_sleeping_targets():
    sim = _line_sim()
    assert sim.active_rows["m2"] == ("m1", "m3")
    sim._release(("m3",))
    assert sim.mote_states["m3"].mode is MoteMode.SLEEPING
    assert not any("m3" in row for row in sim.active_rows.values())
    states = sim.mote_states
    req = DiscoveryRequest(9, "ms", Point(0, 0), ttl=16, path=("m1",))
    forward = mote_forward("m2", req, sim.bs_rows["m2"],
                           sim.active_rows["m2"])
    # m1 is on the path and m3 sleeps: the radio still keys, to nobody
    assert forward == (DiscoveryRequest(
        9, "ms", Point(0, 0), ttl=15, path=("m1", "m2")), None, ())
    assert states["m2"].energy_consumed == 0


def test_discovery_request_is_immutable_and_compares_by_field():
    req = DiscoveryRequest(1, "ms", Point(0, 0), ttl=16)
    with pytest.raises(AttributeError):
        req.ttl = 15
    assert req.path == () and req.ttl == 16
    same = DiscoveryRequest(1, "ms", Point(0.0, 0.0), 16, ())
    assert req == same and hash(req) == hash(same)
    assert req != DiscoveryRequest(1, "ms", Point(0, 0), ttl=15)
    assert req != DiscoveryRequest(1, "ms", Point(0, 0), 16, ("m1",))
    assert len({req, same, DiscoveryRequest(2, "ms", Point(0, 0), 16)}) == 2


def test_a_mote_drops_duplicates_without_energy_cost():
    # the second copy finds m1 in the flood's reached set and stops there
    sim = _line_sim()
    req = DiscoveryRequest(4, "ms", Point(0, 0), ttl=16)
    reached = set()
    first = _hear(sim, "m1", req, reached)
    assert len(first) == 1 and sim.mote_states["m1"].energy_consumed == 0
    assert _hear(sim, "m1", req._replace(ttl=15, path=("m2",)), reached,
                 src="m2") == first
    assert reached == {"m1"}
    assert sim.mote_states["m1"].energy_consumed == 0


def test_a_mote_ignores_an_exhausted_ttl_and_a_path_revisit():
    graph, kinds = _line_graph()
    dead = DiscoveryRequest(5, "ms", Point(0, 0), ttl=0)
    assert mote_forward("m1", dead, *_rows(graph, kinds, "m1")) is None
    sim = _line_sim()
    reached = set()
    assert _hear(sim, "m1", dead, reached) == []
    assert reached == {"m1"}  # later copies stop there
    # a mote on a request's path has already forwarded it, so it is in the
    # flood's reached set, and a copy that comes back to it stops there
    req = DiscoveryRequest(6, "ms", Point(0, 0), ttl=16)
    reached = set()
    [(fwd, _)] = _hear(sim, "m2", req, reached)
    reached.add("m3")
    looped = fwd._replace(ttl=14, path=("m2", "m3"))
    assert _hear(sim, "m2", looped, reached, src="m3") == [(fwd, reached)]
    assert sim.mote_states["m1"].energy_consumed == 0
    assert sim.mote_states["m2"].energy_consumed == 0


def test_a_sleeping_mote_is_inert():
    # a burst skips a sleeping receiver: its radio is powered down, so it
    # neither forwards nor joins the flood's reached set, and spends nothing
    sim = _line_sim()
    sim._release(("m1",))
    req = DiscoveryRequest(8, "ms", Point(0, 0), ttl=16)
    reached = set()
    assert _hear(sim, "m1", req, reached) == []
    assert reached == set()
    assert sim.mote_states["m1"].energy_consumed == 0
    assert sim.ledger.get("mac80211.broadcast_received_clearly") == 0


def test_hand_traced_flood_along_the_line():
    graph, kinds = _line_graph()
    req = make_discovery("ms", Point(0, 0), count(1), SimParams().default_ttl)
    # hop 1: m1 floods to m2
    r1, _, _ = mote_forward("m1", req, *_rows(graph, kinds, "m1"))
    # hop 2: m2 floods to m3
    r2, _, _ = mote_forward("m2", r1, *_rows(graph, kinds, "m2"))
    # hop 3: m3 sees bs1 and unicasts
    r3, bs_id, targets = mote_forward("m3", r2, *_rows(graph, kinds, "m3"))
    assert bs_id == "bs1" and targets == ()
    assert r3.path == ("m1", "m2", "m3")
    assert r3.ttl == 13


def test_multi_bs_unicast_picks_smallest_id():
    positions = {"m1": Point(0, 0), "bs9": Point(50, 0), "bs2": Point(60, 0)}
    kinds = {"m1": NodeKind.MOTE, "bs9": NodeKind.BASE_STATION,
             "bs2": NodeKind.BASE_STATION}
    graph = comm_graph(positions,
                       {n: profile_for_range(100) for n in positions})
    req = DiscoveryRequest(1, "ms", Point(0, 0), ttl=16)
    _, bs_id, _ = mote_forward("m1", req, *_rows(graph, kinds, "m1"))
    assert bs_id == "bs2"


def test_bs_escalates_each_request_once():
    req = DiscoveryRequest(3, "ms", Point(1, 2), ttl=12, path=("m1", "m2"))
    esc = bs_notify_msc("bs1", req)
    assert esc.request_id == 3 and esc.bs_id == "bs1"
    assert esc.relay_path == ("m1", "m2")
    assert esc.ms_location == Point(1, 2)
    # a base station joins the flood's reached set on the first copy it
    # receives and escalates that copy over the backhaul; later copies of
    # the flood stop at the set
    sim = _line_sim(NodeSpec("bs2", NodeKind.BASE_STATION, Point(320, 300)),
                    NodeSpec("msc1", NodeKind.MSC, Point(160, -300)))

    def escalated(bs_id, req, reached):
        sim._rx_discovery(0.0, Frame("discovery", req.path[-1], dst=bs_id,
                                     payload=(req, reached)), bs_id)
        events = [sim.queue.pop() for _ in range(len(sim.queue))]
        assert all(ev[0] == sim.p.backhaul_delay and ev[2] == "msc1"
                   and ev[3][0] == "backhaul" for ev in events)
        return [ev[3][1] for ev in events]

    reached = {"m1", "m2"}
    assert escalated("bs1", req, reached) == [esc]
    assert escalated("bs1", req, reached) == []
    assert reached == {"m1", "m2", "bs1"}
    other = DiscoveryRequest(4, "ms", Point(1, 2), ttl=12, path=("m3",))
    assert escalated("bs1", other, {"m3"}) != []
    # a second base station escalates the same request, once
    again = DiscoveryRequest(3, "ms", Point(1, 2), ttl=11, path=("m3",))
    [esc] = escalated("bs2", again, reached)
    assert esc.request_id == 3 and esc.bs_id == "bs2"
    assert esc.relay_path == ("m3",)
    assert escalated("bs2", again, reached) == []
    assert reached == {"m1", "m2", "bs1", "bs2"}


def test_steer_feasible_boundary_inclusive():
    bs = Point(0, 0)
    assert steer_feasible(bs, Point(450, 0), 450.0)
    assert not steer_feasible(bs, Point(450.0001, 0), 450.0)


def test_msc_picks_nearest_feasible_base_station():
    bs_set = {"bs1": Point(0, 0), "bs2": Point(500, 0)}
    d = msc_decide(1, Point(120, 0), bs_set, 450.0, has_satellite=True)
    assert d.outcome is DecisionOutcome.STEER and d.bs_id == "bs1"
    d = msc_decide(2, Point(420, 0), bs_set, 450.0, has_satellite=True)
    assert d.bs_id == "bs2"  # 80 m to bs2 vs 420 m to bs1


def test_msc_distance_tie_breaks_on_smaller_id():
    bs_set = {"bs2": Point(0, 0), "bs1": Point(200, 0)}
    d = msc_decide(1, Point(100, 0), bs_set, 450.0, has_satellite=True)
    assert d.bs_id == "bs1"


def test_msc_falls_back_to_satellite_beyond_steer_range():
    bs_set = {"bs1": Point(0, 200), "bs2": Point(1000, 200)}
    halt = Point(500, 190)  # both stations just over 450 m away
    d = msc_decide(1, halt, bs_set, 450.0, has_satellite=True)
    assert d.outcome is DecisionOutcome.SATELLITE_FALLBACK
    assert d.bs_id is None


def test_msc_without_satellite_decides_nothing():
    assert msc_decide(1, Point(900, 0), {"bs1": Point(0, 0)}, 450.0,
                      has_satellite=False) is None
    # feasible steering never needs the satellite
    d = msc_decide(2, Point(100, 0), {"bs1": Point(0, 0)}, 450.0,
                   has_satellite=False)
    assert d.outcome is DecisionOutcome.STEER


def test_establish_link_delays():
    steer = msc_decide(1, Point(100, 0), {"bs1": Point(0, 0)}, 450.0, True)
    rec = establish_link(steer, "ms", ("m1",), decided_at=10.0,
                         steering_delay=0.5,
                         satellite_acquisition_delay=2.0)
    assert rec.endpoint.kind is NodeKind.BASE_STATION
    assert rec.endpoint.node_id == "bs1"
    assert rec.established_at == 10.5
    assert rec.relay_path == ("m1",)

    fb = msc_decide(2, Point(900, 0), {"bs1": Point(0, 0)}, 450.0, True)
    rec = establish_link(fb, "ms", ("m1", "m2"), decided_at=10.0,
                         steering_delay=0.5,
                         satellite_acquisition_delay=2.0,
                         satellite_id="sat1")
    assert rec.endpoint.kind is NodeKind.SATELLITE
    assert rec.endpoint.node_id == "sat1"
    assert rec.established_at == 12.0


def test_release_motes_sleeps_path_and_freezes_energy():
    sim = _line_sim()
    states = sim.mote_states
    states["m1"].energy_consumed = 4
    release_motes(("m1", "m2"), states)
    assert states["m1"].mode is MoteMode.SLEEPING
    assert states["m2"].mode is MoteMode.SLEEPING
    assert states["m3"].mode is MoteMode.ACTIVE
    release_motes(("m1",), states)  # idempotent
    assert states["m1"].mode is MoteMode.SLEEPING
    # a released mote no longer forwards or spends energy
    req = DiscoveryRequest(11, "ms", Point(0, 0), ttl=16)
    assert _hear(sim, "m1", req, set()) == []
    assert states["m1"].energy_consumed == 4
