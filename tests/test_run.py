"""Whole-run behavior: coverage loss, discovery, handoff, reports."""

import dataclasses
import hashlib
import math
import random
import weakref

import pytest
from invariants import (all_pairs_graph, check_dv_tables, check_relay_paths,
                        check_run, radio_positions)
from worlds import (DISCOVERY_FROM_A_MOTE_POINT, RADIO_RANGE, crossing_world,
                    grid_world, line_world, random_walk_world,
                    satellite_free_crossing_world, timed_world,
                    unit_disk_world)

from wsnhandoff import simulation
from wsnhandoff.protocol import (DecisionOutcome, DiscoveryRequest,
                                 MoteMode)
from wsnhandoff.scenario import (DEFAULT_PROFILES, NodeSpec, Scenario,
                                 SimParams, ValidationError, load_scenario,
                                 reference_scenario, strip_wsn)
from wsnhandoff.report import parse_report_ledger, serialize_report
from wsnhandoff.simulation import Frame, RunReport, Simulation, run
from wsnhandoff.stats import RegistryMismatchError
from wsnhandoff.world import (MobilityPath, NodeKind, PacketOutcome, Point,
                              RadioProfile, comm_graph, halt_time,
                              packet_outcome, position_at, profile_for_range,
                              received_power)


def _get(report: RunReport, token: str) -> int:
    return report.ledger.get(token)


def test_covered_station_never_searches():
    nodes = (
        NodeSpec("bs1", NodeKind.BASE_STATION, Point(0.0, 0.0)),
        NodeSpec("ms1", NodeKind.MOBILE_STATION, Point(100.0, 0.0)),
        NodeSpec("m01", NodeKind.MOTE, Point(60.0, 60.0)),
        NodeSpec("m02", NodeKind.MOTE, Point(140.0, 60.0)),
        NodeSpec("msc1", NodeKind.MSC, Point(10.0, 80.0)),
        NodeSpec("sat1", NodeKind.SATELLITE, Point(0.0, 900.0)),
    )
    rep = run(Scenario(nodes, {}, duration=15.0, seed=3))
    assert rep.links == ()
    assert rep.decisions == ()
    assert rep.escalations == ()
    # the mesh still gossips routes while the mobile stays quiet
    assert _get(rep, "app_bellman_ford.update_packets_received") > 0
    assert all(mode == "active" for _, mode in rep.mote_energy.values())


def test_a_pending_discovery_waits_for_its_deadline():
    # ms1 walks beside m01, which hears no base station, so no flood is
    # answered; coverage ticks four times a second, but a new flood goes
    # out only once the pending one times out, each second
    nodes = (
        NodeSpec("bs1", NodeKind.BASE_STATION, Point(0.0, 0.0)),
        NodeSpec("ms1", NodeKind.MOBILE_STATION, Point(1000.0, 0.0)),
        NodeSpec("m01", NodeKind.MOTE, Point(1050.0, 0.0)),
        NodeSpec("msc1", NodeKind.MSC, Point(10.0, 80.0)),
    )
    walk = MobilityPath((Point(1000.0, 100.0),), speed=1.0, halt_fraction=1.0)
    s = Scenario(nodes, {"ms1": walk}, duration=10.0, seed=1,
                 params=SimParams(coverage_check_period=0.25,
                                  discovery_timeout=1.0))
    sim = Simulation(s)
    report = check_run(sim)
    assert [h.deadline for h in sim.handoffs.values()] == [
        t + 1.0 for t in range(11)]
    assert report.escalations == () and report.decisions == ()


def test_a_corrupted_discovery_at_a_base_station_is_counted_not_escalated():
    # m01's hotter radio links it with bs1 280 m away, inside the base
    # station's 1 dB error band (267-300 m): bs1 locks on m01's discovery
    # forward but cannot read it
    nodes = (
        NodeSpec("bs1", NodeKind.BASE_STATION, Point(0.0, 0.0)),
        NodeSpec("ms1", NodeKind.MOBILE_STATION, Point(400.0, 0.0)),
        NodeSpec("m01", NodeKind.MOTE, Point(280.0, 0.0),
                 profile_for_range(400.0, error_margin_db=1.0)),
        NodeSpec("msc1", NodeKind.MSC, Point(10.0, 80.0)),
    )
    sim = Simulation(Scenario(nodes, {}, duration=5.0, seed=1))
    assert sim.bs_rows["m01"] == ("bs1",)
    assert sim.outcome_rows["m01"]["bs1"] is PacketOutcome.ERRORED
    report = check_run(sim)
    assert _get(report, "phy80211.signals_received_with_errors") == 1
    assert _get(report, "mac_link.frames_received") == 0
    assert report.escalations == () and report.decisions == ()


# a base station, a handset 2 km from it, the switching centre, a satellite
ISOLATED = (
    NodeSpec("bs1", NodeKind.BASE_STATION, Point(0.0, 0.0)),
    NodeSpec("ms1", NodeKind.MOBILE_STATION, Point(2000.0, 0.0)),
    NodeSpec("msc1", NodeKind.MSC, Point(10.0, 80.0)),
    NodeSpec("sat1", NodeKind.SATELLITE, Point(0.0, 900.0)),
)


def test_isolated_halted_station_goes_straight_to_satellite():
    s = Scenario(ISOLATED, {}, duration=6.0, seed=1)
    rep = run(s)
    assert len(rep.links) == 1
    link = rep.links[0]
    assert link.ms_id == "ms1"
    assert link.endpoint.kind is NodeKind.SATELLITE
    assert link.relay_path == ()
    assert link.established_at == pytest.approx(
        s.params.satellite_acquisition_delay)
    [(ms_id, decision)] = rep.decisions
    assert ms_id == "ms1"
    assert decision.outcome is DecisionOutcome.SATELLITE_FALLBACK
    assert rep.escalations == ()  # nobody relayed anything
    # a direct satellite link is not switched through the centre
    assert _get(rep, "mac_satcom.frames_relayed") == 0
    assert _get(rep, "mac_satcom.frames_sent") > 0


def test_isolated_station_without_satellite_keeps_searching():
    rep = run(Scenario(ISOLATED[:3], {}, duration=5.0, seed=1))
    assert rep.links == () and rep.decisions == ()


def test_a_walk_that_goes_nowhere_stands_at_its_start():
    # every waypoint is the start, so the route has no segment
    start = ISOLATED[1].position
    walk = MobilityPath((start, start), speed=8.0)
    assert halt_time(walk, start) == 0
    assert all(position_at(walk, start, t) == start
               for t in (0.0, 0.5, 2.0, 6.0, 1e9))
    sim = Simulation(Scenario(ISOLATED, {"ms1": walk}, duration=6.0, seed=1))
    rep = check_run(sim)
    assert [link.endpoint.kind for link in rep.links] == [NodeKind.SATELLITE]
    assert rep.digest == run(Scenario(ISOLATED, {}, duration=6.0,
                                      seed=1)).digest


def test_construction_validates_a_scenario_built_in_code():
    # run() would reschedule this coverage check at t = 0 forever
    with pytest.raises(ValidationError) as e:
        dataclasses.replace(reference_scenario(), duration=5.0,
                            params=SimParams(coverage_check_period=0.0))
    assert e.value.problems == ["coverage_check_period must be positive"]


def test_no_transmit_classifies_and_each_burst_is_heard_through_its_frames_row(
        monkeypatch):
    classified, powers = [], []
    real_outcome = simulation.packet_outcome
    real_power = simulation.received_power

    def counted_outcome(profile, rx_power_dbm):
        classified.append(rx_power_dbm)
        return real_outcome(profile, rx_power_dbm)

    def counted_power(profile, distance):
        powers.append(distance)
        return real_power(profile, distance)

    monkeypatch.setattr(simulation, "packet_outcome", counted_outcome)
    monkeypatch.setattr(simulation, "received_power", counted_power)
    s = reference_scenario()
    sim = Simulation(s)
    # set-up reads each mote's row from the static graph, which classified
    # each pair as it built it: the rows are the oracle's outcomes
    assert classified == powers == []
    oracle = all_pairs_graph(radio_positions(s), sim.profiles)
    assert sim.outcome_rows == {
        m: {rx: outcome for rx, outcome in oracle[m].items()
            if sim.kinds[rx] is not NodeKind.MOBILE_STATION}
        for m in sim.mote_states}
    rows = {(m, rx) for m, row in sim.outcome_rows.items() for rx in row}
    bursts = []  # (t, sender, receivers, the frame's row, the payload)
    burst = sim._deliver_burst

    def recorded_burst(t, seq, receivers, payload):
        frame = payload[1]
        bursts.append((t, frame.src, receivers, frame.outcomes,
                       payload == ("deliver", frame)))
        burst(t, seq, receivers, payload)

    sim._deliver_burst = recorded_burst
    sim.run()
    # the coverage checks classified the handsets' pairs through world's
    # names, and no transmit classified anything
    assert classified == powers == []
    moving = sim.s.mobility
    fixed_seen, fixed_sends, handset_times = set(), 0, set()
    for t, src, receivers, row, frame_only in bursts:
        # the burst carries its frame alone, so it is heard through its row
        assert frame_only and row.keys() >= set(receivers), (t, src)
        if src in moving:
            handset_times.add(t)
        else:
            # a mote's frames carry its row, built once at set-up
            assert row is sim.outcome_rows[src], (t, src)
            fixed_sends += len(receivers)
            fixed_seen.update((src, rx) for rx in receivers)
    assert fixed_seen <= rows
    assert fixed_sends > len(fixed_seen)  # fixed pairs were heard again
    assert len(handset_times) >= 2


@pytest.mark.parametrize("seed", range(20))
def test_a_burst_reaches_its_awake_receivers_that_hear_it_in_order(seed):
    # an advert from m06 to a random set of its neighbours, with random
    # receptions and some receivers asleep
    rng = random.Random(seed)
    sim = Simulation(reference_scenario())
    receivers = tuple(rng.sample(sim.mote_rows["m06"], rng.randint(1, 8)))
    outcomes = {rx: rng.choice(list(PacketOutcome)) for rx in receivers}
    asleep = rng.sample(receivers, rng.randint(0, min(2, len(receivers))))
    for m in asleep:
        sim.mote_states[m].mode = MoteMode.SLEEPING
    heard = []
    sim._receivers["dv"] = lambda t, frame, rx: heard.append(rx)
    frame = Frame("dv", "m06", targets=receivers, outcomes=outcomes,
                  ip_ttl=9)
    sim.queue.schedule_burst(0.0, receivers, ("deliver", frame))
    assert sim.queue.run_until(0.0, sim._dispatch) == len(receivers)
    sim._hash_lines()  # what run() does when its window ends
    sim._close_ledger()
    lines = [f"0.000000 {seq} {rx} deliver"
             for seq, rx in enumerate(receivers, 1)]
    assert sim._digest.hexdigest() == hashlib.sha256(
        "\n".join(lines).encode()).hexdigest()
    locked = [(rx, outcomes[rx]) for rx in receivers
              if rx not in asleep and outcomes[rx] is not PacketOutcome.LOST]
    assert heard == [rx for rx, outcome in locked
                     if outcome is PacketOutcome.DELIVERED]
    clear = len(heard)
    got = sim.ledger.get
    assert got("phy80211.signals_locked") == len(locked)
    assert got("phy80211.signals_received_with_errors") == len(locked) - clear
    for token in ("phy80211.signals_received_forwarded_to_mac",
                  "mac80211.broadcast_received_clearly",
                  "mac_dcf.broadcast_received", "net_ip.in_received",
                  "net_ip.in_delivers", "transport_udp.packets_to_app"):
        assert got(token) == clear, token
    assert got("net_ip.in_delivers_ttl_sum") == 9 * clear


def test_a_broadcast_without_receivers_keys_the_radio_and_schedules_nothing():
    # a discovery forward with no eligible neighbour is still transmitted
    sim = Simulation(reference_scenario())
    sim._transmit(0.0, Frame("discovery", "m06", targets=(),
                             outcomes=sim.outcome_rows["m06"]))
    assert len(sim.queue) == 0
    assert sim.ledger.get("mac80211.broadcast_sent") == 1


def test_a_full_one_frame_queue_drops_the_offer_and_keeps_one_drain():
    # the drain is scheduled on an empty queue only: a dropped offer at
    # queue_capacity=1 also leaves one frame, and must not add a drain
    s = dataclasses.replace(reference_scenario(),
                            params=SimParams(queue_capacity=1))
    sim = Simulation(s)
    for _ in range(2):
        sim._send(Frame("sat_request", "ms1", dst="sat1", satlink=True))
    q = sim.node_queues["ms1"]
    assert (q.queued, q.dropped, len(q)) == (2, 1, 1)
    assert len(sim.queue) == 1
    t, _, _, payload = sim.queue.pop()
    assert payload == ("drain", "ms1")
    sim._on_drain(t, payload)
    assert (q.dequeued, len(q)) == (1, 0)
    # what the drain scheduled: its transmission, and no further drain
    pending = [sim.queue.pop() for _ in range(len(sim.queue))]
    assert pending and all(ev[3][0] != "drain" for ev in pending)


def test_a_forward_queued_at_a_mote_that_sleeps_before_its_drain_costs_nothing():
    # two motes decide to forward a discovery; m06 is put to sleep before
    # its queue drains, so only m11 transmits, and only m11 pays
    sim = Simulation(reference_scenario())
    copy = Frame("discovery", "ms1", payload=(
        DiscoveryRequest(1, "ms1", Point(0.0, 190.0), 16), set()))
    for mote in ("m06", "m11"):
        sim._rx_discovery(0.0, copy, mote)
    assert all(len(sim.node_queues[m]) == 1 for m in ("m06", "m11"))
    sim._release(("m06",))
    for _ in range(2):
        t, _, _, payload = sim.queue.pop()
        sim._on_drain(t, payload)
    assert all(len(sim.node_queues[m]) == 0 for m in ("m06", "m11"))
    assert sim.mote_states["m06"].energy_consumed == 0
    assert sim.mote_states["m11"].energy_consumed == simulation.ENERGY_PER_TX
    assert sim.ledger.get("phy80211.signals_transmitted") == 1


def test_a_repeated_discovery_copy_is_dropped_before_mote_forward(
        monkeypatch):
    # m06 hears request 1 clearly from ms1, then again from m02, which
    # forwarded it: the first copy is forwarded, and the second moves only
    # the reception counters, without reaching mote_forward
    forwarded = []
    real_forward = simulation.mote_forward

    def counted_forward(mote_id, *args):
        forwarded.append(mote_id)
        return real_forward(mote_id, *args)

    monkeypatch.setattr(simulation, "mote_forward", counted_forward)
    sim = Simulation(reference_scenario())
    offers = []
    send = sim._send

    def recorded_send(frame):
        offers.append((frame.src, frame.kind, frame.payload[0].path))
        return send(frame)

    sim._send = recorded_send
    req, reached = DiscoveryRequest(1, "ms1", Point(0.0, 190.0), 16), set()
    first = Frame("discovery", "ms1", targets=("m06",),
                  outcomes={"m06": PacketOutcome.DELIVERED},
                  payload=(req, reached))
    sim._deliver_burst(0.0, 1, ("m06",), ("deliver", first))
    assert forwarded == ["m06"]
    assert offers == [("m06", "discovery", ("m06",))]
    assert len(sim.queue) == 1  # m06's drain
    state = sim.mote_states["m06"]
    held, energy = set(reached), state.energy_consumed
    before = sim.ledger.as_dict()
    repeat = Frame("discovery", "m02", targets=("m06",),
                   outcomes=sim.outcome_rows["m02"], ip_ttl=15,
                   payload=(req._replace(ttl=15, path=("m02",)), reached))
    sim._deliver_burst(0.0, 2, ("m06",), ("deliver", repeat))
    assert forwarded == ["m06"]
    assert len(offers) == 1 and len(sim.node_queues["m06"]) == 1
    assert len(sim.queue) == 1
    assert reached == held == {"m06"}
    assert state.energy_consumed == energy
    moved = {token: value - before[token]
             for token, value in sim.ledger.as_dict().items()
             if value != before[token]}
    assert moved == {"phy80211.signals_received_forwarded_to_mac": 1,
                     "mac80211.broadcast_received_clearly": 1,
                     "net_ip.in_delivers_ttl_sum": 15}


def test_a_base_station_escalates_a_request_the_motes_have_seen_once():
    # request 1's flood has reached every mote; bs1 hears it from m05 and
    # then from m01, and escalates it to the switching centre on the first
    # copy only, with no Handoff record to read
    sim = Simulation(reference_scenario())
    reached = set(sim.mote_states)
    deliver = sim._handlers["deliver"]
    for path in (("m06", "m05"), ("m02", "m01")):
        relay = path[-1]
        req = DiscoveryRequest(1, "ms1", Point(0.0, 190.0), 14, path)
        frame = Frame("discovery", relay, dst="bs1",
                      outcomes=sim.outcome_rows[relay],
                      payload=(req, reached), ip_ttl=14)
        deliver(0.0, ("deliver", frame))
    assert reached - set(sim.mote_states) == {"bs1"}
    assert sim.handoffs == {}
    assert len(sim.queue) == 1
    t, _, target, (kind, esc) = sim.queue.pop()
    assert (t, target, kind) == (sim.p.backhaul_delay, "msc1", "backhaul")
    assert (esc.request_id, esc.bs_id, esc.relay_path) == (
        1, "bs1", ("m06", "m05"))


def test_a_motes_frames_carry_its_own_outcome_row():
    # no copy per frame: m06's advert and flood and m01's forward to bs1
    # hold the row built at set-up, which their burst or unicast reads
    sim = Simulation(reference_scenario())
    req = DiscoveryRequest(1, "ms1", Point(0.0, 190.0), 16)
    sim._broadcast_dv("m06", sim.mote_rows["m06"])
    for mote in ("m06", "m01"):
        sim._rx_discovery(0.0, Frame("discovery", "ms1",
                                     payload=(req, set())), mote)
    frames = [(m, f) for m in ("m06", "m01") for f in sim.node_queues[m].items]
    assert [(m, f.kind, f.dst) for m, f in frames] == [
        ("m06", "dv", None), ("m06", "discovery", None),
        ("m01", "discovery", "bs1")]
    assert all(f.outcomes is sim.outcome_rows[m] for m, f in frames)
    for m, f in frames:
        sim._transmit(0.0, f)
    events = [sim.queue.pop() for _ in range(len(sim.queue))]
    delivers = [ev for ev in events if ev[3][0] == "deliver"]
    assert [ev[2] for ev in delivers] == [sim.mote_rows["m06"]] * 2 + ["bs1"]
    # each delivery carries its frame alone, and so reads the frame's row
    assert [ev[3] for ev in delivers] == [("deliver", f) for _, f in frames]


def test_a_handset_burst_is_heard_as_its_coverage_check_found_it():
    # ms1 walks east from (0, 190) at 8 m/s.  Its discovery carries the row
    # of the check at t = 10, from (80, 190), and is heard through it,
    # though the frame leaves at t = 25, from (200, 190).  A radio here
    # reaches 150 m, and its last 1 dB (beyond 133.7 m) locks in error:
    # from there m01 (134.2 m away) would hear the frame in error, and m09
    # (184.4 m) not at all
    sim = Simulation(reference_scenario())
    targets = ("m01", "m02", "m05", "m06", "m09")
    D, E = PacketOutcome.DELIVERED, PacketOutcome.ERRORED
    row = sim.handset_graph(10.0)["ms1"]
    assert row == {"bs1": D, "m01": D, "m02": D, "m05": D, "m06": D,
                   "m09": E}
    heard = []
    sim._receivers["discovery"] = lambda t, frame, rx: heard.append(rx)
    req = DiscoveryRequest(1, "ms1", sim.here["ms1"], 16)
    frame = Frame("discovery", "ms1", targets=targets, payload=req,
                  outcomes=row)
    sim._transmit(25.0, frame)
    bursts = []

    def dispatch(ev):
        bursts.append(ev)
        sim._dispatch(ev)

    assert sim.queue.run_until(26.0, dispatch) == len(targets)
    [burst] = bursts
    assert burst[3] == ("deliver", frame) and frame.outcomes is row
    assert heard == ["m01", "m02", "m05", "m06"]
    sim._close_ledger()
    got = sim.ledger.get
    assert got("phy80211.signals_locked") == 5
    assert got("phy80211.signals_received_with_errors") == 1
    assert got("phy80211.signals_received_forwarded_to_mac") == 4
    assert got("mac80211.broadcast_received_clearly") == 4


# ms1 is steered to bs1 by its discovery at t = 15 (through m00).  At t = 45
# it queues a payload for bs1, then walks out of the beam at (450, 190) and
# queues a discovery for m01 (130 m west, clear) and m09 (146 m, in error).
# The payload takes the t = 45 slot, so the discovery leaves one tx_slot
# later, from (455, 190), where m01 would hear it in error and m09 not at
# all.
WAITING_DISCOVERY = """[params]
duration = 47
app_interval = 29.43
tx_slot = 0.5
[node]
bs1 base_station 0 200
msc1 msc 500 -400
ms1 mobile_station 0 190
m00 mote 60 130
m01 mote 320 190
m09 mote 304 190
[mobility]
ms1 speed=10 halt=1 waypoints=1000,190
"""


def test_a_discovery_that_waits_in_its_queue_is_heard_as_its_check_found_it():
    sim = Simulation(load_scenario(WAITING_DISCOVERY))
    bursts = []  # (time, request id, receivers, outcomes) of ms1's floods
    burst = sim._deliver_burst

    def recorded_burst(t, seq, receivers, payload):
        frame = payload[1]
        if frame.src == "ms1":
            bursts.append((t, frame.payload[0].request_id, receivers,
                           dict(frame.outcomes)))
        burst(t, seq, receivers, payload)

    sim._deliver_burst = recorded_burst
    report = check_run(sim)
    assert [link.established_at for link in report.links] == [15.57]
    D, E = PacketOutcome.DELIVERED, PacketOutcome.ERRORED
    hop = sim.p.hop_delay
    assert bursts[:2] == [(15.0 + hop, 1, ("m00",), {"m00": D}),
                          (45.5 + hop, 2, ("m01", "m09"),
                           {"m01": D, "m09": E})]
    assert position_at(sim.s.mobility["ms1"], sim.start_pos["ms1"],
                       45.5) == Point(455.0, 190.0)


# ms1 is steered to bs1 from a discovery at t = 0, and the link comes up at
# t = 2, just before that instant's coverage check.  By then ms1 has halted
# 800 m out, past the steering range with no radio neighbour, so the check
# drops the link and a satellite link comes up at once (no acquisition
# delay): two links established at the same instant.
SAME_INSTANT_LINKS = """[params]
duration = 6
hop_delay = 0.125
backhaul_delay = 0.25
steering_delay = 1.5
satellite_acquisition_delay = 0
[node]
bs1 base_station 0 0
m1 mote 100 0
ms1 mobile_station 200 0
sat1 satellite 0 5000
msc1 msc 0 -500
[mobility]
ms1 speed=400 halt=0.5 waypoints=1400,0
"""


def test_a_link_dropped_at_its_bring_up_instant_ends_its_payload_cycle():
    # each payload cycle belongs to one link record, so the dropped link's
    # cycle ends and ms1 sends one payload a second, not two
    sim = Simulation(load_scenario(SAME_INSTANT_LINKS))
    report = check_run(sim)
    assert [(link.endpoint.node_id, link.established_at)
            for link in report.links] == [("bs1", 2.0), ("sat1", 2.0)]
    # the discovery, the satellite request and one payload at t = 3..6
    assert sim.node_queues["ms1"].queued == 6
    assert _get(report, "mac_satcom.frames_relayed") == 0


# At t = 0, ms1 floods request 1 over two motes to bs1 and ms2 request 2
# over one mote to bs2.  Request 2 is decided first (t = 0.5), for the
# satellite, since ms2 is out of every beam's reach; request 1 a hop later
# (t = 0.625), a steer to bs1.  The satellite's longer acquisition makes
# both links come up at t = 1.125: request 2's first, as it was scheduled
# first.
LINK_UP_ORDER_WORLD = """[params]
duration = 3
hop_delay = 0.125
backhaul_delay = 0.25
steering_delay = 0.5
satellite_acquisition_delay = 0.625
max_steer_range = 170
[node]
bs1 base_station 0 0
m1 mote 160 125
m2 mote 40 125
ms1 mobile_station 160 0
bs2 base_station -1000 0
m3 mote -880 0
ms2 mobile_station -780 0
sat1 satellite 0 5000
msc1 msc 0 -500
"""


def test_links_keep_link_up_order_and_decisions_request_id_order():
    # links sorted by time, ties broken by request id, would put ms1 first
    sim = Simulation(load_scenario(LINK_UP_ORDER_WORLD))
    report = check_run(sim)
    assert [(link.ms_id, link.established_at) for link in report.links] == [
        ("ms2", 1.125), ("ms1", 1.125)]
    assert [h.decision.request_id for h in sim.linked] == [2, 1]
    assert [(ms, d.request_id) for ms, d in report.decisions] == [
        ("ms1", 1), ("ms2", 2)]
    assert [esc.request_id for esc in report.escalations] == [1, 2]


def test_check_run_fails_a_merge_that_raises_a_lane(monkeypatch):
    # routing.py proves that no merge raises a lane, and check_run asserts
    # it on every merge
    merge = simulation.apply_update

    def raise_one_lane(table, update):
        changed = merge(table, update)
        table.metrics[table.lanes.index[table.owner]] += 1  # 0 to 1
        return changed

    monkeypatch.setattr(simulation, "apply_update", raise_one_lane)
    with pytest.raises(AssertionError, match="a lane rose"):
        check_run(Simulation(reference_scenario()))


def test_check_run_fails_a_merge_that_sets_a_wrong_next_hop(monkeypatch):
    # the lockstep oracle compares every lane's next hop after each merge
    merge = simulation.apply_update

    def misroute_one_lane(table, update):
        changed = merge(table, update)
        if changed:  # an adopted lane goes through the sender: use the owner
            lane = table.hops.tolist().index(table.lanes.index[update[0]])
            table.hops[lane] = table.lanes.index[table.owner]
        return changed

    monkeypatch.setattr(simulation, "apply_update", misroute_one_lane)
    with pytest.raises(AssertionError, match="a next hop differs"):
        check_run(Simulation(reference_scenario()))


def test_check_run_fails_a_copy_that_reaches_a_sleeping_mote(monkeypatch):
    # a burst skips sleeping receivers, so no copy reaches mote_forward at
    # a sleeping mote; check_run asserts it of every copy.  With the mode
    # compared to a member no mote holds, the skip never happens, and in
    # this world a later flood reaches a mote put to sleep
    monkeypatch.setattr(simulation, "SLEEPING", object())
    with pytest.raises(AssertionError, match="a sleeping mote forwards"):
        check_run(Simulation(timed_world(7252)))


def _reach_with(sim, make):
    """Wrap sim._send so that each discovery flood a handset starts
    carries make(request, fresh) as its reached set, where fresh is the set
    the handset made; the frame is rebuilt only around another set."""
    send = sim._send

    def swapped(frame):
        if frame.kind == "discovery" and frame.src in sim.ms_states:
            req, fresh = frame.payload
            reached = make(req, fresh)
            if reached is not fresh:
                frame = Frame("discovery", frame.src, frame.dst, frame.targets,
                              frame.outcomes, (req, reached), frame.ip_ttl)
        return send(frame)

    sim._send = swapped


def _held_reached_sets(sim, *events) -> set:
    """The ids of the reached sets held by discovery frames that are still
    queued at a node or still to be delivered by a pending event or by one
    of `events`."""
    frames = [f for q in sim.node_queues.values() for f in q.items]
    frames += [ev[3][1] for ev in (*sim.queue._heap, *sim.queue._now, *events)
               if ev[3][0] == "deliver"]
    return {id(f.payload[1]) for f in frames if f.kind == "discovery"}


@pytest.mark.parametrize("walkers", [3, 16])
def test_a_floods_reached_set_is_freed_with_its_last_copy(walkers):
    # Only queued and in-flight frames hold a flood's reached set, so it is
    # freed with the flood's last copy.  A weak reference follows each set
    # a handset makes (3 walkers is grid4-three-walkers).  Before every
    # event but a drain (which may come off the engine's same-instant lane
    # while its loop still names the event before) and at the end, every
    # set still alive is held by a queued frame or a delivery, pending or
    # about to run
    sim = Simulation(grid_world(4, [
        (f"ms{i + 1}", 190.0 - 7 * i, 8.0 + 0.25 * i)
        for i in range(walkers)]))
    alive = {}  # id of a weak reference -> it, while its set lives
    made = peak = 0

    def tracked(req, fresh):
        nonlocal made, peak
        ref = weakref.ref(fresh, lambda r: alive.pop(id(r)))
        alive[id(ref)] = ref
        made += 1
        peak = max(peak, len(alive))
        return fresh

    def unheld(*events):
        held = _held_reached_sets(sim, *events)
        return [ref() for ref in alive.values() if id(ref()) not in held]

    _reach_with(sim, tracked)
    dispatch, checks = sim._dispatch, []

    def checked(ev):
        if ev[3][0] != "drain":
            checks.append(len(alive))
            assert unheld(ev) == [], ev[:3]
        dispatch(ev)

    sim._dispatch = checked
    sim.run()
    assert unheld() == []
    assert max(checks) == peak  # checked while the most floods ran
    # a handset has one discovery pending at most, and these floods end
    # long before it times out: at most one set per handset lives at once
    assert 0 < peak <= walkers < made


class _Forgetful(set):
    """A reached set that never finds what it holds."""

    def __contains__(self, item):
        return False


class _Unreached(set):
    """A reached set that nothing joins."""

    def add(self, item):
        pass


def test_check_run_fails_a_copy_that_reaches_a_mote_on_its_path(
        monkeypatch):
    # a flood targets only motes off its path, and a mote on the path is in
    # the flood's reached set; with both guards gone, a copy comes back
    forward = simulation.mote_forward

    def flood_back(mote_id, req, bs_neighbors, active_neighbors):
        out = forward(mote_id, req, bs_neighbors, active_neighbors)
        if out is None or out[1] is not None:
            return out
        return out[0], None, active_neighbors

    monkeypatch.setattr(simulation, "mote_forward", flood_back)
    sim = Simulation(reference_scenario())
    _reach_with(sim, lambda req, fresh: _Forgetful())
    with pytest.raises(AssertionError, match="a mote on the path forwards"):
        check_run(sim)


def test_check_run_fails_a_radio_unicast_from_a_handset():
    # only a mote sends a radio unicast, a forward handed to a base station,
    # so _transmit reads the sender's outcome row; check_run asserts it of
    # every radio unicast.  Here the handsets send their floods to bs1
    sim = Simulation(reference_scenario())
    send = sim._send

    def unicast(frame):
        if frame.kind == "discovery" and frame.src in sim.ms_states:
            frame = Frame("discovery", frame.src, "bs1", (), frame.outcomes,
                          frame.payload)
        return send(frame)

    sim._send = unicast
    with pytest.raises(AssertionError, match="radio unicast from a non-mote"):
        check_run(sim)


def test_check_run_fails_a_copy_whose_path_left_its_reached_set():
    # a receiver that does not join the flood's reached set leaves a mote
    # on the path of the next copy outside it, and check_run asserts at
    # every discovery reception that the path is inside the set
    sim = Simulation(reference_scenario())
    _reach_with(sim, lambda req, fresh: _Unreached())
    with pytest.raises(AssertionError,
                       match="a mote on the path is not in the reached set"):
        check_run(sim)


# ---- report files --------------------------------------------------------


def test_report_parser_rejects_foreign_or_broken_registries():
    rep = run(strip_wsn(reference_scenario()))
    text = serialize_report(rep)
    with pytest.raises(RegistryMismatchError):
        parse_report_ledger(text + "phy80211.bogus=1\n")
    with pytest.raises(RegistryMismatchError):
        parse_report_ledger(text + "phy80211.signals_locked=1\n")
    lines = [ln for ln in text.splitlines()
             if not ln.startswith("phy80211.signals_locked=")]
    with pytest.raises(RegistryMismatchError):
        parse_report_ledger("\n".join(lines))
    with pytest.raises(RegistryMismatchError):
        parse_report_ledger("what even is this\n")


@pytest.mark.parametrize("value", ["x61", "-59", "1.5", ""])
def test_report_parser_rejects_a_value_that_is_not_a_count(value):
    text = serialize_report(run(strip_wsn(reference_scenario())))
    lines = [f"phy80211.signals_locked={value}"
             if ln.startswith("phy80211.signals_locked=") else ln
             for ln in text.splitlines()]
    with pytest.raises(RegistryMismatchError):
        parse_report_ledger("\n".join(lines))


# ---- relay paths in random worlds ---------------------------------------


def _walks_with_a_ttl():
    rng = random.Random(31337)
    for _ in range(30):
        s = random_walk_world(rng)
        yield dataclasses.replace(
            s, params=SimParams(default_ttl=rng.randint(1, 6)))


def _chains():
    for n in (3, 5):  # chains the flood crosses with its last hop of TTL
        yield dataclasses.replace(line_world(n, 9),
                                  params=SimParams(default_ttl=n))


def _two_cells():
    # two cells, so that an escalation could name one its relays miss
    rng = random.Random(777)
    far = NodeSpec("bs2", NodeKind.BASE_STATION, Point(620.0, -620.0),
                   profile_for_range(RADIO_RANGE))
    for _ in range(6):
        s = unit_disk_world(rng, 14)
        yield dataclasses.replace(s, nodes=s.nodes + (far,))


@pytest.mark.parametrize("worlds, least_paths, least_routes", [
    (_walks_with_a_ttl, 51, 10), (_chains, 4, 0), (_two_cells, 4, 0)],
    ids=["walks-31337", "chains", "two-cells-777"])
def test_relay_paths_in_random_worlds_are_mote_paths_within_the_ttl(
        worlds, least_paths, least_routes):
    checked = routes = 0
    for s in worlds():
        sim = Simulation(s)
        checked += check_relay_paths(sim.s, check_run(sim))
        routes += check_dv_tables(sim)
    assert checked >= least_paths
    assert routes >= least_routes


# ---- per-handset coverage against the full communication graph ----------


def _graph_inputs_at(s: Scenario, t: float):
    """comm_graph's arguments with every radio positioned at t."""
    positions = {n: (position_at(s.mobility[n], p, t) if n in s.mobility
                     else p) for n, p in radio_positions(s).items()}
    return positions, {n.node_id: n.profile for n in s.nodes}


def _full_graph_at(s: Scenario, t: float):
    """Oracle: every radio positioned at t and the whole graph rebuilt."""
    return all_pairs_graph(*_graph_inputs_at(s, t))


# seed -> (digest, events_processed, sha256 of serialize_report, sha256 of
# repr((decisions, escalations))).  Seeds picked from 0..7999 so that
# together the worlds reach each cross-request corner of the handoff state
# machine: a decision for a handset that already has a link; a decision for
# an older request that ends a newer pending discovery; a second bring-up
# while one is in flight; a decision after its discovery timed out; an
# establish dropped because a link is up; an establish arriving after
# another one cleared awaiting_link; a link that comes up while a newer
# discovery is pending; an escalation after its request's link is up, whose
# path is put to sleep; a duplicate escalation from a second base station;
# and (7252) a decision that ends the discovery a served handset holds.
CORNER_WORLDS = {
    65: (
        "54c8a32d496c06cdf0cba557e3441da7791ef6c2f55b97b49486bb181e1e652a",
        3141,
        "4f1ad6cd0ac9f15a043cd6d490c88407f81a15940ff8e2ef2808f31f65980786",
        "42c0f82cfbae3e93f17608acf1438387da9ce67d5e121689d5fd96f892c5141f"),
    628: (
        "6329805f247b0b53bdf691b157e489336265e4f46e2fa609eea4a470533265b9",
        4832,
        "359733e8f443476031c1b8e4543ee0c95a0f85c48c7bd86cc2145db52279ee76",
        "2491302e1940e3ee668bbdde0b0e34aa2ff816e2e6e66ac7e250d80e6aaaed4a"),
    832: (
        "c373e2253a33c21054bef82fd916a6a1b8baccbc3908f7d686dbb1c8a5965f4e",
        4013,
        "9a4900dbf1e8320d1a75ac4d07b4ea95fa58ce9e91ce99e7dbf22562614910d5",
        "893ccbd8196bb36093db3aeb6c431583e82a89eff47fb0c1ad940624c4801727"),
    1072: (
        "264e8ed40261d8a1912fa3bcc8a9e2440825fac8be97798d90c6d62a688a6a18",
        3804,
        "82704b216cce2cb2c6bf4faea760fb03e6e37313081ce965a874e911b430ba0b",
        "13ead316ab6d934edf227c85466e09eebaa9d20737c7c75e231384c66fef20a1"),
    1273: (
        "c39f05764947eee183850b4002808d5be81e93e0db53cf5485a8ad05ba83f5a7",
        2054,
        "9e6bfc9759b1034bf813f677543e6abdccbe2fd2e2c017865430b6e4ad973890",
        "fdc63b288b1b18ca2800893ffb37f22d39dd612a5ae3596c5ae445bd51f3d746"),
    2670: (
        "aa893ed7f9eb9f5229cee4ce6be69f2af6937efa33c1e102f69b17fcd8e716ce",
        4068,
        "535ed19b28fc9a3b7a3d7fc2851d173a355fab876ee6a549a84cdf36cfe4f887",
        "5748708b5871795fb13c1c9f03785e813ce76571e2cf6093e24fd94d4156d6e4"),
    4868: (
        "286ab492bf31db65e9b2fd3a48b1841991055a92e35f3406ea5f3b3ccdeabc5a",
        4212,
        "3be4ad69942273e1768e148fd4734cdac7e497a94eac9dc02edc9640c74d7dcd",
        "c0c52a31d1ae8c88dfd6b9c55ab27a68668d73f012d2488077a608b2d9d0e26c"),
    5184: (
        "a50f484eec181add84fbc73b703251385aa19813e4a27d909648fccddae18965",
        4224,
        "5fd84a347b08376c1d3f9a6d98558108181a9cb6d02343f19b58927e0f5b891a",
        "60732746d54224a4cf9878b8819044465184b73d48f1ff1b74214303b08fd679"),
    7252: (
        "cd2203dee95bfab825b5a19d482d884d0ce210805644bfd112f483c3a662d3cc",
        3849,
        "8771fe2c20fcf2a5fa0fd16128ace6ec4e0ccda4bc4f545491a2d87d00489c6a",
        "1156786a4cc9219f0be4dfcbe05abcabbbd093e94c455bff18c163c13136485b"),
}


@pytest.mark.parametrize("seed", sorted(CORNER_WORLDS))
def test_cross_request_corners_match_their_pins(seed):
    report = check_run(Simulation(timed_world(seed)))
    logs = repr((report.decisions, report.escalations))
    got = (report.digest, report.events_processed,
           hashlib.sha256(serialize_report(report).encode()).hexdigest(),
           hashlib.sha256(logs.encode()).hexdigest())
    assert got == CORNER_WORLDS[seed]


def test_a_decision_for_a_served_handset_clears_its_pending_discovery():
    # the decision for request 9 reaches ms1 while a link serves it: it is
    # logged and brings nothing up, but it still ends the discovery, which
    # would otherwise stay pending until its deadline
    sim = Simulation(timed_world(7252))
    report = sim.run()
    st, answered = sim.ms_states["ms1"], sim.handoffs[9]
    assert st.link is not None and st.pending is None
    assert ("ms1", answered.decision) in report.decisions
    assert answered.link is None


def _boundary_worlds() -> list:
    """Stationary handsets around one fixed node at the origin: exactly at
    the binding range_radius() of the pair, one float step inside it and
    one step outside, on the axes so that each distance is exact.  The
    fixed node is a mote or a base station, with the smaller radius on
    either end of the pair.  The last worlds hold radios whose
    range_radius() overflows, underflows, or is blurred by rounding of dB
    values of huge magnitude (a handset 0.5% past it still links)."""
    hot = profile_for_range(400.0, error_margin_db=1.0)
    huge = RadioProfile(1e15, 1e15 - 83.52, 1.0)
    mote, bs, handset = (DEFAULT_PROFILES[k] for k in (
        NodeKind.MOTE, NodeKind.BASE_STATION, NodeKind.MOBILE_STATION))
    cases = [(NodeKind.MOTE, mote, handset), (NodeKind.BASE_STATION, bs, hot),
             (NodeKind.MOTE, hot, handset)]
    worlds = []
    for kind, fixed_profile, ms_profile in cases:
        node = NodeSpec("n0", kind, Point(0.0, 0.0), fixed_profile)
        r = min(fixed_profile.range_radius(), ms_profile.range_radius())
        spots = [Point(r, 0.0), Point(0.0, math.nextafter(r, 0.0)),
                 Point(-math.nextafter(r, math.inf), 0.0)]
        worlds.append([node] + [
            NodeSpec(f"ms{i}", NodeKind.MOBILE_STATION, p, ms_profile)
            for i, p in enumerate(spots)])
    edge = huge.range_radius()
    worlds.append([
        NodeSpec("n0", NodeKind.MOTE, Point(0.0, 0.0), huge),
        NodeSpec("n1", NodeKind.MOTE, Point(0.0, 3000.0),
                 RadioProfile(7000.0, -90.0, 1.0)),
        NodeSpec("n2", NodeKind.MOTE, Point(0.0, 6000.0),
                 RadioProfile(0.0, 7000.0, 1.0)),
        NodeSpec("ms0", NodeKind.MOBILE_STATION, Point(edge * 1.005, 0.0),
                 hot),
        NodeSpec("ms1", NodeKind.MOBILE_STATION, Point(0.0, 3100.0)),
        NodeSpec("ms2", NodeKind.MOBILE_STATION, Point(0.0, 6000.5))])
    sat = NodeSpec("sat1", NodeKind.SATELLITE, Point(0.0, -9000.0))
    return [Scenario(tuple(sorted(nodes + [sat], key=lambda n: n.node_id)),
                     {}, duration=60.0, seed=1) for nodes in worlds]


def test_handset_rows_match_a_full_graph_rebuild():
    # a coverage check reads only a handset's base stations and motes
    fixed = (NodeKind.BASE_STATION, NodeKind.MOTE)
    compared = 0
    for s in _walks(4242, 40) + _boundary_worlds():
        sim = Simulation(s)
        for t in [0.0, 0.5, 1.0, 7.25, 13.0, 31.5, 60.0]:
            oracle = _full_graph_at(s, t)
            rows = sim.handset_graph(t)
            for ms_id in sim.ms_states:
                assert rows[ms_id] == {n: outcome for n, outcome
                                       in oracle[ms_id].items()
                                       if sim.kinds[n] in fixed}
                compared += 1
    assert compared > 300


def _walks(seed: int, count: int) -> list:
    rng = random.Random(seed)
    return [random_walk_world(rng) for _ in range(count)]


def _at_four_instants(worlds: list) -> list:
    return [_graph_inputs_at(s, t) for s in worlds
            for t in [0.0, 1.0, 13.0, 60.0]]


def _scattered_radios(rng):
    """2..10 radios at random points of a 400 m square, each with one of
    four ranges: comm_graph's arguments."""
    positions, profiles = {}, {}
    for i in range(rng.randint(2, 10)):
        nid = f"n{i:02d}"
        positions[nid] = Point(round(rng.uniform(0, 400), 3),
                               round(rng.uniform(0, 400), 3))
        profiles[nid] = profile_for_range(rng.choice([60, 120, 200, 350]))
    return positions, profiles


def _scattered(seed: int, count: int) -> list:
    rng = random.Random(seed)
    return [_scattered_radios(rng) for _ in range(count)]


@pytest.mark.parametrize("inputs", [
    lambda: _at_four_instants(_walks(4343, 40)),
    lambda: _at_four_instants(_boundary_worlds()),
    lambda: _scattered(5, 1), lambda: _scattered(99, 60)],
    ids=["walks-4343", "boundary", "scattered-5", "scattered-99"])
def test_comm_graph_matches_the_all_pairs_oracle(inputs):
    # the oracle's graph holds every radio and no self-loop, and is
    # symmetric, so equality checks those too
    for positions, profiles in inputs():
        assert comm_graph(positions, profiles) == all_pairs_graph(
            positions, profiles)


def _shared_points(positions: dict) -> list:
    """The points that two or more of `positions` share."""
    ids = {}
    for n, p in positions.items():
        ids.setdefault(p, []).append(n)
    return [sorted(group) for group in ids.values() if len(group) > 1]


@pytest.mark.parametrize("walkers, pair", [
    # walks through m01's exact point at t = 8 (powers of two keep the
    # walk exact)
    ([("ms1", Point(0.0, 0.0), Point(1024.0, 0.0))], ["m01", "ms1"]),
    # two handsets meet at (64, -64) at t = 8, beside no other node
    ([("ms1", Point(0.0, -64.0), Point(1024.0, -64.0)),
      ("ms2", Point(64.0, -128.0), Point(64.0, 896.0))], ["ms1", "ms2"]),
])
def test_walking_onto_another_node_runs_to_completion(walkers, pair):
    # radios on one point hear each other at reference power, so the
    # coverage check at the tick where they meet links them
    s = crossing_world(walkers)
    t = 0.0
    while not _shared_points(_graph_inputs_at(s, t)[0]):
        t += s.params.coverage_check_period
    assert t == 8.0
    assert _shared_points(_graph_inputs_at(s, t)[0]) == [pair]
    oracle = _full_graph_at(s, t)
    assert pair[1] in oracle[pair[0]]
    sim = Simulation(s)
    rows = sim.handset_graph(t)
    for ms_id in sim.ms_states:
        assert rows[ms_id] == {
            n: outcome for n, outcome in oracle[ms_id].items()
            if sim.kinds[n] is not NodeKind.MOBILE_STATION}
    check_run(sim)
    assert sim.queue.clock == s.duration


@pytest.mark.parametrize("walker", [
    ("ms1", Point(0.0, 436.0), Point(0.0, 1460.0)),  # msc1's point at t = 8
    ("ms1", Point(0.0, 836.0), Point(0.0, 1860.0)),  # sat1's point at t = 8
], ids=["msc", "satellite"])
def test_walking_onto_a_node_that_is_not_a_radio_runs_to_completion(walker):
    # switching centres and satellites are in no radio graph, so a handset
    # may share their point
    s = crossing_world([walker])
    here = position_at(s.mobility["ms1"], walker[1], 8.0)
    assert here in {n.position for n in s.nodes
                    if n.kind in (NodeKind.MSC, NodeKind.SATELLITE)}
    sim = Simulation(s)
    check_run(sim)
    assert sim.queue.clock == s.duration


def test_the_reference_walker_halting_on_the_msc_runs_to_completion():
    s = reference_scenario()
    walk = s.mobility["ms1"]._replace(waypoints=(Point(500.0, 200.0),),
                                      halt_fraction=1.0)
    s = dataclasses.replace(s, mobility={**s.mobility, "ms1": walk})
    assert run(s).events_processed == 2430


def test_a_discovery_from_a_receivers_point_is_heard_as_its_check_found_it():
    # ms1's first discovery that reaches mx leaves at t = 45.5 from mx's own
    # point, and is heard through the row of the check at t = 45, which
    # placed ms1 5 m west of mx
    floods = []  # (request id, reached set) of each flood, in both runs
    offers = []  # (the request, its row) of each of ms1's discoveries to mx

    def kept(req, fresh):
        floods.append((req.request_id, fresh))
        return fresh

    sim = Simulation(load_scenario(DISCOVERY_FROM_A_MOTE_POINT.format(
        mx_x=455)))
    _reach_with(sim, kept)
    send = sim._send

    def recorded_send(frame):
        if frame.src == "ms1" and "mx" in frame.targets:
            offers.append((frame.payload[0], frame.outcomes))
        return send(frame)

    sim._send = recorded_send
    report = check_run(sim)
    reached_mx = {i for i, reached in floods if "mx" in reached}
    floods.clear()
    mx = sim.start_pos["mx"]
    assert position_at(sim.s.mobility["ms1"], sim.start_pos["ms1"],
                       45.5) == mx
    req, row = offers[0]
    assert req.ms_location == Point(450.0, 190.0)
    profile = sim.profiles["mx"]
    assert row["mx"] is packet_outcome(profile, received_power(profile, 5.0))
    assert row["mx"] is PacketOutcome.DELIVERED
    assert sim.queue.clock == sim.s.duration
    # a metre further on, mx hears the same: the same run
    moved = Simulation(load_scenario(DISCOVERY_FROM_A_MOTE_POINT.format(
        mx_x=456)))
    _reach_with(moved, kept)
    moved_report = moved.run()
    assert moved_report.events_processed == report.events_processed == 83
    assert moved_report.digest == report.digest
    # the floods that reach mx are the same
    assert {i for i, reached in floods
            if "mx" in reached} == reached_mx != set()


def test_the_reference_scenario_without_its_satellite_runs_to_completion():
    # ms1's first request steers it to bs1.  Both handsets then walk more
    # than 450 m from either base station, where the switching centre has
    # nothing to offer: it decides nothing on their later escalations, and
    # both keep searching to the end
    s = reference_scenario()
    s = dataclasses.replace(s, nodes=tuple(
        n for n in s.nodes if n.kind is not NodeKind.SATELLITE))
    sim = Simulation(s)
    report = check_run(sim)
    assert report.events_processed == 2794
    [link] = report.links
    assert (link.ms_id, link.endpoint.node_id) == ("ms1", "bs1")
    assert [(ms, d.request_id) for ms, d in report.decisions] == [("ms1", 1)]
    unanswered = [esc for esc in report.escalations if esc.request_id != 1]
    assert [esc.ms_id for esc in unanswered] == ["ms2"] + ["ms1"] * 6
    assert all(sim.handoffs[esc.request_id].decision is None
               for esc in unanswered)
    assert all(st.link is None for st in sim.ms_states.values())
    assert sim.queue.clock == s.duration


def test_satellite_free_worlds_with_a_handset_crossing_a_mote_run_to_the_end(
        monkeypatch):
    decisions = []  # every msc_decide answer, None for nothing to offer
    real_decide = simulation.msc_decide

    def recorded_decide(*args):
        decisions.append(real_decide(*args))
        return decisions[-1]

    monkeypatch.setattr(simulation, "msc_decide", recorded_decide)
    ran = 0
    for seed in range(30):
        world = satellite_free_crossing_world(seed)
        if world is None:
            continue
        s, mote = world
        sim = Simulation(s)
        assert mote in sim.handset_graph(8.0)["ms0"]
        assert sim.here["ms0"] == sim.start_pos[mote]
        check_relay_paths(s, check_run(sim))
        assert sim.queue.clock == s.duration
        ran += 1
    assert ran >= 20
    # the switching centre had nothing to offer, and offered steering
    assert None in decisions
    assert any(d is not None for d in decisions)
