"""Invariants a run must satisfy, shared by the test modules."""

import math
import sys

import packed_dv
from wsnhandoff import simulation
from wsnhandoff.protocol import MoteMode
from wsnhandoff.routing import INFINITY_METRIC, NO_HOP
from wsnhandoff.scenario import Scenario
from wsnhandoff.world import (NodeKind, PacketOutcome, comm_graph,
                              packet_outcome, received_power)

RADIO_SENDERS = (NodeKind.MOTE, NodeKind.MOBILE_STATION)
RADIO_RECEIVERS = (NodeKind.MOTE, NodeKind.BASE_STATION)
RADIOS = (NodeKind.MOBILE_STATION, *RADIO_RECEIVERS)  # what a graph holds
MOTE_FRAMES = ("discovery", "dv")  # what a mote may offer to its queue


def _watch_traffic(sim):
    """Wrap `sim`'s send, transmit and drain so that, as it runs, they
    assert the traffic facts simulation.py relies on: motes offer only
    discovery forwards and distance-vector adverts (all of one class, which
    is why a mote's queue is a plain FIFO), every radio sender is a mote or
    a handset, every radio unicast sender a mote, every radio receiver a
    mote or a base station, every broadcast target a mote, no unicast frame
    addressed to a mote, every relay frame addressed to a satellite, no
    unicast frame delivered LOST, and no drain finds its queue empty.  The
    send wrapper checks each frame's outcome row as it is offered: a mote's
    radio frame carries that mote's outcome_rows entry itself, a handset's
    exactly its row in the all-pairs oracle's graph with the handset where
    sim.here puts it and the other radios at their start positions; every
    broadcast target and radio unicast destination is a key of the row,
    and no value is LOST; a frame on another channel carries no row.  The
    delivery wrappers check that each burst is heard through its frame's
    row, and each unicast with its row's outcome (DELIVERED off the radio).
    They also count
    what the ledger must report, apart from the queues' own counters: the
    frames sent, the offers and drains per queue family (mote or other),
    and the largest backlog of a queue other than a mote's, which a shadow
    count of each such queue's frames tracks and checks at every drain.
    Wrappers on the two delivery paths and on every receive handler count
    the receptions, clear and errored, of unicast and of broadcast frames;
    the transmit wrapper counts transmits and broadcasts, and each mote's
    transmits.  Returns the first counts keyed by counter token, the second
    keyed by name and the third keyed by mote, all filled in as the run
    goes."""
    kinds, capacity = sim.kinds, sim.p.queue_capacity
    profiles = {n.node_id: n.profile for n in sim.s.nodes}
    receivers = {n.node_id: n.position for n in sim.s.nodes
                 if n.kind in RADIO_RECEIVERS}
    send, transmit = sim._send, sim._transmit
    drain = sim._handlers["drain"]
    deliver, deliver_burst = sim._handlers["deliver"], sim._deliver_burst
    counts = dict.fromkeys((
        "transport_udp.packets_from_app", "net_ip.out_requests",
        "net_strict_prior.packets_queued", "net_strict_prior.packets_dequeued",
        "net_fifo.packets_queued", "net_fifo.packets_dequeued",
        "net_fifo.peak_queue_size"), 0)
    traffic = dict.fromkeys((
        "transmits", "broadcasts", "unicast_clear", "unicast_errored",
        "broadcast_clear", "broadcast_errored"), 0)
    backlog = {}  # node other than a mote -> frames its FIFO holds
    sent = dict.fromkeys(sim.mote_states, 0)  # mote -> frames it transmitted

    def layer(node_id):
        return ("net_strict_prior" if kinds[node_id] is NodeKind.MOTE
                else "net_fifo")

    def watched_send(node_id, frame):
        row = frame.outcomes
        if frame.channel == "radio":
            if kinds[node_id] is NodeKind.MOTE:
                assert row is sim.outcome_rows[node_id], (
                    "a mote's frame carries another row", node_id)
            else:
                assert row == oracle_row(node_id, {
                    **receivers, node_id: sim.here[node_id]}, profiles), (
                    "a handset's frame carries another row", node_id)
            heard = frame.targets if frame.dst is None else (frame.dst,)
            assert row.keys() >= set(heard), (node_id, frame.kind)
            assert PacketOutcome.LOST not in row.values(), node_id
        else:
            assert row is None, (node_id, frame.kind)
        family = layer(node_id)
        if family == "net_strict_prior":
            assert frame.kind in MOTE_FRAMES, (node_id, frame.kind)
        counts["transport_udp.packets_from_app"] += 1
        counts["net_ip.out_requests"] += 1
        counts[family + ".packets_queued"] += 1
        held = backlog.get(node_id, 0)
        if family == "net_fifo" and held < capacity:
            backlog[node_id] = held + 1
            counts["net_fifo.peak_queue_size"] = max(
                counts["net_fifo.peak_queue_size"], held + 1)
        return send(node_id, frame)

    def watched_transmit(t, node_id, frame):
        if frame.dst is None or frame.channel == "radio":
            assert kinds[node_id] in RADIO_SENDERS, (t, node_id, frame.kind)
        if frame.dst is None:
            for rx in frame.targets:
                assert kinds[rx] is NodeKind.MOTE, (t, node_id, rx, frame.kind)
        else:
            assert kinds[frame.dst] is not NodeKind.MOTE, (t, node_id,
                                                           frame.kind)
            assert frame.channel != "radio" or kinds[frame.dst] in (
                RADIO_RECEIVERS), (t, node_id, frame.kind)
            assert frame.channel != "radio" or kinds[node_id] is (
                NodeKind.MOTE), ("a radio unicast from a non-mote", t,
                                 node_id, frame.kind)
        assert not frame.relay or kinds[frame.dst] is NodeKind.SATELLITE, (
            t, node_id, frame.kind)
        traffic["transmits"] += 1
        traffic["broadcasts"] += frame.dst is None
        if node_id in sent:
            sent[node_id] += 1
        transmit(t, node_id, frame)

    def watched_deliver(t, payload):
        _, frame, rx, outcome = payload
        assert outcome is (frame.outcomes[rx] if frame.channel == "radio"
                           else PacketOutcome.DELIVERED), (
            "a unicast is not heard as its row says", t, rx)
        assert outcome is not PacketOutcome.LOST, (t, rx)
        traffic["unicast_errored"] += outcome is PacketOutcome.ERRORED
        deliver(t, payload)

    def watched_burst(t, seq, receivers, payload):
        # no handler changes a mote's mode, so the receivers awake now are
        # those the burst reaches
        outcomes = payload[2]
        assert outcomes is payload[1].outcomes, (
            "a burst is not heard through its frame's row", t)
        for rx in receivers:
            traffic["broadcast_errored"] += (
                outcomes[rx] is PacketOutcome.ERRORED
                and sim.mote_states[rx].mode is MoteMode.ACTIVE)
        deliver_burst(t, seq, receivers, payload)

    def counted(receive):
        def watched_receive(t, frame, rx):
            traffic["broadcast_clear" if frame.dst is None
                    else "unicast_clear"] += 1
            receive(t, frame, rx)
        return watched_receive

    def watched_drain(t, payload):
        node_id = payload[1]
        q = sim.node_queues[node_id]
        assert len(q), (t, node_id)
        family = layer(node_id)
        counts[family + ".packets_dequeued"] += 1
        if family == "net_fifo":
            assert len(q) == backlog[node_id], (t, node_id)
            backlog[node_id] -= 1
        drain(t, payload)

    sim._send = watched_send
    sim._transmit = watched_transmit
    sim._handlers["drain"] = watched_drain
    sim._handlers["deliver"] = watched_deliver
    sim._deliver_burst = watched_burst
    for kind, receive in list(sim._receivers.items()):
        sim._receivers[kind] = counted(receive)
    return counts, traffic, sent


def check_run(sim):
    """Run `sim` and assert the model's invariants; returns its report.

    During the run: the traffic facts of _watch_traffic, a dispatch clock
    that never goes back, no handset bringing up a link (awaiting_link)
    that is also discovering (pending) or linked (link) after a coverage,
    backhaul or establish event (a link for an older request may come up
    while a newer discovery is pending, so those two may meet), every
    discovery copy received with each mote on its path already in its
    reached set (which is why a copy that comes back to its path is a
    repeat), every discovery copy that reaches
    mote_forward (watched through the name simulation.py calls) at an
    awake mote that is not on the request's path, and every distance-vector
    merge (apply_update, watched through the name simulation.py calls)
    checked against the general merge in lockstep by _watch_dv: no advert
    missing a changed lane, adverts merged in the order their sender's
    queue accepted them, no lane rising, as routing.py proves, and the same
    change and tables as the general merge.  At the end: every node queue
    conserves its frames (queued == dequeued + dropped + backlog); the
    ledger's send and queue counters equal the counts _watch_traffic made,
    and so do the sums of the queues' own counters over the mote queues and
    over the others, and the largest FIFO peak; the ledger's transmit,
    broadcast and reception counters, the eight that the run sets at its end
    from the others among them, equal what _watch_traffic counted of the
    frames and receptions; each mote has spent ENERGY_PER_TX for each frame
    it transmitted, and each sleeping mote exactly the energy it had when
    release_motes (watched through the name simulation.py calls) put it to
    sleep; each mote's awake row holds its mote neighbours in the static
    graph (rebuilt here) that are awake, sorted by id; and each mote's
    outcome row is keyed by exactly its base-station and mote neighbours in
    that graph, each entry the outcome worked out here from the start
    positions, and none LOST, since the link rule means every neighbour
    hears the mote.  Last, the handoff records (check_handoffs)."""
    counts, traffic, sent = _watch_traffic(sim)
    dispatch = sim._dispatch
    clock = -math.inf

    def watched_dispatch(ev):
        nonlocal clock
        assert ev[0] >= clock, (clock, ev)
        clock = ev[0]
        dispatch(ev)

    frozen = {}  # mote -> energy spent when first put to sleep
    release = simulation.release_motes

    def watched_release(path, mote_states):
        release(path, mote_states)
        if mote_states is sim.mote_states:
            for m in path:
                frozen.setdefault(m, mote_states[m].energy_consumed)

    forward = simulation.mote_forward

    def watched_forward(mote_id, req, *rows):
        assert sim.mote_states[mote_id].mode is MoteMode.ACTIVE, (
            "a sleeping mote forwards", mote_id, req.request_id)
        assert mote_id not in req.path, (
            "a mote on the path forwards", mote_id, req.request_id)
        return forward(mote_id, req, *rows)

    receive = sim._receivers["discovery"]

    def watched_discovery(t, frame, rx):
        req, reached = frame.payload
        assert reached.issuperset(req.path), (
            "a mote on the path is not in the reached set", rx,
            req.request_id)
        receive(t, frame, rx)

    def watched_states(handler):
        def watched_handler(t, payload):
            handler(t, payload)
            for ms_id, st in sim.ms_states.items():
                assert not st.awaiting_link or (
                    st.pending is None and st.link is None), (
                    "a handset bringing up a link is discovering or linked",
                    ms_id, t, payload[0])
        return watched_handler

    # the only handlers that change a handset's state
    for kind in ("coverage", "backhaul", "establish"):
        sim._handlers[kind] = watched_states(sim._handlers[kind])
    merge, watched_merge = _watch_dv(sim)
    sim._dispatch = watched_dispatch
    sim._receivers["discovery"] = watched_discovery
    simulation.release_motes = watched_release
    simulation.mote_forward = watched_forward
    simulation.apply_update = watched_merge
    try:
        report = sim.run()
    finally:
        simulation.release_motes = release
        simulation.mote_forward = forward
        simulation.apply_update = merge

    for node_id, q in sim.node_queues.items():
        assert q.queued == q.dequeued + q.dropped + len(q), node_id
    motes = [q for n, q in sim.node_queues.items() if n in sim.mote_states]
    others = [q for n, q in sim.node_queues.items()
              if n not in sim.mote_states]
    clear = traffic["unicast_clear"] + traffic["broadcast_clear"]
    errored = traffic["unicast_errored"] + traffic["broadcast_errored"]
    counts.update({
        "phy80211.signals_transmitted": traffic["transmits"],
        "mac80211.packets_from_network": traffic["transmits"],
        "mac_link.link_utilization": traffic["transmits"],
        "mac80211.broadcast_sent": traffic["broadcasts"],
        "mac_dcf.broadcast_sent": traffic["broadcasts"],
        "mac80211.broadcast_received_clearly": traffic["broadcast_clear"],
        "mac_dcf.broadcast_received": traffic["broadcast_clear"],
        "phy80211.signals_received_forwarded_to_mac": clear,
        "net_ip.in_received": clear,
        "net_ip.in_delivers": clear,
        "transport_udp.packets_to_app": clear,
        "phy80211.signals_received_with_errors": errored,
        "phy80211.signals_locked": clear + errored})
    for token, want in counts.items():
        assert report.ledger.get(token) == want, token
    for layer, queues in (("net_strict_prior", motes), ("net_fifo", others)):
        for counter in ("queued", "dequeued"):
            assert (sum(getattr(q, counter) for q in queues)
                    == counts[f"{layer}.packets_{counter}"]), (layer, counter)
    assert (max((q.peak_size for q in others), default=0)
            == counts["net_fifo.peak_queue_size"])
    energy = {m: st.energy_consumed for m, st in sim.mote_states.items()}
    assert energy == {m: n * simulation.ENERGY_PER_TX for m, n in sent.items()}
    assert frozen == {m: energy[m] for m, st in sim.mote_states.items()
                      if st.mode is MoteMode.SLEEPING}
    graph, kinds = _static_graph(sim.s), sim.kinds
    assert sorted(sim.active_rows) == sorted(sim.mote_states)
    for m, row in sim.active_rows.items():
        assert row == tuple(n for n in sorted(graph[m])
                            if kinds[n] is NodeKind.MOTE
                            and sim.mote_states[n].mode is MoteMode.ACTIVE), m
    nodes = {n.node_id: n for n in sim.s.nodes}
    assert sorted(sim.outcome_rows) == sorted(sim.mote_states)
    for m, row in sim.outcome_rows.items():
        assert set(row) == {n for n in graph[m]
                            if kinds[n] in RADIO_RECEIVERS}, m
        for rx, outcome in row.items():
            profile = nodes[rx].profile
            d = nodes[m].position.distance_to(nodes[rx].position)
            assert outcome is packet_outcome(
                profile, received_power(profile, d)), (m, rx)
            assert outcome is not PacketOutcome.LOST, (m, rx)
    check_handoffs(sim, report)
    return report


def _same_hops(table, oracle) -> bool:
    """Whether delta `table` and packed `oracle` give every lane the same
    next hop.  Both become one int of a 16-bit field per lane, its next
    hop's lane (NO_HOP for none): the oracle's masks are disjoint, so each
    field of their weighted sum is at most NO_HOP and nothing borrows."""
    n, index = len(table.hops), table.lanes.index
    wide = bytearray(2 * n)
    want = (1 << 16 * n) - 1  # NO_HOP in every field
    for name, mask in oracle.via.items():
        if mask:
            wide[::2] = (mask >> 7).to_bytes(n, "little")
            want -= int.from_bytes(wide, "little") * (NO_HOP - index[name])
    return int.from_bytes(table.hops.tobytes(), sys.byteorder) == want


def _watch_dv(sim):
    """Run the general merge (packed_dv, over full adverts) in lockstep
    with the simulator's delta merge.  Returns the merge simulation.py
    calls and the watched one to put in its place.

    A wrapper on sim._send builds, for each advert a mote offers, the full
    advert of its oracle table, and asserts that the delta advert is that
    full advert on its own lanes and that every other lane matches the full
    advert of the sender's previous accepted one (all 16 before the first):
    the set of changed lanes misses nothing.  It also asserts that no
    candidate rises from one accepted advert to the next.  Each accepted
    advert gets the next number of its sender, held until its broadcast is
    delivered.  On every merge, the watched merge asserts that the advert
    is the one after the last merged from that sender by that receiver,
    that no lane of the receiver's table rises, and that the oracle merge
    of the full advert (which raises UnknownNeighborError unless the sender
    is a static mote neighbour) agrees on whether anything changed and
    leaves every lane with the same metric and next hop."""
    lanes = packed_dv.Lanes(sim.mote_states)
    oracle = {m: packed_dv.Table(m, lanes) for m in lanes.names}
    width, high = len(lanes.names), lanes.high
    accepted = dict.fromkeys(lanes.names, lanes.ones * INFINITY_METRIC)
    count = dict.fromkeys(lanes.names, 0)  # adverts accepted per sender
    in_flight = {}  # id(advert) -> (advert, its number, its full advert)
    merged = {}  # (sender, receiver) -> number of the last advert merged
    # receiver -> its next hops when last matched to the oracle's (none)
    checked = dict.fromkeys(lanes.names, b"\xff\xff" * width)
    send, deliver_burst = sim._send, sim._deliver_burst
    merge = simulation.apply_update

    def watched_send(node_id, frame):
        if frame.kind != "dv":
            return send(node_id, frame)
        advert, full = frame.payload, packed_dv.periodic_update(
            oracle[node_id])
        cands = bytearray(accepted[node_id].to_bytes(width, "little"))
        for lane, c in advert[1]:
            cands[lane] = c
        assert int.from_bytes(cands, "little") == full[1], (
            "an advert left out a changed lane", node_id)
        assert ((accepted[node_id] | high) - full[1]) & high == high, (
            "an advert lane rose", node_id)
        ok = send(node_id, frame)
        if ok:
            accepted[node_id] = full[1]
            count[node_id] += 1
            in_flight[id(advert)] = advert, count[node_id], full
        return ok

    def watched_burst(t, seq, receivers, payload):
        deliver_burst(t, seq, receivers, payload)
        if payload[1].kind == "dv":
            del in_flight[id(payload[1].payload)]

    def watched_merge(table, update):
        sender, rx = update[0], table.owner
        advert, number, full = in_flight[id(update)]
        assert advert is update
        assert merged.get((sender, rx), 0) == number - 1, (
            "an advert merged out of turn", sender, rx, number)
        merged[sender, rx] = number
        before = int.from_bytes(table.metrics, "little")
        changed = merge(table, update)
        after = int.from_bytes(table.metrics, "little")
        # lanes hold at most 16, so bit 7 of each lane of (before | high) -
        # after stays set exactly where the lane did not rise
        assert ((before | high) - after) & high == high, (
            "a lane rose", rx, sender)
        want = packed_dv.apply_update(oracle[rx], full, sim.mote_rows[rx])
        assert bool(changed) == bool(want), ("the merges disagree", rx, sender)
        assert after == oracle[rx].metrics, ("a metric differs", rx, sender)
        # the oracle's next hops move only in a merge that changes a lane
        hops = table.hops.tobytes()
        assert (_same_hops(table, oracle[rx]) if want
                else hops == checked[rx]), (
            "a next hop differs", rx, sender)
        checked[rx] = hops
        return changed

    sim._send = watched_send
    sim._deliver_burst = watched_burst
    return merge, watched_merge


def check_handoffs(sim, report) -> int:
    """Assert that the finished run `sim` keeps one Handoff record per
    request id it issued, each the one home of its request's history, and
    that the report's logs are what the records give.  A record with a
    link has a decision, and a decision names the record's request id;
    every escalation on a record names the record's request and handset,
    and its escalations name distinct base stations (no switching centre,
    no escalations); sim.linked holds each record with a link exactly
    once, with non-decreasing link-up times; a handset's pending record,
    when there is one, has neither a decision nor a link: any decision for
    a handset ends its pending discovery.  The report's links and
    converged routes are those of sim.linked, in order, and its decisions
    and escalations those of the records in request-id order.  Returns the
    number of records checked."""
    records = sim.handoffs
    # ids run 1, 2, ...; the counter is read, not advanced, so that a
    # second check of the same run sees the same ids
    assert list(records) == list(range(1, len(records) + 1)), list(records)
    assert repr(sim.ids) == f"count({len(records) + 1})", sim.ids
    assert len({id(h) for h in records.values()}) == len(records)
    for request_id, h in records.items():
        assert h.link is None or h.decision is not None, request_id
        assert h.decision is None or h.decision.request_id == request_id
        assert all((esc.request_id, esc.ms_id) == (request_id, h.ms_id)
                   for esc in h.escalations), request_id
        assert len({esc.bs_id for esc in h.escalations}) == len(
            h.escalations), request_id
    linked = sim.linked
    assert len({id(h) for h in linked}) == len(linked)
    assert {id(h) for h in linked} == {id(h) for h in records.values()
                                       if h.link is not None}
    assert all(a.link.established_at <= b.link.established_at
               for a, b in zip(linked, linked[1:]))
    assert report.links == tuple(h.link for h in linked)
    assert report.dv_paths == tuple(h.dv_route for h in linked)
    assert report.decisions == tuple((h.ms_id, h.decision)
                                     for h in records.values()
                                     if h.decision is not None)
    assert report.escalations == tuple(
        esc for h in records.values() for esc in h.escalations)
    for ms_id, st in sim.ms_states.items():
        if st.pending is not None:
            assert st.pending.decision is None, ms_id
            assert any(h is st.pending for h in records.values()), ms_id
    return len(records)


def radio_positions(s: Scenario) -> dict:
    """Radio id -> start position, for every handset, base station and mote
    of `s`: the nodes of its communication graph."""
    return {n.node_id: n.position for n in s.nodes if n.kind in RADIOS}


def _band(profile, power: float):
    """How a radio with `profile` hears a frame at `power`, from the bounds
    of the two bands, sensitivity and sensitivity plus the error margin."""
    if power >= profile.sensitivity_dbm + profile.error_margin_db:
        return PacketOutcome.DELIVERED
    if power >= profile.sensitivity_dbm:
        return PacketOutcome.ERRORED
    return PacketOutcome.LOST


def oracle_row(a: str, positions: dict, profiles: dict) -> dict:
    """Radio `a`'s row of the oracle graph of the radios of `positions`:
    each other radio that links with `a` -> how it hears `a`.  Two radios
    link when each hears the other, at or above its own sensitivity, with
    no reach test and no call to world.packet_outcome."""
    row = {}
    for b in sorted(positions):
        if b != a:
            d = positions[a].distance_to(positions[b])
            a_hears = _band(profiles[a], received_power(profiles[a], d))
            b_hears = _band(profiles[b], received_power(profiles[b], d))
            if PacketOutcome.LOST not in (a_hears, b_hears):
                row[b] = b_hears
    return row


def all_pairs_graph(positions: dict, profiles: dict) -> dict:
    """Oracle for world.comm_graph: radio id -> {neighbour: how the
    neighbour hears the radio}, each radio's oracle_row."""
    return {a: oracle_row(a, positions, profiles) for a in sorted(positions)}


def _static_graph(s: Scenario):
    """The communication graph at the start positions, rebuilt here."""
    return comm_graph(radio_positions(s),
                      {n.node_id: n.profile for n in s.nodes})


def check_relay_paths(s: Scenario, report) -> int:
    """Assert that every non-empty relay path of a link or an escalation in
    `report` is a simple path of motes, at most `default_ttl` long, whose
    consecutive motes are adjacent in the static graph (rebuilt here from
    the start positions) and whose last mote neighbours a base station: for
    an escalation, the one that escalated it.  Returns the number of paths
    checked."""
    kinds = {n.node_id: n.kind for n in s.nodes}
    graph = _static_graph(s)
    paths = [(link.relay_path, None) for link in report.links
             if link.relay_path]
    paths += [(esc.relay_path, esc.bs_id) for esc in report.escalations]
    for path, bs_id in paths:
        assert path, "an escalation without a relay path"
        assert all(kinds[m] is NodeKind.MOTE for m in path), path
        assert len(set(path)) == len(path), path
        assert len(path) <= s.params.default_ttl, path
        for a, b in zip(path, path[1:]):
            assert b in graph[a], (a, b, path)
        assert any(kinds[n] is NodeKind.BASE_STATION
                   for n in graph[path[-1]]), path
        assert bs_id is None or bs_id in graph[path[-1]], (bs_id, path)
    return len(paths)


def check_dv_tables(sim) -> int:
    """Assert that every distance-vector table of the finished run `sim` is
    well formed, and that every converged route it recorded is a real mote
    path.

    Each table has a metric and a next hop for every lane.  The owner's
    lane is 0 with no next hop, every lane at most 16, and each other lane
    has a next hop exactly when it is below 16, the lane of one of the
    owner's mote neighbours, whose own metric for that lane is strictly
    smaller: a lane adopts C = T + 1 and the sender's T only falls after
    that, so no chain of next hops loops.  Its set of changed lanes holds
    lanes only.
    Each converged route recorded at a link-up (sim.linked) runs between
    the endpoints of its link's relay path, is a simple path of motes along static-graph edges
    (rebuilt here from the start positions), and has as many hops as its
    source's metric.  Returns the number of routes checked."""
    names, index, tables = sim.lanes.names, sim.lanes.index, sim.tables
    assert sorted(tables) == list(names)
    for owner, table in tables.items():
        own, rows = index[owner], {index[m] for m in sim.mote_rows[owner]}
        assert len(table.metrics) == len(table.hops) == len(names), owner
        assert table.metrics[own] == 0, owner
        assert max(table.metrics) <= INFINITY_METRIC, owner
        assert table.changed <= set(range(len(names))), owner
        for i, (metric, hop) in enumerate(zip(table.metrics, table.hops)):
            routed = metric < INFINITY_METRIC and i != own
            assert hop in rows if routed else hop == NO_HOP, (
                owner, names[i])
            assert not routed or tables[names[hop]].metrics[i] < metric, (
                owner, names[i])
    kinds = sim.kinds
    graph = _static_graph(sim.s)
    routes = [(h.link, h.dv_route) for h in sim.linked
              if h.dv_route is not None]
    for link, path in routes:
        assert (path[0], path[-1]) == (link.relay_path[0],
                                       link.relay_path[-1]), path
        assert all(kinds[m] is NodeKind.MOTE for m in path), path
        assert len(set(path)) == len(path), path
        for a, b in zip(path, path[1:]):
            assert b in graph[a], (a, b, path)
        assert len(path) - 1 == sim.tables[path[0]].metric(path[-1]), path
    return len(routes)
