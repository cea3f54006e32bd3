"""Event-driven run of one scenario: mobility, coverage checks, discovery
floods, distance-vector chatter, queue transit, handoffs and the counter
ledger, all on the deterministic event queue.

Frame life cycle: a protocol handler calls _send(frame), which puts the
Frame itself into its sender's (frame.src) FIFO network queue (a full one
drops it; motes offer only control frames, so no node needs priorities),
scheduling a drain at the current clock if the queue was empty.  A drain
dequeues one frame and transmits it, charging a mote ENERGY_PER_TX (a
sleeping mote's frame goes unsent and free), and another follows one tx_slot
later while the queue holds more; _transmit(t, frame) counts the frame and
schedules ("deliver", frame) one hop_delay later: a broadcast, always by
radio, as one engine burst (one heap entry whose seqs and targets are the
receivers', in order), a unicast as one event at frame.dst.  A delivery
reads all it needs from the frame: a radio frame's outcome row (below), so
a receiver costs one lookup, and satlink, which picks a unicast's counters.
Steered beams and satellite links are logical channels: their frames carry
no row and always arrive.  No frame is changed after _send(), so one object
can be queued and delivered many times; only the set in a discovery's
payload grows (below).  _send() returns whether the queue took the frame,
and a distance-vector advert clears its table's changed lanes only then
(routing.py).  _close_ledger() sets the queue counters, then those that copy
or add up others (stats.DERIVED), once at the end.

Events are dispatched through a table keyed by kind.  Each dispatched event
contributes one `time seq target kind` line to the run's digest: the
SHA-256 of the lines joined by newlines.  Lines are buffered, each with a
leading newline (cut from the run's first), and hashed in one update per
HASH_BLOCK entries and when the window ends, so no log is kept.  The
formatted time is reused while consecutive events share it.  Two runs of the
same scenario and seed must match byte for byte.  A burst buffers the lines
of its receivers as one entry and then delivers to them in order, so it
leaves the same digest as one event per receiver.

Only mobile stations move (validation rejects mobility on other nodes), so
the graph of the base stations and motes is built once, at start, and read
into fixed tables: each mote's sorted base-station and mote neighbours, and
the fixed radio nodes with their squared reach.  Satellites and switching
centres are reached over engineered links, not by radio, so no graph holds
them and a handset may pass over their points.  A mote's awake mote
neighbours, the targets of its discovery floods and distance-vector
broadcasts, are kept as one tuple per mote (active_rows) and refreshed only
when motes are put to sleep, since nothing else changes a mote's mode.  A
coverage check positions each handset once and puts through the graph's
link rule only the base stations and motes within reach of both ends: they
are all it reads.  Radio frames are heard only by motes and base stations,
each through the outcome row the frame carries from when it was built.  A
mote's frames carry its entry in the static graph, as motes never move; a
handset's one radio frame, the discovery its coverage check offers, carries
that check's row, so it is heard as from where the check placed the handset.
A discovery frame's payload is (request, reached): one set per flood, shared
by all its copies, of the motes and base stations it has reached.  A copy
whose receiver is in it stops, so only a first copy, at an awake mote off
the request's path, reaches mote_forward, and a base station escalates a
request once.  Only queued and in-flight frames hold the set, so it is
freed with the flood's last copy.

Each request id, a discovery's or a direct satellite fallback's, names one
Handoff in self.handoffs, its only record: handset, deadline, escalations in
arrival order, decision, link and converged route.  The report is read from
these and from self.linked, those whose link came up, in that order.  A
handset's MsState points at its pending discovery's record and says whether
a bring-up is in flight; any decision, stale ones included, ends that
discovery.  An msc with nothing to offer decides nothing.

The per-event paths compare against Enum members bound once at import
(DELIVERED, SLEEPING, BASE_STATION, ...), like the ledger slots, as a module
global is read several times faster than an Enum class attribute.
"""

import hashlib
import itertools
from typing import NamedTuple

from .engine import EventQueue, RngStream
from .protocol import (DecisionOutcome, LinkRecord, MoteMode, MoteState,
                       MscDecision, bs_notify_msc, detect_loss, establish_link,
                       make_discovery, mote_forward, msc_decide,
                       release_motes, steer_feasible)
from .queues import FifoQueue
from .routing import (Lanes, RoutingLoopError, Table, UnreachableError,
                      apply_update, periodic_update, shortest_path)
from .scenario import Scenario
from .stats import StatsLedger, slot
# packet_outcome and received_power are here for perfbench's hooks only
from .world import (NodeKind, PacketOutcome, comm_graph, halt_time,
                    links_within_reach, packet_outcome, position_at,
                    reach_sq, received_power)

DEFAULT_IP_TTL = 16
ENERGY_PER_TX = 1  # what a mote pays for each frame it transmits
HASH_BLOCK = 256  # digest lines hashed per update

# Ledger slots, resolved at import so a misspelt counter fails there.
PHY_TX = slot("phy80211.signals_transmitted")
PHY_TO_MAC = slot("phy80211.signals_received_forwarded_to_mac")
PHY_ERRORS = slot("phy80211.signals_received_with_errors")
MAC_BCAST_SENT = slot("mac80211.broadcast_sent")
MAC_BCAST_RX = slot("mac80211.broadcast_received_clearly")
LINK_SENT = slot("mac_link.frames_sent")
LINK_RX = slot("mac_link.frames_received")
SAT_SENT = slot("mac_satcom.frames_sent")
SAT_RX = slot("mac_satcom.frames_received")
SAT_RELAYED = slot("mac_satcom.frames_relayed")
IP_TTL_SUM = slot("net_ip.in_delivers_ttl_sum")
PRIO_QUEUED = slot("net_strict_prior.packets_queued")
PRIO_DEQUEUED = slot("net_strict_prior.packets_dequeued")
FIFO_QUEUED = slot("net_fifo.packets_queued")
FIFO_DEQUEUED = slot("net_fifo.packets_dequeued")
FIFO_PEAK = slot("net_fifo.peak_queue_size")
DV_TRIGGERED = slot("app_bellman_ford.triggered_updates")
DV_RECEIVED = slot("app_bellman_ford.update_packets_received")

# Enum members the per-event paths compare against, bound at import.
ERRORED = PacketOutcome.ERRORED
DELIVERED = PacketOutcome.DELIVERED
ACTIVE = MoteMode.ACTIVE
SLEEPING = MoteMode.SLEEPING
MOTE = NodeKind.MOTE
BASE_STATION = NodeKind.BASE_STATION
SATELLITE = NodeKind.SATELLITE

# How the receiver answers a satellite-signalling frame: (kind, relay).  A
# handset's ack to a page goes on to the switching centre.
SAT_REPLIES = {"sat_request": ("sat_grant", False),
               "sat_page": ("sat_ack", True)}


class Frame:
    __slots__ = ("kind", "src", "dst", "targets", "outcomes", "payload",
                 "ip_ttl", "satlink", "relay")

    def __init__(self, kind: str, src: str, dst: str = None,
                 targets: tuple = (), outcomes: dict = None,
                 payload: object = None, ip_ttl: int = DEFAULT_IP_TTL,
                 satlink: bool = False, relay: bool = False):
        self.kind = kind
        self.src = src
        self.dst = dst            # None means broadcast
        self.targets = targets    # receivers of a broadcast, fixed at emission
        self.outcomes = outcomes  # radio only: receiver -> how it hears src
        self.payload = payload
        self.ip_ttl = ip_ttl
        self.satlink = satlink    # over a satellite link, not radio or a beam
        self.relay = relay        # satellite forwards this traffic to the core


class Handoff:
    """One request's history, from its discovery to its link."""
    __slots__ = ("ms_id", "deadline", "escalations", "decision", "link",
                 "dv_route")

    def __init__(self, ms_id: str, deadline: float, decision=None):
        self.ms_id = ms_id
        self.deadline = deadline  # when an unanswered discovery times out
        self.escalations = []     # as they reach the msc
        self.decision = decision
        self.link = None
        self.dv_route = None      # set at link-up


class MsState:
    __slots__ = ("pending", "awaiting_link", "link", "failed_after_halt")

    def __init__(self):
        self.pending = None       # the discovery awaiting an answer
        self.awaiting_link = False
        self.link = None          # a LinkRecord while one serves the handset
        self.failed_after_halt = 0


class RunReport(NamedTuple):
    ledger: StatsLedger
    links: tuple             # LinkRecord in link-up order
    mote_energy: dict        # mote id -> (energy units, "active"|"sleeping")
    digest: str
    events_processed: int
    decisions: tuple         # (ms_id, MscDecision) by request id
    escalations: tuple       # Escalation by request id, then arrival
    dv_paths: tuple          # per link: converged hop route or None


class Simulation:
    def __init__(self, scenario: Scenario):
        self.s = scenario
        self.p = scenario.params
        self.queue = EventQueue()
        self.rng = RngStream(scenario.seed)
        self.ledger = StatsLedger()
        self.counts = self.ledger.values
        self._digest = hashlib.sha256()
        self._lines = []         # digest lines not yet hashed
        self._cut = 1            # the first line has no newline before it
        self._stamp_t = None     # time of the last event, and its
        self._stamp = ""         # "\n{t:.6f} " prefix
        self.ids = itertools.count(1)  # request ids

        self.kinds = {n.node_id: n.kind for n in scenario.nodes}
        self.profiles = {n.node_id: n.profile for n in scenario.nodes}
        self.start_pos = {n.node_id: n.position for n in scenario.nodes}
        self.halt_at = {n: halt_time(path, self.start_pos[n])
                        for n, path in scenario.mobility.items()}
        self.mote_states = {n.node_id: MoteState()
                            for n in scenario.by_kind(MOTE)}
        self.ms_states = {n.node_id: MsState()
                          for n in scenario.by_kind(NodeKind.MOBILE_STATION)}
        self.bs_positions = {n.node_id: n.position
                             for n in scenario.by_kind(BASE_STATION)}
        self.satellite_id = min((n.node_id for n in scenario.by_kind(
            SATELLITE)), default=None)
        mscs = scenario.by_kind(NodeKind.MSC)
        self.msc_id = mscs[0].node_id if mscs else None

        # Base stations and the msc offer no frame: they talk over backhaul.
        self.node_queues = {n.node_id: FifoQueue(self.p.queue_capacity)
                            for n in scenario.nodes if n.kind in (
                                MOTE, NodeKind.MOBILE_STATION, SATELLITE)}

        # The handsets' positions at the latest coverage check.
        self.here = {ms: self.start_pos[ms] for ms in self.ms_states}
        # Motes and base stations never move, so their adjacency is fixed;
        # the static graph drives all flood forwarding decisions through
        # each mote's sorted base-station and mote neighbours; its entry,
        # how each of them hears the mote, as the graph classified it, is
        # its outcome row.
        fixed = {n.node_id: n.position for n in scenario.nodes
                 if n.kind in (BASE_STATION, MOTE)}
        static_graph = comm_graph(fixed, self.profiles)
        kinds = self.kinds
        self.bs_rows, self.mote_rows, self.outcome_rows = {}, {}, {}
        for m in self.mote_states:
            row = sorted(static_graph[m])
            self.bs_rows[m] = tuple(
                n for n in row if kinds[n] is BASE_STATION)
            self.mote_rows[m] = tuple(
                n for n in row if kinds[n] is MOTE)
            self.outcome_rows[m] = static_graph[m]
        # Each mote's awake mote neighbours, in mote_rows order; _release
        # keeps them current, as only release_motes changes a mode.
        self.active_rows = dict(self.mote_rows)
        self.lanes = Lanes(self.mote_states)
        self.tables = {m: Table(m, self.lanes) for m in self.lanes.names}
        # The squared reach of each handset and of what a coverage check
        # tests it against: the base stations and motes.
        self.handset_reach = {ms: reach_sq(self.profiles[ms])
                              for ms in self.ms_states}
        self.fixed_radios = [(n, p.x, p.y, reach_sq(self.profiles[n]))
                             for n, p in fixed.items()]

        self.handoffs = {}  # request id -> Handoff
        self.linked = []    # the Handoffs whose link came up, in that order

        self._handlers = {"coverage": self._on_coverage,
                          "drain": self._on_drain,
                          "deliver": self._on_deliver,
                          "dv_send": self._on_dv_send,
                          "backhaul": self._on_backhaul,
                          "sat_locate": self._on_sat_locate,
                          "establish": self._on_establish,
                          "app": self._on_app}
        self._receivers = {"discovery": self._rx_discovery,
                           "dv": self._rx_dv,
                           "payload": self._rx_relay,
                           "sat_request": self._rx_sat_signal,
                           # not relayed: its link comes up by its own event
                           "sat_grant": self._rx_relay,
                           "sat_page": self._rx_sat_signal,
                           "sat_ack": self._rx_relay}

    # ---- geometry helpers -------------------------------------------

    def handset_graph(self, t: float) -> dict:
        """The handsets' base-station and mote neighbours at time t.

        Moves every handset to its position at t (self.here) and returns
        handset id -> {neighbour id: how it hears the handset}, by
        world.links_within_reach, so every edge decision and outcome is the
        full graph's.  A handset's discovery carries its row.
        """
        here = self.here
        for n, path in self.s.mobility.items():
            here[n] = position_at(path, self.start_pos[n], t)
        return {a: {b: b_hears for b, b_hears, _ in links_within_reach(
                    (a, here[a].x, here[a].y, reach), self.fixed_radios,
                    self.profiles)}
                for a, reach in self.handset_reach.items()}

    # ---- frame pipeline ---------------------------------------------

    def _send(self, frame: Frame) -> bool:
        src = frame.src
        q = self.node_queues[src]
        if not q.items:  # empty before the offer: no drain is pending
            self.queue.schedule(self.queue.clock, src, ("drain", src))
        return q.enqueue(frame)

    def _on_drain(self, t: float, payload):
        node_id = payload[1]
        q = self.node_queues[node_id]
        frame = q.dequeue()
        mote = self.mote_states.get(node_id)
        if mote is None or mote.mode is not SLEEPING:
            if mote is not None:
                mote.energy_consumed += ENERGY_PER_TX
            self._transmit(t, frame)
        if q.items:
            self.queue.schedule(t + self.p.tx_slot, node_id, payload)

    def _transmit(self, t: float, frame: Frame):
        c = self.counts
        c[PHY_TX] += 1
        at = t + self.p.hop_delay
        if frame.dst is None:  # a broadcast, always by radio
            c[MAC_BCAST_SENT] += 1
            receivers = frame.targets
            if receivers:
                self.queue.schedule_burst(at, receivers, ("deliver", frame))
            return
        c[SAT_SENT if frame.satlink else LINK_SENT] += 1
        self.queue.schedule(at, frame.dst, ("deliver", frame))

    def _on_deliver(self, t: float, payload):
        # Never LOST: a radio unicast is a mote's discovery to a base
        # station in its bs_row, and the other links always arrive.
        frame = payload[1]
        rx, outcomes = frame.dst, frame.outcomes
        c = self.counts
        if outcomes is not None and outcomes[rx] is ERRORED:
            c[PHY_ERRORS] += 1
            return
        c[PHY_TO_MAC] += 1
        c[SAT_RX if frame.satlink else LINK_RX] += 1
        c[IP_TTL_SUM] += frame.ip_ttl
        self._receivers[frame.kind](t, frame, rx)

    def _deliver_burst(self, t: float, seq: int, receivers: tuple, payload):
        """A broadcast's deliveries, in receiver order: what _on_deliver
        does for a unicast frame, with the reception counters added once."""
        stamp = self._stamp
        self._lines.append("".join([f"{stamp}{seq + i} {rx} deliver"
                                    for i, rx in enumerate(receivers)]))
        frame = payload[1]
        outcomes = frame.outcomes
        receive = self._receivers[frame.kind]
        motes = self.mote_states
        clear = errors = 0
        for rx in receivers:
            if motes[rx].mode is SLEEPING:
                continue  # radio powered down
            outcome = outcomes[rx]
            if outcome is DELIVERED:
                clear += 1
                receive(t, frame, rx)
            elif outcome is ERRORED:
                errors += 1
        c = self.counts
        c[PHY_ERRORS] += errors
        c[PHY_TO_MAC] += clear
        c[MAC_BCAST_RX] += clear
        c[IP_TTL_SUM] += clear * frame.ip_ttl

    # ---- per-kind receive handlers ----------------------------------

    def _rx_discovery(self, t: float, frame: Frame, rx: str):
        req, reached = frame.payload
        if rx in reached:
            return  # a repeat
        reached.add(rx)
        if rx not in self.mote_states:  # a base station
            if self.msc_id is not None:
                self.queue.schedule(t + self.p.backhaul_delay, self.msc_id,
                                    ("backhaul", bs_notify_msc(rx, req)))
            return
        forward = mote_forward(rx, req, self.bs_rows[rx],
                               self.active_rows[rx])
        if forward is not None:
            fwd, dst, targets = forward
            self._send(Frame("discovery", rx, dst, targets,
                             self.outcome_rows[rx], (fwd, reached), fwd.ttl))

    def _rx_dv(self, t: float, frame: Frame, rx: str):
        c = self.counts
        c[DV_RECEIVED] += 1
        if apply_update(self.tables[rx], frame.payload):
            c[DV_TRIGGERED] += 1
            self._broadcast_dv(rx, self.active_rows[rx])

    def _rx_relay(self, t: float, frame: Frame, rx: str):
        if frame.relay:  # bent-pipe: the satellite forwards it to the core
            self.counts[SAT_RELAYED] += 1
            self.counts[SAT_SENT] += 1

    def _rx_sat_signal(self, t: float, frame: Frame, rx: str):
        kind, relay = SAT_REPLIES[frame.kind]
        self._send(Frame(kind, rx, dst=frame.src, satlink=True, relay=relay))

    # ---- distance-vector plumbing -----------------------------------

    def _broadcast_dv(self, mote: str, targets: tuple):
        if not targets:
            return
        table = self.tables[mote]
        if self._send(Frame("dv", mote, None, targets,
                            self.outcome_rows[mote], periodic_update(table))):
            table.changed.clear()  # every target that hears it merges it

    def _on_dv_send(self, t: float, payload):
        mote = payload[1]
        if self.mote_states[mote].mode is SLEEPING:
            return
        self._broadcast_dv(mote, self.active_rows[mote])
        self.queue.schedule(t + self.p.dv_period, mote, payload)

    # ---- coverage checks and the handoff state machine ---------------

    def _on_coverage(self, t: float, payload):
        rows = self.handset_graph(t)
        for ms_id in sorted(self.ms_states):
            self._check_ms(t, ms_id, rows[ms_id])
        nxt = t + self.p.coverage_check_period
        if nxt <= self.s.duration:
            self.queue.schedule(nxt, "sim", payload)

    def _check_ms(self, t: float, ms_id: str, row: dict):
        st = self.ms_states[ms_id]
        link = st.link
        if link is not None:
            if link.endpoint.kind is SATELLITE or steer_feasible(
                    self.bs_positions[link.endpoint.node_id],
                    self.here[ms_id], self.p.max_steer_range):
                return
            st.link = None  # walked out of the steered beam
        if st.awaiting_link:
            return
        halted = t >= self.halt_at.get(ms_id, 0.0)
        if st.pending is not None:
            if t < st.pending.deadline:
                return
            st.pending = None  # discovery went unanswered
            st.failed_after_halt += halted
        if not detect_loss(row, self.kinds):
            return
        motes = [m for m in sorted(row) if self.kinds[m] is MOTE
                 and self.mote_states[m].mode is ACTIVE]
        if motes and not (halted and st.failed_after_halt > 0):
            req = make_discovery(ms_id, self.here[ms_id], self.ids,
                                 self.p.default_ttl)
            st.pending = self.handoffs[req.request_id] = Handoff(
                ms_id, t + self.p.discovery_timeout)
            self._send(Frame("discovery", ms_id, targets=tuple(motes),
                             payload=(req, set()), ip_ttl=req.ttl,
                             outcomes=row))
        elif halted and self.satellite_id is not None:
            # persistent isolation once the walk is over: go to satellite
            self._direct_satellite_fallback(t, ms_id)

    def _direct_satellite_fallback(self, t: float, ms_id: str):
        request_id = next(self.ids)
        handoff = self.handoffs[request_id] = Handoff(ms_id, t, MscDecision(
            request_id, DecisionOutcome.SATELLITE_FALLBACK))
        self._send(Frame("sat_request", ms_id, dst=self.satellite_id,
                         satlink=True))
        self._bring_up(t, handoff, ())

    def _bring_up(self, t: float, handoff: Handoff, relay_path: tuple):
        """Start the link `handoff`'s decision chose; establish ends it."""
        self.ms_states[handoff.ms_id].awaiting_link = True
        record = establish_link(handoff.decision, handoff.ms_id, relay_path,
                                t, self.p.steering_delay,
                                self.p.satellite_acquisition_delay,
                                self.satellite_id)
        self.queue.schedule(record.established_at, handoff.ms_id,
                            ("establish", record, handoff))

    # ---- escalation, decision, establishment ------------------------

    def _on_backhaul(self, t: float, payload):
        esc = payload[1]
        handoff = self.handoffs[esc.request_id]
        handoff.escalations.append(esc)
        if handoff.link is not None:  # decided too: put the path to sleep
            self._release(esc.relay_path)
        if handoff.decision is not None:
            return  # from a second base station, or after the link is up
        handoff.decision = decision = msc_decide(
            esc.request_id, esc.ms_location, self.bs_positions,
            self.p.max_steer_range, self.satellite_id is not None)
        if decision is None:
            return  # nothing to offer
        st = self.ms_states[esc.ms_id]
        st.pending = None  # whichever request of the handset it answers
        if st.link is not None:
            return  # stale answer, the mobile is already served
        if decision.outcome is DecisionOutcome.SATELLITE_FALLBACK:
            self.queue.schedule(t + self.p.backhaul_delay, self.satellite_id,
                                ("sat_locate", esc.ms_id))
        self._bring_up(t, handoff, esc.relay_path)

    def _on_sat_locate(self, t: float, payload):
        # the switching centre uplinks the mobile's location; the satellite
        # relays it down as a page
        ms_id = payload[1]
        self.counts[SAT_RX] += 1
        self.counts[SAT_RELAYED] += 1
        self._send(Frame("sat_page", self.satellite_id, dst=ms_id,
                         satlink=True))

    def _on_establish(self, t: float, payload):
        _, record, handoff = payload
        ms_id = handoff.ms_id
        st = self.ms_states[ms_id]
        st.awaiting_link = False  # by any request's establish
        if st.link is not None:
            return  # the first link up wins
        st.link = handoff.link = record
        handoff.dv_route = self._dv_route(record)
        self.linked.append(handoff)
        for esc in handoff.escalations:
            self._release(esc.relay_path)
        # Frames are never changed after _send(), so one serves the link.
        sat = record.endpoint.kind is SATELLITE
        frame = Frame("payload", ms_id, dst=record.endpoint.node_id,
                      satlink=sat, relay=sat and bool(record.relay_path))
        self.queue.schedule(t + self.p.app_interval, ms_id,
                            ("app", record, frame))

    def _release(self, path: tuple):
        """Put the motes on `path` to sleep and refresh the awake rows of
        their neighbours, the only rows that can hold them."""
        release_motes(path, self.mote_states)
        states, rows = self.mote_states, self.mote_rows
        for n in {n for m in path for n in rows[m]}:
            self.active_rows[n] = tuple(
                x for x in rows[n] if states[x].mode is ACTIVE)

    def _dv_route(self, record: LinkRecord):
        """Converged-table route between the relay path's endpoints, kept
        beside the flood-discovered path for comparison."""
        if len(record.relay_path) < 2:
            return None
        try:
            return tuple(shortest_path(self.tables, record.relay_path[0],
                                       record.relay_path[-1]))
        except (UnreachableError, RoutingLoopError):
            return None

    def _on_app(self, t: float, payload):
        _, record, frame = payload
        if self.ms_states[frame.src].link is not record:
            return  # that link is gone; a new one starts its own cycle
        self._send(frame)
        nxt = t + self.p.app_interval
        if nxt <= self.s.duration:
            self.queue.schedule(nxt, frame.src, payload)

    # ---- main loop ----------------------------------------------------

    def _hash_lines(self):
        """Hash the buffered digest lines in one update."""
        lines = self._lines
        if lines:
            self._digest.update("".join(lines)[self._cut:].encode())
            self._cut = 0
            lines.clear()

    def _dispatch(self, ev):
        t, seq, target, payload = ev
        if t != self._stamp_t:
            self._stamp_t = t
            self._stamp = "\n%.6f " % t
        lines = self._lines
        if len(lines) >= HASH_BLOCK:
            self._hash_lines()
        if target.__class__ is tuple:
            self._deliver_burst(t, seq, target, payload)
            return
        kind = payload[0]
        lines.append(f"{self._stamp}{seq} {target} {kind}")
        self._handlers[kind](t, payload)

    def _close_ledger(self):
        """Set the counters that the queues and other counters determine."""
        c, queues = self.counts, self.node_queues
        motes = [queues[m] for m in self.mote_states]
        others = [q for n, q in queues.items() if n not in self.mote_states]
        c[PRIO_QUEUED] = sum(q.queued for q in motes)
        c[PRIO_DEQUEUED] = sum(q.dequeued for q in motes)
        c[FIFO_QUEUED] = sum(q.queued for q in others)
        c[FIFO_DEQUEUED] = sum(q.dequeued for q in others)
        c[FIFO_PEAK] = max((q.peak_size for q in others), default=0)
        self.ledger.derive()

    def run(self) -> RunReport:
        self.queue.schedule(0.0, "sim", ("coverage",))
        for mote in sorted(self.mote_states):
            self.queue.schedule(self.rng.draw() * self.p.dv_period, mote,
                                ("dv_send", mote))
        processed = self.queue.run_until(self.s.duration, self._dispatch)
        self._hash_lines()
        self._close_ledger()
        energy = {m: (st.energy_consumed, st.mode.value)
                  for m, st in sorted(self.mote_states.items())}
        records, linked = self.handoffs.values(), self.linked
        return RunReport(
            self.ledger, tuple(h.link for h in linked), energy,
            self._digest.hexdigest(), processed,
            tuple((h.ms_id, h.decision) for h in records if h.decision),
            tuple(esc for h in records for esc in h.escalations),
            tuple(h.dv_route for h in linked))


def run(scenario: Scenario) -> RunReport:
    return Simulation(scenario).run()

