"""Acceptance gate: the seven headline properties of the simulator.

Each test prints one `criterion N (...): PASS/FAIL` line (run pytest with
-s to see them) and enforces its own wall-clock budget; criteria 4, 5 and 7
run one case per seeded input set.  Criteria 4 and 5 draw their random
worlds and breadth-first oracles from `worlds.py`, which the rest of the
suite shares; the other criteria derive theirs here.
"""

import dataclasses
import random
import time
from types import SimpleNamespace

import pytest
from worlds import (bs_reachable_by_bfs, check_flood_against_oracle,
                    check_metrics_against_bfs, check_quiescent, converge,
                    line_world, random_graph, unit_disk_world)

from wsnhandoff.protocol import DecisionOutcome, detect_loss
from wsnhandoff.queues import StrictPriorityQueue
from wsnhandoff.scenario import reference_scenario, strip_wsn
from wsnhandoff.report import serialize_report
from wsnhandoff.simulation import run
from wsnhandoff.stats import (BAD_WHEN_RISING, REGISTRY, StatsLedger,
                              classify, qos_improvement)
from wsnhandoff.world import NodeKind, comm_graph, halt_time, position_at


def _gate(n, label, budget_s, body):
    t0 = time.monotonic()
    try:
        body()
        elapsed = time.monotonic() - t0
        assert elapsed < budget_s, \
            f"budget exceeded: {elapsed:.1f}s >= {budget_s}s"
    except BaseException:
        print(f"criterion {n} ({label}): FAIL")
        raise
    print(f"criterion {n} ({label}): PASS [{elapsed:.1f}s]")


# ---- 1. QoS arithmetic ----------------------------------------------------


def test_criterion_1_qos_arithmetic():
    def body():
        # the reference comparison: 11 significant improvements, 4
        # significant regressions (errors up from nil, satcom receptions
        # down, both queue families growing), 13 unmoved counters
        errors = "phy80211.signals_received_with_errors"
        sat_rx = "mac_satcom.frames_received"
        sp_q = "net_strict_prior.packets_queued"
        fifo_q = "net_fifo.packets_queued"
        base, cand = StatsLedger(), StatsLedger()
        improvers = [k for k in REGISTRY
                     if k not in BAD_WHEN_RISING and k != sat_rx][:11]
        assert len(improvers) == 11
        for k in improvers:
            cand.record(k, 10)
        cand.record(errors, 6)
        base.record(sat_rx, 13)
        cand.record(sat_rx, 6)
        cand.record(sp_q, 8)
        cand.record(fifo_q, 8)
        c = classify(base, cand)
        assert (c.desirable, c.undesirable, c.insignificant) == (11, 4, 13)
        assert qos_improvement(c) == pytest.approx(73.33, abs=0.01)

    _gate(1, "qos arithmetic 11/4/13 -> 73.33%", 5.0, body)


# ---- 2. reference-scenario behavior ---------------------------------------


def test_criterion_2_reference_scenario_behavior():
    def body():
        s = reference_scenario()
        # the communication graph holds radios only
        positions = {n.node_id: n.position for n in s.nodes
                     if n.kind not in (NodeKind.SATELLITE, NodeKind.MSC)}
        kinds = {n.node_id: n.kind for n in s.nodes}
        profiles = {n.node_id: n.profile for n in s.nodes}

        # (a) both walkers are out of cell coverage at their halt points
        for ms_id in ("ms1", "ms2"):
            t = halt_time(s.mobility[ms_id], positions[ms_id])
            at_halt = dict(positions)
            for other in ("ms1", "ms2"):
                at_halt[other] = position_at(s.mobility[other],
                                             positions[other], t)
            g = comm_graph(at_halt, profiles)
            assert detect_loss(g[ms_id], kinds), ms_id

        rep = run(s)

        # (b) the switching layer first steered ms1 to bs1 over a relay
        # path the mesh discovered, and last decided on satellite fallback
        # for both
        first = rep.links[0]
        assert (first.ms_id, first.endpoint) == ("ms1", (
            NodeKind.BASE_STATION, "bs1"))
        assert first.relay_path
        last = {ms: d.outcome for ms, d in rep.decisions}
        fallback = DecisionOutcome.SATELLITE_FALLBACK
        assert last == {"ms1": fallback, "ms2": fallback}

        # (c) both hold satellite links by the end of the run, and the
        # satellite switched traffic for the relayed fallbacks
        final = {}
        for link in rep.links:
            final[link.ms_id] = link
        assert final["ms1"].endpoint.kind is NodeKind.SATELLITE
        assert final["ms2"].endpoint.kind is NodeKind.SATELLITE
        assert rep.ledger.get("mac_satcom.frames_relayed") > 0

        # (d) every mote on a delivered request path sleeps, and every
        # sleeping mote keeps its energy for the rest of the run, while
        # awake motes keep paying for periodic route gossip
        sleepers = {m for m, (_, mode) in rep.mote_energy.items()
                    if mode == "sleeping"}
        path_motes = {m for link in rep.links for m in link.relay_path}
        assert path_motes and path_motes <= sleepers
        assert all(rep.mote_energy[m][0] > 0 for m in path_motes)
        longer = run(dataclasses.replace(s, duration=s.duration + 30.0))
        for m in sleepers:
            assert longer.mote_energy[m] == rep.mote_energy[m], m
        assert any(longer.mote_energy[m][0] > units
                   for m, (units, _) in rep.mote_energy.items()
                   if m not in sleepers)

    _gate(2, "reference scenario: loss, steer, fallback, sleep", 10.0, body)


# ---- 3. direction reproduction over seeds ----------------------------------


def test_criterion_3_directions_reproduce_across_seeds():
    def body():
        watched = ["phy80211.signals_transmitted",
                   "mac80211.broadcast_sent",
                   "mac_satcom.frames_relayed",
                   "app_bellman_ford.triggered_updates",
                   "app_bellman_ford.update_packets_received"]
        silent = ["mac80211.broadcast_sent", "mac_satcom.frames_relayed",
                  "app_bellman_ford.update_packets_received"]
        s = reference_scenario()
        digests = set()
        for seed in range(1, 11):
            with_wsn = run(dataclasses.replace(s, seed=seed))
            without = run(dataclasses.replace(strip_wsn(s), seed=seed))
            for token in watched:
                a, b = with_wsn.ledger.get(token), without.ledger.get(token)
                assert a > b, f"seed {seed}: {token} {a} !> {b}"
            # without motes nothing is flooded, routed or relayed: every
            # decision is a direct satellite fallback
            assert without.escalations == () and without.mote_energy == {}
            assert all(d.outcome is DecisionOutcome.SATELLITE_FALLBACK
                       for _, d in without.decisions)
            assert all(link.endpoint.kind is NodeKind.SATELLITE
                       and link.relay_path == () for link in without.links)
            assert [without.ledger.get(token) for token in silent] == [0] * 3
            digests.add(with_wsn.digest)
        assert len(digests) == 10  # the seed moves the route gossip schedule

    _gate(3, "five counters strictly higher with motes, satellite only "
          "without, 10 seeds", 60.0, body)


# ---- 4. flooding vs breadth-first search -----------------------------------


# (seed, worlds drawn, the sides a world draws one of, if not 600 m, how
# few and how many of them may reach a base station, budget in seconds)
@pytest.mark.parametrize("seed, count, sides, low, high, budget_s", [
    (20260815, 50, (300.0, 450.0, 600.0), 4, 46, 18.0),
    (90125, 25, (), 1, 24, 8.0)])
def test_criterion_4_flooding_matches_bfs_oracle(seed, count, sides, low,
                                                 high, budget_s):
    def body():
        rng = random.Random(seed)
        worlds = []
        for _ in range(count):
            n = rng.randint(0, 20)
            worlds.append(unit_disk_world(rng, n, rng.choice(sides))
                          if sides else unit_disk_world(rng, n))
        # each sample exercises both sides of the iff
        assert low <= sum(map(bs_reachable_by_bfs, worlds)) <= high
        for s in worlds:
            check_flood_against_oracle(s)

    _gate(4, f"flood delivery iff <=16-hop path, {count} worlds of seed "
          f"{seed}", budget_s, body)


@pytest.mark.parametrize("seed", [4, 9])
def test_criterion_4_ttl_boundary_is_exact(seed):
    def body():
        # sixteen relays exhaust the hop budget exactly; seventeen exceed it
        rep = check_flood_against_oracle(line_world(16, seed))
        assert [(e.bs_id, len(e.relay_path))
                for e in rep.escalations] == [("bs1", 16)]
        assert check_flood_against_oracle(
            line_world(17, seed)).escalations == ()

    _gate(4, f"ttl boundary, line worlds of seed {seed}", 2.0, body)


# ---- 5. distance-vector vs BFS ---------------------------------------------


# (seed, graphs drawn, the most nodes a graph may have, budget in seconds)
@pytest.mark.parametrize("seed, count, most, budget_s", [
    (5150, 30, 12, 11.0), (1234, 40, 12, 15.0), (77, 10, 8, 4.0)])
def test_criterion_5_distance_vector_equals_bfs(seed, count, most, budget_s):
    def body():
        rng = random.Random(seed)
        for _ in range(count):
            adj = random_graph(rng, most)
            tables = converge(adj)
            check_metrics_against_bfs(tables, adj)
            # idempotence at quiescence, for an advert of every lane
            check_quiescent(tables, adj)

    _gate(5, f"converged metrics equal BFS hops, {count} graphs of seed "
          f"{seed}", budget_s, body)


# ---- 6. determinism ---------------------------------------------------------


def test_criterion_6_identical_runs_are_byte_identical():
    def body():
        s = reference_scenario()
        a, b = run(s), run(s)
        assert a.digest == b.digest
        assert serialize_report(a) == serialize_report(b)
        # the report rounds each link's established_at; the records do not
        assert a.links == b.links

    _gate(6, "same scenario and seed, byte-identical reports", 20.0, body)


# ---- 7. queue properties -----------------------------------------------------


# (seed, capacity per class, the sizes a packet draws one of, if any); the
# queue reads only priority_class
@pytest.mark.parametrize("seed, capacity, sizes", [
    (86, 4, ()), (2024, 5, (64, 512))])
def test_criterion_7_queue_trace_properties(seed, capacity, sizes):
    def body():
        rng = random.Random(seed)
        q = StrictPriorityQueue(capacity_per_class=capacity)
        lanes = [[], [], []]  # reference model
        attempts = taken = lost = 0
        peaks = [0, 0, 0]
        for op in range(1000):
            if rng.random() < 0.6:
                pkt = SimpleNamespace(packet_id=op,
                                      priority_class=rng.randrange(3))
                if sizes:
                    pkt.size = rng.choice(sizes)
                attempts += 1
                lane = lanes[pkt.priority_class]
                if len(lane) >= capacity:
                    lost += 1
                    assert q.enqueue(pkt) is False
                else:
                    lane.append(pkt)
                    peaks[pkt.priority_class] = max(
                        peaks[pkt.priority_class], len(lane))
                    assert q.enqueue(pkt) is True
            else:
                lowest = next((i for i, lane in enumerate(lanes)
                               if lane), None)
                got = q.dequeue()
                if lowest is None:
                    assert got is None
                else:
                    taken += 1
                    # strict priority: never serve k while j < k waits
                    assert got == lanes[lowest].pop(0)
            assert q.queued == q.dequeued + q.dropped + len(q)
            assert (q.queued, q.dequeued, q.dropped) == \
                (attempts, taken, lost)
            assert q.peak_size == max(peaks)
        # the drain hands back what the model holds, lowest class first
        rest = [pkt for lane in lanes for pkt in lane]
        assert [q.dequeue() for _ in rest] == rest
        assert q.dequeue() is None
        assert q.queued == q.dequeued + q.dropped

    _gate(7, f"1000-op trace of seed {seed}: priority, conservation, peak",
          2.5, body)
