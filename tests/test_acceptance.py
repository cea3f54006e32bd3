"""Acceptance gate: the seven headline properties of the simulator.

Each test prints one `criterion N (...): PASS/FAIL` line (run pytest with
-s to see them) and enforces its own wall-clock budget.  Criteria 4 and 5
draw their random worlds and breadth-first oracles from `worlds.py`, which
the rest of the suite shares; the other criteria derive theirs here.
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
from wsnhandoff.scenario import (effective_profile, reference_scenario,
                                 strip_wsn)
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
        profiles = {n.node_id: effective_profile(n) for n in s.nodes}

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

        # (b) the switching layer decided on satellite fallback for both
        fallback = {ms for ms, d in rep.decisions
                    if d.outcome is DecisionOutcome.SATELLITE_FALLBACK}
        assert fallback == {"ms1", "ms2"}

        # (c) both hold satellite links by the end of the run
        final = {}
        for link in rep.links:
            final[link.ms_id] = link
        assert final["ms1"].endpoint.kind is NodeKind.SATELLITE
        assert final["ms2"].endpoint.kind is NodeKind.SATELLITE

        # (d) every mote on a delivered request path sleeps on frozen energy
        path_motes = {m for link in rep.links for m in link.relay_path}
        assert path_motes
        longer = run(dataclasses.replace(s, duration=s.duration + 30.0))
        for m in path_motes:
            units, mode = rep.mote_energy[m]
            assert mode == "sleeping", m
            assert longer.mote_energy[m] == (units, "sleeping"), m

    _gate(2, "reference scenario: loss, fallback, sleep", 10.0, body)


# ---- 3. direction reproduction over seeds ----------------------------------


def test_criterion_3_directions_reproduce_across_seeds():
    def body():
        watched = ["phy80211.signals_transmitted",
                   "mac80211.broadcast_sent",
                   "mac_satcom.frames_relayed",
                   "app_bellman_ford.triggered_updates",
                   "app_bellman_ford.update_packets_received"]
        s = reference_scenario()
        for seed in range(1, 11):
            with_wsn = run(dataclasses.replace(s, seed=seed))
            without = run(dataclasses.replace(strip_wsn(s), seed=seed))
            for token in watched:
                a, b = with_wsn.ledger.get(token), without.ledger.get(token)
                assert a > b, f"seed {seed}: {token} {a} !> {b}"

    _gate(3, "five counters strictly higher with motes, 10 seeds", 60.0,
          body)


# ---- 4. flooding vs breadth-first search -----------------------------------


def test_criterion_4_flooding_matches_bfs_oracle():
    def body():
        rng = random.Random(20260815)
        scenarios = [unit_disk_world(rng, rng.randint(0, 20),
                                     rng.choice([300.0, 450.0, 600.0]))
                     for _ in range(50)]
        # the exact ttl boundary
        scenarios += [line_world(16, 4), line_world(17, 4)]
        reachable_count = 0
        for s in scenarios:
            reachable_count += bs_reachable_by_bfs(s)
            check_flood_against_oracle(s)
        assert 5 <= reachable_count <= 47  # both sides of the iff exercised

    _gate(4, "flood delivery iff <=16-hop path, 52 scenarios", 30.0, body)


# ---- 5. distance-vector vs BFS ---------------------------------------------


def test_criterion_5_distance_vector_equals_bfs():
    def body():
        rng = random.Random(5150)
        for _ in range(30):
            adj = random_graph(rng)
            tables = converge(adj)
            check_metrics_against_bfs(tables, adj)
            # idempotence at quiescence, for an advert of every lane
            check_quiescent(tables, adj)

    _gate(5, "converged metrics equal BFS hops, 30 graphs", 30.0, body)


# ---- 6. determinism ---------------------------------------------------------


def test_criterion_6_identical_runs_are_byte_identical():
    def body():
        s = reference_scenario()
        a, b = run(s), run(s)
        assert a.digest == b.digest
        assert serialize_report(a) == serialize_report(b)

    _gate(6, "same scenario and seed, byte-identical reports", 20.0, body)


# ---- 7. queue properties -----------------------------------------------------


def test_criterion_7_queue_trace_properties():
    def body():
        rng = random.Random(86)
        q = StrictPriorityQueue(capacity_per_class=4)
        lanes = [[], [], []]  # reference model
        attempts = taken = lost = 0
        peaks = [0, 0, 0]
        for op in range(1000):
            if rng.random() < 0.6:
                # the queue reads only priority_class
                pkt = SimpleNamespace(packet_id=op,
                                      priority_class=rng.randrange(3))
                attempts += 1
                lane = lanes[pkt.priority_class]
                if len(lane) >= 4:
                    lost += 1
                    assert q.enqueue(pkt) is False
                else:
                    lane.append(pkt)
                    peaks[pkt.priority_class] = max(
                        peaks[pkt.priority_class], len(lane))
                    assert q.enqueue(pkt) is True
            else:
                lowest = next((i for i, lane in enumerate(lanes) if lane),
                              None)
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

    _gate(7, "1000-op trace: priority, conservation, peak", 5.0, body)
