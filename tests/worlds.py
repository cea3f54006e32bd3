"""Seeded worlds and the oracles that the tests share.

Each generator builds a scenario, or a distance-vector graph, in code from
an rng, a seed or fixed arguments, drawing in a fixed order;
`tests/test_worlds.py` pins what each draws for the seeds the suite uses.
The oracles are the flood's breadth-first reachability and the
distance-vector tables' breadth-first hop counts.  A test module imports
what it shares from here and never from another test module.
"""

import dataclasses
import random
from collections import deque
from pathlib import Path

from wsnhandoff.routing import (INFINITY_METRIC, Lanes, Table, apply_update,
                                periodic_update)
from wsnhandoff.scenario import NodeSpec, Scenario, SimParams, ValidationError
from wsnhandoff.report import serialize_report
from wsnhandoff.simulation import run
from wsnhandoff.world import MobilityPath, NodeKind, Point, profile_for_range

# ---- flooding vs breadth-first search ------------------------------------

RADIO_RANGE = 120.0


def unit_disk_world(rng, n_motes: int, side: float = 600.0) -> Scenario:
    """Random flat world with one mobile station, one cell, one satellite,
    every radio placed in a side x side square.

    Every radio uses the same range and a zero error margin, so the
    communication graph is exactly the unit-disk graph and reachability
    has a clean breadth-first oracle.
    """
    profile = profile_for_range(RADIO_RANGE)

    def spot():
        return Point(round(rng.uniform(0, side), 2),
                     round(rng.uniform(0, side), 2))

    while True:
        nodes = [NodeSpec("bs1", NodeKind.BASE_STATION, spot(), profile)]
        for i in range(n_motes):
            nodes.append(NodeSpec(f"m{i:02d}", NodeKind.MOTE, spot(),
                                  profile))
        ms_pos = spot()
        if ms_pos.distance_to(nodes[0].position) <= RADIO_RANGE:
            continue  # still covered: no discovery would ever start
        positions = {n.position for n in nodes}
        if ms_pos in positions or len(positions) != len(nodes):
            continue
        nodes.append(NodeSpec("ms1", NodeKind.MOBILE_STATION, ms_pos,
                              profile))
        nodes.append(NodeSpec("sat1", NodeKind.SATELLITE,
                              Point(-500.0, -500.0), profile))
        nodes.append(NodeSpec("msc1", NodeKind.MSC, Point(-400.0, -600.0)))
        return Scenario(tuple(sorted(nodes, key=lambda n: n.node_id)), {},
                        duration=3.0, seed=rng.randrange(2**32))


def line_world(n_motes: int, seed: int) -> Scenario:
    """ms1 - m00 - m01 - ... - bs1 chain with 100 m spacing."""
    profile = profile_for_range(RADIO_RANGE)
    nodes = [NodeSpec("ms1", NodeKind.MOBILE_STATION, Point(0.0, 0.0),
                      profile)]
    for i in range(n_motes):
        nodes.append(NodeSpec(f"m{i:02d}", NodeKind.MOTE,
                              Point(100.0 * (i + 1), 0.0), profile))
    nodes.append(NodeSpec("bs1", NodeKind.BASE_STATION,
                          Point(100.0 * (n_motes + 1), 0.0), profile))
    nodes.append(NodeSpec("sat1", NodeKind.SATELLITE, Point(0.0, 900.0),
                          profile))
    nodes.append(NodeSpec("msc1", NodeKind.MSC, Point(-50.0, -50.0)))
    return Scenario(tuple(sorted(nodes, key=lambda n: n.node_id)), {},
                    duration=3.0, seed=seed)


def bs_reachable_by_bfs(s: Scenario, ttl: int = 16) -> bool:
    """Oracle: does a mote chain of at most `ttl` hops join ms1 to bs1?"""
    pos = {n.node_id: n.position for n in s.nodes}
    motes = [n.node_id for n in s.nodes if n.kind is NodeKind.MOTE]
    near = lambda a, b: pos[a].distance_to(pos[b]) <= RADIO_RANGE
    frontier = deque((m, 1) for m in motes if near("ms1", m))
    seen = {m for m, _ in frontier}
    while frontier:
        m, hops = frontier.popleft()
        if near(m, "bs1"):
            return True
        if hops == ttl:
            continue
        for other in motes:
            if other not in seen and near(m, other):
                seen.add(other)
                frontier.append((other, hops + 1))
    return False


def check_flood_against_oracle(s: Scenario):
    """Run a unit-disk or line world: bs1 escalates iff the oracle finds a
    short enough mote chain, and every relay path is a simple chain of at
    most 16 radio hops from ms1 to bs1.  Returns the report."""
    rep = run(s)
    reachable = bs_reachable_by_bfs(s)
    delivered = [e for e in rep.escalations if e.bs_id == "bs1"]
    assert bool(delivered) == reachable, serialize_report(rep)
    pos = {n.node_id: n.position for n in s.nodes}
    for esc in delivered:
        path = esc.relay_path
        assert 0 < len(path) <= 16
        assert len(set(path)) == len(path)  # simple
        assert pos["ms1"].distance_to(pos[path[0]]) <= RADIO_RANGE
        assert pos[path[-1]].distance_to(pos["bs1"]) <= RADIO_RANGE
        for a, b in zip(path, path[1:]):
            assert pos[a].distance_to(pos[b]) <= RADIO_RANGE
    return rep


# ---- distance-vector graphs ------------------------------------------------


def random_graph(rng, max_nodes: int = 12) -> dict:
    """Adjacency of 2..max_nodes nodes n0, n1, ..., each pair joined with
    probability 0.3."""
    n = rng.randint(2, max_nodes)
    names = [f"n{i}" for i in range(n)]
    adj = {m: set() for m in names}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                adj[names[i]].add(names[j])
                adj[names[j]].add(names[i])
    return adj


def converge(adj) -> dict:
    """The delta tables of adj's nodes after synchronous rounds in which
    every node adverts its changed lanes to every neighbour, until nothing
    changes."""
    lanes = Lanes(adj)
    tables = {n: Table(n, lanes) for n in adj}
    for _ in range(len(adj) + 2):
        updates = {n: periodic_update(tables[n]) for n in sorted(adj)}
        for t in tables.values():
            t.changed.clear()  # every advert of the round is heard
        any_change = False
        for n in sorted(adj):
            for nb in sorted(adj[n]):
                if apply_update(tables[n], updates[nb]):
                    any_change = True
        if not any_change:
            break
    return tables


def check_metrics_against_bfs(tables, adj):
    """Oracle: every table's metric to every node is its breadth-first hop
    count, INFINITY_METRIC when unreached or further."""
    for src in adj:
        hops = {src: 0}
        frontier = deque([src])
        while frontier:
            u = frontier.popleft()
            for v in adj[u]:
                if v not in hops:
                    hops[v] = hops[u] + 1
                    frontier.append(v)
        for dst in adj:
            want = min(hops.get(dst, INFINITY_METRIC), INFINITY_METRIC)
            assert tables[src].metric(dst) == want, (src, dst)


def check_quiescent(tables, adj):
    """A full advert of each converged table, every lane in it, changes no
    neighbour."""
    for n in sorted(adj):
        tables[n].changed = set(range(len(adj)))
        up = periodic_update(tables[n])
        for nb in sorted(adj[n]):
            assert not apply_update(tables[nb], up)


# ---- walking handsets ------------------------------------------------------


def random_walk_world(rng) -> Scenario:
    """Two base stations 900 m apart, up to 30 motes, some with a hotter or
    deafer radio, and 1 to 4 handsets, most of them walking, over 60 s."""
    nodes = [NodeSpec("bs1", NodeKind.BASE_STATION, Point(0.0, 200.0)),
             NodeSpec("bs2", NodeKind.BASE_STATION, Point(900.0, 200.0)),
             NodeSpec("msc1", NodeKind.MSC, Point(450.0, 200.0)),
             NodeSpec("sat1", NodeKind.SATELLITE, Point(450.0, 900.0))]
    for i in range(rng.randint(0, 30)):
        # some motes get a hotter or deafer radio, so links go one-way
        profile = (profile_for_range(rng.uniform(60.0, 260.0),
                                     error_margin_db=1.0)
                   if rng.random() < 0.3 else None)
        nodes.append(NodeSpec(f"m{i:02d}", NodeKind.MOTE,
                              Point(rng.uniform(0.0, 900.0),
                                    rng.uniform(0.0, 400.0)), profile))
    mobility = {}
    for i in range(rng.randint(1, 4)):
        ms_id = f"ms{i}"
        nodes.append(NodeSpec(ms_id, NodeKind.MOBILE_STATION,
                              Point(rng.uniform(0.0, 900.0),
                                    rng.uniform(0.0, 400.0))))
        if rng.random() < 0.8:  # the rest stand still
            waypoints = tuple(Point(rng.uniform(0.0, 900.0),
                                    rng.uniform(0.0, 400.0))
                              for _ in range(rng.randint(1, 3)))
            mobility[ms_id] = MobilityPath(waypoints, rng.uniform(2.0, 30.0),
                                           rng.uniform(0.2, 1.0))
    return Scenario(tuple(sorted(nodes, key=lambda n: n.node_id)), mobility,
                    duration=60.0, seed=1)


def timed_world(seed: int) -> Scenario:
    """A random_walk_world under non-default timing.  Short discovery
    timeouts against slow backhaul let one handset hold several requests
    at once; a quarter of the worlds bring links up with no delay, so an
    escalation can reach the switching centre after its link is up."""
    rng = random.Random(seed)
    s = random_walk_world(rng)
    if rng.random() < 0.25:
        steer = acquire = 0.0
        hop = rng.choice((0.05, 0.2))
    else:
        steer = rng.choice((0.5, 3.0))
        acquire = rng.choice((2.0, 5.0))
        hop = rng.choice((0.01, 0.05, 0.2))
    return dataclasses.replace(s, params=SimParams(
        discovery_timeout=rng.choice((0.02, 0.05, 0.2, 1.0)),
        hop_delay=hop, backhaul_delay=rng.choice((0.05, 0.5, 1.5)),
        steering_delay=steer, satellite_acquisition_delay=acquire,
        coverage_check_period=rng.choice((0.25, 1.0)),
        default_ttl=rng.randint(2, 16)))


def crossing_world(walkers) -> Scenario:
    """bs1 at (-300, 0), motes at (64, 0) and (160, 0), a switching centre
    and a satellite above them, 20 s; `walkers` holds (id, start, end) for
    handsets walking at 8 m/s to their end and halting there."""
    nodes = [NodeSpec("bs1", NodeKind.BASE_STATION, Point(-300.0, 0.0)),
             NodeSpec("m01", NodeKind.MOTE, Point(64.0, 0.0)),
             NodeSpec("m02", NodeKind.MOTE, Point(160.0, 0.0)),
             NodeSpec("msc1", NodeKind.MSC, Point(0.0, 500.0)),
             NodeSpec("sat1", NodeKind.SATELLITE, Point(0.0, 900.0))]
    mobility = {}
    for ms_id, start, end in walkers:
        nodes.append(NodeSpec(ms_id, NodeKind.MOBILE_STATION, start))
        mobility[ms_id] = MobilityPath((end,), 8.0, 1.0)
    return Scenario(tuple(sorted(nodes, key=lambda n: n.node_id)), mobility,
                    duration=20.0, seed=1)


def satellite_free_crossing_world(seed: int):
    """A random_walk_world without its satellite, in which ms0 walks east
    along a row onto a mote's point, moved to whole metres, at t = 8, a
    coverage tick (powers of two keep the walk exact).  Returns the world
    and the mote, or None when the world has no mote or its moved nodes
    break a rule."""
    rng = random.Random(seed)
    s = random_walk_world(rng)
    motes = [n for n in s.nodes if n.kind is NodeKind.MOTE]
    if not motes:
        return None
    crossed = rng.choice(motes)
    at = Point(float(round(crossed.position.x)),
               float(round(crossed.position.y)))
    moved = {crossed.node_id: at, "ms0": Point(at.x - 64.0, at.y)}
    try:
        s = dataclasses.replace(s, nodes=tuple(
            n._replace(position=moved.get(n.node_id, n.position))
            for n in s.nodes if n.kind is not NodeKind.SATELLITE), mobility={
            **s.mobility,
            "ms0": MobilityPath((Point(at.x + 960.0, at.y),), 8.0, 1.0)})
    except ValidationError:
        return None
    return s, crossed.node_id


def grid_world(k: int, walkers) -> Scenario:
    """k x k motes between two base stations (100 m pitch from (80,130),
    base stations at (0,200) and (100k+600,200), a satellite and a
    switching centre mid-field, 90 s, seed 1); `walkers` holds
    (id, start_y, speed) for handsets walking east from x = 0 toward bs2
    and halting halfway."""
    width = 100.0 * k + 600.0
    nodes = [NodeSpec("bs1", NodeKind.BASE_STATION, Point(0.0, 200.0)),
             NodeSpec("bs2", NodeKind.BASE_STATION, Point(width, 200.0)),
             NodeSpec("msc1", NodeKind.MSC, Point(width / 2, 200.0)),
             NodeSpec("sat1", NodeKind.SATELLITE, Point(width / 2, 800.0))]
    idx = 1
    for row in range(k):
        for col in range(k):
            nodes.append(NodeSpec(f"m{idx:03d}", NodeKind.MOTE,
                                  Point(80.0 + 100 * col, 130.0 + 100 * row)))
            idx += 1
    mobility = {}
    for ms_id, y, speed in walkers:
        nodes.append(NodeSpec(ms_id, NodeKind.MOBILE_STATION, Point(0.0, y)))
        mobility[ms_id] = MobilityPath((Point(width, y),), speed, 0.5)
    return Scenario(tuple(sorted(nodes, key=lambda n: n.node_id)), mobility,
                    duration=90.0, seed=1)


# ---- scenario texts --------------------------------------------------------

# At t = 45 ms1 queues a payload for bs1, then loses the steered beam and
# queues a discovery for mx; the payload takes the t = 45 slot, so the
# discovery goes out at 45.5 from (455, 190), mx's point, where no coverage
# tick looked.  It is heard as from (450, 190), where the t = 45 check
# placed ms1.
DISCOVERY_FROM_A_MOTE_POINT = """[params]
duration = 50
app_interval = 29.43
tx_slot = 0.5
[node]
bs1 base_station 0 200
msc1 msc 500 -400
ms1 mobile_station 0 190
m00 mote 60 130
mx mote {mx_x} 190
[mobility]
ms1 speed=10 halt=1 waypoints=1000,190
"""


def readme_scenario() -> str:
    """The example under README's "Scenario files" heading."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Scenario files", 1)[1]
    return section.split("```", 2)[1].split("\n", 1)[1]
