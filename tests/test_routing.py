"""Distance-vector routing: the delta tables on hand-built and random
graphs (test_acceptance's criterion 5 checks their convergence against an
all-pairs BFS oracle) and, in lockstep, against the general merge over full
adverts (packed_dv); that merge against the per-destination dict merge it
replaced in turn."""

import heapq
import itertools
import random
from dataclasses import dataclass

import packed_dv
import pytest
from worlds import check_metrics_against_bfs, converge, random_graph

from wsnhandoff.routing import (INFINITY_METRIC, LINK_COST, NO_HOP, Lanes,
                                RoutingLoopError, Table, UnreachableError,
                                apply_update, periodic_update,
                                shortest_path)


def _table(owner, lanes, entries):
    """A delta table holding `entries`, the dict form {destination:
    (metric, next_hop)}; its changed set is the owner's lane, as at the
    start."""
    t = Table(owner, lanes)
    for dst, (metric, hop) in entries.items():
        i = lanes.index[dst]
        t.metrics[i] = metric
        if dst != owner:
            t.hops[i] = lanes.index[hop]
    return t


def _entries(t):
    """The dict form of a table: every destination with a metric below 16
    or a next hop (a missing entry reads as (16, None))."""
    return {dst: (t.metric(dst), t.next_hop(dst)) for dst in t.lanes.names
            if t.metric(dst) < INFINITY_METRIC or t.next_hop(dst) is not None}


def _advert(sender, lanes, vector):
    """The delta advert of a dict vector {destination: advertised metric}:
    min(16, advertised + 1) for each destination in it."""
    return sender, tuple((lanes.index[dst], min(INFINITY_METRIC,
                                                adv + LINK_COST))
                         for dst, adv in vector.items())


def _lane_names(changed, lanes):
    return {lanes.names[i] for i in changed}


def test_init_table_self_entry():
    t = Table("m3", Lanes(["m3"]))
    assert t.owner == "m3"
    assert _entries(t) == {"m3": (0, "m3")}
    assert t.metric("m3") == 0 and t.next_hop("m3") == "m3"
    assert t.changed == {0}


def test_lanes_are_sorted_and_shared():
    lanes = Lanes({"m2", "m10", "m1"})
    assert lanes.names == ("m1", "m10", "m2")
    assert lanes.index == {"m1": 0, "m10": 1, "m2": 2}
    a, b = Table("m10", lanes), Table("m2", lanes)
    assert a.lanes is b.lanes
    assert a.metrics == bytearray([16, 0, 16])
    assert list(a.hops) == [NO_HOP] * 3 and a.changed == {1}
    packed = packed_dv.Table("m10", packed_dv.Lanes({"m2", "m10", "m1"}))
    assert packed.metrics == 0x100010 and packed.via == {}


def test_missing_destination_reads_as_infinity():
    t = Table("a", Lanes(["a", "nowhere"]))
    assert t.metric("nowhere") == INFINITY_METRIC
    assert t.next_hop("nowhere") is None


def test_periodic_update_carries_the_changed_lanes():
    lanes = Lanes("abcde")
    t = _table("a", lanes, {"a": (0, "a"), "b": (1, "b"),
                                 "c": (2, "b"), "d": (15, "b")})
    assert periodic_update(t) == ("a", ((0, 1),))
    t.changed |= {1, 3, 4}
    sender, cands = periodic_update(t)
    assert sender == "a"
    # one link more than the table's metric, clamped at infinity
    assert dict(cands) == {0: 1, 1: 2, 3: 16, 4: 16}
    assert periodic_update(t) == (sender, cands)
    t.changed.clear()
    assert periodic_update(t) == ("a", ())


def test_apply_update_learns_new_routes():
    lanes = Lanes("abc")
    t = Table("a", lanes)
    assert apply_update(t, _advert("b", lanes, {"b": 0, "c": 1}))
    assert _lane_names(t.changed, lanes) == {"a", "b", "c"}
    assert _entries(t)["b"] == (1, "b")
    assert _entries(t)["c"] == (2, "b")


def test_apply_update_keeps_better_existing_route():
    lanes = Lanes("abc")
    t = _table("a", lanes, {"a": (0, "a"), "c": (1, "c")})
    assert not apply_update(t, _advert("b", lanes, {"c": 3}))
    assert _entries(t)["c"] == (1, "c")
    assert t.changed == {0}


def test_adopted_lane_takes_the_senders_lane():
    lanes = Lanes("abcd")
    t = _table("a", lanes, {"a": (0, "a"), "c": (3, "c"),
                                  "d": (4, "c")})
    assert apply_update(t, _advert("b", lanes, {"c": 1}))
    assert _entries(t) == {"a": (0, "a"), "c": (2, "b"), "d": (4, "c")}
    assert list(t.hops) == [NO_HOP, NO_HOP, 1, 2]
    assert _lane_names(t.changed, lanes) == {"a", "c"}


def test_a_candidate_of_sixteen_is_never_adopted():
    lanes = Lanes(["a", "b", "x"])
    t = Table("a", lanes)
    for _ in range(2):  # no matter how often repeated
        assert not apply_update(t, _advert("b", lanes,
                                           {"x": INFINITY_METRIC}))
        assert t.metric("x") == INFINITY_METRIC
        assert t.next_hop("x") is None


def test_apply_update_is_idempotent():
    lanes = Lanes("abcd")
    t = Table("a", lanes)
    up = _advert("b", lanes, {"b": 0, "c": 1, "d": 2})
    assert apply_update(t, up)
    assert _lane_names(t.changed, lanes) == {"a", "b", "c", "d"}
    assert not apply_update(t, up)


def test_next_hops_hold_lanes_past_255():
    names = [f"n{i:03d}" for i in range(300)]
    lanes = Lanes(names)
    t = Table("n000", lanes)
    assert len(t.hops) == 300 and t.next_hop("n299") is None
    assert apply_update(t, ("n299", ((298, 1), (299, 1))))
    assert t.next_hop("n298") == t.next_hop("n299") == "n299"
    assert t.hops[299] == 299 and t.next_hop("n100") is None


# ---- converged tables and shortest paths ---------------------------------


def test_cross_partition_metrics_are_infinity():
    # two disjoint triangles
    adj = {"a": {"b", "c"}, "b": {"a", "c"}, "c": {"a", "b"},
           "x": {"y", "z"}, "y": {"x", "z"}, "z": {"x", "y"}}
    tables = converge(adj)
    assert tables["a"].metric("x") == INFINITY_METRIC
    assert tables["x"].metric("c") == INFINITY_METRIC
    with pytest.raises(UnreachableError):
        shortest_path(tables, "a", "z")


def test_shortest_path_on_a_line():
    adj = {"a": {"b"}, "b": {"a", "c"}, "c": {"b", "d"}, "d": {"c"}}
    tables = converge(adj)
    path = shortest_path(tables, "a", "d")
    assert path == ["a", "b", "c", "d"]
    assert len(path) - 1 == tables["a"].metric("d")
    assert shortest_path(tables, "c", "c") == ["c"]


def test_shortest_path_to_a_node_without_a_lane_is_unreachable():
    tables = converge({"a": {"b"}, "b": {"a"}})
    with pytest.raises(UnreachableError):
        shortest_path(tables, "a", "bs1")
    with pytest.raises(UnreachableError):
        shortest_path(tables, "bs1", "a")


def test_shortest_path_length_matches_metric_on_random_graphs():
    rng = random.Random(31)
    for _ in range(15):
        adj = random_graph(rng)
        tables = converge(adj)
        for src in sorted(adj):
            for dst in sorted(adj):
                m = tables[src].metric(dst)
                if m >= INFINITY_METRIC:
                    with pytest.raises(UnreachableError):
                        shortest_path(tables, src, dst)
                else:
                    path = shortest_path(tables, src, dst)
                    assert len(path) - 1 == m
                    assert len(set(path)) == len(path)
                    for u, v in zip(path, path[1:]):
                        assert v in adj[u]


def test_inconsistent_tables_raise_loop_error():
    # a and b each claim the route goes through the other
    lanes = Lanes(["a", "b", "x"])
    tables = {
        "a": _table("a", lanes, {"a": (0, "a"), "x": (2, "b")}),
        "b": _table("b", lanes, {"b": (0, "b"), "x": (2, "a")}),
    }
    with pytest.raises(RoutingLoopError):
        shortest_path(tables, "a", "x")


# ---- the delta merge against the general merge, in lockstep -------------


def _same_tables(delta, packed):
    names = delta.lanes.names
    assert [(delta.metric(d), delta.next_hop(d)) for d in names] == \
        [(packed.metric(d), packed.next_hop(d)) for d in names]


def test_delta_and_general_merges_agree_in_lockstep():
    """Both merges receive one schedule on seeded random adjacencies, as
    the simulator's mesh gives it.  Each sender's queue, drawn per offer,
    accepts or drops the advert; the delta table clears its changed set
    only when the advert is accepted.  Accepted adverts leave in order,
    each after a random delay, and reach every neighbour that is awake
    when they are offered and hears the sender: some pairs never hear each
    other, and some motes fall asleep for good, after which they neither
    send nor receive.  Every merge must give both tables the same change
    and the same metric and next hop on every lane."""
    rng = random.Random(2310)
    merges = changes = drops = 0
    for _ in range(40):
        adj = random_graph(rng, max_nodes=14)
        delta_lanes, lanes = Lanes(adj), packed_dv.Lanes(adj)
        delta = {n: Table(n, delta_lanes) for n in adj}
        packed = {n: packed_dv.Table(n, lanes) for n in adj}
        deaf = {(a, b) for a in adj for b in adj[a] if rng.random() < 0.1}
        awake = set(adj)
        in_flight, last_at, seq = [], dict.fromkeys(adj, 0), itertools.count()

        def offer(n, now):
            nonlocal drops
            targets = sorted(adj[n] & awake)
            if not targets:
                return
            advert, full = (periodic_update(delta[n]),
                            packed_dv.periodic_update(packed[n]))
            if rng.random() < 0.2:
                drops += 1
                return
            delta[n].changed.clear()
            last_at[n] = max(last_at[n], now + rng.randint(1, 4))
            heapq.heappush(in_flight, (last_at[n], next(seq), n, targets,
                                       advert, full))

        now, quiet = 0, 0
        while quiet < 3:  # three rounds of periodic adverts change nothing
            order = sorted(awake)
            rng.shuffle(order)
            for n in order:
                offer(n, now)
            if len(awake) > 2 and rng.random() < 0.1:
                awake.discard(rng.choice(sorted(awake)))
            changed_any = False
            while in_flight:
                now, _, sender, targets, advert, full = heapq.heappop(
                    in_flight)
                if sender not in awake:
                    continue  # asleep before it was sent
                for rx in targets:
                    if rx not in awake or (sender, rx) in deaf:
                        continue
                    got = apply_update(delta[rx], advert)
                    want = packed_dv.apply_update(packed[rx], full, adj[rx])
                    assert got == bool(want)
                    _same_tables(delta[rx], packed[rx])
                    merges += 1
                    if got:
                        changes += 1
                        changed_any = True
                        offer(rx, now)
            quiet = 0 if changed_any else quiet + 1
        for n in adj:
            _same_tables(delta[n], packed[n])
    assert merges > 2000 and changes > 400 and drops > 400, (
        merges, changes, drops)


# ---- the general merge against the per-destination dict merge -----------


def _pack(owner, lanes, entries):
    """A packed table holding `entries`, the dict form
    {destination: (metric, next_hop)}."""
    t = packed_dv.Table(owner, lanes)
    for dst, (metric, hop) in entries.items():
        i = lanes.index[dst]
        t.metrics = t.metrics & ~(0xFF << 8 * i) | metric << 8 * i
        if dst != owner:
            t.via[hop] = t.via.get(hop, 0) | 0x80 << 8 * i
    return t


def _full_advert(sender, lanes, vector):
    """The packed advert of a dict vector {destination: advertised metric}:
    min(16, advertised + 1) per lane, 16 where nothing is advertised."""
    cand = lanes.ones * INFINITY_METRIC
    for dst, adv in vector.items():
        i = lanes.index[dst]
        c = min(INFINITY_METRIC, adv + LINK_COST)
        cand = cand & ~(0xFF << 8 * i) | c << 8 * i
    return sender, cand


def _names(mask, lanes):
    """The destinations whose lane is set in a changed or next-hop mask."""
    return {n for i, n in enumerate(lanes.names) if mask >> 8 * i & 0x80}


def test_periodic_update_snapshots_metrics():
    lanes = packed_dv.Lanes("abcde")
    t = _pack("a", lanes, {"a": (0, "a"), "b": (1, "b"), "c": (2, "b"),
                           "d": (15, "b")})
    sender, cand = packed_dv.periodic_update(t)
    assert sender == "a"
    # one link more than the table's metric, clamped at infinity
    assert cand.to_bytes(5, "little") == bytes([1, 2, 3, 16, 16])
    assert packed_dv.periodic_update(t) == (sender, cand)


def test_route_through_sender_is_relearned_even_when_worse():
    lanes = packed_dv.Lanes("abc")
    t = _pack("a", lanes, {"a": (0, "a"), "c": (2, "b")})
    changed = packed_dv.apply_update(
        t, _full_advert("b", lanes, {"c": 5}), {"b"})
    assert _names(changed, lanes) == {"c"}
    assert _packed_entries(t)["c"] == (6, "b")


def test_adopted_route_leaves_the_previous_next_hop():
    lanes = packed_dv.Lanes("abcd")
    t = _pack("a", lanes, {"a": (0, "a"), "c": (3, "c"), "d": (4, "c")})
    changed = packed_dv.apply_update(
        t, _full_advert("b", lanes, {"c": 1}), {"b", "c"})
    assert _names(changed, lanes) == {"c"}
    assert _packed_entries(t) == {"a": (0, "a"), "c": (2, "b"),
                                  "d": (4, "c")}
    assert _names(t.via["c"], lanes) == {"d"}


def test_metric_clamps_at_infinity():
    lanes = packed_dv.Lanes(["a", "b", "x"])
    t = packed_dv.Table("a", lanes)
    packed_dv.apply_update(
        t, _full_advert("b", lanes, {"x": INFINITY_METRIC}), {"b"})
    assert t.metric("x") == INFINITY_METRIC
    # unreachable via the sender stays 16, no matter how often repeated
    packed_dv.apply_update(
        t, _full_advert("b", lanes, {"x": INFINITY_METRIC}), {"b"})
    assert t.metric("x") == INFINITY_METRIC


def test_update_from_unknown_neighbor_rejected():
    lanes = packed_dv.Lanes(["a", "b", "c", "stranger"])
    t = packed_dv.Table("a", lanes)
    with pytest.raises(packed_dv.UnknownNeighborError):
        packed_dv.apply_update(
            t, _full_advert("stranger", lanes, {"stranger": 0}), {"b", "c"})


def _packed_entries(t):
    return {dst: (t.metric(dst), t.next_hop(dst)) for dst in t.lanes.names
            if t.metric(dst) < INFINITY_METRIC or t.next_hop(dst) is not None}


_UNREACHABLE = (INFINITY_METRIC, None)


@dataclass
class DistanceVector:
    """The dict table the packed one replaced: dst -> (metric, next_hop)."""
    owner: str
    entries: dict

    def metric(self, dst: str) -> int:
        return self.entries.get(dst, _UNREACHABLE)[0]

    def next_hop(self, dst: str):
        return self.entries.get(dst, _UNREACHABLE)[1]


@dataclass(frozen=True)
class RouteUpdate:
    sender: str
    vector: dict  # destination -> advertised metric


def _reference_periodic_update(table):
    return RouteUpdate(table.owner,
                       {d: m for d, (m, _) in sorted(table.entries.items())})


def _reference_apply_update(table, update, neighbors):
    """The merge as first written, per-entry metric()/next_hop() lookups over
    the sorted vector; kept as the oracle for the packed merge."""
    if update.sender not in neighbors:
        raise packed_dv.UnknownNeighborError(
            f"{table.owner} got update from non-neighbor {update.sender}")
    changed = set()
    for dst in sorted(update.vector):
        candidate = min(INFINITY_METRIC, update.vector[dst] + LINK_COST)
        current = table.metric(dst)
        via_sender = table.next_hop(dst) == update.sender
        if candidate < current or (via_sender and candidate != current):
            table.entries[dst] = (candidate, update.sender)
            changed.add(dst)
    return changed


def _random_table(rng, owner, names, senders):
    entries = {owner: (0, owner)}
    for dst in names:
        if dst != owner and rng.random() < 0.7:  # the rest stay missing
            entries[dst] = (rng.randint(1, INFINITY_METRIC),
                            rng.choice(senders))
    return DistanceVector(owner, entries)


def _assert_same_table(packed, reference):
    assert _packed_entries(packed) == reference.entries
    for dst in packed.lanes.names:
        assert (packed.metric(dst), packed.next_hop(dst)) == \
            (reference.metric(dst), reference.next_hop(dst)), dst


def test_apply_update_matches_reference_merge_on_random_tables():
    rng = random.Random(2024)
    names = [f"n{i:02d}" for i in range(20)]
    lanes = packed_dv.Lanes(names)
    cases = {"adopted": 0, "missing": 0, "sixteen_via_sender": 0,
             "worse_via_sender": 0, "advertised_15": 0, "advertised_16": 0}
    for _ in range(400):
        owner, sender, other = rng.sample(names, 3)
        expected = _random_table(rng, owner, names, [sender, other])
        table = _pack(owner, lanes, expected.entries)
        # an advert is a snapshot of a whole table: every destination is
        # advertised, and metrics include 15 and 16, which clamp at 16
        vector = {d: rng.randint(0, INFINITY_METRIC) for d in names}
        for dst, adv in vector.items():
            metric, hop = expected.entries.get(dst, _UNREACHABLE)
            cases["missing"] += dst not in expected.entries
            cases["sixteen_via_sender"] += (hop == sender
                                            and metric == INFINITY_METRIC)
            cases["worse_via_sender"] += hop == sender and adv + 1 > metric
            cases["advertised_15"] += adv == INFINITY_METRIC - 1
            cases["advertised_16"] += adv == INFINITY_METRIC
        want = _reference_apply_update(expected, RouteUpdate(sender, vector),
                                       {sender, other})
        got = packed_dv.apply_update(
            table, _full_advert(sender, lanes, vector), {sender, other})
        assert _names(got, lanes) == want
        assert bool(got) == bool(want)
        _assert_same_table(table, expected)
        cases["adopted"] += len(want)
    assert all(n > 50 for n in cases.values()), cases


def test_apply_update_rejects_non_neighbours_like_the_reference():
    rng = random.Random(5)
    names = [f"n{i}" for i in range(6)]
    lanes = packed_dv.Lanes(names)
    for _ in range(20):
        owner, sender, other = rng.sample(names, 3)
        reference = _random_table(rng, owner, names, [sender, other])
        table = _pack(owner, lanes, reference.entries)
        before = (table.metrics, dict(table.via))
        vector = {d: 1 for d in names}
        with pytest.raises(packed_dv.UnknownNeighborError):
            _reference_apply_update(reference, RouteUpdate(sender, vector),
                                    {other})
        with pytest.raises(packed_dv.UnknownNeighborError):
            packed_dv.apply_update(
                table, _full_advert(sender, lanes, vector), {other})
        assert (table.metrics, table.via) == before


def test_packed_and_dict_tables_agree_in_lockstep_until_converged():
    """Both implementations receive one schedule of adverts on seeded random
    adjacencies: periodic broadcasts in a random order and triggered ones
    after a change, each arriving after a random delay.  As over a mote's
    FIFO queue, one sender's adverts arrive in the order sent, while
    adverts of different senders interleave."""
    rng = random.Random(4242)
    merges = changes = 0
    for _ in range(25):
        adj = random_graph(rng, max_nodes=14)
        lanes = packed_dv.Lanes(adj)
        packed = {n: packed_dv.Table(n, lanes) for n in adj}
        dicts = {n: DistanceVector(n, {n: (0, n)}) for n in adj}
        in_flight, last_at, seq = [], dict.fromkeys(adj, 0), itertools.count()

        def send(n, now):
            last_at[n] = max(last_at[n], now + rng.randint(1, 4))
            heapq.heappush(in_flight, (last_at[n], next(seq), n,
                                       packed_dv.periodic_update(packed[n]),
                                       _reference_periodic_update(dicts[n])))

        now, quiet = 0, 0
        while quiet < 2:  # two rounds of periodic broadcasts change nothing
            order = sorted(adj)
            rng.shuffle(order)
            for n in order:
                send(n, now)
            changed_any = False
            while in_flight:
                now, _, sender, advert, update = heapq.heappop(in_flight)
                for rx in sorted(adj[sender]):
                    got = packed_dv.apply_update(packed[rx], advert, adj[rx])
                    want = _reference_apply_update(dicts[rx], update,
                                                   adj[rx])
                    assert _names(got, lanes) == want
                    _assert_same_table(packed[rx], dicts[rx])
                    merges += 1
                    if want:
                        changes += 1
                        changed_any = True
                        send(rx, now)
            quiet = 0 if changed_any else quiet + 1
        check_metrics_against_bfs(packed, adj)
    assert merges > 1000 and changes > 200, (merges, changes)
