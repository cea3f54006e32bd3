"""Distance-vector routing against an all-pairs BFS oracle."""

import random
from collections import deque

import pytest

from wsnhandoff.routing import (INFINITY_METRIC, LINK_COST, DistanceVector,
                                RouteUpdate, RoutingLoopError,
                                UnknownNeighborError, UnreachableError,
                                apply_update, init_table, periodic_update,
                                shortest_path)


def test_init_table_self_entry():
    t = init_table("m3")
    assert t.owner == "m3"
    assert t.entries == {"m3": (0, "m3")}
    assert t.metric("m3") == 0 and t.next_hop("m3") == "m3"


def test_missing_destination_reads_as_infinity():
    t = init_table("a")
    assert t.metric("nowhere") == INFINITY_METRIC
    assert t.next_hop("nowhere") is None


def test_periodic_update_snapshots_metrics():
    t = DistanceVector("a", {"a": (0, "a"), "b": (1, "b"), "c": (2, "b")})
    up = periodic_update(t)
    assert up.sender == "a"
    assert up.vector == {"a": 0, "b": 1, "c": 2}


def test_apply_update_learns_new_routes():
    t = init_table("a")
    changed = apply_update(t, RouteUpdate("b", {"b": 0, "c": 1}), {"b"})
    assert changed == {"b", "c"}
    assert t.entries["b"] == (1, "b")
    assert t.entries["c"] == (2, "b")


def test_apply_update_keeps_better_existing_route():
    t = DistanceVector("a", {"a": (0, "a"), "c": (1, "c")})
    changed = apply_update(t, RouteUpdate("b", {"c": 3}), {"b", "c"})
    assert changed == set()
    assert t.entries["c"] == (1, "c")


def test_route_through_sender_is_relearned_even_when_worse():
    t = DistanceVector("a", {"a": (0, "a"), "c": (2, "b")})
    changed = apply_update(t, RouteUpdate("b", {"c": 5}), {"b"})
    assert changed == {"c"}
    assert t.entries["c"] == (6, "b")


def test_metric_clamps_at_infinity():
    t = init_table("a")
    apply_update(t, RouteUpdate("b", {"x": INFINITY_METRIC}), {"b"})
    assert t.metric("x") == INFINITY_METRIC
    # unreachable via the sender stays16, no matter how often repeated
    apply_update(t, RouteUpdate("b", {"x": INFINITY_METRIC}), {"b"})
    assert t.metric("x") == INFINITY_METRIC


def test_update_from_unknown_neighbor_rejected():
    t = init_table("a")
    with pytest.raises(UnknownNeighborError):
        apply_update(t, RouteUpdate("stranger", {"stranger": 0}), {"b", "c"})


def test_apply_update_is_idempotent():
    t = init_table("a")
    up = RouteUpdate("b", {"b": 0, "c": 1, "d": 2})
    assert apply_update(t, up, {"b"}) == {"b", "c", "d"}
    assert apply_update(t, up, {"b"}) == set()


# ---- convergence vs BFS -------------------------------------------------


def _bfs_hops(adj, src):
    dist = {src: 0}
    dq = deque([src])
    while dq:
        u = dq.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                dq.append(v)
    return dist


def _converge(adj):
    """Synchronous rounds of full-table exchange until nothing changes."""
    tables = {n: init_table(n) for n in adj}
    for _ in range(len(adj) + 2):
        updates = {n: periodic_update(tables[n]) for n in sorted(adj)}
        any_change = False
        for n in sorted(adj):
            for nb in sorted(adj[n]):
                if apply_update(tables[n], updates[nb], adj[n]):
                    any_change = True
        if not any_change:
            break
    return tables


def _random_graph(rng, max_nodes=12):
    n = rng.randint(2, max_nodes)
    names = [f"n{i}" for i in range(n)]
    adj = {m: set() for m in names}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                adj[names[i]].add(names[j])
                adj[names[j]].add(names[i])
    return adj


def test_converged_metrics_equal_bfs_hop_counts():
    rng = random.Random(1234)
    for _ in range(40):
        adj = _random_graph(rng)
        tables = _converge(adj)
        for src in adj:
            hops = _bfs_hops(adj, src)
            for dst in adj:
                want = min(hops.get(dst, INFINITY_METRIC), INFINITY_METRIC)
                assert tables[src].metric(dst) == want, (src, dst)


def test_cross_partition_metrics_are_infinity():
    # two disjoint triangles
    adj = {"a": {"b", "c"}, "b": {"a", "c"}, "c": {"a", "b"},
           "x": {"y", "z"}, "y": {"x", "z"}, "z": {"x", "y"}}
    tables = _converge(adj)
    assert tables["a"].metric("x") == INFINITY_METRIC
    assert tables["x"].metric("c") == INFINITY_METRIC
    with pytest.raises(UnreachableError):
        shortest_path(tables, "a", "z")


def test_quiescent_tables_are_stable_under_reapplication():
    rng = random.Random(77)
    for _ in range(10):
        adj = _random_graph(rng, max_nodes=8)
        tables = _converge(adj)
        for n in sorted(adj):
            up = periodic_update(tables[n])
            for nb in sorted(adj[n]):
                assert apply_update(tables[nb], up, adj[nb]) == set()


def test_shortest_path_on_a_line():
    adj = {"a": {"b"}, "b": {"a", "c"}, "c": {"b", "d"}, "d": {"c"}}
    tables = _converge(adj)
    path = shortest_path(tables, "a", "d")
    assert path == ["a", "b", "c", "d"]
    assert len(path) - 1 == tables["a"].metric("d")
    assert shortest_path(tables, "c", "c") == ["c"]


def test_shortest_path_length_matches_metric_on_random_graphs():
    rng = random.Random(31)
    for _ in range(15):
        adj = _random_graph(rng)
        tables = _converge(adj)
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
    tables = {
        "a": DistanceVector("a", {"a": (0, "a"), "x": (2, "b")}),
        "b": DistanceVector("b", {"b": (0, "b"), "x": (2, "a")}),
    }
    with pytest.raises(RoutingLoopError):
        shortest_path(tables, "a", "x")


# ---- apply_update against the original merge ----------------------------


def _reference_apply_update(table, update, neighbors):
    """The merge as first written, per-entry metric()/next_hop() lookups over
    the sorted vector; kept as the oracle for the plain-dict loop."""
    if update.sender not in neighbors:
        raise UnknownNeighborError(
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


def test_apply_update_matches_reference_merge_on_random_tables():
    rng = random.Random(2024)
    names = [f"n{i:02d}" for i in range(20)]
    cases = {"adopted": 0, "missing": 0, "worse_via_sender": 0,
             "clamped": 0}
    for _ in range(400):
        owner, sender, other = rng.sample(names, 3)
        table = _random_table(rng, owner, names, [sender, other])
        dsts = rng.sample(names, rng.randint(0, len(names)))
        # advertised metrics include 15 and 16, which clamp at infinity
        vector = {d: rng.randint(0, INFINITY_METRIC) for d in dsts}
        if rng.random() < 0.5:  # most adverts arrive in sorted order
            vector = dict(sorted(vector.items()))
        update = RouteUpdate(sender, vector)
        for dst, adv in vector.items():
            metric, hop = table.entries.get(dst, (INFINITY_METRIC, None))
            cases["missing"] += dst not in table.entries
            cases["worse_via_sender"] += hop == sender and adv + 1 > metric
            cases["clamped"] += adv + 1 > INFINITY_METRIC
        expected = DistanceVector(owner, dict(table.entries))
        want = _reference_apply_update(expected, update, {sender, other})
        got = apply_update(table, update, {sender, other})
        assert got == want
        assert table.entries == expected.entries
        cases["adopted"] += len(got)
    assert all(n > 50 for n in cases.values()), cases


def test_apply_update_rejects_non_neighbours_like_the_reference():
    rng = random.Random(5)
    names = [f"n{i}" for i in range(6)]
    for _ in range(20):
        owner, sender, other = rng.sample(names, 3)
        table = _random_table(rng, owner, names, [sender, other])
        before = dict(table.entries)
        update = RouteUpdate(sender, {d: 1 for d in names})
        with pytest.raises(UnknownNeighborError):
            _reference_apply_update(table, update, {other})
        with pytest.raises(UnknownNeighborError):
            apply_update(table, update, {other})
        assert table.entries == before
