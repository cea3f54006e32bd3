"""Invariants a finished run must satisfy, shared by the test modules."""

from wsnhandoff.routing import INFINITY_METRIC
from wsnhandoff.scenario import Scenario, effective_profile
from wsnhandoff.world import NodeKind, comm_graph


def _static_graph(s: Scenario):
    """The communication graph at the start positions, rebuilt here."""
    return comm_graph({n.node_id: n.position for n in s.nodes},
                      {n.node_id: n.kind for n in s.nodes},
                      {n.node_id: effective_profile(n) for n in s.nodes})


def check_relay_paths(s: Scenario, report) -> int:
    """Assert that every non-empty relay path of a link or an escalation in
    `report` is a simple path of motes, at most `default_ttl` long, whose
    consecutive motes are adjacent in the static graph (rebuilt here from
    the start positions) and whose last mote neighbours a base station.
    Returns the number of paths checked."""
    kinds = {n.node_id: n.kind for n in s.nodes}
    graph = _static_graph(s)
    paths = [link.relay_path for link in report.links if link.relay_path]
    paths += [esc.relay_path for esc in report.escalations]
    for path in paths:
        assert path, "an escalation without a relay path"
        assert all(kinds[m] is NodeKind.MOTE for m in path), path
        assert len(set(path)) == len(path), path
        assert len(path) <= s.params.default_ttl, path
        for a, b in zip(path, path[1:]):
            assert b in graph[a], (a, b, path)
        assert any(kinds[n] is NodeKind.BASE_STATION
                   for n in graph[path[-1]]), path
    return len(paths)


def check_dv_tables(sim) -> int:
    """Assert that every packed distance-vector table of the finished run
    `sim` is well formed, and that every converged route it recorded is a
    real mote path.

    In each table the owner's lane is 0 and every lane at most 16.  The
    next-hop masks are keyed by the owner's mote neighbours only, set only
    bit 7 of lanes other than the owner's, and are pairwise disjoint; each
    lane below 16, other than the owner's, is in exactly one of them.  Each
    non-None entry of `dv_paths` runs between the endpoints of its link's
    relay path, is a simple path of motes along static-graph edges (rebuilt
    here from the start positions), and has as many hops as its source's
    metric.  Returns the number of routes checked."""
    names = sim.lanes.names
    assert sorted(sim.tables) == list(names)
    for owner, table in sim.tables.items():
        own = names.index(owner)
        metrics = table.metrics.to_bytes(len(names), "little")
        assert metrics[own] == 0, owner
        assert max(metrics) <= INFINITY_METRIC, owner
        assert set(table.via) <= set(sim.mote_rows[owner]), owner
        seen = 0
        for mask in table.via.values():
            assert mask & ~sim.lanes.high == 0, owner
            assert not mask & seen, owner
            seen |= mask
        assert not seen >> 8 * own & 0x80, owner
        for i, metric in enumerate(metrics):
            if metric < INFINITY_METRIC and i != own:
                assert seen >> 8 * i & 0x80, (owner, names[i])
    kinds = sim.kinds
    graph = _static_graph(sim.s)
    routes = [(link, path) for link, path in zip(sim.links, sim.dv_paths)
              if path is not None]
    for link, path in routes:
        assert (path[0], path[-1]) == (link.relay_path[0],
                                       link.relay_path[-1]), path
        assert all(kinds[m] is NodeKind.MOTE for m in path), path
        assert len(set(path)) == len(path), path
        for a, b in zip(path, path[1:]):
            assert b in graph[a], (a, b, path)
        assert len(path) - 1 == sim.tables[path[0]].metric(path[-1]), path
    return len(routes)
