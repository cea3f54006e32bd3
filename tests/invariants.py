"""Invariants a finished run must satisfy, shared by the test modules."""

from wsnhandoff.scenario import Scenario, effective_profile
from wsnhandoff.world import NodeKind, comm_graph


def check_relay_paths(s: Scenario, report) -> int:
    """Assert that every non-empty relay path of a link or an escalation in
    `report` is a simple path of motes, at most `default_ttl` long, whose
    consecutive motes are adjacent in the static graph (rebuilt here from
    the start positions) and whose last mote neighbours a base station.
    Returns the number of paths checked."""
    kinds = {n.node_id: n.kind for n in s.nodes}
    graph = comm_graph({n.node_id: n.position for n in s.nodes}, kinds,
                       {n.node_id: effective_profile(n) for n in s.nodes})
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
