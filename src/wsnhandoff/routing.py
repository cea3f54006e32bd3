"""Distance-vector routing over the mote mesh (Bellman-Ford with metric 16
as infinity, unit link cost, triggered updates and no route aging).
"""

from dataclasses import dataclass

INFINITY_METRIC = 16
LINK_COST = 1
_UNREACHABLE = (INFINITY_METRIC, None)


class UnknownNeighborError(ValueError):
    """Update received from a node that is not a current neighbor."""


class UnreachableError(ValueError):
    """No route exists between the requested endpoints."""


class RoutingLoopError(ValueError):
    """next_hop chain revisited a node; tables are inconsistent."""


@dataclass
class DistanceVector:
    """Routing table of one node: destination -> (metric, next_hop)."""
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


def init_table(owner: str) -> DistanceVector:
    return DistanceVector(owner, {owner: (0, owner)})


def periodic_update(table: DistanceVector) -> RouteUpdate:
    """Snapshot the full table as an advertisement."""
    return RouteUpdate(table.owner,
                       {d: m for d, (m, _) in sorted(table.entries.items())})


def apply_update(table: DistanceVector, update: RouteUpdate,
                 neighbors) -> set:
    """Merge a neighbor's advertisement into `table`.

    For each advertised destination the candidate metric is
    min(INFINITY_METRIC, advertised + LINK_COST), and a missing entry counts
    as (INFINITY_METRIC, None).  The candidate is adopted when it improves
    on the current metric, or when the current route already goes through
    the sender and the candidate differs (the route is re-learned, even if
    it got worse).  Each destination's decision reads and writes only its
    own entry, so the order of the vector does not matter.  Returns the set
    of destinations whose entry changed; a non-empty set obliges the caller
    to send a triggered update.
    """
    sender = update.sender
    if sender not in neighbors:
        raise UnknownNeighborError(
            f"{table.owner} got update from non-neighbor {sender}")
    entries = table.entries
    get = entries.get
    changed = set()
    for dst, advertised in update.vector.items():
        candidate = advertised + LINK_COST
        if candidate > INFINITY_METRIC:
            candidate = INFINITY_METRIC
        current, hop = get(dst, _UNREACHABLE)
        if candidate < current or (hop == sender and candidate != current):
            entries[dst] = (candidate, sender)
            changed.add(dst)
    return changed


def shortest_path(tables: dict, src: str, dst: str) -> list:
    """Follow next_hop pointers from src to dst on converged tables.

    Returns the node list including both endpoints; its length minus one
    equals src's metric for dst.
    """
    if src == dst:
        return [src]
    if src not in tables:
        raise UnreachableError(f"no table for {src}")
    if tables[src].metric(dst) >= INFINITY_METRIC:
        raise UnreachableError(f"{dst} unreachable from {src}")
    path = [src]
    node = src
    visited = {src}
    while node != dst:
        nxt = tables[node].next_hop(dst)
        if nxt is None or tables[node].metric(dst) >= INFINITY_METRIC:
            raise UnreachableError(f"{dst} unreachable from {src} at {node}")
        if nxt in visited:
            raise RoutingLoopError(f"loop via {nxt} routing {src}->{dst}")
        path.append(nxt)
        visited.add(nxt)
        node = nxt
    return path
