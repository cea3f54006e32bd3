"""Distance-vector routing over the mote mesh (Bellman-Ford with metric 16
as infinity, unit link cost, triggered updates and no route aging), with
adverts that carry only what changed.

Each mote has a lane, its index in the sorted mote names of one shared
`Lanes`.  A table keeps one metric byte per lane (16 unreachable, the
owner's 0), one next hop per lane, the lane of the neighbour it goes
through (NO_HOP for none, the owner's lane included), and `changed`: the
lanes changed since the owner's last advert that its queue accepted, at
first just the owner's own.  An advert is (sender, ((lane, C), ...)) with
C = min(16, T + 1) for the sender's metric T of each lane in that set, as
every link costs LINK_COST; the caller clears the set once the sender's
queue accepts the advert.  The receiver adopts each C below its metric,
with the sender's lane as next hop, and marks the lane changed.

That is exact: it leaves every table as the general merge of full adverts
would, which adopts C = min(16, T + 1) on every lane where C beats the
current metric, or where the route goes through the sender and C differs
(RIP's two rules).  Five facts of the model give it:

1. a mote hears a given mote the same way for the whole run, as motes never
   move and their outcome rows are fixed at set-up;
2. a sleeping mote never wakes, since only release_motes changes a mode;
3. a sender's queue is FIFO and every frame takes one hop_delay, so its
   adverts arrive in the order its queue accepted them;
4. an advert dropped at a full queue, or never sent by a sleeping sender,
   reaches nobody;
5. a broadcast's targets are the sender's awake mote neighbours when it is
   offered.

So a receiver merging an advert has merged every advert the sender's queue
accepted before it.  An earlier one it missed went unsent because the
sender slept, or left out the receiver because it slept (5), or was lost
or errored on the way to it; by 1, 2 and 4 this one would have missed it
too.  A lane outside the advert's set has not changed in the sender's
table since its previous accepted advert (for its first, since the start,
where it was 16 and gives C = 16), so its C is what the receiver merged
before.

No lane of any table rises during a run.  By induction over the merges in
run order: while none has raised a lane, every table's metrics have only
fallen, and so have a sender's candidates, each C taken from its table
when the advert is queued, in the order it sends them (C is monotone in
T).  By 3 and 4 a receiver merges them in that order, or a subsequence of
it.  Every metric but the owner's starts at 16 with no next hop, and
nothing ages a route, so a lane routed through a sender holds C of the last
advert from it that the receiver merged: the lane took that value when it
went through the sender or changed while it did.  The rule for a route
through the sender then takes a C no larger, and the other rule only a
smaller one.

Hence each general merge leaves every lane at or below that advert's C,
and a C unchanged since the previous merge from the same sender changes
nothing: it is no lower than the lane, and equals it where the lane goes
through the sender.  Only lanes in the set can change, and on them the
general rule comes down to adopting a lower C.
"""

INFINITY_METRIC = 16
LINK_COST = 1
NO_HOP = 0xFFFF  # the next hop of a lane with none; every lane is below it


class UnreachableError(ValueError):
    """No route exists between the requested endpoints."""


class RoutingLoopError(ValueError):
    """next_hop chain revisited a node; tables are inconsistent."""


class Lanes:
    """The lane of every mote, in sorted name order."""
    __slots__ = ("names", "index")

    def __init__(self, motes):
        self.names = tuple(sorted(motes))
        self.index = {name: i for i, name in enumerate(self.names)}


class Table:
    """Routing table of one mote: a metric and a next hop per lane, and the
    lanes its next advert carries."""
    __slots__ = ("owner", "lanes", "metrics", "hops", "changed")

    def __init__(self, owner: str, lanes: Lanes):
        n, own = len(lanes.names), lanes.index[owner]
        self.owner, self.lanes = owner, lanes
        self.metrics = bytearray([INFINITY_METRIC]) * n
        self.metrics[own] = 0
        # two bytes a lane; a memoryview spares loading the array module
        self.hops = memoryview(bytearray(b"\xff\xff") * n).cast("H")
        self.changed = {own}

    def metric(self, dst: str) -> int:
        return self.metrics[self.lanes.index[dst]]

    def next_hop(self, dst: str):
        if dst == self.owner:
            return dst
        hop = self.hops[self.lanes.index[dst]]
        return None if hop == NO_HOP else self.lanes.names[hop]


def periodic_update(table: Table) -> tuple:
    """The advert (owner, ((lane, C), ...)) of the table's changed lanes."""
    metrics = table.metrics
    return table.owner, tuple([
        (lane, min(INFINITY_METRIC, metrics[lane] + LINK_COST))
        for lane in table.changed])


def apply_update(table: Table, update: tuple) -> bool:
    """Merge a neighbour's advert into `table`.  Returns whether a lane
    changed, which obliges the caller to send a triggered update."""
    sender, cands = update
    metrics, hops, marked = table.metrics, table.hops, table.changed
    hop = table.lanes.index[sender]
    changed = False
    for lane, c in cands:
        if c < metrics[lane]:
            metrics[lane] = c
            hops[lane] = hop
            marked.add(lane)
            changed = True
    return changed


def shortest_path(tables: dict, src: str, dst: str) -> list:
    """The node list from src to dst, both included, along next_hop
    pointers; on converged tables it has src's metric for dst in hops."""
    if src == dst:
        return [src]
    if src not in tables or dst not in tables[src].lanes.index:
        raise UnreachableError(f"no table for {src} or lane for {dst}")
    path, node = [src], src
    while node != dst:
        nxt = tables[node].next_hop(dst)
        if nxt is None or tables[node].metric(dst) >= INFINITY_METRIC:
            raise UnreachableError(f"{dst} unreachable from {src} at {node}")
        if nxt in path:
            raise RoutingLoopError(f"loop via {nxt} routing {src}->{dst}")
        path.append(nxt)
        node = nxt
    return path
