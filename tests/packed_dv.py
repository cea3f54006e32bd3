"""The general distance-vector merge over full adverts: the oracle for the
delta tables of wsnhandoff.routing.

This is the packed merge the simulator ran before its adverts carried only
changed lanes, kept as it was.  Each mote has a lane, its index in the
sorted mote names of one shared `Lanes`.  A table's metrics are one int, 8
bits per destination lane (16 unreachable, the owner's 0); its next hops
are a {neighbour: mask} dict of disjoint masks setting bit 7 of each lane
routed through that neighbour.  An advert is (sender, C), C = min(16, T +
1) lane-wise for the sender's metrics T, as every link costs LINK_COST.
The receiver adopts C where it beats the current metric, or where the
route goes through the sender and C differs: the rule of a
per-destination merge that counts a missing entry as (16, no next hop),
which is what a lane never heard of holds, done in a few big-int
operations.  Lanes stay in 0..17, so no carry or borrow leaves one.  An
advert from a node outside the given neighbours raises
UnknownNeighborError.
"""

from wsnhandoff.routing import INFINITY_METRIC


class UnknownNeighborError(ValueError):
    """Update received from a node that is not a current neighbor."""


class Lanes:
    """The lane of every mote; `ones` sets bit 0 and `high` bit 7 of each."""
    __slots__ = ("names", "index", "ones", "high")

    def __init__(self, motes):
        self.names = tuple(sorted(motes))
        self.index = {name: i for i, name in enumerate(self.names)}
        self.ones = int.from_bytes(b"\x01" * len(self.names), "little")
        self.high = self.ones << 7


class Table:
    """Routing table of one mote: packed metrics and next-hop masks."""
    __slots__ = ("owner", "lanes", "metrics", "via")

    def __init__(self, owner: str, lanes: Lanes):
        self.owner, self.lanes, self.via = owner, lanes, {}
        self.metrics = (lanes.ones * INFINITY_METRIC
                        & ~(0xFF << 8 * lanes.index[owner]))

    def metric(self, dst: str) -> int:
        return self.metrics >> 8 * self.lanes.index[dst] & 0xFF

    def next_hop(self, dst: str):
        if dst == self.owner:
            return dst
        bit = 0x80 << 8 * self.lanes.index[dst]
        return next((n for n, mask in self.via.items() if mask & bit), None)


def periodic_update(table: Table) -> tuple:
    """The advert (owner, C) of the table as it is now."""
    t, ones = table.metrics, table.lanes.ones
    return table.owner, t + ones - (t >> 4 & ones)


def apply_update(table: Table, update: tuple, neighbors) -> int:
    """Merge a neighbour's advert into `table`.  Returns the changed lanes'
    mask; a non-zero one obliges the caller to send a triggered update."""
    sender, cand = update
    if sender not in neighbors:
        raise UnknownNeighborError(
            f"{table.owner} got update from non-neighbor {sender}")
    lanes, via, cur = table.lanes, table.via, table.metrics
    high = lanes.high
    through = via.get(sender, 0)
    changed = ((cur | high) - cand - lanes.ones) & high   # cand < cur
    if through:  # cand != cur
        changed |= through & ((cand ^ cur) + high - lanes.ones)
    if changed:
        table.metrics = cur ^ ((cur ^ cand) & (changed >> 7) * 0xFF)
        gained = changed & ~through
        if gained:
            for n, mask in via.items():
                if mask & gained:
                    via[n] = mask & ~gained
            via[sender] = through | gained
    return changed
