"""Per-layer counter registry, ledger and classification of deltas.

The registry is a closed set: 28 counters spread over ten protocol layers,
mirroring what the simulator's stack can actually produce.  A counter's
only name is its `layer.name` report token.  Recording into an unknown
counter is an error, which keeps report files from two runs
field-compatible by construction.

A classification compares a baseline ledger against a candidate ledger
counter by counter.  A rise is desirable, except for the counters in
BAD_WHEN_RISING, where a fall is.  The headline quality-of-service figure is

    100 * desirable / (desirable + undesirable)

over the significant movers.
"""

from enum import Enum
from typing import NamedTuple


class UnknownCounterError(KeyError):
    """Counter token outside the fixed registry."""


class RegistryMismatchError(ValueError):
    """Two ledgers (or a parsed report) disagree on the counter set."""


class NoSignificantChangeError(ValueError):
    """QoS improvement undefined: nothing moved beyond epsilon."""


REGISTRY = (
    "phy80211.signals_transmitted",
    "phy80211.signals_received_forwarded_to_mac",
    "phy80211.signals_locked",
    "phy80211.signals_received_with_errors",
    "mac80211.packets_from_network",
    "mac80211.broadcast_sent",
    "mac80211.broadcast_received_clearly",
    "mac_dcf.broadcast_sent",
    "mac_dcf.broadcast_received",
    "mac_link.frames_sent",
    "mac_link.frames_received",
    "mac_link.link_utilization",
    "mac_satcom.frames_sent",
    "mac_satcom.frames_received",
    "mac_satcom.frames_relayed",
    "net_ip.in_received",
    "net_ip.in_delivers",
    "net_ip.out_requests",
    "net_ip.in_delivers_ttl_sum",
    "net_strict_prior.packets_queued",
    "net_strict_prior.packets_dequeued",
    "net_fifo.packets_queued",
    "net_fifo.packets_dequeued",
    "net_fifo.peak_queue_size",
    "transport_udp.packets_from_app",
    "transport_udp.packets_to_app",
    "app_bellman_ford.triggered_updates",
    "app_bellman_ford.update_packets_received",
)

_SLOTS = {token: i for i, token in enumerate(REGISTRY)}


def slot(token: str) -> int:
    """Index of `token` in REGISTRY order, which is how StatsLedger.values
    is laid out.  Hot paths resolve their slots once and bump the list."""
    try:
        return _SLOTS[token]
    except KeyError:
        raise UnknownCounterError(token) from None


# Queue occupancy growth and corrupted receptions are the undesirable
# movers; everything else is more-is-better.
BAD_WHEN_RISING = frozenset({
    "phy80211.signals_received_with_errors",
    "net_strict_prior.packets_queued",
    "net_fifo.packets_queued",
})

# The counters that only copy or add up others: each is the sum of its
# sources.  No source is itself derived, so the order does not matter.
DERIVED = {
    "phy80211.signals_locked": ("phy80211.signals_received_forwarded_to_mac",
                                "phy80211.signals_received_with_errors"),
    "mac80211.packets_from_network": ("phy80211.signals_transmitted",),
    "mac_dcf.broadcast_sent": ("mac80211.broadcast_sent",),
    "mac_dcf.broadcast_received": ("mac80211.broadcast_received_clearly",),
    "mac_link.link_utilization": ("phy80211.signals_transmitted",),
    "net_ip.in_received": ("phy80211.signals_received_forwarded_to_mac",),
    "net_ip.in_delivers": ("phy80211.signals_received_forwarded_to_mac",),
    "net_ip.out_requests": ("net_strict_prior.packets_queued",
                            "net_fifo.packets_queued"),
    "transport_udp.packets_from_app": ("net_strict_prior.packets_queued",
                                       "net_fifo.packets_queued"),
    "transport_udp.packets_to_app": (
        "phy80211.signals_received_forwarded_to_mac",),
}


class StatsLedger:
    """Monotone counter store over the fixed registry.

    `values` holds one integer per counter in REGISTRY order; code that
    bumps it directly must use indices from slot().
    """

    def __init__(self):
        self.values = [0] * len(REGISTRY)

    def record(self, token: str, delta: int = 1):
        i = slot(token)
        if delta < 0:
            raise ValueError("counters only move forward")
        self.values[i] += delta

    def record_peak(self, token: str, value: int):
        """Raise a high-water-mark counter to `value` if it is higher."""
        i = slot(token)
        if value > self.values[i]:
            self.values[i] = value

    def get(self, token: str) -> int:
        return self.values[slot(token)]

    def as_dict(self) -> dict:
        return dict(zip(REGISTRY, self.values))

    def derive(self):
        """Set every DERIVED counter to the sum of its sources."""
        v = self.values
        for token, sources in DERIVED.items():
            v[slot(token)] = sum(v[slot(source)] for source in sources)


class Category(Enum):
    DESIRABLE = "Desirable"
    UNDESIRABLE = "Undesirable"
    INSIGNIFICANT = "Insignificant"


class Classification(NamedTuple):
    per_counter: dict  # token -> (delta, Category)
    desirable: int
    undesirable: int
    insignificant: int


def classify(baseline: StatsLedger, candidate: StatsLedger,
             epsilon: int = 0) -> Classification:
    """Label every registry counter by how it moved baseline -> candidate."""
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    per = {}
    counts = {Category.DESIRABLE: 0, Category.UNDESIRABLE: 0,
              Category.INSIGNIFICANT: 0}
    for token in REGISTRY:
        delta = candidate.get(token) - baseline.get(token)
        if abs(delta) <= epsilon:
            cat = Category.INSIGNIFICANT
        elif (delta > 0) != (token in BAD_WHEN_RISING):
            cat = Category.DESIRABLE
        else:
            cat = Category.UNDESIRABLE
        per[token] = (delta, cat)
        counts[cat] += 1
    return Classification(per, counts[Category.DESIRABLE],
                          counts[Category.UNDESIRABLE],
                          counts[Category.INSIGNIFICANT])


def qos_improvement(c: Classification) -> float:
    """Percentage of significant movers that moved the right way."""
    moved = c.desirable + c.undesirable
    if moved == 0:
        raise NoSignificantChangeError("no counter moved beyond epsilon")
    return 100.0 * c.desirable / moved

