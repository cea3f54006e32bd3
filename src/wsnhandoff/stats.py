"""Per-layer counter registry, ledger and classification of deltas.

The registry is a closed set: 28 counters spread over ten protocol layers,
mirroring what the simulator's stack can actually produce.  Recording into
an unknown counter is an error, which keeps report files from two runs
field-compatible by construction.

A classification compares a baseline ledger against a candidate ledger
counter by counter.  A rise is desirable, except for the counters in
BAD_WHEN_RISING, where a fall is.  The headline quality-of-service figure is

    100 * desirable / (desirable + undesirable)

over the significant movers.
"""

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple


class UnknownCounterError(KeyError):
    """Counter key outside the fixed registry."""


class RegistryMismatchError(ValueError):
    """Two ledgers (or a parsed report) disagree on the counter set."""


class NoSignificantChangeError(ValueError):
    """QoS improvement undefined: nothing moved beyond epsilon."""


class Layer(Enum):
    PHY_80211 = "phy80211"
    MAC_80211 = "mac80211"
    MAC_DCF = "mac_dcf"
    MAC_LINK = "mac_link"
    MAC_SATCOM = "mac_satcom"
    NET_IP = "net_ip"
    NET_STRICT_PRIOR = "net_strict_prior"
    NET_FIFO = "net_fifo"
    TRANSPORT_UDP = "transport_udp"
    APP_BELLMAN_FORD = "app_bellman_ford"


class CounterKey(NamedTuple):
    layer: Layer
    name: str

    def token(self) -> str:
        return f"{self.layer.value}.{self.name}"


REGISTRY = (
    CounterKey(Layer.PHY_80211, "signals_transmitted"),
    CounterKey(Layer.PHY_80211, "signals_received_forwarded_to_mac"),
    CounterKey(Layer.PHY_80211, "signals_locked"),
    CounterKey(Layer.PHY_80211, "signals_received_with_errors"),
    CounterKey(Layer.MAC_80211, "packets_from_network"),
    CounterKey(Layer.MAC_80211, "broadcast_sent"),
    CounterKey(Layer.MAC_80211, "broadcast_received_clearly"),
    CounterKey(Layer.MAC_DCF, "broadcast_sent"),
    CounterKey(Layer.MAC_DCF, "broadcast_received"),
    CounterKey(Layer.MAC_LINK, "frames_sent"),
    CounterKey(Layer.MAC_LINK, "frames_received"),
    CounterKey(Layer.MAC_LINK, "link_utilization"),
    CounterKey(Layer.MAC_SATCOM, "frames_sent"),
    CounterKey(Layer.MAC_SATCOM, "frames_received"),
    CounterKey(Layer.MAC_SATCOM, "frames_relayed"),
    CounterKey(Layer.NET_IP, "in_received"),
    CounterKey(Layer.NET_IP, "in_delivers"),
    CounterKey(Layer.NET_IP, "out_requests"),
    CounterKey(Layer.NET_IP, "in_delivers_ttl_sum"),
    CounterKey(Layer.NET_STRICT_PRIOR, "packets_queued"),
    CounterKey(Layer.NET_STRICT_PRIOR, "packets_dequeued"),
    CounterKey(Layer.NET_FIFO, "packets_queued"),
    CounterKey(Layer.NET_FIFO, "packets_dequeued"),
    CounterKey(Layer.NET_FIFO, "peak_queue_size"),
    CounterKey(Layer.TRANSPORT_UDP, "packets_from_app"),
    CounterKey(Layer.TRANSPORT_UDP, "packets_to_app"),
    CounterKey(Layer.APP_BELLMAN_FORD, "triggered_updates"),
    CounterKey(Layer.APP_BELLMAN_FORD, "update_packets_received"),
)

_SLOTS = {key: i for i, key in enumerate(REGISTRY)}
_BY_TOKEN = {k.token(): k for k in REGISTRY}


def slot(key: CounterKey) -> int:
    """Index of `key` in REGISTRY order, which is how StatsLedger.values is
    laid out.  Hot paths resolve their slots once and bump the list."""
    try:
        return _SLOTS[key]
    except KeyError:
        raise UnknownCounterError(key) from None


# Queue occupancy growth and corrupted receptions are the undesirable
# movers; everything else is more-is-better.
BAD_WHEN_RISING = frozenset({
    CounterKey(Layer.PHY_80211, "signals_received_with_errors"),
    CounterKey(Layer.NET_STRICT_PRIOR, "packets_queued"),
    CounterKey(Layer.NET_FIFO, "packets_queued"),
})


class StatsLedger:
    """Monotone counter store over the fixed registry.

    `values` holds one integer per counter in REGISTRY order; code that
    bumps it directly must use indices from slot().
    """

    def __init__(self):
        self.values = [0] * len(REGISTRY)

    def record(self, key: CounterKey, delta: int = 1):
        i = slot(key)
        if delta < 0:
            raise ValueError("counters only move forward")
        self.values[i] += delta

    def record_peak(self, key: CounterKey, value: int):
        """Raise a high-water-mark counter to `value` if it is higher."""
        i = slot(key)
        if value > self.values[i]:
            self.values[i] = value

    def get(self, key: CounterKey) -> int:
        return self.values[slot(key)]

    def as_dict(self) -> dict:
        return dict(zip(REGISTRY, self.values))


class Category(Enum):
    DESIRABLE = "Desirable"
    UNDESIRABLE = "Undesirable"
    INSIGNIFICANT = "Insignificant"


@dataclass
class Classification:
    per_counter: dict  # CounterKey -> (delta, Category)
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
    for key in REGISTRY:
        delta = candidate.get(key) - baseline.get(key)
        if abs(delta) <= epsilon:
            cat = Category.INSIGNIFICANT
        elif (delta > 0) != (key in BAD_WHEN_RISING):
            cat = Category.DESIRABLE
        else:
            cat = Category.UNDESIRABLE
        per[key] = (delta, cat)
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


def counter_by_token(token: str) -> CounterKey:
    if token not in _BY_TOKEN:
        raise UnknownCounterError(token)
    return _BY_TOKEN[token]
