"""Per-layer counter registry, classification of deltas and report text.

The registry is a closed set: 28 counters spread over ten protocol layers,
mirroring what the simulator's stack can actually produce.  Recording into
an unknown counter is an error, which keeps report files from two runs
field-compatible by construction.

A classification compares a baseline ledger against a candidate ledger
counter by counter.  Each counter has a direction: GOOD_INCREASING deltas
count as desirable when they rise, BAD_INCREASING the opposite, NEUTRAL
never counts either way.  The headline quality-of-service figure is

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


class Direction(Enum):
    GOOD_INCREASING = "good_increasing"
    BAD_INCREASING = "bad_increasing"
    NEUTRAL = "neutral"


# Queue occupancy growth and corrupted receptions are the undesirable
# movers; everything else defaults to more-is-better.
DEFAULT_DIRECTIONS = {
    key: Direction.GOOD_INCREASING for key in REGISTRY
}
DEFAULT_DIRECTIONS[CounterKey(Layer.PHY_80211, "signals_received_with_errors")] = \
    Direction.BAD_INCREASING
DEFAULT_DIRECTIONS[CounterKey(Layer.NET_STRICT_PRIOR, "packets_queued")] = \
    Direction.BAD_INCREASING
DEFAULT_DIRECTIONS[CounterKey(Layer.NET_FIFO, "packets_queued")] = \
    Direction.BAD_INCREASING


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
             directions: dict = None, epsilon: int = 0) -> Classification:
    """Label every registry counter by how it moved baseline -> candidate."""
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    directions = DEFAULT_DIRECTIONS if directions is None else directions
    per = {}
    counts = {Category.DESIRABLE: 0, Category.UNDESIRABLE: 0,
              Category.INSIGNIFICANT: 0}
    for key in REGISTRY:
        delta = candidate.get(key) - baseline.get(key)
        direction = directions.get(key, Direction.GOOD_INCREASING)
        if abs(delta) <= epsilon or direction is Direction.NEUTRAL:
            cat = Category.INSIGNIFICANT
        elif (delta > 0) == (direction is Direction.GOOD_INCREASING):
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


def render_report(ledger: StatsLedger, classification: Classification = None) -> str:
    """Deterministic text: counters in registry order, then the verdict."""
    lines = [f"{key.token()}={ledger.get(key)}" for key in REGISTRY]
    if classification is not None:
        lines.append("")
        for key in REGISTRY:
            delta, cat = classification.per_counter[key]
            lines.append(f"{key.token()}: {cat.value} ({delta:+d})")
        try:
            pct = qos_improvement(classification)
            lines.append(f"QoS improvement: {pct:.2f}%")
        except NoSignificantChangeError:
            lines.append("QoS improvement: undefined (no significant change)")
    return "\n".join(lines) + "\n"


def counter_by_token(token: str) -> CounterKey:
    if token not in _BY_TOKEN:
        raise UnknownCounterError(token)
    return _BY_TOKEN[token]
