"""Scenario model, its line-oriented text format, and the built-in
two-cell reference deployment.

Format (UTF-8, `#` starts a comment, blank lines ignored):

    [params]
    duration = 90
    seed = 1
    ...                      # any SimParams field; unknown keys rejected

    [node]
    # id kind x y [profile overrides as key=value]
    bs1 base_station 0 200
    m01 mote 80 130 tx_power=3

    [mobility]
    # id speed=<m/s> halt=<fraction> waypoints=x,y[;x,y...]
    ms1 speed=8 halt=0.5 waypoints=1000,190

Node kinds: mobile_station, base_station, mote, satellite, msc.
Profile override keys: tx_power, sensitivity, error_margin,
path_loss_exponent, reference_loss.

A key appears once in `[params]`, with a one-token value, and once on a
`[node]` or `[mobility]` line.  Text that cannot be read, such as a repeated
key or a number that does not parse (`seed`, `default_ttl` and
`queue_capacity` parse as ints), raises ParseError with its line number.
validate_scenario alone judges the values, read or built in code: building
a Scenario runs it, so an invalid one raises ValidationError as it is built.
"""

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

from .world import (MobilityPath, NodeKind, Point, RadioProfile,
                    profile_for_range)


class ParseError(ValueError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class ValidationError(ValueError):
    def __init__(self, problems):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


class SimParams(NamedTuple):
    default_ttl: int = 16
    coverage_check_period: float = 1.0
    hop_delay: float = 0.01
    tx_slot: float = 0.002
    backhaul_delay: float = 0.05
    steering_delay: float = 0.5
    satellite_acquisition_delay: float = 2.0
    max_steer_range: float = 450.0
    queue_capacity: int = 50
    dv_period: float = 10.0
    app_interval: float = 1.0
    discovery_timeout: float = 1.0


_INT_PARAMS = ("default_ttl", "queue_capacity")
_PERIODS = ("coverage_check_period", "tx_slot", "dv_period", "app_interval")
_DELAYS = ("hop_delay", "backhaul_delay", "steering_delay",
           "satellite_acquisition_delay")
_INTEGERS = ("seed", *_INT_PARAMS)
# Every scalar, in the order validate_scenario checks them.
_SCALARS = ("duration", "seed", *_INT_PARAMS, *_PERIODS, *_DELAYS,
            "max_steer_range", "discovery_timeout")


class NodeSpec(NamedTuple):
    node_id: str
    kind: NodeKind
    position: Point
    profile: RadioProfile = None


@dataclass(frozen=True)
class Scenario:
    """A deployment, built valid: building it runs validate_scenario, then
    gives a radio without a profile its kind's default (an msc keeps None)."""
    nodes: tuple            # NodeSpec, sorted by str(node_id) when built
    mobility: dict          # node_id -> MobilityPath; read-only once built
    duration: float = 90.0
    seed: int = 1
    params: SimParams = SimParams()

    def __post_init__(self):
        # Nodes that are a string, a record or no collection at all, and an
        # entry that is not a NodeSpec, are left as they are for
        # validate_scenario to judge.
        if not (isinstance(self.nodes, str) or hasattr(self.nodes, "_fields")
                or not hasattr(self.nodes, "__iter__")):
            object.__setattr__(self, "nodes", tuple(sorted(
                self.nodes, key=lambda n: str(n.node_id)
                if isinstance(n, NodeSpec) else "")))
        if isinstance(self.mobility, MappingProxyType):  # a built one's
            object.__setattr__(self, "mobility", dict(self.mobility))
        validate_scenario(self)
        object.__setattr__(self, "nodes", tuple(
            n if n.profile is not None else
            NodeSpec(n.node_id, n.kind, n.position, DEFAULT_PROFILES[n.kind])
            for n in self.nodes))
        object.__setattr__(self, "mobility",
                           MappingProxyType(dict(self.mobility)))

    def by_kind(self, kind: NodeKind) -> list:
        return [n for n in self.nodes if n.kind is kind]


# Nominal radio reach per kind.  Mote and handset radios reach about 150 m,
# a base station about 300 m; a 1 dB error margin leaves a corrupt band just
# inside the edge of each radio's range (frames there are heard but mangled),
# so marginal links degrade before they disappear.
MOTE_RANGE_M = 150.0
BS_RANGE_M = 300.0

DEFAULT_PROFILES = {
    NodeKind.MOTE: profile_for_range(MOTE_RANGE_M, tx_power_dbm=0.0,
                                     error_margin_db=1.0),
    NodeKind.MOBILE_STATION: profile_for_range(MOTE_RANGE_M, tx_power_dbm=0.0,
                                               error_margin_db=1.0),
    NodeKind.BASE_STATION: profile_for_range(BS_RANGE_M, tx_power_dbm=20.0,
                                             error_margin_db=1.0),
    NodeKind.SATELLITE: profile_for_range(BS_RANGE_M, tx_power_dbm=30.0),
    NodeKind.MSC: None,
}

_KIND_TOKENS = {k.value: k for k in NodeKind}

_OVERRIDE_FIELDS = {
    "tx_power": "tx_power_dbm",
    "sensitivity": "sensitivity_dbm",
    "error_margin": "error_margin_db",
    "path_loss_exponent": "path_loss_exponent",
    "reference_loss": "reference_loss_db",
}


def _finite(x) -> bool:
    """True only for an int or float that is a finite float: not nan, not
    inf, and not an int too large to convert to one."""
    try:
        return isinstance(x, (int, float)) and math.isfinite(x)
    except OverflowError:
        return False


def _read_pairs(tokens, line_no: int, what: str, known, seen=()) -> dict:
    """The `key=value` tokens as a dict of value texts.  A key not in
    `known`, or one given twice or already in `seen`, raises ParseError."""
    pairs = {}
    for tok in tokens:
        if "=" not in tok:
            raise ParseError(line_no, f"expected key=value, got {tok!r}")
        key, _, value = tok.partition("=")
        key = key.strip()
        if key not in known:
            raise ParseError(line_no, f"unknown {what} {key!r}")
        if key in pairs or key in seen:
            raise ParseError(line_no, f"duplicate {what} {key!r}")
        pairs[key] = value.strip()
    return pairs


def _parse_number(value: str, line_no: int, what: str, kind=float):
    try:
        return kind(value)
    except ValueError:
        raise ParseError(line_no, f"bad {what}: {value!r}") from None


def _parse_node(parts, line_no: int) -> NodeSpec:
    if len(parts) < 4:
        raise ParseError(line_no, "node line needs: id kind x y")
    node_id, kind_tok = parts[0], parts[1]
    if kind_tok not in _KIND_TOKENS:
        raise ParseError(line_no, f"unknown node kind {kind_tok!r}")
    kind = _KIND_TOKENS[kind_tok]
    pos = Point(_parse_number(parts[2], line_no, "x"),
                _parse_number(parts[3], line_no, "y"))
    profile = DEFAULT_PROFILES[kind]
    if len(parts) > 4:
        if kind is NodeKind.MSC:
            raise ParseError(line_no, "msc nodes carry no radio profile")
        overrides = _read_pairs(parts[4:], line_no, "profile key",
                                _OVERRIDE_FIELDS)
        changes = {_OVERRIDE_FIELDS[key]: _parse_number(value, line_no, key)
                   for key, value in overrides.items()}
        profile = profile._replace(**changes)
    return NodeSpec(node_id, kind, pos, profile)


def _parse_mobility(parts, line_no: int):
    if len(parts) < 2:
        raise ParseError(line_no, "mobility line needs: id key=value...")
    keys = _read_pairs(parts[1:], line_no, "mobility key",
                       ("speed", "halt", "waypoints"))
    if "speed" not in keys or "waypoints" not in keys:
        raise ParseError(line_no, "mobility needs speed= and waypoints=")
    speed = _parse_number(keys["speed"], line_no, "speed")
    halt = ({"halt_fraction": _parse_number(keys["halt"], line_no, "halt")}
            if "halt" in keys else {})
    waypoints = []
    for pair in keys["waypoints"].split(";"):
        xy = pair.split(",")
        if len(xy) != 2:
            raise ParseError(line_no, f"bad waypoint {pair!r}")
        waypoints.append(Point(_parse_number(xy[0], line_no, "x"),
                               _parse_number(xy[1], line_no, "y")))
    return parts[0], MobilityPath(tuple(waypoints), speed, **halt)


def load_scenario(text: str) -> Scenario:
    section = None
    nodes = []
    mobility = {}
    raw_params = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(line_no, "unterminated section header")
            section = line[1:-1].strip()
            if section not in ("params", "node", "mobility"):
                raise ParseError(line_no, f"unknown section {section!r}")
            continue
        if section is None:
            raise ParseError(line_no, "content before any section header")
        parts = line.split()
        if section == "params":
            [(key, value)] = _read_pairs([line], line_no, "param", _SCALARS,
                                         raw_params).items()
            if len(value.split()) != 1:
                raise ParseError(line_no, f"{key} takes one value: {value!r}")
            raw_params[key] = _parse_number(
                value, line_no, key, int if key in _INTEGERS else float)
        elif section == "node":
            nodes.append(_parse_node(parts, line_no))
        else:
            node_id, path = _parse_mobility(parts, line_no)
            if node_id in mobility:
                raise ParseError(line_no, f"duplicate mobility for {node_id!r}")
            mobility[node_id] = path

    top = {key: raw_params.pop(key) for key in ("duration", "seed")
           if key in raw_params}
    return Scenario(tuple(nodes), mobility, params=SimParams(**raw_params),
                    **top)


def _broken_rule(name: str, values: tuple, duration):
    """The first rule that `values`, checked together as `name` (a scalar's
    name, "position", "profile" or "mobility"), break, or None.  A position
    need only be finite numbers; the scalars also have range, period and
    integer rules, and a finite profile or walk its own."""
    if not all(isinstance(v, (int, float)) for v in values):
        return "must be a number"
    value = values[0]
    # The negated comparisons also reject nan.
    if (name == "duration" or name in _PERIODS) and not value > 0:
        return "must be positive"
    if name in _INT_PARAMS and not value >= 1:
        return "must be >= 1"
    if name in _DELAYS and not value >= 0:  # or it schedules into the past
        return "must be >= 0"
    # serialize_scenario could not write a number that is not finite
    if name != "seed" and not all(map(_finite, values)):
        return "must be finite"
    # A period that cannot move the clock at `duration` would reschedule its
    # event at the same instant forever.
    if name in _PERIODS and _finite(duration) and duration + value == duration:
        return "is too small to advance the clock"
    if name in _INTEGERS and type(value) is not int:
        return "must be an integer"
    if name == "profile":
        _, _, margin, exponent, _ = values
        if margin < 0:
            return "must be error_margin_db >= 0"
        if not 1 <= exponent <= 6:
            return "must be 1 <= path_loss_exponent <= 6"
    if name == "mobility":
        speed, halt, *coords = values
        if not coords:
            return "must be a walk to at least one waypoint"
        if speed <= 0:
            return "must be speed > 0"
        if not 0 < halt <= 1:
            return "must be 0 < halt_fraction <= 1"
    return None


def validate_scenario(s: Scenario):
    problems = []
    kinds = {}
    positions = {}
    mscs = 0

    def typed(what: str, value, cls, *of) -> bool:
        """True when value is a cls, else one problem naming the part:
        `what`, then the repr of what `of` holds.  A record is a tuple too,
        so a tuple must be a plain one."""
        ok = type(value) is tuple if cls is tuple else isinstance(value, cls)
        if not ok:
            problems.append(" ".join((what, *map(repr, of)))
                            + f" must be a {cls.__name__}")
        return ok

    scalars = {"duration": s.duration, "seed": s.seed}
    if typed("params", s.params, SimParams):
        scalars.update(s.params._asdict())
    # (what is checked, the node it belongs to, if any, its values)
    checks = [(name, (), (scalars[name],)) for name in _SCALARS
              if name in scalars]
    for n in s.nodes if typed("nodes", s.nodes, tuple) else ():
        if not typed("node", n, NodeSpec, n):
            continue
        mscs += n.kind is NodeKind.MSC
        # an id that a `[node]` line reads back as itself
        if not (isinstance(n.node_id, str) and "#" not in n.node_id and
                n.node_id.split() == [n.node_id] and n.node_id[0] != "["):
            problems.append(f"node id {n.node_id!r} must be one token, "
                            "without '#' and not starting with '['")
            continue
        if n.node_id in kinds:
            problems.append(f"duplicate node id {n.node_id!r}")
        kinds.setdefault(n.node_id, n.kind)
        typed("kind of", n.kind, NodeKind, n.node_id)
        if typed("position of", n.position, Point, n.node_id):
            key = (n.position.x, n.position.y)
            # the number rule below judges coordinates that are not numbers
            if all(isinstance(c, (int, float)) for c in key):
                if key in positions:
                    problems.append(f"nodes {positions[key]!r} and "
                                    f"{n.node_id!r} co-located")
                positions[key] = n.node_id
            checks.append(("position", (n.node_id,), key))
        if n.profile is not None and n.kind is NodeKind.MSC:
            problems.append(f"msc {n.node_id!r} carries a radio profile")
        # a kind's default profile is valid by construction
        elif n.profile is not None and not (
                isinstance(n.kind, NodeKind)
                and n.profile is DEFAULT_PROFILES[n.kind]) and typed(
                "profile of", n.profile, RadioProfile, n.node_id):
            checks.append(("profile", (n.node_id,), tuple(n.profile)))
    if mscs > 1:
        problems.append("more than one msc")
    walks = s.mobility.items() if typed("mobility", s.mobility, dict) else ()
    for node_id, path in walks:
        if node_id not in kinds:
            problems.append(f"mobility for unknown node {node_id!r}")
        elif kinds[node_id] is not NodeKind.MOBILE_STATION:
            problems.append(f"mobility on non-mobile node {node_id!r}")
        if (typed("mobility of", path, MobilityPath, node_id)
                and typed("waypoints of", path.waypoints, tuple, node_id)
                and all(typed("waypoint of", w, Point, node_id)
                        for w in path.waypoints)):
            checks.append(("mobility", (node_id,), (
                path.speed, path.halt_fraction,
                *(c for w in path.waypoints for c in (w.x, w.y)))))
    # Each scalar, each node's position and profile, and each walk gets at
    # most one problem: the first rule it breaks.
    problems += [" of ".join((what, *map(repr, of))) + f" {rule}"
                 for what, of, values in checks
                 if (rule := _broken_rule(what, values, s.duration))]
    if problems:
        raise ValidationError(problems)


def _fmt(x: float) -> str:
    return repr(float(x)) if x != int(x) else str(int(x))


def serialize_scenario(s: Scenario) -> str:
    """Canonical text form; load_scenario(serialize_scenario(s)) == s."""
    out = ["[params]",
           f"duration = {_fmt(s.duration)}",
           f"seed = {s.seed}"]
    for name, value, default in zip(SimParams._fields, s.params, SimParams()):
        if value != default:
            out.append(f"{name} = {value if name in _INT_PARAMS else _fmt(value)}")
    out.append("")
    out.append("[node]")
    for n in s.nodes:
        line = (f"{n.node_id} {n.kind.value} "
                f"{_fmt(n.position.x)} {_fmt(n.position.y)}")
        if n.profile is not None:
            base = DEFAULT_PROFILES[n.kind]
            for short, attr in _OVERRIDE_FIELDS.items():
                if getattr(n.profile, attr) != getattr(base, attr):
                    line += f" {short}={_fmt(getattr(n.profile, attr))}"
        out.append(line)
    if s.mobility:
        out.append("")
        out.append("[mobility]")
        for node_id in sorted(s.mobility):
            p = s.mobility[node_id]
            wps = ";".join(f"{_fmt(w.x)},{_fmt(w.y)}" for w in p.waypoints)
            out.append(f"{node_id} speed={_fmt(p.speed)} "
                       f"halt={_fmt(p.halt_fraction)} waypoints={wps}")
    return "\n".join(out) + "\n"


def reference_scenario() -> Scenario:
    """Built-in reference deployment: two cells, two walkers, a mote mesh.

    Two base stations sit 1000 m apart.  Each mobile station starts beside
    its home base station, walks a straight lane toward the opposite one at
    constant speed and halts at the midpoint of its route.  A connected
    4 x 4 mote grid (100 m pitch) bridges the western base station to the
    halt zone; the halt points are beyond the 450 m steering reach of both
    base stations, so the final handoffs decide for the satellite.  A
    switching centre sits mid-field and a satellite covers everything.
    """
    nodes = [
        NodeSpec("bs1", NodeKind.BASE_STATION, Point(0.0, 200.0)),
        NodeSpec("bs2", NodeKind.BASE_STATION, Point(1000.0, 200.0)),
        NodeSpec("ms1", NodeKind.MOBILE_STATION, Point(0.0, 190.0)),
        NodeSpec("ms2", NodeKind.MOBILE_STATION, Point(1000.0, 210.0)),
        NodeSpec("sat1", NodeKind.SATELLITE, Point(500.0, 800.0)),
        NodeSpec("msc1", NodeKind.MSC, Point(500.0, 200.0)),
    ]
    idx = 1
    for y in (130.0, 230.0, 330.0, 430.0):
        for x in (80.0, 180.0, 280.0, 380.0):
            nodes.append(NodeSpec(f"m{idx:02d}", NodeKind.MOTE, Point(x, y)))
            idx += 1
    mobility = {
        "ms1": MobilityPath((Point(1000.0, 190.0),), speed=8.0,
                            halt_fraction=0.5),
        "ms2": MobilityPath((Point(0.0, 210.0),), speed=9.0,
                            halt_fraction=0.5),
    }
    return Scenario(tuple(nodes), mobility, duration=90.0, seed=1)


def strip_wsn(s: Scenario) -> Scenario:
    """Baseline variant: same scenario with every mote removed."""
    kept = tuple(n for n in s.nodes if n.kind is not NodeKind.MOTE)
    return Scenario(kept, s.mobility, s.duration, s.seed, s.params)
