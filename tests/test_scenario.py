"""Scenario text format, validation, and the built-in deployment."""

import dataclasses
import importlib
import pkgutil
import sys
from collections import deque

import pytest
from invariants import radio_positions
from worlds import grid_world, readme_scenario

import wsnhandoff
from wsnhandoff import scenario as scenario_module
from wsnhandoff.scenario import (DEFAULT_PROFILES, NodeSpec, ParseError,
                                 Scenario, SimParams, ValidationError,
                                 load_scenario, reference_scenario,
                                 serialize_scenario, strip_wsn)
from wsnhandoff.simulation import Simulation, run
from wsnhandoff.world import (MobilityPath, NodeKind, Point, RadioProfile,
                              comm_graph, halt_time, position_at)

GOOD = """\
# minimal two-node world
[params]
duration = 30
seed = 7
dv_period = 5

[node]
bs1 base_station 0 0
ms1 mobile_station 400 0
m1 mote 100 0 tx_power=3
msc1 msc 50 50
sat1 satellite 200 900

[mobility]
ms1 speed=4 halt=0.5 waypoints=0,0
"""


def test_load_good_scenario():
    s = load_scenario(GOOD)
    assert s.duration == 30.0 and s.seed == 7
    assert s.params.dv_period == 5.0
    assert s.params.hop_delay == SimParams().hop_delay  # untouched default
    assert [n.node_id for n in s.nodes] == ["bs1", "m1", "ms1", "msc1",
                                            "sat1"]
    node = {n.node_id: n for n in s.nodes}
    assert node["ms1"].kind is NodeKind.MOBILE_STATION
    assert node["m1"].profile.tx_power_dbm == 3.0
    assert node["bs1"].profile == DEFAULT_PROFILES[NodeKind.BASE_STATION]
    assert s.mobility["ms1"].speed == 4.0
    assert s.mobility["ms1"].waypoints == (Point(0, 0),)


def test_comments_and_blank_lines_ignored():
    s = load_scenario("[node]\n\n# nothing\nbs1 base_station 0 0  # tail\n")
    assert len(s.nodes) == 1


def test_a_text_without_defaulted_keys_loads_as_the_record_built_without():
    # no duration, seed or halt: the loaded scenario takes the records'
    # own defaults
    text = ("[node]\nbs1 base_station 0 0\nms1 mobile_station 400 0\n"
            "[mobility]\nms1 speed=4 waypoints=0,0\n")
    built = Scenario(
        (NodeSpec("bs1", NodeKind.BASE_STATION, Point(0.0, 0.0)),
         NodeSpec("ms1", NodeKind.MOBILE_STATION, Point(400.0, 0.0))),
        {"ms1": MobilityPath((Point(0.0, 0.0),), 4.0)})
    assert load_scenario(text) == built


def test_a_radio_without_overrides_holds_its_kind_default():
    # as read from text (GOOD's m1 has an override) and as built in code
    # with profile=None; an msc holds None
    for s in (load_scenario(GOOD), reference_scenario()):
        for n in s.nodes:
            if n.node_id != "m1":
                assert n.profile == DEFAULT_PROFILES[n.kind], n.node_id
        assert [n.profile for n in s.by_kind(NodeKind.MSC)] == [None]


def _line_no(excinfo):
    return excinfo.value.line_no


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        load_scenario("[nodes]\n")
    assert _line_no(e) == 1 and "unknown section" in e.value.reason

    with pytest.raises(ParseError) as e:
        load_scenario("bs1 base_station 0 0\n")
    assert "before any section" in e.value.reason

    with pytest.raises(ParseError) as e:
        load_scenario("[node]\nbs1 base_station 0\n")
    assert _line_no(e) == 2

    with pytest.raises(ParseError) as e:
        load_scenario("[node]\nbs1 tower 0 0\n")
    assert "unknown node kind" in e.value.reason

    with pytest.raises(ParseError) as e:
        load_scenario("[node]\nbs1 base_station 0 zero\n")
    assert "bad y" in e.value.reason

    with pytest.raises(ParseError) as e:
        load_scenario("[params]\nwarp_speed = 9\n")
    assert "unknown param" in e.value.reason

    with pytest.raises(ParseError) as e:
        load_scenario("[node]\nm1 mote 0 0 color=red\n")
    assert "unknown profile key" in e.value.reason

    with pytest.raises(ParseError) as e:
        load_scenario("[node]\nmsc1 msc 0 0 tx_power=1\n")
    assert "no radio profile" in e.value.reason

    with pytest.raises(ParseError) as e:
        load_scenario("[mobility]\nms1 speed=1\n")
    assert "speed= and waypoints=" in e.value.reason

    with pytest.raises(ParseError) as e:
        load_scenario("[mobility]\nms1 speed=1 waypoints=1,2;3\n")
    assert "bad waypoint" in e.value.reason

    # a walk with no waypoints cannot be written
    with pytest.raises(ParseError) as e:
        load_scenario("[mobility]\nms1 speed=1 waypoints=\n")
    assert "bad waypoint ''" in e.value.reason


NINES = "9" * 400  # an int too large for a float


@pytest.mark.parametrize("text, line, reason", [
    ("[params]\nhop_delay = abc\n", 2, "bad hop_delay"),
    ("[params]\n\nseed = 1.5\n", 3, "bad seed"),
    ("[params]\nqueue_capacity = 2.5\n", 2, "bad queue_capacity"),
    # a value is one token, not its tokens run together (10.0, 1e-323)
    ("[params]\nduration = 1 0\n", 2, "duration takes one value"),
    ("[params]\napp_interval = 0.001 1e-320\n", 2,
     "app_interval takes one value"),
    # a key given twice, even with one value, as a mobility line given twice
    ("[params]\nseed = 2\nduration = 30\nseed = 3\n", 4,
     "duplicate param 'seed'"),
    ("[params]\nhop_delay = 0.1\n[node]\nm1 mote 0 0\n[params]\n"
     "hop_delay = 0.1\n", 6, "duplicate param 'hop_delay'"),
    # and a key given twice on one node or mobility line
    ("[node]\nbs1 base_station 0 0\nm1 mote 0 0 tx_power=1 tx_power=5\n", 3,
     "duplicate profile key 'tx_power'"),
    ("[node]\nms1 mobile_station 0 0\n[mobility]\n"
     "ms1 speed=1 speed=9 waypoints=5,5\n", 4,
     "duplicate mobility key 'speed'"),
    ("[node]\nms1 mobile_station 0 0\n[mobility]\n"
     "ms1 speed=1 waypoints=5,5\nms1 speed=2 waypoints=6,6\n", 5,
     "duplicate mobility for 'ms1'"),
])
def test_bad_numbers_are_parse_errors(text, line, reason):
    with pytest.raises(ParseError) as e:
        load_scenario(text)
    assert _line_no(e) == line and reason in e.value.reason


WALKER = "[node]\nms1 mobile_station 0 0\n[mobility]\nms1 "


@pytest.mark.parametrize("text, problem", [
    # Numbers that read but are not finite.  These were ParseErrors; nan
    # now reports the range rule it breaks first, as in code.
    ("[params]\nduration = nan\n", "duration must be positive"),
    ("[params]\ndv_period = inf\n", "dv_period must be finite"),
    ("[node]\nbs1 base_station nan 0\n", "position of 'bs1' must be finite"),
    ("[node]\nbs1 base_station 0 -inf\n", "position of 'bs1' must be finite"),
    ("[node]\nm1 mote 0 0 tx_power=inf\n", "profile of 'm1' must be finite"),
    ("[mobility]\nms1 speed=1 waypoints=nan,0\n",
     "mobility of 'ms1' must be finite"),
    ("[mobility]\nms1 speed=inf waypoints=1,0\n",
     "mobility of 'ms1' must be finite"),
    # a count too large for a float, which once raised OverflowError
    pytest.param(f"[params]\nqueue_capacity = {NINES}\n",
                 "queue_capacity must be finite", id="queue_capacity-nines"),
    pytest.param(f"[params]\ndefault_ttl = {NINES}\n",
                 "default_ttl must be finite", id="default_ttl-nines"),
    # rules that RadioProfile and MobilityPath once enforced when built
    ("[node]\nm1 mote 0 0 error_margin=-0.1\n",
     "profile of 'm1' must be error_margin_db >= 0"),
    ("[node]\nm1 mote 0 0 path_loss_exponent=0.5\n",
     "profile of 'm1' must be 1 <= path_loss_exponent <= 6"),
    ("[node]\nm1 mote 0 0 path_loss_exponent=7.0\n",
     "profile of 'm1' must be 1 <= path_loss_exponent <= 6"),
    (WALKER + "speed=0 waypoints=1,1\n",
     "mobility of 'ms1' must be speed > 0"),
    (WALKER + "speed=1 halt=0 waypoints=1,1\n",
     "mobility of 'ms1' must be 0 < halt_fraction <= 1"),
    (WALKER + "speed=1 halt=1.1 waypoints=1,1\n",
     "mobility of 'ms1' must be 0 < halt_fraction <= 1"),
])
def test_values_read_from_text_are_judged_by_validate_scenario(text,
                                                               problem):
    with pytest.raises(ValidationError) as e:
        load_scenario(text)
    assert problem in e.value.problems


def test_a_seed_too_large_for_a_float_loads():
    s = load_scenario(f"[params]\nseed = {NINES}\n[node]\nm1 mote 0 0\n")
    assert s.seed == int(NINES)
    assert load_scenario(serialize_scenario(s)) == s


def test_epsilon_is_no_longer_a_parameter():
    with pytest.raises(ParseError) as e:
        load_scenario("[params]\nepsilon = 1\n[node]\nm1 mote 0 0\n")
    assert _line_no(e) == 2 and "unknown param 'epsilon'" in e.value.reason


@pytest.mark.parametrize("param, value", [
    ("duration", "0"),
    ("coverage_check_period", "0"), ("tx_slot", "0"), ("dv_period", "-1"),
    ("app_interval", "0"), ("hop_delay", "-0.01"),
    ("backhaul_delay", "-1"), ("steering_delay", "-1"),
    ("satellite_acquisition_delay", "-1"),
])
def test_nonpositive_periods_and_negative_delays_rejected(param, value):
    with pytest.raises(ValidationError) as e:
        load_scenario(f"[params]\n{param} = {value}\n[node]\nm1 mote 0 0\n")
    assert e.value.problems == [
        f"{param} must be {'>= 0' if 'delay' in param else 'positive'}"]


@pytest.mark.parametrize("param", ["coverage_check_period", "tx_slot",
                                   "dv_period", "app_interval"])
def test_a_period_too_small_to_advance_time_is_rejected(param):
    # duration + 1e-320 == duration, so the event would be rescheduled at
    # the same instant forever and run() would never return
    problem = f"{param} is too small to advance the clock"
    with pytest.raises(ValidationError) as e:
        dataclasses.replace(reference_scenario(),
                            params=SimParams(**{param: 1e-320}))
    assert e.value.problems == [problem]
    text = serialize_scenario(reference_scenario()).replace(
        "seed = 1\n", f"seed = 1\n{param} = 1e-320\n")
    with pytest.raises(ValidationError) as e:
        load_scenario(text)
    assert e.value.problems == [problem]
    # a small period that still moves the clock is accepted
    dataclasses.replace(reference_scenario(),
                        params=SimParams(**{param: 1e-12}))


def test_zero_delays_are_allowed():
    s = load_scenario("[params]\nhop_delay = 0\nbackhaul_delay = 0\n"
                      "[node]\nm1 mote 0 0\n")
    assert s.params.hop_delay == 0.0 and s.params.backhaul_delay == 0.0


def test_nan_timings_rejected_in_a_scenario_built_in_code():
    nan = float("nan")
    with pytest.raises(ValidationError) as e:
        dataclasses.replace(reference_scenario(), duration=nan,
                            params=SimParams(dv_period=nan, hop_delay=nan))
    assert e.value.problems == ["duration must be positive",
                                "dv_period must be positive",
                                "hop_delay must be >= 0"]


def _with_ms1_path(s: Scenario, path: MobilityPath) -> Scenario:
    return dataclasses.replace(s, mobility={**s.mobility, "ms1": path})


def _with_m01(s: Scenario, **change) -> Scenario:
    return dataclasses.replace(s, nodes=tuple(
        n._replace(**change) if n.node_id == "m01" else n
        for n in s.nodes))


def _with_m01_profile(s: Scenario, **change) -> Scenario:
    return dataclasses.replace(s, nodes=tuple(
        n._replace(profile=n.profile._replace(**change))
        if n.node_id == "m01" else n
        for n in s.nodes))


INF, NAN = float("inf"), float("nan")
# The first rule nan breaks in each SimParams field: a range where the field
# has one, else finiteness.
NAN_PROBLEMS = {
    "default_ttl": "must be >= 1", "queue_capacity": "must be >= 1",
    **dict.fromkeys(["coverage_check_period", "tx_slot", "dv_period",
                     "app_interval"], "must be positive"),
    **dict.fromkeys(["hop_delay", "backhaul_delay", "steering_delay",
                     "satellite_acquisition_delay"], "must be >= 0"),
    "max_steer_range": "must be finite", "discovery_timeout": "must be finite",
}


@pytest.mark.parametrize("change, problem", [
    (dict(params=SimParams(max_steer_range=INF)),
     "max_steer_range must be finite"),
    (dict(params=SimParams(max_steer_range=NAN)),
     "max_steer_range must be finite"),
    (dict(params=SimParams(discovery_timeout=-INF)),
     "discovery_timeout must be finite"),
    (dict(params=SimParams(default_ttl=INF)), "default_ttl must be finite"),
    (dict(params=SimParams(queue_capacity=INF)),
     "queue_capacity must be finite"),
    (dict(params=SimParams(tx_slot=INF)), "tx_slot must be finite"),
    (dict(params=SimParams(tx_slot=-INF)), "tx_slot must be positive"),
    (dict(params=SimParams(hop_delay=INF)), "hop_delay must be finite"),
    (dict(duration=INF), "duration must be finite"),
    # ints too large for a float, which once raised OverflowError
    (dict(duration=10**400), "duration must be finite"),
    (dict(params=SimParams(tx_slot=10**400)), "tx_slot must be finite"),
    # nan in every field, so that no field goes unchecked
    *[(dict(params=SimParams(**{name: NAN})),
       f"{name} {NAN_PROBLEMS[name]}")
      for name in SimParams._fields],
])
def test_non_finite_values_rejected_in_a_scenario_built_in_code(change,
                                                                 problem):
    # Each of these once passed validation and then made
    # serialize_scenario raise OverflowError or ValueError.
    with pytest.raises(ValidationError) as e:
        dataclasses.replace(reference_scenario(), **change)
    assert e.value.problems == [problem]


@pytest.mark.parametrize("change, problem", [
    (dict(seed=1.5), "seed must be an integer"),
    (dict(seed=INF), "seed must be an integer"),
    (dict(params=SimParams(default_ttl=2.5)), "default_ttl must be an integer"),
    (dict(params=SimParams(queue_capacity=3.0)),
     "queue_capacity must be an integer"),
])
def test_non_integer_counts_rejected_in_a_scenario_built_in_code(change,
                                                                 problem):
    # seed = 1.5 once raised a raw TypeError from Simulation, and
    # default_ttl = 2.5 ran but serialized to text that did not load
    with pytest.raises(ValidationError) as e:
        dataclasses.replace(reference_scenario(), **change)
    assert e.value.problems == [problem]


@pytest.mark.parametrize("build, problem", [
    (lambda s: dataclasses.replace(s, params=SimParams(hop_delay="0.1")),
     "hop_delay must be a number"),
    (lambda s: dataclasses.replace(s, duration="90"),
     "duration must be a number"),
    (lambda s: dataclasses.replace(s, params=SimParams(queue_capacity=None)),
     "queue_capacity must be a number"),
    (lambda s: _with_m01(s, position=Point("5", 0.0)),
     "position of 'm01' must be a number"),
    (lambda s: _with_ms1_path(s, MobilityPath((Point(5.0, 1.0),), 8.0, "1")),
     "mobility of 'ms1' must be a number"),
])
def test_non_numbers_rejected_in_a_scenario_built_in_code(build, problem):
    # each of these once raised a raw TypeError from Simulation
    with pytest.raises(ValidationError) as e:
        build(reference_scenario())
    assert e.value.problems == [problem]


@pytest.mark.parametrize("build, problem", [
    (lambda s: _with_m01(s, position=Point(INF, 0.0)),
     "position of 'm01' must be finite"),
    (lambda s: _with_m01(s, position=Point(5.0, NAN)),
     "position of 'm01' must be finite"),
    (lambda s: _with_m01_profile(s, tx_power_dbm=NAN),
     "profile of 'm01' must be finite"),
    (lambda s: _with_m01_profile(s, tx_power_dbm=INF),
     "profile of 'm01' must be finite"),
    (lambda s: _with_m01_profile(s, sensitivity_dbm=-INF),
     "profile of 'm01' must be finite"),
    (lambda s: _with_m01_profile(s, error_margin_db=NAN),
     "profile of 'm01' must be finite"),
    (lambda s: _with_m01_profile(s, reference_loss_db=INF),
     "profile of 'm01' must be finite"),
    (lambda s: _with_ms1_path(s, MobilityPath((Point(5.0, 1.0),), INF)),
     "mobility of 'ms1' must be finite"),
    (lambda s: _with_ms1_path(s, MobilityPath((Point(-INF, 1.0),), 8.0)),
     "mobility of 'ms1' must be finite"),
    (lambda s: _with_m01(s, position=Point(10**400, 0.0)),
     "position of 'm01' must be finite"),
    (lambda s: _with_ms1_path(s, MobilityPath((Point(5.0, 1.0),), 8.0, NAN)),
     "mobility of 'ms1' must be finite"),
])
def test_non_finite_coordinates_rejected_in_a_scenario_built_in_code(
        build, problem):
    with pytest.raises(ValidationError) as e:
        build(reference_scenario())
    assert e.value.problems == [problem]


@pytest.mark.parametrize("build, problem", [
    (lambda s: _with_m01(s, profile=RadioProfile(0, -80,
                                                 error_margin_db=-0.1)),
     "profile of 'm01' must be error_margin_db >= 0"),
    (lambda s: _with_m01(s, profile=RadioProfile(0, -80,
                                                 path_loss_exponent=0.5)),
     "profile of 'm01' must be 1 <= path_loss_exponent <= 6"),
    (lambda s: _with_m01(s, profile=RadioProfile(0, -80,
                                                 path_loss_exponent=7.0)),
     "profile of 'm01' must be 1 <= path_loss_exponent <= 6"),
    (lambda s: _with_ms1_path(s, MobilityPath((), speed=1.0)),
     "mobility of 'ms1' must be a walk to at least one waypoint"),
    (lambda s: _with_ms1_path(s, MobilityPath((Point(1, 1),), speed=0.0)),
     "mobility of 'ms1' must be speed > 0"),
    (lambda s: _with_ms1_path(s, MobilityPath((Point(1, 1),), speed=1.0,
                                              halt_fraction=0.0)),
     "mobility of 'ms1' must be 0 < halt_fraction <= 1"),
    (lambda s: _with_ms1_path(s, MobilityPath((Point(1, 1),), speed=1.0,
                                              halt_fraction=1.1)),
     "mobility of 'ms1' must be 0 < halt_fraction <= 1"),
])
def test_profile_and_walk_rules_in_a_scenario_built_in_code(build, problem):
    # RadioProfile and MobilityPath once raised a ValueError for each of
    # these when built.  The same rules read from text are judged in
    # test_values_read_from_text_are_judged_by_validate_scenario; a walk
    # with no waypoints has no text form.
    with pytest.raises(ValidationError) as e:
        build(reference_scenario())
    assert e.value.problems == [problem]


def _with_m99(**spec) -> Scenario:
    ref = reference_scenario()
    spec = {"kind": NodeKind.MOTE, "position": Point(5.0, 5.0), **spec}
    return dataclasses.replace(ref, nodes=(*ref.nodes, NodeSpec("m99",
                                                                 **spec)))


@pytest.mark.parametrize("build, problem", [
    (lambda: _with_m99(kind="mote"), "kind of 'm99' must be a NodeKind"),
    pytest.param(lambda: _with_m99(kind=["mote"]),
                 "kind of 'm99' must be a NodeKind", id="list-kind"),
    pytest.param(lambda: _with_m99(kind=["mote"],
                                   profile=DEFAULT_PROFILES[NodeKind.MOTE]),
                 "kind of 'm99' must be a NodeKind",
                 id="list-kind-default-profile"),
    (lambda: dataclasses.replace(reference_scenario(), nodes=(
        *reference_scenario().nodes, ("m99", NodeKind.MOTE, Point(5.0, 5.0)))),
     f"node {('m99', NodeKind.MOTE, Point(5.0, 5.0))!r} must be a NodeSpec"),
    (lambda: _with_m99(position=Point([5.0], 5.0)),
     "position of 'm99' must be a number"),
    (lambda: _with_m99(position=(5.0, 5.0)),
     "position of 'm99' must be a Point"),
    (lambda: _with_m99(profile=(0.0, -80.0)),
     "profile of 'm99' must be a RadioProfile"),
    (lambda: _with_ms1_path(reference_scenario(), ((1000.0, 190.0),)),
     "mobility of 'ms1' must be a MobilityPath"),
    (lambda: _with_ms1_path(reference_scenario(),
                            MobilityPath([Point(1000.0, 190.0)], 8.0)),
     "waypoints of 'ms1' must be a tuple"),
    (lambda: _with_ms1_path(reference_scenario(),
                            MobilityPath(((1000.0, 190.0),), 8.0)),
     "waypoint of 'ms1' must be a Point"),
    (lambda: dataclasses.replace(reference_scenario(), params=None),
     "params must be a SimParams"),
    (lambda: dataclasses.replace(reference_scenario(), mobility=None),
     "mobility must be a dict"),
    pytest.param(lambda: _with_m99(
        profile=tuple(DEFAULT_PROFILES[NodeKind.MOTE])),
        "profile of 'm99' must be a RadioProfile", id="tuple-default-profile"),
    pytest.param(lambda: _with_ms1_path(
        reference_scenario(), MobilityPath(Point(1000.0, 190.0), 8.0)),
        "waypoints of 'ms1' must be a tuple", id="point-waypoints"),
    pytest.param(lambda: Scenario(None, {}), "nodes must be a tuple",
                 id="none-nodes"),
    pytest.param(lambda: Scenario(5, {}), "nodes must be a tuple",
                 id="int-nodes"),
    pytest.param(lambda: Scenario("bs1", {}), "nodes must be a tuple",
                 id="str-nodes"),
    pytest.param(lambda: Scenario(reference_scenario().nodes[0], {}),
                 "nodes must be a tuple", id="nodespec-nodes"),
])
def test_parts_of_the_wrong_type_are_rejected(build, problem):
    # The str kind and the list of waypoints once validated, and then
    # failed to run or to round-trip; the list kind, the tuple node and
    # nodes of None, 5 or one NodeSpec raised a raw TypeError or
    # AttributeError when the Scenario was built, and a str of nodes got one
    # problem per character; the others raised one from validate_scenario
    # itself.  A record is itself a tuple, so a Point of waypoints and a
    # NodeSpec of nodes must not be walked as if they held records.
    with pytest.raises(ValidationError) as e:
        build()
    assert e.value.problems == [problem]


def test_a_node_is_formatted_only_in_its_own_problem(monkeypatch):
    # every Scenario is validated when built, so validation formats a
    # label only for a broken rule or a wrong type
    calls, nodespec_repr = [], NodeSpec.__repr__
    monkeypatch.setattr(NodeSpec, "__repr__",
                        lambda n: calls.append(n) or nodespec_repr(n))
    ref = reference_scenario()
    grid_world(10, [("ms1", 190.0, 8.0)])
    assert calls == []
    with pytest.raises(ValidationError) as e:
        dataclasses.replace(ref, nodes=(*ref.nodes, [ref.nodes[0]]))
    assert e.value.problems == [
        f"node [{nodespec_repr(ref.nodes[0])}] must be a NodeSpec"]
    assert calls == [ref.nodes[0]]


def test_a_set_up_validates_its_scenario_once(monkeypatch):
    ref = reference_scenario()
    texts = {"reference": serialize_scenario(ref),
             "grid": serialize_scenario(grid_world(10, [("ms1", 190.0, 8.0)]))}
    calls, validate = [], scenario_module.validate_scenario
    # every module of the package that holds the function calls the wrapper
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "wsnhandoff"
                and getattr(module, "validate_scenario", None) is validate):
            monkeypatch.setattr(module, "validate_scenario",
                                lambda s: calls.append(s) or validate(s))
    for set_up in (lambda: Simulation(load_scenario(texts["reference"])),
                   lambda: Simulation(load_scenario(texts["grid"])),
                   reference_scenario,
                   lambda: dataclasses.replace(ref, seed=5)):
        calls.clear()
        set_up()
        assert len(calls) == 1


def _with_mote_named(node_id) -> Scenario:
    ref = reference_scenario()
    return dataclasses.replace(ref, nodes=(
        *ref.nodes, NodeSpec(node_id, NodeKind.MOTE, Point(5.0, 5.0))))


@pytest.mark.parametrize("node_id", [7, "", "#x", "a#b", "[node]", "x y"])
def test_bad_node_ids_are_rejected(node_id):
    # 7 once raised a raw TypeError when the scenario was built, and 'x y'
    # validated and then failed its own round trip
    with pytest.raises(ValidationError) as e:
        _with_mote_named(node_id)
    assert e.value.problems == [
        f"node id {node_id!r} must be one token, without '#' and not "
        "starting with '['"]


@pytest.mark.parametrize("node_id", ["7", "a[b]", "x=y", "n'1", "]", "ü"])
def test_accepted_node_ids_round_trip(node_id):
    s = _with_mote_named(node_id)
    assert load_scenario(serialize_scenario(s)) == s


def test_each_value_gets_at_most_one_problem_in_a_fixed_order():
    # A value that is not a number no longer hides the other problems, and
    # each value reports only the first rule it breaks: default_ttl = 0.5 is
    # out of range, and is not also reported as not an integer, and ms2's
    # walk, with no waypoint, no speed and no halt, is reported once.
    ref = reference_scenario()
    nodes = tuple(n._replace(position=Point(None, 0.0))
                  if n.node_id == "m01" else n for n in ref.nodes)
    with pytest.raises(ValidationError) as e:
        Scenario((*nodes, NodeSpec("x y", NodeKind.MOTE, Point(5.0, 5.0))),
                 {**ref.mobility,
                  "ghost": MobilityPath((Point(1.0, 1.0),), 1.0),
                  "ms2": MobilityPath((), 0.0, 0.0)},
                 duration="90", seed=2.5,
                 params=SimParams(default_ttl=0.5, hop_delay=-1,
                                  tx_slot=10**400, max_steer_range=NAN))
    assert e.value.problems == ["node id 'x y' must be one token, without "
                                "'#' and not starting with '['",
                                "mobility for unknown node 'ghost'",
                                "duration must be a number",
                                "seed must be an integer",
                                "default_ttl must be >= 1",
                                "tx_slot must be finite",
                                "hop_delay must be >= 0",
                                "max_steer_range must be finite",
                                "position of 'm01' must be a number",
                                "mobility of 'ms2' must be a walk to at "
                                "least one waypoint"]


def test_every_valid_scenario_built_in_code_serializes():
    s = dataclasses.replace(reference_scenario(),
                            params=SimParams(max_steer_range=1e300))
    assert load_scenario(serialize_scenario(s)) == s


def test_readme_scenario_example_loads_and_runs():
    s = load_scenario(readme_scenario())
    assert load_scenario(serialize_scenario(s)) == s
    assert s.mobility and s.by_kind(NodeKind.MOTE)
    report = run(s)
    assert report.links  # the example walks into a handoff


def test_validation_problems_are_collected():
    text = """\
[node]
a mote 0 0
a mote 0 0
ms9 mobile_station 5 5

[mobility]
ms9 speed=1 waypoints=9,9
ghost speed=1 waypoints=1,1
"""
    with pytest.raises(ValidationError) as e:
        load_scenario(text)
    problems = " | ".join(e.value.problems)
    assert "duplicate node id" in problems
    assert "co-located" in problems
    assert "unknown node 'ghost'" in problems


def test_mobility_on_static_node_rejected():
    with pytest.raises(ValidationError) as e:
        load_scenario("[node]\nbs1 base_station 0 0\n"
                      "[mobility]\nbs1 speed=1 waypoints=5,5\n")
    assert "non-mobile" in str(e.value)


def test_two_switching_centres_rejected():
    with pytest.raises(ValidationError):
        load_scenario("[node]\nmsc1 msc 0 0\nmsc2 msc 1 1\n")


def test_an_msc_built_in_code_with_a_profile_is_rejected():
    # the text format refuses it at parse time, with its line number
    s = reference_scenario()
    with pytest.raises(ValidationError) as e:
        dataclasses.replace(s, nodes=tuple(
            n._replace(profile=DEFAULT_PROFILES[NodeKind.BASE_STATION])
            if n.kind is NodeKind.MSC else n for n in s.nodes))
    assert e.value.problems == ["msc 'msc1' carries a radio profile"]


def test_every_kind_default_profile_passes_the_profile_rule():
    # validate_scenario skips a profile that is its node's kind's default,
    # which the parser gives every radio line without overrides
    for kind, profile in DEFAULT_PROFILES.items():
        assert profile is None or scenario_module._broken_rule(
            "profile", tuple(profile), 90.0) is None, kind
    [mote] = load_scenario("[node]\nm1 mote 0 0\n").nodes
    assert mote.profile is DEFAULT_PROFILES[NodeKind.MOTE]


def test_roundtrip_is_stable():
    s = load_scenario(GOOD)
    text = serialize_scenario(s)
    s2 = load_scenario(text)
    assert s2 == s
    assert serialize_scenario(s2) == text


def test_scenario_is_the_only_dataclass():
    # The records are NamedTuples and the per-run state slotted classes:
    # generating dataclass code was a large share of set-up time.
    found = []
    for info in pkgutil.iter_modules(wsnhandoff.__path__):
        module = importlib.import_module(f"wsnhandoff.{info.name}")
        found += [f"{module.__name__}.{name}"
                  for name, cls in vars(module).items()
                  if isinstance(cls, type) and dataclasses.is_dataclass(cls)
                  and cls.__module__ == module.__name__]
    assert found == ["wsnhandoff.scenario.Scenario"]


def test_nodes_are_sorted_by_id_when_built():
    ref = reference_scenario()
    s = dataclasses.replace(ref, nodes=reversed(ref.nodes))
    assert s == ref
    assert [n.node_id for n in s.nodes] == sorted(n.node_id for n in ref.nodes)
    assert load_scenario(serialize_scenario(s)) == s


def test_roundtrip_of_a_profile_equal_to_its_kind_default():
    # a kind's default, given as text, in code or as None, builds the same
    # scenario, which writes no override for it
    from_text = load_scenario("[node]\nm1 mote 0 0 tx_power=0\n")
    assert serialize_scenario(from_text).endswith("\nm1 mote 0 0\n")
    ref = reference_scenario()
    builds = [ref] + [dataclasses.replace(ref, nodes=tuple(
        n._replace(profile=profile) if n.node_id == "bs1" else n
        for n in ref.nodes))
        for profile in (DEFAULT_PROFILES[NodeKind.BASE_STATION], None)]
    assert builds == [ref] * 3
    assert {serialize_scenario(s) for s in builds} == {
        serialize_scenario(ref)}
    for s in (from_text, *builds):
        assert all(n.profile == DEFAULT_PROFILES[n.kind] for n in s.nodes)
        assert load_scenario(serialize_scenario(s)) == s


def test_serialize_emits_only_nondefault_params():
    s = load_scenario("[node]\nm1 mote 0 0\n")
    text = serialize_scenario(s)
    assert "duration = 90" in text
    assert "seed = 1" in text
    assert "hop_delay" not in text


# ---- built-in deployment ------------------------------------------------


def test_builtin_census():
    s = reference_scenario()
    assert len(s.nodes) == 22
    assert len(s.by_kind(NodeKind.BASE_STATION)) == 2
    assert len(s.by_kind(NodeKind.MOBILE_STATION)) == 2
    assert len(s.by_kind(NodeKind.MOTE)) == 16
    assert len(s.by_kind(NodeKind.SATELLITE)) == 1
    assert len(s.by_kind(NodeKind.MSC)) == 1
    assert s.duration == 90.0 and s.seed == 1


def test_builtin_walkers_halt_midway_between_cells():
    s = reference_scenario()
    positions = {n.node_id: n.position for n in s.nodes}
    for ms_id, want in (("ms1", Point(500.0, 190.0)),
                        ("ms2", Point(500.0, 210.0))):
        path = s.mobility[ms_id]
        start = positions[ms_id]
        t = halt_time(path, start)
        frozen = position_at(path, start, t)
        assert frozen.x == pytest.approx(want.x)
        assert frozen.y == pytest.approx(want.y)
        assert t < s.duration  # both walkers halt inside the run


def test_builtin_mesh_is_connected_and_touches_a_base_station():
    s = reference_scenario()
    positions = radio_positions(s)
    kinds = {n.node_id: n.kind for n in s.nodes}
    profiles = {n.node_id: n.profile for n in s.nodes}
    g = comm_graph(positions, profiles)
    motes = sorted(n.node_id for n in s.by_kind(NodeKind.MOTE))
    # BFS across mote-mote edges
    seen = {motes[0]}
    dq = deque(seen)
    while dq:
        u = dq.popleft()
        for v in g[u]:
            if kinds[v] is NodeKind.MOTE and v not in seen:
                seen.add(v)
                dq.append(v)
    assert seen == set(motes)
    bs_contacts = [m for m in motes if "bs1" in g[m]]
    assert bs_contacts  # the mesh can hand requests to the western cell
    # and at least one mote hears each halted walker
    for ms_id in ("ms1", "ms2"):
        path = s.mobility[ms_id]
        start = positions[ms_id]
        halted = {**positions,
                  ms_id: position_at(path, start, halt_time(path, start))}
        g2 = comm_graph({k: halted[k] for k in positions}, profiles)
        assert any(kinds[v] is NodeKind.MOTE for v in g2[ms_id])


def test_builtin_halt_points_beyond_steering_reach():
    s = reference_scenario()
    positions = {n.node_id: n.position for n in s.nodes}
    for ms_id in ("ms1", "ms2"):
        path = s.mobility[ms_id]
        start = positions[ms_id]
        frozen = position_at(path, start, halt_time(path, start))
        for bs in s.by_kind(NodeKind.BASE_STATION):
            assert frozen.distance_to(bs.position) > s.params.max_steer_range


def test_strip_wsn_removes_only_motes():
    s = reference_scenario()
    bare = strip_wsn(s)
    assert len(bare.nodes) == 6
    assert not bare.by_kind(NodeKind.MOTE)
    assert bare.mobility == s.mobility
    assert bare.params == s.params
    assert (bare.duration, bare.seed) == (s.duration, s.seed)
    assert strip_wsn(bare) == bare
