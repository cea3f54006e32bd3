"""Scenario-text generators for the three benchmark workloads.

Each generator is pure text: the program under test receives a workload only
through `load_scenario(text)`, never as objects built by the harness.  The
workload seed goes into the scenario's `seed` parameter, which seeds the
simulator's only random stream (the stagger of each mote's first
distance-vector broadcast).  CONTRACT.md gives each workload's recipe and
the reason it is in the benchmark.
"""


def _fmt(x: float) -> str:
    # Same number format as the scenario serializer: integers without ".0".
    return repr(float(x)) if x != int(x) else str(int(x))


def grid_scenario(k: int, walkers: list, seed: int) -> str:
    """A k x k mote grid at 100 m pitch from (80,130) between two base
    stations 100k+600 m apart, with a satellite and a switching centre
    mid-field.  `walkers` holds (id, start_y, speed); each walks east from
    x = 0 toward bs2 and halts halfway."""
    width = 100 * k + 600
    lines = ["[params]", "duration = 90", f"seed = {seed}", "", "[node]",
             "bs1 base_station 0 200",
             f"bs2 base_station {width} 200",
             f"msc1 msc {_fmt(width / 2)} 200",
             f"sat1 satellite {_fmt(width / 2)} 800"]
    idx = 1
    for row in range(k):
        for col in range(k):
            lines.append(f"m{idx:03d} mote {80 + 100 * col} {130 + 100 * row}")
            idx += 1
    for ms_id, y, _ in walkers:
        lines.append(f"{ms_id} mobile_station 0 {_fmt(y)}")
    lines += ["", "[mobility]"]
    for ms_id, y, speed in walkers:
        lines.append(f"{ms_id} speed={_fmt(speed)} halt=0.5 "
                     f"waypoints={width},{_fmt(y)}")
    return "\n".join(lines) + "\n"


def mesh_dv(seed: int) -> str:
    return grid_scenario(10, [("ms1", 190.0, 8.0)], seed)


def handoff_storm(seed: int) -> str:
    walkers = [(f"ms{i + 1:02d}", 190.0 - 7 * i, 8.0 + 0.25 * i)
               for i in range(16)]
    return grid_scenario(6, walkers, seed)


def uplink_stream(seed: int) -> str:
    """The built-in reference deployment, written out as text, with one
    payload frame per millisecond on every established link."""
    lines = ["[params]", "duration = 90", f"seed = {seed}",
             "app_interval = 0.001", "", "[node]",
             "bs1 base_station 0 200",
             "bs2 base_station 1000 200"]
    motes = []
    idx = 1
    for y in (130, 230, 330, 430):
        for x in (80, 180, 280, 380):
            motes.append(f"m{idx:02d} mote {x} {y}")
            idx += 1
    lines += motes
    lines += ["ms1 mobile_station 0 190",
              "ms2 mobile_station 1000 210",
              "msc1 msc 500 200",
              "sat1 satellite 500 800",
              "", "[mobility]",
              "ms1 speed=8 halt=0.5 waypoints=1000,190",
              "ms2 speed=9 halt=0.5 waypoints=0,210"]
    return "\n".join(lines) + "\n"


GENERATORS = {"mesh-dv": mesh_dv, "handoff-storm": handoff_storm,
              "uplink-stream": uplink_stream}
