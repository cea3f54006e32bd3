"""The benchmark's own checks.

    python3 perfbench/selfcheck.py

- every generated scenario round-trips load_scenario(serialize_scenario(s));
- the uplink-stream text is the reference scenario with app_interval 0.001;
- a second seed-1 generation of every workload reproduces its golden;
- an altered golden is reported as a failed run;
- a traced run keeps the golden digest, its span self times sum to no more
  than its wall time, and every per-layer metric is reported;
- hooks on names the program lacks are reported as unhooked;
- BENCHMARK.json names the metrics run.py prints, with the same units, and
  CONTRACT.md documents each of them.

Exit status 0 when every check passes.
"""

import dataclasses
import json
import sys
import types

import run
from golden import load_goldens, mismatches, outcome
from tracing import HOOKS, Tracer, install, uninstall
from workloads import GENERATORS

failures = []


def expect(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def main() -> int:
    pkg = run.import_program()
    goldens = load_goldens()

    for workload, gen in GENERATORS.items():
        for seed in (1, 2):
            s = pkg.load_scenario(gen(seed))
            expect(pkg.load_scenario(pkg.serialize_scenario(s)) == s,
                   f"{workload} seed {seed} round-trips")
    ref = dataclasses.replace(pkg.reference_scenario(), seed=3,
                              params=pkg.SimParams(app_interval=0.001))
    expect(pkg.serialize_scenario(ref) == GENERATORS["uplink-stream"](3),
           "uplink-stream is the reference scenario at app_interval 0.001")

    for workload, gen in GENERATORS.items():
        got = outcome(pkg, pkg.Simulation(pkg.load_scenario(gen(1))).run())
        expect(not mismatches(got, goldens[workload]["1"]),
               f"{workload} seed 1 reproduces its golden")
        altered = dict(goldens[workload]["1"], events=got["events"] + 1)
        checker = run.Checker()
        checker.check("run", got, altered)
        expect(checker.failed == 1 and run.fail_ratio(checker) == 1.0,
               f"{workload}: an altered golden fails the run")

    checker, budget = run.Checker(), run.Budget()
    checker.expected = goldens["mesh-dv"]["1"]
    tracer = Tracer(run.SPAN_CAP)
    wall, report, sim, setup = run.timed_run(
        pkg, GENERATORS["mesh-dv"](1), budget, tracer)
    expect(checker.check("traced", outcome(pkg, report)),
           "traced mesh-dv run keeps the golden outcome")
    m = run.layer_metrics(pkg, wall, report, sim, setup, tracer)
    expect(m.pop("run_self_total_s") <= wall,
           "span self times sum to no more than the traced wall time")
    expect(set(m) == set(run.PER_LAYER) - {"trace.overhead_s"},
           "a traced run yields every per-layer metric")
    expect(not tracer.unhooked, "every hook is installed on this commit")
    expect(m["routing.apply_s"] / wall >= 0.15,
           f"routing.apply_s is {m['routing.apply_s'] / wall:.1%} of "
           f"traced mesh-dv time (>= 15%)")

    fake = types.SimpleNamespace(simulation=types.SimpleNamespace())
    stray = Tracer(0)
    uninstall(install(fake, stray))
    expect(len(stray.unhooked) == len(HOOKS),
           "hooks on missing names are reported, not raised")

    with open(run.ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    expect(declared == run.END_TO_END, "end_to_end matches run.py")
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(declared == run.PER_LAYER, "per_layer matches run.py")
    expect({w["name"] for w in bench["workloads"]} == set(GENERATORS),
           "workloads match workloads.py")
    contract = (run.HERE / "CONTRACT.md").read_text()
    missing = [n for n in [*run.END_TO_END, *run.PER_LAYER]
               if f"`{n}`" not in contract]
    expect(not missing, f"CONTRACT.md documents every metric {missing}")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
