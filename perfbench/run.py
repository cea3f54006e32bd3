"""Benchmark harness for the wsnhandoff simulator (stdlib only).

    python3 perfbench/run.py --workload mesh-dv --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

A workload is a scenario generated from --seed (workloads.py) and handed to
the program only as text through `load_scenario`.  One unit of work is one
`Simulation.run()`; runs go one after another in this single thread.  Every
run's digest, event count and report hash must equal the stored golden
(goldens.json).  For a seed with no stored golden, one untimed seed-1 run is
checked against its golden first, and every run must then equal the first
run of the requested seed to finish.  A run that raises or times out fails
too.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 runs
the workload alternately untraced and traced (tracing.py) and reports the
per-layer metrics; the spans go to perfbench/out/.  The last line printed is
one JSON object with the keys correct, attempted, failed and metrics.

Exit status: 0 when every run matched, 1 when any run failed, 2 when the
program cannot be imported from this checkout's src/.
"""

import argparse
import gc
import json
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from golden import load_goldens, mismatches, outcome
from tracing import DISPATCH_PREFIX, Tracer, install, uninstall
from workloads import GENERATORS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = {"wall_s": "s", "events_per_s": "events/s",
              "peak_rss_mb": "MiB", "setup_s": "s"}
LAYERS = ("engine", "world", "queues", "routing", "protocol", "stats",
          "simulation")
DISPATCH_KINDS = ("deliver", "drain", "app", "coverage", "dv_send")
PER_LAYER = {
    "routing.updates_applied": "count", "routing.apply_s": "s",
    "routing.adverts": "count", "routing.advert_s": "s",
    "routing.adopt_ratio": "fraction",
    "world.comm_graph_calls": "count", "world.comm_graph_s": "s",
    "world.radio_calls": "count", "world.radio_s": "s",
    "world.position_calls": "count", "world.position_s": "s",
    "protocol.forwards": "count", "protocol.forward_s": "s",
    "protocol.forward_ratio": "fraction", "protocol.control_s": "s",
    "protocol.escalations": "count", "protocol.handoffs": "count",
    "engine.events": "count", "engine.schedules": "count",
    "engine.peak_heap": "count", "engine.self_s": "s",
    "stats.records": "count", "stats.record_s": "s",
    "queues.enqueues": "count", "queues.self_s": "s",
    "queues.drops": "count", "queues.peak_depth": "count",
    **{f"simulation.{k}_s": "s" for k in DISPATCH_KINDS},
    "simulation.control_s": "s", "simulation.digest_s": "s",
    "simulation.init_s": "s", "simulation.log_bytes": "bytes",
    "scenario.load_s": "s",
    **{f"{layer}.share": "fraction" for layer in LAYERS},
    "trace.wall_s": "s", "trace.overhead_s": "s",
}

SETUP_PROBES_PER_RUN = 2
SPAN_CAP = 20000            # spans kept in full per traced run
MIN_RUNS = 3
RUN_TIMEOUT_S = 120.0
HARD_LIMIT_S = 170.0
clock = time.perf_counter


class RunTimeout(Exception):
    pass


@contextmanager
def time_limit(seconds: float):
    def on_alarm(signum, frame):
        raise RunTimeout(f"run exceeded {seconds:.0f} s")
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Checker:
    """Counts attempted and failed runs and says why each failure failed.

    `expected` is the outcome every run must reproduce; while it is None the
    first run to finish sets it."""

    def __init__(self):
        self.expected = None
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, label: str, got: dict, expected: dict = None) -> bool:
        if expected is None:
            expected = self.expected
        self.attempted += 1
        if expected is None:
            self.expected = got
            return True
        bad = mismatches(got, expected)
        if bad:
            self.failed += 1
            self.notes.append(f"{label}: {', '.join(bad)} differ from "
                              f"expected")
        return not bad

    def fail(self, label: str, why: str):
        self.attempted += 1
        self.reject(label, why)

    def reject(self, label: str, why: str):
        """Fail a run already counted as attempted."""
        self.failed += 1
        self.notes.append(f"{label}: {why}")


class Budget:
    """The invocation's hard time limit, shared by every run and probe."""

    def __init__(self):
        self.end = clock() + HARD_LIMIT_S

    def left(self) -> float:
        return self.end - clock()

    def allows(self, expected_s: float) -> bool:
        return self.left() > 2 * expected_s + 1


def import_program():
    """The package from this checkout's src/, or exit 2."""
    sys.path.insert(0, str(SRC))
    try:
        import wsnhandoff
    except ImportError as e:
        print(f"cannot import wsnhandoff from {SRC}: {e}", file=sys.stderr)
        sys.exit(2)
    if not Path(wsnhandoff.__file__).resolve().is_relative_to(SRC):
        print(f"wsnhandoff imported from {wsnhandoff.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        sys.exit(2)
    return wsnhandoff


def probe(mode: str, text: str, budget: Budget) -> dict:
    """Run child.py in a fresh interpreter; its result as a dict."""
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), mode],
                          input=text, capture_output=True, text=True,
                          timeout=min(RUN_TIMEOUT_S, budget.left()), cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"probe exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_run(pkg, text: str, budget: Budget, tracer: Tracer = None):
    """Set up and run one simulation; time run() alone.  With a tracer the
    hooks are installed for the whole unit and removed afterwards."""
    installed = install(pkg, tracer) if tracer else []
    try:
        sim = pkg.Simulation(pkg.load_scenario(text))
        setup = (dict(tracer.calls), dict(tracer.self_s)) if tracer else None
        gc.collect()
        with time_limit(min(RUN_TIMEOUT_S, budget.left())):
            t0 = clock()
            report = sim.run()
            wall = clock() - t0
    finally:
        uninstall(installed)
    return wall, report, sim, setup


def set_expected(pkg, workload: str, seed: int, checker: Checker,
                 budget: Budget):
    """Hold runs to the stored golden of this seed; without one, check a
    seed-1 run against its golden and leave the expectation open."""
    goldens = load_goldens().get(workload, {})
    golden = goldens.get(str(seed))
    if golden is None:
        print(f"no stored golden for {workload} seed {seed}; checking seed 1 "
              f"against its golden, then runs against the first run of "
              f"seed {seed}", file=sys.stderr)
        try:
            if "1" not in goldens:
                raise KeyError("no stored seed-1 golden")
            _, report, _, _ = timed_run(pkg, GENERATORS[workload](1), budget)
            checker.check("seed-1 golden run", outcome(pkg, report),
                          goldens["1"])
        except Exception as e:
            checker.fail("seed-1 golden run", repr(e))
    checker.expected = golden


def run_loop(pkg, text: str, seconds: float, checker: Checker,
             budget: Budget, tracer_for=None):
    """Runs one after another for about `seconds` (at least MIN_RUNS),
    checking each.  A run starts only if half the longest run so far still
    fits before the deadline.  Yields (wall, report, sim, setup, tracer) for
    every good run."""
    deadline = clock() + seconds
    longest = 0.0
    n = 0
    while ((n < MIN_RUNS or clock() + longest / 2 < deadline)
           and budget.allows(longest)):
        n += 1
        tracer = tracer_for(n) if tracer_for else None
        label = f"{'traced ' if tracer else ''}run {n}"
        try:
            wall, report, sim, setup = timed_run(pkg, text, budget, tracer)
        except Exception as e:
            checker.fail(label, repr(e))
            continue
        longest = max(longest, wall)
        if not checker.check(label, outcome(pkg, report)):
            continue
        yield wall, report, sim, setup, tracer
        del report, sim


def end_to_end(pkg, workload: str, seed: int, seconds: float,
               checker: Checker, budget: Budget) -> dict:
    text = GENERATORS[workload](seed)
    set_expected(pkg, workload, seed, checker, budget)
    metrics = dict.fromkeys(END_TO_END, 0.0)
    try:
        fresh = probe("run", text, budget)
        metrics["peak_rss_mb"] = fresh["peak_rss_mb"]
        checker.check("fresh-process run", fresh)
    except Exception as e:
        checker.fail("fresh-process run", repr(e))
    walls, rates, setups = [], [], []
    for wall, report, _, _, _ in run_loop(pkg, text, seconds, checker,
                                          budget):
        walls.append(wall)
        rates.append(report.events_processed / wall)
        # Set-up probes go between timed runs so that they sample the host
        # over the whole invocation, as the runs do.
        for _ in range(SETUP_PROBES_PER_RUN):
            try:
                setups.append(probe("setup", text, budget)["setup_s"])
            except Exception as e:
                checker.fail(f"set-up probe {len(setups) + 1}", repr(e))
    if walls:
        metrics["wall_s"] = statistics.median(walls)
        metrics["events_per_s"] = statistics.median(rates)
    if setups:
        metrics["setup_s"] = statistics.median(setups)
    print(f"{workload}: {len(walls)} timed runs, {len(setups)} set-up probes",
          file=sys.stderr)
    return metrics


def ledger_counters(pkg, report) -> dict:
    """Counter token -> value, read from the serialized report."""
    counters = {}
    for line in pkg.serialize_report(report).splitlines():
        token, eq, value = line.partition("=")
        if eq:
            counters[token] = int(value)
    return counters


def queue_totals(sim) -> tuple:
    queues = getattr(sim, "node_queues", {}).values()
    return (sum(getattr(q, "queued", 0) for q in queues),
            sum(getattr(q, "dropped", 0) for q in queues),
            max((getattr(q, "peak_size", 0) for q in queues), default=0))


def log_bytes(sim) -> int:
    log = getattr(sim, "log", None)
    if not isinstance(log, list):
        return 0
    return sys.getsizeof(log) + sum(sys.getsizeof(line) for line in log)


def layer_metrics(pkg, wall: float, report, sim, setup, tracer) -> dict:
    """Per-layer metrics of one traced run.  Counts come from the returned
    objects or from call counts; times are self times of the spans."""
    calls, self_s = tracer.calls, tracer.self_s

    def t(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def c(name):
        return calls.get(name, 0)

    ledger = ledger_counters(pkg, report)
    received = ledger.get("app_bellman_ford.update_packets_received", 0)
    triggered = ledger.get("app_bellman_ford.triggered_updates", 0)
    enqueues, drops, peak_depth = queue_totals(sim)
    dispatch = {n[len(DISPATCH_PREFIX):]: v for n, v in self_s.items()
                if n.startswith(DISPATCH_PREFIX)}
    m = {
        "routing.updates_applied": received,
        "routing.apply_s": t("routing.apply"),
        "routing.adverts": c("routing.advert"),
        "routing.advert_s": t("routing.advert"),
        "routing.adopt_ratio": triggered / received if received else 0.0,
        "world.comm_graph_calls": c("world.comm_graph"),
        "world.comm_graph_s": t("world.comm_graph"),
        "world.radio_calls": c("world.radio"),
        "world.radio_s": t("world.radio"),
        "world.position_calls": c("world.position"),
        "world.position_s": t("world.position"),
        "protocol.forwards": c("protocol.forward"),
        "protocol.forward_s": t("protocol.forward"),
        "protocol.forward_ratio": (tracer.nonempty.get("protocol.forward", 0)
                                   / c("protocol.forward")
                                   if c("protocol.forward") else 0.0),
        "protocol.control_s": t("protocol.control"),
        "protocol.escalations": len(getattr(report, "escalations", ())),
        "protocol.handoffs": len(getattr(report, "links", ())),
        "engine.events": report.events_processed,
        "engine.schedules": c("engine.schedule"),
        "engine.peak_heap": tracer.peak_len,
        "engine.self_s": t("engine.run_until", "engine.schedule",
                           "engine.pop"),
        "stats.records": c("stats.record"),
        "stats.record_s": t("stats.record", "stats.record_peak"),
        "queues.enqueues": enqueues,
        "queues.self_s": t("queues.fifo", "queues.priority"),
        "queues.drops": drops,
        "queues.peak_depth": peak_depth,
        **{f"simulation.{k}_s": dispatch.get(k, 0.0) for k in DISPATCH_KINDS},
        "simulation.control_s": sum(v for k, v in dispatch.items()
                                    if k not in DISPATCH_KINDS),
        "simulation.digest_s": t("simulation.run"),
        "simulation.init_s": t("simulation.init"),
        "simulation.log_bytes": log_bytes(sim),
        "scenario.load_s": t("scenario.load"),
        "trace.wall_s": wall,
    }
    # Shares cover run() only, so set-up spans are taken off.
    setup_self = setup[1]
    run_self = {n: v - setup_self.get(n, 0.0) for n, v in self_s.items()}
    for layer in LAYERS:
        m[f"{layer}.share"] = sum(v for n, v in run_self.items()
                                  if n.split(".")[0] == layer) / wall
    m["run_self_total_s"] = sum(run_self.values())
    return m


COUNT_METRICS = [n for n, u in PER_LAYER.items() if u in ("count", "bytes")]


def per_layer(pkg, workload: str, seed: int, seconds: float,
              checker: Checker, budget: Budget) -> dict:
    text = GENERATORS[workload](seed)
    set_expected(pkg, workload, seed, checker, budget)
    untraced, traced, dumps, unhooked = [], [], [], []
    for wall, report, sim, setup, tracer in run_loop(
            pkg, text, seconds, checker, budget,
            tracer_for=lambda n: Tracer(SPAN_CAP) if n % 2 == 0 else None):
        if tracer is None:
            untraced.append(wall)
            continue
        unhooked = tracer.unhooked
        m = layer_metrics(pkg, wall, report, sim, setup, tracer)
        label = f"traced run {len(traced) + 1}"
        if m.pop("run_self_total_s") > wall:
            checker.reject(label, "span self times exceed the run's wall "
                           "time")
        if traced and any(m[k] != traced[0][k] for k in COUNT_METRICS):
            checker.reject(label, "counts differ from the first traced run")
        traced.append(m)
        dumps.append({"wall_s": wall,
                      "totals": {n: {"calls": tracer.calls[n],
                                     "self_s": tracer.self_s[n]}
                                 for n in sorted(tracer.calls)},
                      "spans": tracer.spans})
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    if traced:
        for name in traced[0]:
            values = [m[name] for m in traced]
            metrics[name] = (values[0] if name in COUNT_METRICS
                             else statistics.median(values))
    if traced and untraced:
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                       - statistics.median(untraced))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    with open(path, "w") as f:
        json.dump({"workload": workload, "seed": seed, "span_cap": SPAN_CAP,
                   "span_fields": ["id", "name", "start", "end", "parent"],
                   "unhooked": unhooked, "untraced_wall_s": untraced,
                   "traced_runs": dumps}, f)
    print(f"{workload}: {len(untraced)} untraced and {len(traced)} traced "
          f"runs; spans in {path.relative_to(ROOT)}", file=sys.stderr)
    if unhooked:
        print(f"unhooked (their metrics read 0): {', '.join(unhooked)}")
    print(f"{workload} self-time share of traced run(): " + ", ".join(
        f"{layer} {metrics[layer + '.share']:.1%}" for layer in LAYERS))
    return metrics


def measure(pkg, workload: str, seed: int, seconds: float, trace: bool):
    checker, budget = Checker(), Budget()
    if trace:
        metrics = per_layer(pkg, workload, seed, seconds, checker, budget)
        units = PER_LAYER
    else:
        metrics = end_to_end(pkg, workload, seed, seconds, checker, budget)
        units = END_TO_END
    for note in checker.notes:
        print(f"FAILED {workload} {note}", file=sys.stderr)
    return checker, {name: {"value": metrics[name], "unit": units[name]}
                     for name in units}


def fail_ratio(checker: Checker) -> float:
    return checker.failed / checker.attempted if checker.attempted else 1.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*GENERATORS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    pkg = import_program()

    if args.workload != "all":
        checker, metrics = measure(pkg, args.workload, args.seed,
                                   args.seconds, bool(args.trace))
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        print(f"fail_ratio {fail_ratio(checker):.6g} fraction "
              f"({checker.failed}/{checker.attempted})")
        print(json.dumps({"correct": checker.failed == 0,
                          "attempted": checker.attempted,
                          "failed": checker.failed, "metrics": metrics}))
        return 0 if checker.failed == 0 else 1

    results = {w: measure(pkg, w, args.seed, args.seconds, bool(args.trace))
               for w in GENERATORS}
    units = PER_LAYER if args.trace else END_TO_END
    print(f"{'metric':26} {'unit':10} " + " ".join(f"{w:>14}"
                                                   for w in results))
    for name in units:
        print(f"{name:26} {units[name]:10} " + " ".join(
            f"{m[name]['value']:14.6g}" for _, m in results.values()))
    print(f"{'fail_ratio':26} {'fraction':10} " + " ".join(
        f"{fail_ratio(c):14.6g}" for c, _ in results.values()))
    failed = sum(c.failed for c, _ in results.values())
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(c.attempted for c, _ in
                                       results.values()),
                      "failed": failed,
                      "metrics": {w: m for w, (_, m) in results.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
