"""Spans around the program's public entry points, recorded from outside.

The harness wraps names that the simulator looks up at call time: the
functions `wsnhandoff.simulation` imported from the other modules, the
methods of the engine, queue and ledger classes, `Simulation.__init__` /
`Simulation.run` and `load_scenario`.  Nothing under `src/` knows about it.
Every wrapped call records a span (id, name, start, end, parent) and adds its
self time -- duration minus the part covered by child spans -- to a per-name
total.  A name that no longer exists is reported as unhooked and its metrics
read 0; the hooks are removed again after each traced run.
"""

import time

clock = time.perf_counter

# (owner, attribute, span name).  An owner is a dotted path from the package;
# "simulation" is the module whose global lookups route the protocol, world
# and routing calls, and "" is the package itself, through which the harness
# calls load_scenario.
HOOKS = [
    ("simulation", "apply_update", "routing.apply"),
    ("simulation", "periodic_update", "routing.advert"),
    ("simulation", "shortest_path", "routing.path"),
    ("simulation", "comm_graph", "world.comm_graph"),
    ("simulation", "received_power", "world.radio"),
    ("simulation", "packet_outcome", "world.radio"),
    ("simulation", "position_at", "world.position"),
    ("simulation", "halt_time", "world.position"),
    ("simulation", "mote_forward", "protocol.forward"),
    ("simulation", "bs_notify_msc", "protocol.control"),
    ("simulation", "msc_decide", "protocol.control"),
    ("simulation", "establish_link", "protocol.control"),
    ("simulation", "release_motes", "protocol.control"),
    ("simulation", "detect_loss", "protocol.control"),
    ("simulation", "make_discovery", "protocol.control"),
    ("engine.EventQueue", "schedule", "engine.schedule"),
    ("engine.EventQueue", "pop", "engine.pop"),
    ("engine.EventQueue", "run_until", "engine.run_until"),
    ("stats.StatsLedger", "record", "stats.record"),
    ("stats.StatsLedger", "record_peak", "stats.record_peak"),
    ("queues.FifoQueue", "enqueue", "queues.fifo"),
    ("queues.FifoQueue", "dequeue", "queues.fifo"),
    ("queues.StrictPriorityQueue", "enqueue", "queues.priority"),
    ("queues.StrictPriorityQueue", "dequeue", "queues.priority"),
    ("simulation.Simulation", "__init__", "simulation.init"),
    ("simulation.Simulation", "run", "simulation.run"),
    ("", "load_scenario", "scenario.load"),
]

# Dispatch spans are named after the event kind, ev.payload[0].
DISPATCH_PREFIX = "simulation.dispatch."


class Tracer:
    """Span recorder for one traced run.  Keeps the first `span_cap` spans in
    full and the call count and self time of every span name."""

    def __init__(self, span_cap: int):
        self.span_cap = span_cap
        self.spans = []            # (id, name, start, end, parent id)
        self.calls = {}
        self.self_s = {}
        self.nonempty = {}         # calls whose result was non-empty
        self.peak_len = 0          # largest len(owner) seen after a call
        self._stack = []           # per open span: [child time, span id]
        self._next_id = 0
        self.unhooked = []         # hooked names the program no longer has

    def wrap(self, fn, name: str, count_nonempty: bool = False,
             watch_len: bool = False):
        stack = self._stack
        calls, self_s, nonempty = self.calls, self.self_s, self.nonempty
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        nonempty.setdefault(name, 0)
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[name] += dur - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += dur
                if span_id < tracer.span_cap:
                    tracer.spans.append((span_id, name, t0, t1, parent))
            if count_nonempty and result:
                nonempty[name] += 1
            if watch_len and len(args[0]) > tracer.peak_len:
                tracer.peak_len = len(args[0])
            return result

        return traced

    def wrap_run_until(self, fn):
        """run_until(t_end, dispatch): trace it, and every dispatch it makes
        under the name of the event's kind."""
        cache = {}

        def kind_of(ev):
            payload = getattr(ev, "payload", None)
            if payload is None and isinstance(ev, tuple):
                payload = ev[-1]
            try:
                return payload[0]
            except (TypeError, IndexError, KeyError):
                return "unknown"

        def run_until(queue, t_end, dispatch, *args, **kwargs):
            def traced_dispatch(ev):
                kind = kind_of(ev)
                fn_for_kind = cache.get(kind)
                if fn_for_kind is None:
                    fn_for_kind = cache[kind] = self.wrap(
                        lambda e, d: d(e), DISPATCH_PREFIX + str(kind))
                return fn_for_kind(ev, dispatch)
            return fn(queue, t_end, traced_dispatch, *args, **kwargs)

        return self.wrap(run_until, "engine.run_until")


def install(package, tracer: Tracer) -> list:
    """Wrap every hook that exists and note the rest in tracer.unhooked.
    Returns what uninstall() needs to restore the originals."""
    installed, unhooked = [], tracer.unhooked
    for owner_path, attr, name in HOOKS:
        owner = package
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
        original = None if owner is None else owner.__dict__.get(attr)
        if original is None:
            unhooked.append(f"{owner_path}.{attr}".lstrip("."))
            continue
        if attr == "run_until":
            wrapped = tracer.wrap_run_until(original)
        else:
            wrapped = tracer.wrap(original, name,
                                  count_nonempty=(attr == "mote_forward"),
                                  watch_len=(attr == "schedule"
                                             and hasattr(owner, "__len__")))
        setattr(owner, attr, wrapped)
        installed.append((owner, attr, original))
    return installed


def uninstall(installed):
    for owner, attr, original in reversed(installed):
        setattr(owner, attr, original)
