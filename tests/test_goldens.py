"""Golden runs: the behaviour contract pinned byte for byte.

For each scenario below the dispatch digest, the event count and the SHA-256
of `serialize_report` are stored values, not values compared between two
runs of the same build.  A refactor or optimisation must leave all three
unchanged; only a change that means to alter behaviour may update them, and
it says so in CHANGES.md.

The scenarios are built in code, independently of the benchmark's
generators: the reference corridor, the same corridor without motes, and
`worlds.grid_world`'s k=4 mote grid walked by one or by three handsets.
"reference-drops" is the reference corridor cut to 20 s with one-frame
queues and a payload every millisecond: its motes tail-drop frames during
the first distance-vector exchanges, which pins the drop path.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest
from invariants import check_dv_tables, check_relay_paths, check_run
from worlds import grid_world

import wsnhandoff
from wsnhandoff.scenario import (Scenario, SimParams, reference_scenario,
                                 strip_wsn)
from wsnhandoff.report import parse_report_ledger, serialize_report
from wsnhandoff.simulation import HASH_BLOCK, Simulation


def drop_scenario() -> Scenario:
    return dataclasses.replace(
        reference_scenario(), duration=20.0,
        params=SimParams(queue_capacity=1, app_interval=0.001))


SCENARIOS = {
    "reference": reference_scenario,
    "reference-no-motes": lambda: strip_wsn(reference_scenario()),
    "grid4-one-walker": lambda: grid_world(4, [("ms1", 190.0, 8.0)]),
    "grid4-three-walkers": lambda: grid_world(
        4, [(f"ms{i + 1}", 190.0 - 7 * i, 8.0 + 0.25 * i) for i in range(3)]),
    "reference-drops": drop_scenario,
}

# name -> (digest, events_processed, sha256 of serialize_report)
GOLDENS = {
    "reference": (
        "abde5ea624a0308ff9eff814f7f44fb08bc53bd16de0298852f6e69774951483",
        2428,
        "08f0b590850ec0905ad44622ff09a64b0aea79dadf1c54a9d8c491210384d48e"),
    "reference-no-motes": (
        "f89f9d2c847cfac395cc150d0e701c9d875f4325f7b2353768a331a25c584102",
        270,
        "23e8ea03d29e03c30f03772a12af03231a2637d8048cbe356a3b2d73c30c52e4"),
    "grid4-one-walker": (
        "115a8d809c707c07294838840e3988e1f363c5055d71157a438c0482155ad2d8",
        2271,
        "782dcae370117530568806c8cd1b5e09ec29c82d942c73e05335eb91ca18a992"),
    "grid4-three-walkers": (
        "ec31ef8c008e1f23ef0a0a8df49c0c4c400643fea14509e3865dc7eabfee6e03",
        4085,
        "468efe3de7152c86e7efa9e891a6a3d0888a134067024b863380480a41ede547"),
    "reference-drops": (
        "45afc0b80772544a37cde4aeea10369bba0df8f9adfd9f3222456d9ec9832986",
        2112,
        "e765ef9d942b4d9def4bd82ab9f6d8a0b58413f518491b6104251026b55cb192"),
}


# name -> (links, relay paths, converged routes, frames dropped, receptions
# with errors): what each run exercises, pinned so that a change that stops a
# run reaching a path shows even where the goldens are re-recorded
EXERCISED = {
    "reference": (3, 6, 2, 0, 671),
    "reference-no-motes": (2, 0, 0, 0, 0),
    "grid4-one-walker": (2, 4, 1, 0, 652),
    "grid4-three-walkers": (6, 6, 0, 0, 1192),
    "reference-drops": (1, 2, 0, 56, 279),
}


class _DigestRecorder:
    """Stands in for a run's SHA-256 object: keeps every update and hashes
    it on."""

    def __init__(self):
        self.updates = []
        self._sha = hashlib.sha256()

    def update(self, data: bytes):
        self.updates.append(data)
        self._sha.update(data)

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def golden(request):
    """One run per scenario under check_run, its digest input recorded;
    the tests below each check one behaviour of it."""
    sim = Simulation(SCENARIOS[request.param]())
    sim._digest = recorder = _DigestRecorder()
    return request.param, sim, check_run(sim), recorder


def test_run_matches_golden(golden):
    name, _, report, _ = golden
    got = (report.digest, report.events_processed,
           hashlib.sha256(serialize_report(report).encode()).hexdigest())
    assert got == GOLDENS[name]


def test_run_exercises_its_pinned_paths(golden):
    """What the run reaches, under check_relay_paths and check_dv_tables."""
    name, sim, report, _ = golden
    dropped = sum(q.dropped for q in sim.node_queues.values())
    assert (len(report.links), check_relay_paths(sim.s, report),
            check_dv_tables(sim), dropped, report.ledger.get(
                "phy80211.signals_received_with_errors")) == EXERCISED[name]
    # in these runs the flood's relay path and the converged route that
    # check_dv_tables checks are both hop-minimal
    assert all(len(dv) == len(link.relay_path) for link, dv in zip(
        report.links, report.dv_paths) if dv is not None)


def test_report_file_roundtrip(golden):
    # the report file ends with the digest and reads back to the ledger
    report = golden[2]
    text = serialize_report(report)
    assert text.endswith(f"digest {report.digest}\n")
    assert parse_report_ledger(text).as_dict() == report.ledger.as_dict()


def test_ledger_structural_invariants_after_a_run(golden):
    # the ledger inequalities that check_run's equalities leave open
    g = golden[2].ledger.get
    assert g("net_ip.in_delivers_ttl_sum") >= g("net_ip.in_delivers")
    assert g("phy80211.signals_transmitted") <= (
        g("net_strict_prior.packets_dequeued")
        + g("net_fifo.packets_dequeued"))


def test_digest_hashes_one_line_per_event(golden):
    _, _, report, recorder = golden
    hashed = b"".join(recorder.updates)
    assert hashlib.sha256(hashed).hexdigest() == report.digest
    lines = [line.split(" ") for line in hashed.decode().split("\n")]
    assert len(lines) == report.events_processed
    seqs = [int(seq) for _, seq, _, _ in lines]
    assert len(set(seqs)) == len(seqs)
    for (t0, seq0, _, _), (t1, seq1, _, _) in zip(lines, lines[1:]):
        assert float(t0) < float(t1) or (t0 == t1 and int(seq0) < int(seq1))


def test_digest_lines_are_hashed_in_bounded_blocks():
    # a run that hashes many blocks, bursts among them: the digest is still
    # the SHA-256 of every event's line, formatted here, joined by newlines
    sim = Simulation(SCENARIOS["grid4-three-walkers"]())
    sim._digest = recorder = _DigestRecorder()
    lines, pending = [], []
    dispatch = sim._dispatch

    def recording_dispatch(ev):
        t, seq, target, payload = ev
        group = target if isinstance(target, tuple) else (target,)
        lines.extend(f"{t:.6f} {seq + i} {rx} {payload[0]}"
                     for i, rx in enumerate(group))
        dispatch(ev)
        pending.append(len(sim._lines))

    sim._dispatch = recording_dispatch
    report = sim.run()
    assert len(lines) == report.events_processed == GOLDENS[
        "grid4-three-walkers"][1]
    assert report.digest == hashlib.sha256(
        "\n".join(lines).encode()).hexdigest()
    assert len(recorder.updates) >= 5
    assert max(pending) <= HASH_BLOCK  # the buffer stays bounded


def test_every_benchmark_hook_installs(monkeypatch):
    # the benchmark's tracer wraps program names from outside; one that the
    # program no longer has would read 0 in every layer metric it feeds
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracing
    tracer = tracing.Tracer(0)
    installed = []
    try:
        installed = tracing.install(wsnhandoff, tracer)
    finally:
        tracing.uninstall(installed)
    assert tracer.unhooked == []
