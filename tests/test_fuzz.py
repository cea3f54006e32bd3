"""Seeded mutation fuzz of the scenario text format, and seeded corruption
of scenarios built in code.

Mutants of the three benchmark workload texts and of the README example
must either load or raise ParseError/ValidationError.  Corruptions of the
reference scenario must either build or raise ValidationError, with at
most one problem per value.  Every mutant or corruption that is accepted
must round-trip through serialize_scenario and finish a short run, bounded
in-process by SIGALRM.

`corrupted_scenario` and `check_corrupted` take only a seed, so a longer
sweep can import them from this file:

    PYTHONPATH=src:tests python3 -c "from test_fuzz import check_corrupted
    for seed in range(20_000): check_corrupted(seed)"
"""

import dataclasses
import hashlib
import importlib.util
import random
import re
import signal
from pathlib import Path

import pytest
from worlds import readme_scenario

from wsnhandoff.scenario import (DEFAULT_PROFILES, ParseError, Scenario,
                                 SimParams, ValidationError, load_scenario,
                                 reference_scenario, serialize_scenario)
from wsnhandoff.simulation import run
from wsnhandoff.world import NodeKind, Point

# Mutants per text, 300 in all.  A mesh-dv run costs about 1 s whatever its
# length (its first route adverts cascade over 100 motes), so the small
# README example, whose mutants reach every section, gets the most.
MUTANTS = {"mesh-dv": 8, "handoff-storm": 24, "uplink-stream": 30,
           "README": 238}
RUN_SECONDS = 40.0  # long enough for a handoff in every unmutated text
TIMEOUT_S = 10      # wall-clock bound of each run

NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e-?\d+)?")
# 1e-17 and 1e-320 are periods that cannot move the clock at t = 90.  No
# value here is a legal period small enough to make a run long, since the
# event count grows with duration over the smallest period.
ODD_NUMBERS = ["0", "-0", "-1", "0.5", "3", "7.25", "99999", "1e-17",
               "1e-320", "1e308", "-1e308", "nan", "inf", "1 0", "0x10"]
PARAM_KEYS = ["duration", "seed", *SimParams._fields]
ODD_CHARS = " \t=#[],;.-e0123456789xk\n"


def _seed_texts() -> dict:
    """The workload texts at seed 1, read from the benchmark's generators,
    and the README example."""
    path = Path(__file__).resolve().parent.parent / "perfbench/workloads.py"
    spec = importlib.util.spec_from_file_location("_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    texts = {name: gen(1) for name, gen in workloads.GENERATORS.items()}
    return {**texts, "README": readme_scenario()}


def _mutate(text: str, rng: random.Random) -> str:
    """One to three edits: a number swapped for an odd one, a `[params]`
    line with an odd value added, a character deleted or inserted, or a line
    deleted, duplicated or swapped."""
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(7)
        if op == 0:
            spans = [m.span() for m in NUMBER.finditer(text)]
            a, b = rng.choice(spans)
            text = text[:a] + rng.choice(ODD_NUMBERS) + text[b:]
        elif op == 1 and "[params]\n" in text:
            line = f"{rng.choice(PARAM_KEYS)} = {rng.choice(ODD_NUMBERS)}"
            text = text.replace("[params]\n", f"[params]\n{line}\n", 1)
        elif op in (2, 3):
            i = rng.randrange(len(text))
            text = (text[:i] + text[i + 1:] if op == 2 else
                    text[:i] + rng.choice(ODD_CHARS) + text[i:])
        elif op in (4, 5, 6):
            lines = text.splitlines()
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            if op == 4:
                del lines[i]
            elif op == 5:
                lines.insert(j, lines[i])
            else:
                lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines) + "\n"
    return text


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def _short_run(s, seconds=RUN_SECONDS):
    """Run `s` for at most `seconds` of simulated time.  A valid scenario
    runs to its end, so any exception fails the caller."""
    signal.alarm(TIMEOUT_S)
    try:
        run(dataclasses.replace(s, duration=min(s.duration, seconds)))
    finally:
        signal.alarm(0)


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_mutated_scenarios_load_or_are_rejected_and_loaded_ones_run():
    rng = random.Random(20240605)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    loaded = rejected = 0
    try:
        for name, seed_text in _seed_texts().items():
            for _ in range(MUTANTS[name]):
                text = _mutate(seed_text, rng)
                try:
                    s = load_scenario(text)
                except (ParseError, ValidationError):
                    rejected += 1
                    continue
                assert load_scenario(serialize_scenario(s)) == s, text
                try:
                    _short_run(s)
                except _Timeout:
                    pytest.fail(f"run exceeded {TIMEOUT_S} s:\n{text}")
                loaded += 1
    finally:
        signal.signal(signal.SIGALRM, previous)
    # both outcomes must be exercised for the fuzz to mean anything
    assert loaded >= 50 and rejected >= 50, (loaded, rejected)


# Values a scenario built in code may carry: nan and infinities, ints too
# large for a float, numbers out of range, values that are not numbers or
# not ints, a float on the edge of overflow, and plain valid numbers.
CORRUPT_VALUES = [float("nan"), float("inf"), float("-inf"), 10**400,
                  -10**400, -1, 0, 1e-320, 2.5, "1", None, True, 1e308, 3]
CORRUPT_NAMES = ["duration", "seed", *SimParams._fields]
# Ids that a `[node]` line could not read back as themselves.
BAD_IDS = [7, "", "#x", "a#b", "[node]", "x y"]
CORRUPTIONS = 1000  # seeds swept in tier-1
CORRUPT_RUN_S = 5.0  # simulated seconds of each accepted corruption's run
PROBLEM_NAME = re.compile(r"(.*?) (?:must be|is too small)")
# SHA-256 of repr((seed, outcome)) for seeds 0..CORRUPTIONS-1, where the
# outcome is check_corrupted's: an accepted text or a rejection's problems.
CORRUPTION_OUTCOMES = ("73ae62e16d716bbc87ee6941d91359f0"
                       "6345bb67f766396d9bc1c68e71d88d0f")


def corrupted_scenario(seed: int):
    """The reference scenario with one to three of `duration`, `seed` and
    the SimParams fields, and one time in four m05's x, set to values drawn
    from CORRUPT_VALUES.  Then, one time in four, its nodes are shuffled
    (building sorts them back), and one time in eight msc1 is given a
    radio profile.  Last, one time in eight each, ms1's speed or halt is
    drawn from CORRUPT_VALUES or its waypoints emptied, and a node's
    error_margin_db or path_loss_exponent is drawn from CORRUPT_VALUES; one
    time in sixteen a node gets a bad id."""
    rng = random.Random(seed)
    ref = reference_scenario()
    names = rng.sample(CORRUPT_NAMES, rng.randint(1, 3))
    change = {name: rng.choice(CORRUPT_VALUES) for name in names}
    top = {"duration": ref.duration, "seed": ref.seed,
           **{name: change.pop(name) for name in ("duration", "seed")
              if name in change}}
    nodes, mobility = ref.nodes, ref.mobility
    if rng.random() < 0.25:
        x = rng.choice(CORRUPT_VALUES)
        nodes = tuple(n._replace(position=Point(x, n.position.y))
                      if n.node_id == "m05" else n for n in nodes)
    if rng.random() < 0.25:
        # drawn, then sorted back by id, as building the scenario would
        nodes = tuple(sorted(rng.sample(nodes, len(nodes)),
                             key=lambda n: n.node_id))
    if rng.random() < 0.125:
        nodes = tuple(
            n._replace(profile=DEFAULT_PROFILES[NodeKind.BASE_STATION])
            if n.node_id == "msc1" else n for n in nodes)
    if rng.random() < 0.125:
        field = rng.choice(["speed", "halt_fraction", "waypoints"])
        value = () if field == "waypoints" else rng.choice(CORRUPT_VALUES)
        mobility = {**mobility,
                    "ms1": mobility["ms1"]._replace(**{field: value})}
    if rng.random() < 0.125:
        node = rng.choice([n for n in nodes if n.kind is not NodeKind.MSC])
        field = rng.choice(["error_margin_db", "path_loss_exponent"])
        profile = node.profile._replace(**{
            field: rng.choice(CORRUPT_VALUES)})
        nodes = tuple(n._replace(profile=profile) if n is node else n
                      for n in nodes)
    if rng.random() < 0.0625:
        node = rng.choice(nodes)
        nodes = tuple(n._replace(node_id=rng.choice(BAD_IDS))
                      if n is node else n for n in nodes)
    return Scenario(nodes, mobility, params=SimParams(**change), **top)


def check_corrupted(seed: int):
    """Build corrupted_scenario(seed).  A rejection must be a
    ValidationError naming no value twice; an accepted scenario must
    round-trip through its text.  Returns the accepted scenario, or None,
    and the outcome: the accepted text, or the rejection's problems."""
    try:
        s = corrupted_scenario(seed)
    except ValidationError as e:
        names = [m.group(1) for m in map(PROBLEM_NAME.match, e.problems)
                 if m]
        assert len(names) == len(set(names)), (seed, e.problems)
        return None, e.problems
    text = serialize_scenario(s)
    assert load_scenario(text) == s, seed
    return s, text


@pytest.fixture(scope="module")
def corruptions():
    """check_corrupted of seeds 0..CORRUPTIONS-1, in seed order, built once
    for the tests that read them."""
    return [check_corrupted(seed) for seed in range(CORRUPTIONS)]


def test_corruption_outcomes_are_pinned(corruptions):
    digest = hashlib.sha256()
    for seed, (_, outcome) in enumerate(corruptions):
        digest.update(repr((seed, outcome)).encode())
    assert digest.hexdigest() == CORRUPTION_OUTCOMES


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_corrupted_scenarios_built_in_code_are_rejected_or_run(corruptions):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    accepted = []
    try:
        for seed, (s, _) in enumerate(corruptions):
            if s is not None:
                try:
                    _short_run(s, CORRUPT_RUN_S)
                except _Timeout:
                    pytest.fail(f"run of corruption {seed} exceeded "
                                f"{TIMEOUT_S} s")
                accepted.append(seed)
    finally:
        signal.signal(signal.SIGALRM, previous)
    # both outcomes must be exercised for the sweep to mean anything
    assert 50 <= len(accepted) <= CORRUPTIONS - 50, len(accepted)
