"""Seeded mutation fuzz of the scenario text format.

Mutants of the three benchmark workload texts and of the README example
must either load or raise ParseError/ValidationError.  Every mutant that
loads must round-trip through serialize_scenario and finish a short run,
bounded in-process by SIGALRM.
"""

import dataclasses
import importlib.util
import random
import re
import signal
from pathlib import Path

import pytest

from test_scenario import _readme_scenario
from wsnhandoff.protocol import NoSatelliteError
from wsnhandoff.scenario import (_PARAM_NAMES, ParseError, ValidationError,
                                 load_scenario, serialize_scenario)
from wsnhandoff.simulation import run
from wsnhandoff.world import CoLocatedError

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
PARAM_KEYS = ["duration", "seed", *_PARAM_NAMES]
ODD_CHARS = " \t=#[],;.-e0123456789xk\n"


def _seed_texts() -> dict:
    """The workload texts at seed 1, read from the benchmark's generators,
    and the README example."""
    path = Path(__file__).resolve().parent.parent / "perfbench/workloads.py"
    spec = importlib.util.spec_from_file_location("_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    texts = {name: gen(1) for name, gen in workloads.GENERATORS.items()}
    return {**texts, "README": _readme_scenario()}


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


def _short_run(s):
    """Run `s` for at most RUN_SECONDS of simulated time.  CoLocatedError
    and NoSatelliteError are the run's own documented failures."""
    signal.alarm(TIMEOUT_S)
    try:
        run(dataclasses.replace(s, duration=min(s.duration, RUN_SECONDS)))
    except (CoLocatedError, NoSatelliteError):
        pass
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
