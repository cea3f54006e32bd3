"""The seeded worlds the tests share, pinned.

Each pin is the SHA-256 of every world one generator of `worlds.py` draws
for the seeds and arguments the suite uses, in the suite's draw order, as
`serialize_scenario` writes it (a graph as its sorted adjacency).  A change
to a generator, or to how a test draws from it, changes what existing tests
check, and shows here first.  The graphs of test_routing.py's two lockstep
tests are not pinned: those tests draw between graphs.
"""

import hashlib
import random

import pytest
from worlds import (DISCOVERY_FROM_A_MOTE_POINT, crossing_world, grid_world,
                    line_world, random_graph, random_walk_world,
                    readme_scenario, satellite_free_crossing_world,
                    timed_world, unit_disk_world)

from wsnhandoff.scenario import serialize_scenario
from wsnhandoff.world import Point


def _seeded(seed, count, draw):
    rng = random.Random(seed)
    return [draw(rng) for _ in range(count)]


def _walk_then_ttl(rng):
    world = random_walk_world(rng)
    rng.randint(1, 6)  # the relay-path test's TTL, drawn between worlds
    return world


DRAWS = {
    "unit-disk": lambda: (
        _seeded(90125, 25, lambda rng: unit_disk_world(rng,
                                                       rng.randint(0, 20)))
        + _seeded(777, 6, lambda rng: unit_disk_world(rng, 14))
        + _seeded(20260815, 50, lambda rng: unit_disk_world(
            rng, rng.randint(0, 20), rng.choice([300.0, 450.0, 600.0])))),
    "line": lambda: ([line_world(n, 4) for n in (16, 17)]
                     + [line_world(n, 9) for n in (16, 17, 3, 5)]),
    "random-walk": lambda: (_seeded(31337, 30, _walk_then_ttl)
                            + _seeded(4242, 40, random_walk_world)
                            + _seeded(4343, 40, random_walk_world)),
    "timed": lambda: [timed_world(seed) for seed in (
        65, 628, 832, 1072, 1273, 2670, 4868, 5184, 7252)],
    "crossing": lambda: [crossing_world(walkers) for walkers in (
        [("ms1", Point(0.0, 0.0), Point(1024.0, 0.0))],
        [("ms1", Point(0.0, -64.0), Point(1024.0, -64.0)),
         ("ms2", Point(64.0, -128.0), Point(64.0, 896.0))],
        [("ms1", Point(0.0, 436.0), Point(0.0, 1460.0))],
        [("ms1", Point(0.0, 836.0), Point(0.0, 1860.0))])],
    "satellite-free-crossing": lambda: [
        satellite_free_crossing_world(seed) for seed in range(30)],
    "grid": lambda: [grid_world(4, [
        (f"ms{i + 1}", 190.0 - 7 * i, 8.0 + 0.25 * i) for i in range(n)])
        for n in (1, 3, 16)],
    "random-graph": lambda: (
        _seeded(1234, 40, random_graph)
        + _seeded(77, 10, lambda rng: random_graph(rng, 8))
        + _seeded(31, 15, random_graph) + _seeded(5150, 30, random_graph)),
    "text": lambda: [DISCOVERY_FROM_A_MOTE_POINT.format(mx_x=x)
                     for x in (455, 456)] + [readme_scenario()],
}

PINS = {
    "unit-disk":
        "afbfeb8ba1b593a6714a24a800cbfdba5caada13f151ad10daf4a67d44ba8a6a",
    "line":
        "36f776e3aabda611212d5d30ad1641b955b74ce6472fd4df3a926f8c89b219bf",
    "random-walk":
        "50559e65ccfc0af6bd2ed63b8b34c8849f302b5f5a9200dfbd6131cb6da41ba4",
    "timed":
        "9ace129efbd4df3b58f00d82cc81cb79e9121143b55f9a3712aae2bf4e54a7fb",
    "crossing":
        "4f127b9c82d54ed7bb5f41fd8d37d3b9e0a7e992c6b081e3d445214c38012cf7",
    "satellite-free-crossing":
        "4a2733a0dd79c7597b46137a273b3d78279f532199c99034f213c5f02abc37f4",
    "grid":
        "c5d2e6b61653b71e199472c76330499172e40c378d661676e35648a4295cb679",
    "random-graph":
        "bef2eede1c636744ccdaff5d00c32592d4a811bd4cbd047734791e42ee04473b",
    "text":
        "e8abd93da74aa132e632013edfb298b552cb15fb6e94f953426c2c58fea5e705",
}


def _text(world) -> str:
    """A world as hashed: a text or None as itself, a graph as its sorted
    adjacency, a (scenario, mote) pair as the scenario's text and the mote,
    each ended by a NUL."""
    if world is None or isinstance(world, str):
        text = str(world)
    elif isinstance(world, dict):
        text = repr(sorted((n, sorted(nbs)) for n, nbs in world.items()))
    elif isinstance(world, tuple):
        return _text(world[0]) + _text(world[1])
    else:
        text = serialize_scenario(world)
    return text + "\0"


@pytest.mark.parametrize("family", sorted(DRAWS))
def test_the_suites_worlds_are_the_pinned_ones(family):
    digest = hashlib.sha256()
    for world in DRAWS[family]():
        digest.update(_text(world).encode())
    assert digest.hexdigest() == PINS[family]
