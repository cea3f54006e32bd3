"""Event queue ordering, clock discipline and the seeded random stream."""

import random

import pytest

from wsnhandoff.engine import EventQueue, PastTimeError, RngStream


def test_events_fire_in_time_then_seq_order():
    rng = random.Random(7)
    q = EventQueue()
    scheduled = []
    for _ in range(500):
        t = rng.choice([0.0, 0.5, 1.0, 2.5, rng.uniform(0, 10)])
        scheduled.append(q.schedule(t, "n", None))
    popped = [q.pop() for _ in range(500)]
    # oracle: plain sort of the scheduled events by (fire_time, seq)
    assert popped == sorted(scheduled, key=lambda e: (e[0], e[1]))


def test_equal_times_pop_in_scheduling_order():
    q = EventQueue()
    evs = [q.schedule(1.0, f"n{i}", i) for i in range(20)]
    assert [q.pop() for _ in range(20)] == evs


def test_seq_is_gapless_from_one():
    q = EventQueue()
    seqs = [q.schedule(float(i % 3), "n", None)[1] for i in range(10)]
    assert seqs == list(range(1, 11))


def test_pop_advances_clock_and_past_scheduling_is_rejected():
    q = EventQueue()
    q.schedule(5.0, "a", None)
    q.schedule(2.0, "b", None)
    _, _, target, _ = q.pop()
    assert target == "b" and q.clock == 2.0
    with pytest.raises(PastTimeError):
        q.schedule(1.9, "c", None)
    q.schedule(2.0, "c", None)  # scheduling exactly at the clock is fine


def test_run_until_processes_window_and_leaves_rest():
    q = EventQueue()
    for t in (0.5, 1.0, 1.5, 2.0, 2.5):
        q.schedule(t, "n", None)
    seen = []
    processed = q.run_until(2.0, lambda ev: seen.append(ev[0]))
    assert processed == 4
    assert seen == [0.5, 1.0, 1.5, 2.0]
    assert q.clock == 2.0
    assert len(q) == 1


def test_run_until_sets_clock_even_when_queue_drains_early():
    q = EventQueue()
    q.schedule(1.0, "n", None)
    assert q.run_until(9.0, lambda ev: None) == 1
    assert q.clock == 9.0


def test_run_until_before_the_clock_raises_and_leaves_the_queue_as_it_was():
    # a window that ends before the clock must not move the clock back: an
    # event at 3.0 could then be scheduled and fire after one at 5.0
    q = EventQueue()
    fired = []
    q.schedule(5.0, "a", None)
    q.schedule(7.0, "b", None)
    assert q.run_until(6.0, lambda ev: fired.append(ev[0])) == 1
    with pytest.raises(PastTimeError):
        q.run_until(2.0, lambda ev: fired.append(ev[0]))
    assert (q.clock, len(q), fired) == (6.0, 1, [5.0])
    with pytest.raises(PastTimeError):
        q.schedule(3.0, "c", None)
    assert q.run_until(6.0, lambda ev: fired.append(ev[0])) == 0
    assert q.run_until(8.0, lambda ev: fired.append(ev[0])) == 1
    assert fired == [5.0, 7.0]
    assert q.schedule(8.0, "d", None)[1] == 3


def test_dispatch_may_schedule_followups_inside_window():
    q = EventQueue()
    fired = []

    def dispatch(ev):
        t = ev[0]
        fired.append(t)
        if t < 3.0:
            q.schedule(t + 1.0, "n", None)

    q.schedule(0.0, "n", None)
    processed = q.run_until(10.0, dispatch)
    assert fired == [0.0, 1.0, 2.0, 3.0]
    assert processed == 4


def test_event_ordering_ignores_target_and_payload():
    q = EventQueue()
    a = q.schedule(1.0, "zzz", {"x": 1})
    b = q.schedule(1.0, "aaa", None)
    assert a == (1.0, 1, "zzz", {"x": 1}) and a < b
    assert [q.pop(), q.pop()] == [a, b]


def _reference_splitmix64(seed, n):
    # written straight from the published recurrence, independent of RngStream
    mask = (1 << 64) - 1
    out = []
    x = seed & mask
    for _ in range(n):
        x = (x + 0x9E3779B97F4A7C15) & mask
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        out.append(z)
    return out


def test_rng_matches_known_splitmix64_vectors():
    # first raw outputs for seed 0, as published for splitmix64
    assert _reference_splitmix64(0, 3) == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    r = RngStream(0)
    draws = [r.draw() for _ in range(3)]
    assert draws == [(v >> 11) / float(1 << 53)
                     for v in _reference_splitmix64(0, 3)]


def test_rng_matches_reference_for_many_seeds():
    for seed in (1, 42, 2**63, 0xDEADBEEF):
        r = RngStream(seed)
        expect = [(v >> 11) / float(1 << 53)
                  for v in _reference_splitmix64(seed, 50)]
        assert [r.draw() for _ in range(50)] == expect


def test_rng_draws_stay_in_unit_interval():
    r = RngStream(123)
    for _ in range(2000):
        v = r.draw()
        assert 0.0 <= v < 1.0


def test_rng_same_seed_same_stream_different_seed_differs():
    a = [RngStream(9).draw() for _ in range(10)]
    b = [RngStream(9).draw() for _ in range(10)]
    c = [RngStream(10).draw() for _ in range(10)]
    assert a == b
    assert a != c


def _drive(q, bursts: bool, seed: int):
    """Feed q a seeded random mix of single events and bursts, some of them
    scheduled from inside dispatch at the current clock, and run it in
    windows.  With bursts=False every burst goes in as one schedule() per
    target.  Returns the dispatched (fire_time, seq, target) sequence, each
    window's run_until count and the seq of one more event scheduled at the
    end."""
    rng = random.Random(seed)

    def add(t, targets):
        if isinstance(targets, str):
            q.schedule(t, targets, None)
        elif bursts:
            q.schedule_burst(t, targets, None)
        else:
            for target in targets:
                q.schedule(t, target, None)

    def new_targets():
        if rng.random() < 0.4:
            return f"n{rng.randrange(9)}"
        return tuple(f"n{rng.randrange(9)}" for _ in range(rng.randint(1, 6)))

    fired = []

    def dispatch(ev):
        t, seq, target, _ = ev
        group = target if isinstance(target, tuple) else (target,)
        for i, one in enumerate(group):
            fired.append((t, seq + i, one))
            if len(fired) < 300 and rng.random() < 0.3:
                add(t + rng.choice([0.0, 0.0, 0.5, 1.25]), new_targets())

    for _ in range(rng.randint(1, 12)):
        add(rng.choice([0.0, 0.5, 1.0, 1.0, 2.0, rng.uniform(0, 4)]),
            new_targets())
    counts = []
    for t_end in sorted(rng.sample([0.6, 1.0, 1.1, 2.0, 3.3], 2)) + [1e6]:
        counts.append(q.run_until(t_end, dispatch))
        with pytest.raises(PastTimeError):
            add(t_end - 0.1, ("late", "late"))
    assert len(q) == 0
    return fired, counts, q.schedule(2e6, "end", None)[1]


def test_bursts_dispatch_like_one_event_per_target():
    for seed in range(250):
        fired, counts, end_seq = _drive(EventQueue(), True, seed)
        assert (fired, counts, end_seq) == _drive(EventQueue(), False, seed)
        # gapless: every seq up to the last numbers exactly one event
        assert sorted(seq for _, seq, _ in fired) == list(range(1, end_seq))
        assert sum(counts) == len(fired)


def test_burst_takes_one_heap_entry_and_len_targets_seqs():
    q = EventQueue()
    q.schedule(1.0, "a", None)
    ev = q.schedule_burst(1.0, ("b", "c", "d"), "p")
    assert ev == (1.0, 2, ("b", "c", "d"), "p") and len(q) == 2
    assert q.schedule(1.0, "e", None)[1] == 5


def test_burst_at_the_clock_from_inside_dispatch_fires_in_the_window():
    q = EventQueue()
    fired = []

    def dispatch(ev):
        _, seq, target, _ = ev
        fired.append((seq, target))
        if target == "a":
            q.schedule_burst(q.clock, ("x", "y"), None)

    q.schedule(1.0, "a", None)
    q.schedule(1.0, "b", None)
    assert q.run_until(1.0, dispatch) == 4
    assert fired == [(1, "a"), (2, "b"), (3, ("x", "y"))]


def test_run_until_between_bursts_counts_only_the_fired_ones():
    q = EventQueue()
    q.schedule_burst(1.0, ("a", "b"), None)
    q.schedule_burst(2.0, ("c", "d", "e"), None)
    assert q.run_until(1.5, lambda ev: None) == 2
    assert len(q) == 1 and q.clock == 1.5
    assert q.run_until(3.0, lambda ev: None) == 3


def test_burst_before_the_clock_or_without_targets_is_rejected():
    q = EventQueue()
    q.schedule(2.0, "a", None)
    q.pop()
    with pytest.raises(PastTimeError):
        q.schedule_burst(1.5, ("b", "c"), None)
    with pytest.raises(ValueError):
        q.schedule_burst(2.0, (), None)
    # neither call scheduled anything or used a seq
    assert len(q) == 0
    assert q.schedule(2.0, "d", None)[1] == 2


@pytest.mark.parametrize("call", ["schedule", "schedule_burst", "run_until"])
def test_a_nan_time_is_rejected_and_changes_nothing(call):
    nan = float("nan")
    q = EventQueue()
    q.schedule(1.0, "a", None)
    q.schedule(0.0, "now", None)  # held by the lane
    with pytest.raises(PastTimeError):
        if call == "schedule":
            q.schedule(nan, "b", None)
        elif call == "schedule_burst":
            q.schedule_burst(nan, ("b", "c"), None)
        else:
            q.run_until(nan, lambda ev: None)
    # nothing was queued, no seq was used and the clock did not move
    assert (len(q), q.clock) == (2, 0.0)
    q.schedule(0.5, "c", None)
    fired = []
    assert q.run_until(2.0, lambda ev: fired.append(ev[1:3])) == 3
    assert fired == [(2, "now"), (3, "c"), (1, "a")]
    assert len(q) == 0 and q.clock == 2.0
    with pytest.raises(PastTimeError):
        q.schedule(-5.0, "d", None)
    assert q.schedule(2.0, "d", None)[1] == 4


def _oracle_mix(seed: int):
    """Drive one queue with a seeded mix of single events, bursts and
    same-instant events (scheduled inside dispatch, between run_until
    windows at q.clock, and popped between windows), and check it against
    an independent oracle: a plain sort by (fire_time, seq) of everything
    scheduled.  Returns the number of events dispatched."""
    rng = random.Random(seed)
    q = EventQueue()
    scheduled = []      # (fire_time, seq, target): one per event
    pending = set()     # seqs of the queued entries, one per burst
    fired = []

    def add(t):
        if rng.random() < 0.25:
            targets = tuple(f"n{rng.randrange(9)}"
                            for _ in range(rng.randint(1, 5)))
            t, seq, _, _ = q.schedule_burst(t, targets, None)
        else:
            targets = (f"n{rng.randrange(9)}",)
            t, seq, _, _ = q.schedule(t, targets[0], None)
        scheduled.extend((t, seq + i, one) for i, one in enumerate(targets))
        pending.add(seq)

    def take(ev):
        t, seq, target, _ = ev
        assert t == q.clock
        pending.remove(seq)
        group = target if isinstance(target, tuple) else (target,)
        fired.extend((t, seq + i, one) for i, one in enumerate(group))

    def dispatch(ev):
        take(ev)
        if len(fired) < 400:
            for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
                add(q.clock + rng.choice([0.0, 0.0, 0.0, 0.25, 1.0]))

    for _ in range(rng.randint(1, 10)):
        add(rng.choice([0.0, 0.0, 0.5, 1.0, rng.uniform(0, 4)]))
    for t_end in sorted(rng.sample([0.0, 0.5, 0.6, 1.0, 2.0, 3.3], 3)):
        t_end = max(t_end, q.clock)  # a pop() may have moved the clock
        before = len(fired)
        assert q.run_until(t_end, dispatch) == len(fired) - before
        assert len(q) == len(pending)
        for _ in range(rng.randint(0, 3)):
            add(q.clock)  # at the clock, between windows
        if len(q) and rng.random() < 0.5:
            take(q.pop())
            assert len(q) == len(pending)
    before = len(fired)
    assert q.run_until(1e6, dispatch) == len(fired) - before
    assert len(q) == 0 and not pending
    assert fired == sorted(scheduled)  # targets never decide: seqs differ
    # gapless: every seq up to the last numbers exactly one event
    seqs = sorted(seq for _, seq, _ in fired)
    assert seqs == list(range(1, q.schedule(2e6, "end")[1]))
    return len(fired)


def test_the_same_instant_lane_keeps_time_then_seq_order():
    dispatched = [_oracle_mix(seed) for seed in range(300)]
    assert sum(dispatched) > 300 * 20
