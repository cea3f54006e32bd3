"""Deterministic discrete-event core: event queue, clock, seeded random stream.

Every moving part of the simulator runs through this module.  Two runs with
the same inputs must dispatch the exact same event sequence, so ordering is
fully specified: events fire in ascending (fire_time, seq) order, where seq
is the global scheduling counter.  An event is the plain tuple (fire_time,
seq, target, payload); tuples compare in C, and seq is unique per queue, so
target and payload are never compared.

An event scheduled at the clock goes onto a FIFO lane, not the heap: events
due now need no priority-queue work.  The clock cannot pass an event the
lane holds, and the lane's seqs increase, so the next event is the smaller
of the lane head and the heap top by (fire_time, seq).

A burst is k events that share one fire time, kept as one heap entry: its
target is the tuple of the k targets and it holds the seqs seq .. seq+k-1.
Nothing can sort between those seqs, so dispatching the burst once, for its
targets in order, is the same sequence as k separate events.
"""

import heapq
from collections import deque
from typing import Any, Callable


class PastTimeError(ValueError):
    """Raised for a time before the current clock, or a NaN time."""


class EventQueue:
    """A min-heap and a same-instant lane of events keyed by (fire_time, seq).

    seq starts at 1 and increases by 1 per event scheduled, so ties on
    fire_time always resolve in scheduling order and the dispatch sequence
    is reproducible byte for byte.  Time checks read `not (t >= clock)`,
    which rejects NaN too.
    """

    def __init__(self):
        self._heap = []
        self._now = deque()   # events at the clock, in seq order
        self._next_seq = 1
        self.clock = 0.0

    def __len__(self):
        return len(self._heap) + len(self._now)

    def schedule(self, fire_time: float, target: str, payload: Any = None) -> tuple:
        if not (fire_time >= self.clock):
            raise PastTimeError(
                f"cannot schedule at {fire_time} before clock {self.clock}")
        ev = (fire_time, self._next_seq, target, payload)
        self._next_seq += 1
        if fire_time == self.clock:
            self._now.append(ev)
        else:
            heapq.heappush(self._heap, ev)
        return ev

    def schedule_burst(self, fire_time: float, targets: tuple,
                       payload: Any) -> tuple:
        """Schedule one event per target at fire_time as a single heap entry
        whose target is `targets`, taking the next len(targets) seqs.  An
        empty `targets` raises ValueError: a burst stands for at least one
        event."""
        if not (fire_time >= self.clock):
            raise PastTimeError(
                f"cannot schedule at {fire_time} before clock {self.clock}")
        if not targets:
            raise ValueError("a burst needs at least one target")
        ev = (fire_time, self._next_seq, targets, payload)
        self._next_seq += len(targets)
        heapq.heappush(self._heap, ev)
        return ev

    def _pending(self) -> int:
        """Events queued, counting a burst once per target."""
        return len(self) + sum(len(ev[2]) - 1 for ev in self._heap
                               if ev[2].__class__ is tuple)

    def pop(self) -> tuple:
        now, heap = self._now, self._heap
        if now and not (heap and heap[0] < now[0]):
            return now.popleft()  # at the clock already
        ev = heapq.heappop(heap)
        self.clock = ev[0]
        return ev

    def run_until(self, t_end: float, dispatch: Callable[[tuple], None]) -> int:
        """Dispatch every event with fire_time <= t_end, in order.

        Returns the number of events processed, a burst counting once per
        target.  Every seq numbers one event, so that is the events pending
        at the start plus the seqs taken during the run, less the events
        still pending, and the loop pays nothing per event to count.  The
        clock ends at t_end even when the queue drains early.  A t_end
        before the clock raises PastTimeError and changes nothing.
        """
        if not (t_end >= self.clock):
            raise PastTimeError(
                f"cannot run until {t_end} before clock {self.clock}")
        before = self._pending() - self._next_seq
        heap, now = self._heap, self._now
        heappop, popleft = heapq.heappop, now.popleft
        # the body of pop(), inlined; a lane event is never after t_end
        while now or (heap and heap[0][0] <= t_end):
            if now and not (heap and heap[0] < now[0]):
                dispatch(popleft())
            else:
                ev = heappop(heap)
                self.clock = ev[0]
                dispatch(ev)
        self.clock = t_end
        return before + self._next_seq - self._pending()


MASK64 = (1 << 64) - 1


class RngStream:
    """Seeded splitmix64 stream producing floats in [0, 1).

    The generator is spelled out so any implementation can reproduce it
    draw for draw:

        state = (state + 0x9E3779B97F4A7C15) mod 2^64
        z = state
        z = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
        z = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
        z = z XOR (z >> 31)
        draw = (z >> 11) / 2^53

    Each draw() advances the state exactly once.
    """

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def draw(self) -> float:
        self._state = z = (self._state + 0x9E3779B97F4A7C15) & MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return ((z ^ (z >> 31)) >> 11) / float(1 << 53)
