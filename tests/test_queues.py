"""FIFO and strict-priority queues against a naive reference model."""

import random
from collections import deque
from types import SimpleNamespace

import pytest

from wsnhandoff.queues import (DEFAULT_CAPACITY, PRIORITY_CLASSES,
                               FifoQueue, StrictPriorityQueue)
from wsnhandoff.simulation import Frame


def _pkt(pid, cls=0, size=64):
    """A stand-in item: the queues read only its priority_class."""
    return SimpleNamespace(packet_id=pid, priority_class=cls, size=size)


def test_fifo_order_and_counters():
    q = FifoQueue(capacity=10)
    for i in range(5):
        assert q.enqueue(_pkt(i)) is True
    assert [q.dequeue().packet_id for _ in range(5)] == [0, 1, 2, 3, 4]
    assert q.dequeue() is None
    assert (q.queued, q.dequeued, q.dropped, q.peak_size) == (5, 5, 0, 5)


def test_fifo_tail_drop_counts_the_attempt():
    q = FifoQueue(capacity=2)
    q.enqueue(_pkt(1))
    q.enqueue(_pkt(2))
    assert q.enqueue(_pkt(3)) is False
    assert q.queued == 3 and q.dropped == 1 and len(q) == 2
    # the dropped packet never surfaces
    assert [q.dequeue().packet_id, q.dequeue().packet_id] == [1, 2]


def test_fifo_capacity_validation():
    with pytest.raises(ValueError):
        FifoQueue(capacity=0)


def test_strict_priority_lower_class_always_first():
    q = StrictPriorityQueue()
    q.enqueue(_pkt(1, cls=2))
    q.enqueue(_pkt(2, cls=1))
    q.enqueue(_pkt(3, cls=0))
    q.enqueue(_pkt(4, cls=1))
    order = [q.dequeue().packet_id for _ in range(4)]
    assert order == [3, 2, 4, 1]
    assert q.dequeue() is None


def test_strict_priority_capacity_is_per_class():
    q = StrictPriorityQueue(capacity_per_class=1)
    assert q.enqueue(_pkt(1, cls=0)) is True
    assert q.enqueue(_pkt(2, cls=0)) is False
    assert q.enqueue(_pkt(3, cls=1)) is True
    assert q.queued == 3 and q.dropped == 1 and len(q) == 2


def test_default_capacity():
    q = FifoQueue()
    assert q.capacity == DEFAULT_CAPACITY == 50


def test_fifo_random_trace_conservation():
    rng = random.Random(404)
    q = FifoQueue(capacity=3)
    shadow = []
    for op in range(1000):
        if rng.random() < 0.55:
            pkt = _pkt(op)
            if q.enqueue(pkt) is True:
                shadow.append(pkt)
        else:
            assert q.dequeue() == (shadow.pop(0) if shadow else None)
        assert q.queued == q.dequeued + q.dropped + len(q)
        assert len(q) == len(shadow)


def test_queues_hold_any_item_with_a_priority_class():
    """Strict-priority order, FIFO order within a class and len() through
    interleaved enqueues, dequeues and tail drops, for any item with a
    priority_class.  Dequeues must hand back the very objects enqueued."""
    rng = random.Random(31)
    prio, fifo = StrictPriorityQueue(capacity_per_class=4), FifoQueue(6)
    lanes, shadow = [deque() for _ in range(PRIORITY_CLASSES)], deque()
    for i in range(3000):
        if rng.random() < 0.55:
            item = SimpleNamespace(priority_class=rng.randrange(
                PRIORITY_CLASSES), i=i)
            lane = lanes[item.priority_class]
            accepted = prio.enqueue(item)
            assert accepted is (len(lane) < 4)
            if accepted:
                lane.append(item)
            accepted = fifo.enqueue(item)
            assert accepted is (len(shadow) < 6)
            if accepted:
                shadow.append(item)
        else:
            want = next((lane.popleft() for lane in lanes if lane), None)
            assert prio.dequeue() is want
            assert fifo.dequeue() is (shadow.popleft() if shadow else None)
        assert len(prio) == sum(map(len, lanes))
        assert len(fifo) == len(shadow)
    assert prio.dropped > 0 and fifo.dropped > 0
    assert prio.queued == prio.dequeued + prio.dropped + len(prio)
    assert fifo.queued == fifo.dequeued + fifo.dropped + len(fifo)


def test_a_fifo_queue_holds_the_simulators_frames():
    """FIFO order and len() through interleaved enqueues, dequeues and tail
    drops of the simulator's frames, which carry no priority class.
    Dequeues must hand back the very objects enqueued."""
    rng = random.Random(31)
    fifo, shadow = FifoQueue(6), deque()
    for i in range(3000):
        if rng.random() < 0.55:
            item = Frame("dv", f"n{i}")
            accepted = fifo.enqueue(item)
            assert accepted is (len(shadow) < 6)
            if accepted:
                shadow.append(item)
        else:
            assert fifo.dequeue() is (shadow.popleft() if shadow else None)
        assert len(fifo) == len(shadow)
    assert fifo.dropped > 0
    assert fifo.queued == fifo.dequeued + fifo.dropped + len(fifo)


@pytest.mark.parametrize("capacity", range(1, 6))
def test_a_fifo_queue_matches_a_strict_priority_queue_fed_one_class(
        capacity):
    """Motes offer only control-class frames, so the FifoQueue each mote
    runs must behave as a StrictPriorityQueue of the same capacity per
    class: the same result for every offer, the very same item from every
    dequeue, and the same len() and four counters after every step of a
    seeded mix that alternates offer-heavy and dequeue-heavy phases."""
    rng = random.Random(capacity)
    prio, fifo = StrictPriorityQueue(capacity), FifoQueue(capacity)
    empty_dequeues = 0
    for i in range(2000):
        if rng.random() < (0.8 if i // 50 % 2 else 0.2):
            item = SimpleNamespace(priority_class=0, i=i)
            assert prio.enqueue(item) is fifo.enqueue(item)
        else:
            got = fifo.dequeue()
            assert prio.dequeue() is got
            empty_dequeues += got is None
        assert len(prio) == len(fifo)
        assert ((prio.queued, prio.dequeued, prio.dropped, prio.peak_size)
                == (fifo.queued, fifo.dequeued, fifo.dropped, fifo.peak_size))
    assert fifo.dropped > 0 and empty_dequeues > 0
    assert fifo.peak_size == capacity
