"""Network-layer queues: a bounded FIFO, and FIFOs under a strict priority.

The strict-priority queue reads only an item's `priority_class` (below
PRIORITY_CLASSES); the FIFO reads nothing, and holds the simulator's frames.

Counter convention: `queued` counts every enqueue attempt (accepted or
dropped), so at any instant

    queued == dequeued + dropped + len(queue)

holds for both queue types.
"""

from collections import deque

PRIORITY_CLASSES = 3
DEFAULT_CAPACITY = 50


class FifoQueue:
    """Bounded FIFO over the deque `items`, with tail drop and counters."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.items = deque()
        self.queued = 0
        self.dequeued = 0
        self.dropped = 0
        self.peak_size = 0

    def __len__(self):
        return len(self.items)

    def enqueue(self, item) -> bool:
        self.queued += 1
        size = len(self.items)
        if size >= self.capacity:
            self.dropped += 1
            return False
        self.items.append(item)
        if size >= self.peak_size:
            self.peak_size = size + 1
        return True

    def dequeue(self):
        if not self.items:
            return None
        self.dequeued += 1
        return self.items.popleft()


class StrictPriorityQueue:
    """One FifoQueue per priority class; class 0 always drains first."""

    def __init__(self, capacity_per_class: int = DEFAULT_CAPACITY):
        self.classes = [FifoQueue(capacity_per_class)
                        for _ in range(PRIORITY_CLASSES)]
        self._lanes = [q.items for q in self.classes]

    def __len__(self):
        return sum(map(len, self._lanes))  # no Python-level call per lane

    def enqueue(self, item) -> bool:
        return self.classes[item.priority_class].enqueue(item)

    def dequeue(self):
        for q in self.classes:
            if q.items:
                return q.dequeue()
        return None

    queued = property(lambda self: sum(q.queued for q in self.classes))
    dequeued = property(lambda self: sum(q.dequeued for q in self.classes))
    dropped = property(lambda self: sum(q.dropped for q in self.classes))
    peak_size = property(lambda self: max(q.peak_size for q in self.classes))
