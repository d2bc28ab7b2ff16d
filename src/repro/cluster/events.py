"""A small discrete-event engine for the cluster simulator.

Events are ordered by (time, priority, sequence number): ties at the same
simulated time are broken first by an explicit priority (finishes are
processed before submissions so freed GPUs are visible to the scheduler
within the same instant) and then by insertion order, which keeps runs fully
deterministic.

An :class:`Event` is a named tuple whose first three fields are that sort
key, so ``heapq`` orders events with the C tuple comparison.  Sequence
numbers are unique within a queue, so two events never tie on the key and
the payload (which may be unorderable) is never compared.
"""

from __future__ import annotations

import enum
import heapq
from typing import Any, NamedTuple, Optional

from ..errors import SimulationError

__all__ = ["EventType", "Event", "EventQueue"]


class EventType(enum.IntEnum):
    """Kinds of events processed by the simulator.

    The integer value doubles as the tie-breaking priority at equal times:
    lower values are processed first.
    """

    JOB_FINISH = 0
    JOB_SUBMIT = 1
    TICK = 3


class Event(NamedTuple):
    """One scheduled event; ``(time_h, priority, sequence)`` is its sort key."""

    time_h: float
    priority: int
    sequence: int
    event_type: EventType
    payload: Any = None


class EventQueue:
    """A heap-based future event list."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._sequence = 0  # the next pushed event's sequence number
        self._now_h = 0.0

    @property
    def now_h(self) -> float:
        """Current simulated time in hours (time of the last popped event)."""
        return self._now_h

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time_h: float, event_type: EventType, payload: Any = None) -> Event:
        """Schedule an event at ``time_h`` (must not be in the past)."""
        if time_h < self._now_h - 1e-12:
            raise SimulationError(
                f"cannot schedule an event at {time_h} before current time {self._now_h}"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(float(time_h), int(event_type), sequence, event_type, payload)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the next event, advancing the clock."""
        if not self._heap:
            raise SimulationError("pop() on an empty event queue")
        event = heapq.heappop(self._heap)
        self._now_h = event.time_h
        return event

    def peek(self) -> Optional[Event]:
        """The next event without removing it (``None`` when empty)."""
        return self._heap[0] if self._heap else None

    def peek_time(self) -> Optional[float]:
        """Time of the next event (``None`` when empty)."""
        return self._heap[0].time_h if self._heap else None

    def is_empty(self) -> bool:
        """Whether no events remain."""
        return not self._heap
