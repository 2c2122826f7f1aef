"""Jobs: units of work submitted to the super scheduler."""

from __future__ import annotations

from enum import Enum
from itertools import count

_job_ids = count()


class JobState(Enum):
    """Lifecycle of a job.

    PENDING -> QUEUED -> DISPATCHED -> RUNNING -> COMPLETED
    """

    PENDING = "pending"
    QUEUED = "queued"
    DISPATCHED = "dispatched"
    RUNNING = "running"
    COMPLETED = "completed"


#: The states a job moves through, bound once: an enum member read
#: through its class costs a metaclass lookup on every transition.
_PENDING = JobState.PENDING
_QUEUED = JobState.QUEUED
_DISPATCHED = JobState.DISPATCHED
_RUNNING = JobState.RUNNING
_COMPLETED = JobState.COMPLETED


class Job:
    """One application run with its timing record.

    The paper's response-time metric is "the waiting time to get
    processors allocated plus the execution time", i.e.
    ``completed_at - submitted_at`` for batch jobs submitted together.
    """

    def __init__(self, application, size_class=None, name=None):
        self.job_id = next(_job_ids)
        #: The workload object (an Application) this job executes.
        self.application = application
        #: "small" / "large" (or None) — for per-class reporting.
        self.size_class = size_class
        self.name = name or f"job{self.job_id}"
        self.state = _PENDING
        self.submitted_at = None
        self.dispatched_at = None
        self.started_at = None
        self.completed_at = None
        #: Partition the job ran in (set at dispatch).
        self.partition = None
        #: Number of processes the job created (set at launch).
        self.num_processes = None
        #: Optional ``fn(job, event_name, now)`` hook for tracing.
        self.on_transition = None

    # -- timing ------------------------------------------------------------
    @property
    def response_time(self):
        """Waiting time for processors plus execution time."""
        if self.completed_at is None or self.submitted_at is None:
            return None
        return self.completed_at - self.submitted_at

    @property
    def wait_time(self):
        """Time between submission and first execution."""
        if self.started_at is None or self.submitted_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def execution_time(self):
        if self.completed_at is None or self.started_at is None:
            return None
        return self.completed_at - self.started_at

    # -- state transitions ----------------------------------------------
    # Each transition tests the tracing hook itself: four per job, on
    # the path every job takes, so no shared helper call.
    def mark_submitted(self, now):
        self.submitted_at = now
        self.state = _QUEUED
        if self.on_transition is not None:
            self.on_transition(self, "submitted", now)

    def mark_dispatched(self, now, partition):
        self.dispatched_at = now
        self.partition = partition
        self.state = _DISPATCHED
        if self.on_transition is not None:
            self.on_transition(self, "dispatched", now)

    def mark_started(self, now):
        if self.started_at is None:
            self.started_at = now
        self.state = _RUNNING
        if self.on_transition is not None:
            self.on_transition(self, "started", now)

    def mark_completed(self, now):
        self.completed_at = now
        self.state = _COMPLETED
        if self.on_transition is not None:
            self.on_transition(self, "completed", now)

    def __repr__(self):
        return (f"<Job {self.name} ({self.size_class}) "
                f"state={self.state.value}>")
