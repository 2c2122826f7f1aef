"""The super scheduler: global ready queue and job dispatch.

Dispatch follows the paper's implementation:

- **Static space-sharing** — jobs wait in a global FCFS queue; whenever
  a partition is free the queue head is dispatched to it and runs to
  completion there.
- **Time-shared policies (hybrid / pure TS)** — "all 16 jobs in a batch
  are distributed equitably among the partitions": submission round-
  robins jobs over the partitions immediately, which fixes each
  partition's multiprogramming level at batch_size / num_partitions.
- **Dynamic space-sharing (extension)** — the queue head receives a
  freshly formed partition sized from the current load; its processors
  return to the free pool at completion.
"""

from __future__ import annotations

from collections import deque

from repro.core.partition import Partition
from repro.core.partition_scheduler import PartitionScheduler
from repro.sim import Event


class SuperScheduler:
    """System-wide scheduler sitting above the partition schedulers."""

    def __init__(self, env, policy, config, partitions=None,
                 dynamic_pool=None, topology_name=None,
                 system_config=None, host_link=None):
        """
        Parameters
        ----------
        partitions: pre-built partitions (static / time-shared policies).
        dynamic_pool: mapping node_id -> TransputerNode of free
            processors (dynamic policy only).
        topology_name / system_config: needed to build partitions on the
            fly under the dynamic policy.
        """
        self.env = env
        #: Decision ledger and telemetry instruments bound at
        #: construction (both are attached in ``system.build()`` before
        #: schedulers exist); None when off.
        self._led = getattr(env, "decisions", None)
        tel = env.telemetry
        self._probe = _SuperProbe(tel.metrics) if tel is not None else None
        self.policy = policy
        #: The policy's queue discipline, bound once (static policies).
        self._select = getattr(policy, "select_next", None)
        self.config = config
        self.partitions = list(partitions or [])
        self.ready_queue = deque()
        self.jobs = []
        #: Keep a reference to every submitted job in :attr:`jobs`.
        #: Streaming open-system runs switch this off so a 10⁷-job run
        #: holds no per-job list (the counters below still track totals).
        self.collect_jobs = True
        self._completed = 0
        self._submitted = 0
        self._rr_next = 0
        #: Event that fires when every submitted job has completed.
        self.all_done = Event(env)
        #: Total jobs expected over the run (set by open-system mode so
        #: all_done does not fire between arrivals; ``math.inf`` while
        #: an arrival stream is still feeding); None = whatever has
        #: been submitted so far.
        self.expected_jobs = None
        #: Callables ``fn(job)`` invoked whenever a job completes
        #: (used by workflow dependency release and instrumentation).
        self.completion_hooks = []
        # Dynamic policy state.
        self._pool = dict(dynamic_pool or {})
        self._topology_name = topology_name
        self._system_config = system_config
        self._host_link = host_link
        self._dyn_counter = 0
        for part in self.partitions:
            part.scheduler.on_job_complete = self._on_job_complete

    # -- submission --------------------------------------------------------
    def submit(self, job):
        """Enter a job into the system at the current time."""
        job.mark_submitted(self.env._now)
        self._submitted += 1
        if self.collect_jobs:
            self.jobs.append(job)
        policy = self.policy
        if policy.dynamic:
            self.ready_queue.append(job)
            self._dispatch_dynamic()
            if self._probe is not None:
                self._probe.queue(len(self.ready_queue))
        elif policy.time_shared:
            # Equitable distribution: round-robin over partitions.
            part = self.partitions[self._rr_next % len(self.partitions)]
            self._rr_next += 1
            led = self._led
            if led is not None:
                led.record("super", "admit", "round_robin", "super",
                           job=job.job_id,
                           partition=part.partition_id,
                           rr_index=self._rr_next - 1,
                           partitions=len(self.partitions))
            part.scheduler.admit(job)
        else:
            self.ready_queue.append(job)
            self._dispatch_static()
            if self._probe is not None:
                self._probe.queue(len(self.ready_queue))

    def submit_batch(self, jobs):
        """Submit a batch as a unit.

        For queue-based policies all jobs enter the ready queue before
        the first dispatch, so a non-FCFS discipline (SJF/LJF) sees the
        whole batch — submitting one by one would let the first arrival
        grab a partition before the scheduler could compare.
        """
        jobs = list(jobs)
        if self.policy.time_shared or self.policy.dynamic:
            for job in jobs:
                self.submit(job)
            return
        for job in jobs:
            job.mark_submitted(self.env._now)
            self._submitted += 1
            if self.collect_jobs:
                self.jobs.append(job)
            self.ready_queue.append(job)
        self._dispatch_static()
        if self._probe is not None:
            self._probe.queue(len(self.ready_queue))

    # -- dispatch ----------------------------------------------------------
    def _dispatch_static(self):
        led = self._led
        queue = self.ready_queue
        select = self._select
        while queue:
            # The first idle partition: one with nothing pending or
            # active (``PartitionScheduler.is_idle``, read directly).
            for free in self.partitions:
                sched = free.scheduler
                if not sched.pending and not sched.active:
                    break
            else:
                # One deferral record per stalled dispatch round: the
                # queued decomposition attributes wait segments to it.
                if led is not None:
                    led.defer("super", "super", "no_free_partition",
                              len(queue),
                              busy=[p.partition_id for p in self.partitions])
                return
            if select is None:
                idx = 0
                job = queue.popleft()
            else:
                idx = select(queue)
                job = queue[idx]
                del queue[idx]
            if led is not None:
                led.record(
                    "super", "place",
                    getattr(self.policy, "discipline", "fcfs"), "super",
                    job=job.job_id, partition=free.partition_id,
                    queue_index=idx, queue_len=len(queue) + 1,
                    rejected=[
                        [p.partition_id,
                         "not_first_free" if p.scheduler.is_idle
                         else "occupied"]
                        for p in self.partitions if p is not free])
            sched.admit(job)

    def _dispatch_dynamic(self):
        led = self._led
        while self.ready_queue:
            running = sum(len(p.scheduler.active) for p in self.partitions)
            size = self.policy.choose_size(
                free_nodes=len(self._pool),
                waiting_jobs=len(self.ready_queue),
                running_jobs=running,
                num_nodes=len(self._pool)
                + sum(p.size for p in self.partitions if not p.scheduler.is_idle),
            )
            if size < 1:
                if led is not None:
                    led.defer("super", "super",
                              "no_free_nodes" if not self._pool
                              else "policy_rule",
                              len(self.ready_queue),
                              free_nodes=len(self._pool), running=running)
                return
            job = self.ready_queue.popleft()
            node_ids = sorted(self._pool)[:size]
            if led is not None:
                led.record("super", "size", "policy", "super",
                           job=job.job_id, size=size,
                           free_nodes=len(self._pool),
                           waiting=len(self.ready_queue) + 1,
                           running=running, nodes=list(node_ids))
            nodes = {n: self._pool.pop(n) for n in node_ids}
            part = Partition(
                self.env,
                f"dyn{self._dyn_counter}",
                nodes,
                self._topology_name,
                self.config,
                routing=self._system_config.routing,
                switching=self._system_config.switching,
                topology_kwargs=self._system_config.topology_kwargs(size),
            )
            self._dyn_counter += 1
            sched = PartitionScheduler(
                self.env, part, self.policy, self.config,
                on_job_complete=self._on_dynamic_job_complete,
                placement=self._system_config.placement,
                host_link=self._host_link,
            )
            sched.collect_jobs = self.collect_jobs
            self.partitions.append(part)
            sched.admit(job)

    # -- completion --------------------------------------------------------
    def _on_job_complete(self, scheduler, job):
        self._completed += 1
        probe = self._probe
        if probe is not None:
            probe.completed()
        for hook in self.completion_hooks:
            hook(job)
        if not self.policy.time_shared:
            self._dispatch_static()
            if probe is not None:
                probe.queue(len(self.ready_queue))
        self._check_all_done()

    def _on_dynamic_job_complete(self, scheduler, job):
        self._completed += 1
        probe = self._probe
        if probe is not None:
            probe.completed()
        part = scheduler.partition
        self.partitions.remove(part)
        self._pool.update(part.nodes)
        for hook in self.completion_hooks:
            hook(job)
        self._dispatch_dynamic()
        if probe is not None:
            probe.queue(len(self.ready_queue))
        self._check_all_done()

    def finish_arrivals(self, total):
        """An open-arrival feeder has drained: ``total`` jobs were fed.

        Pins :attr:`expected_jobs` to the realised count and re-checks
        completion — with a lazy arrival stream the total is unknown
        until the stream ends, so the feeder holds ``expected_jobs`` at
        ``math.inf`` while feeding and calls this when done.
        """
        self.expected_jobs = total
        self._check_all_done()

    def _check_all_done(self):
        expected = (self.expected_jobs if self.expected_jobs is not None
                    else self._submitted)
        if (self._completed == expected == self._submitted
                and not self.ready_queue
                and not self.all_done.triggered):
            self.all_done.succeed(self._completed)

    def __repr__(self):
        return (f"<SuperScheduler queued={len(self.ready_queue)} "
                f"done={self._completed}/{self._submitted}>")


class _SuperProbe:
    """The super scheduler's instruments; ``None`` when telemetry is off.

    Each instrument is bound on first use, never at construction: a
    gauge's time average starts when it is created.
    """

    __slots__ = ("metrics", "_queue", "_completed")

    def __init__(self, metrics):
        self.metrics = metrics
        self._queue = self._completed = None

    def queue(self, depth):
        """The ready queue's depth after a submission or dispatch."""
        gauge = self._queue
        if gauge is None:
            gauge = self._queue = self.metrics.gauge("sched.ready_queue")
        gauge.set(depth)

    def completed(self):
        """One more job completed."""
        counter = self._completed
        if counter is None:
            counter = self._completed = self.metrics.counter(
                "sched.jobs_completed")
        counter.inc()
