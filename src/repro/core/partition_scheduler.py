"""Partition schedulers: per-partition job admission and launch.

A partition scheduler owns the jobs the super scheduler dispatched to
its partition.  Under static space-sharing it runs exactly one job at a
time (run-to-completion); under the time-shared policies it launches
every assigned job immediately, so the partition's multiprogramming
level equals its share of the batch, and processes time-share via the
local schedulers with the policy's RR-job quantum.
"""

from __future__ import annotations

from collections import deque

from repro.core.context import ExecutionContext
from repro.transputer.cpu import HIGH


class PartitionScheduler:
    """Manages the processors of one partition."""

    def __init__(self, env, partition, policy, config, on_job_complete=None,
                 placement="aligned", host_link=None):
        if placement not in ("aligned", "staggered"):
            raise ValueError(f"unknown placement {placement!r}")
        self.env = env
        #: Decision ledger and telemetry instruments bound at
        #: construction (both are attached in ``system.build()`` before
        #: schedulers exist); None when off.
        self._led = getattr(env, "decisions", None)
        tel = env.telemetry
        self._probe = (_PartitionProbe(tel.metrics, partition.partition_id)
                       if tel is not None else None)
        self.partition = partition
        self.policy = policy
        self.config = config
        #: "aligned" maps every job's process i to partition processor i
        #: (the natural 1997 implementation: multiprogrammed jobs'
        #: coordinators all land on the partition's first node, which is
        #: where the paper's memory contention and link congestion
        #: concentrate).  "staggered" rotates each job's placement to
        #: spread coordinators — a load-balancing refinement studied as
        #: an ablation.
        self.placement = placement
        #: Shared link to the front-end host (job loading and result
        #: return serialise through it); None disables host modelling.
        self.host_link = host_link
        #: Called with (self, job) whenever a job completes — the super
        #: scheduler uses this to dispatch the next queued job.
        self.on_job_complete = on_job_complete
        self.pending = deque()
        self.active = {}
        self.completed_jobs = []
        #: Retain finished jobs in :attr:`completed_jobs`.  Streaming
        #: open-system runs (``run_open(collect_jobs=False)``) switch
        #: this off — a 10⁷-job run must not pin every Job object.
        self.collect_jobs = True
        self._launched = 0
        partition.scheduler = self
        self._gang_active = None
        if getattr(policy, "gang", False):
            env.process(self._gang_rotator(),
                        name=f"gang{partition.partition_id}")

    # -- admission ---------------------------------------------------------
    @property
    def load(self):
        """Jobs assigned to this partition and not yet finished."""
        return len(self.pending) + len(self.active)

    @property
    def is_idle(self):
        return self.load == 0

    def admit(self, job):
        """Accept a job from the super scheduler."""
        job.mark_dispatched(self.env._now, self.partition)
        self.pending.append(job)
        self._try_launch()
        if self._probe is not None:
            self._probe.load(len(self.active), len(self.pending))

    # -- launch -----------------------------------------------------------
    def _try_launch(self):
        limit = self.policy.jobs_per_partition_limit()
        while self.pending and (limit is None or len(self.active) < limit):
            self._launch(self.pending.popleft())
        if self.pending:
            # Jobs held back by the multiprogramming limit: this wait
            # lands in the `allocated` bucket, not `queued`, so it is
            # tabulated but excluded from the queued decomposition.
            led = self._led
            if led is not None:
                led.defer("partition",
                          f"part{self.partition.partition_id}",
                          "mpl_limit", len(self.pending),
                          active=len(self.active), limit=limit)

    def _launch(self, job):
        env = self.env
        partition = self.partition
        app = job.application
        size = len(partition.node_ids)
        num_processes = app.num_processes(size)
        job.num_processes = num_processes
        quantum = self.policy.quantum_for(num_processes, size, self.config)
        if self.placement == "staggered":
            offset = self._launched % size
        else:
            offset = 0
        ctx = ExecutionContext(
            env, job, partition, self.config, quantum=quantum,
            placement_offset=offset,
        )
        self._launched += 1
        # Only the gang rotator sets ``_gang_active``, so testing it
        # first keeps the policy lookup off every other launch.
        if (self._gang_active is not None
                and getattr(self.policy, "gang", False)
                and self._gang_active != job.job_id):
            # Park the newcomer's computation until its first slot.
            for node in partition.nodes.values():
                if job.job_id not in node.cpu._paused:
                    node.cpu.pause_tag(job.job_id)
        probe = self._probe
        if probe is not None and job.submitted_at is not None:
            probe.launched(env._now - job.submitted_at)
        led = self._led
        if led is not None:
            led.record("partition", "launch", self.placement,
                       f"part{partition.partition_id}",
                       job=job.job_id, processes=num_processes,
                       quantum=quantum, offset=offset,
                       active=len(self.active))
        job.mark_started(env._now)
        proc = env.process(
            self._job_body(job, app, ctx), name=f"{job.name}-app"
        )
        self.active[job.job_id] = (job, proc, ctx)
        proc.callbacks.append(self._completion_handler(job, ctx))

    def _job_body(self, job, app, ctx):
        """Load from the host, run the application, return the result.

        Loading ships the program image and initial data over the single
        host link and copies them in at the coordinator's node; under
        time-sharing all batch jobs load at once, so this is where the
        paper's start-up burst serialises.
        """
        host_link = self.host_link
        if host_link is not None and app.load_bytes > 0:
            yield host_link.transmit(app.load_bytes)
            yield ctx.node(0).cpu.execute(
                self.config.copy_time(app.load_bytes)
                + self.config.message_overhead,
                HIGH, tag="host",
            )
        yield from app.run(ctx)
        if host_link is not None and app.result_bytes > 0:
            yield ctx.node(0).cpu.execute(
                self.config.copy_time(app.result_bytes)
                + self.config.message_overhead,
                HIGH, tag="host",
            )
            yield host_link.transmit(app.result_bytes)

    # -- gang scheduling ----------------------------------------------------
    def _gang_rotator(self):
        """Rotate the active job across the whole partition.

        Every ``gang_slot`` seconds the rotator deschedules the current
        job's low-priority work on all partition processors and releases
        the next job's — coordinated context switching, so a job's
        processes always run together.
        """
        slot = self.policy.gang_slot
        while True:
            jobs = sorted(self.active)
            if not jobs:
                self._set_gang_active(None)
                yield self.env.timeout(slot)
                continue
            if self._gang_active in jobs:
                idx = (jobs.index(self._gang_active) + 1) % len(jobs)
            else:
                idx = 0
            self._set_gang_active(jobs[idx])
            yield self.env.timeout(slot)

    def _set_gang_active(self, job_id):
        if job_id == self._gang_active:
            return
        led = self._led
        if led is not None:
            led.record("partition", "gang", "rotate",
                       f"part{self.partition.partition_id}",
                       job=job_id, previous=self._gang_active,
                       active=len(self.active))
        self._gang_active = job_id
        for node in self.partition.nodes.values():
            cpu = node.cpu
            for other in list(self.active):
                if other != job_id and other not in cpu._paused:
                    cpu.pause_tag(other)
            if job_id is not None:
                cpu.resume_tag(job_id)

    def _completion_handler(self, job, ctx):
        def on_done(event):
            if not event._ok:
                # Application failure: leave the event un-defused so the
                # kernel surfaces the exception instead of hanging the
                # batch with a half-finished job.
                return
            ctx.release_all()
            job.mark_completed(self.env._now)
            self.active.pop(job.job_id, None)
            if self.collect_jobs:
                self.completed_jobs.append(job)
            else:
                for node in self.partition.nodes.values():
                    node.local_scheduler.forget_job(job.job_id)
            if self.pending:
                self._try_launch()
            if self._probe is not None:
                self._probe.load(len(self.active), len(self.pending))
            if self.on_job_complete is not None:
                self.on_job_complete(self, job)
        return on_done

    def __repr__(self):
        return (f"<PartitionScheduler part={self.partition.partition_id} "
                f"active={len(self.active)} pending={len(self.pending)}>")


class _PartitionProbe:
    """A partition scheduler's instruments; ``None`` when telemetry is off.

    The load gauges' names are built once.  Each instrument is bound on
    first use, never at construction: a gauge's time average starts
    when it is created.
    """

    __slots__ = ("metrics", "active_name", "pending_name", "_active",
                 "_pending", "_allocation_wait")

    def __init__(self, metrics, partition_id):
        self.metrics = metrics
        self.active_name = f"sched.part{partition_id}.active"
        self.pending_name = f"sched.part{partition_id}.pending"
        self._active = self._pending = self._allocation_wait = None

    def load(self, active, pending):
        """The partition's running and held-back job counts."""
        gauge = self._active
        if gauge is None:
            gauge = self._active = self.metrics.gauge(self.active_name)
        gauge.set(active)
        gauge = self._pending
        if gauge is None:
            gauge = self._pending = self.metrics.gauge(self.pending_name)
        gauge.set(pending)

    def launched(self, wait):
        """A job's wait from submission to launch."""
        hist = self._allocation_wait
        if hist is None:
            hist = self._allocation_wait = self.metrics.histogram(
                "sched.allocation_wait")
        hist.observe(wait)
