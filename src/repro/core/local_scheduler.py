"""Local (per-processor) schedulers.

On the real machine each processor runs a local scheduler that manages
its own ready queue and "supports time sharing by using its own
preemption control".  In the simulator the T805 hardware queues live in
:class:`repro.transputer.cpu.Cpu`; the local scheduler is the thin
policy-aware layer above them: it submits job processes' computation
bursts at low priority with the quantum the policy dictates, and keeps
per-job CPU accounting for the metrics report.
"""

from __future__ import annotations

from collections import defaultdict

from repro.transputer.cpu import LOW

#: The decision ledger's counter keys for a burst's dispatch decision.
_DEFAULT_QUANTUM = ("local", "dispatch", "default_quantum")
_POLICY_QUANTUM = ("local", "dispatch", "policy_quantum")


class LocalScheduler:
    """Per-node adapter between job processes and the hardware queues."""

    def __init__(self, node):
        self.node = node
        # Fast-path binding: telemetry and the ledger are attached to
        # the environment before the system's components are
        # constructed (see ``system.build``), so one load here replaces
        # the ``node.env`` attribute chains on every dispatch.
        tel = node.env.telemetry
        led = node.env.decisions
        self._probe = (_LocalProbe(node.node_id, tel, led)
                       if tel is not None or led is not None else None)
        #: CPU seconds consumed per job id on this node.
        self.job_cpu_time = defaultdict(float)
        #: Burst count per job id.
        self.job_dispatches = defaultdict(int)
        #: Lifetime low-priority CPU seconds across all jobs, including
        #: ones evicted from the per-job dict by :meth:`forget_job`.
        self.total_cpu_time = 0.0

    @property
    def node_id(self):
        return self.node.node_id

    def execute(self, job, work_seconds, quantum=None, proc=None):
        """Run ``work_seconds`` of a job process's computation.

        Returns the completion event.  ``quantum=None`` leaves the
        hardware default (static space-sharing: the job is alone in its
        partition so the quantum value is immaterial); time-sharing
        policies pass their RR-job quantum.  ``proc`` is the job-local
        process index, threaded through for telemetry attribution only.
        """
        req = self.node.cpu.execute(
            work_seconds, priority=LOW, quantum=quantum, tag=job.job_id,
            proc=proc,
        )
        probe = self._probe
        if probe is not None:
            if probe.ledger is not None:
                # Counter tier, kept on the probe: one dispatch decision
                # per submitted burst, classified by whether a policy
                # quantum bounds it.
                if quantum is None:
                    probe.default_quantum += 1
                else:
                    probe.policy_quantum += 1
            if probe.metrics is not None:
                probe.burst(self.node.cpu, work_seconds)
        req.callbacks.append(self._account)
        return req

    def _account(self, req):
        # One bound method shared by every burst: the request carries the
        # job id as its ``tag``, so no per-dispatch closure is needed.
        self.job_cpu_time[req.tag] += req.cpu_time
        self.job_dispatches[req.tag] += 1
        self.total_cpu_time += req.cpu_time

    def forget_job(self, job_id):
        """Drop a finished job's per-job accounting entries.

        Streaming open-system runs call this at job completion so the
        accounting dicts stay O(active jobs) instead of O(all jobs ever)
        over a 10⁷-job run; :attr:`total_cpu_time` keeps the lifetime
        sum so :meth:`cpu_share` stays correct for live jobs.
        """
        self.job_cpu_time.pop(job_id, None)
        self.job_dispatches.pop(job_id, None)

    def cpu_share(self, job_id):
        """Fraction of this node's low-priority CPU time the job got."""
        if self.total_cpu_time <= 0:
            return 0.0
        return self.job_cpu_time[job_id] / self.total_cpu_time

    def __repr__(self):
        return f"<LocalScheduler node={self.node_id}>"


class _LocalProbe:
    """A local scheduler's recording state; ``None`` when nothing records.

    The backlog gauge's name is built once; instrument handles are bound
    on first use (a gauge's time average starts when it is created).
    With the ledger on, the scheduler counts each burst's dispatch
    decision in the two tally fields, which the ledger reads through
    :meth:`ledger_counts`.
    """

    __slots__ = ("metrics", "ledger", "backlog_name", "_bursts", "_backlog",
                 "default_quantum", "policy_quantum")

    def __init__(self, node_id, tel, led):
        self.metrics = tel.metrics if tel is not None else None
        self.ledger = led
        self.backlog_name = f"cpu.backlog.node{node_id}"
        self._bursts = None
        self._backlog = None
        self.default_quantum = self.policy_quantum = 0
        if led is not None:
            led.add_counter(self)

    def ledger_counts(self):
        """The dispatch decisions counted so far, keyed for the ledger."""
        return ((_DEFAULT_QUANTUM, self.default_quantum),
                (_POLICY_QUANTUM, self.policy_quantum))

    def burst(self, cpu, work_seconds):
        """A submitted burst: its size and the CPU's backlog after it
        (telemetry only; the scheduler counts the ledger's dispatch
        decision itself)."""
        metrics = self.metrics
        bursts = self._bursts
        if bursts is None:
            bursts = self._bursts = metrics.histogram("sched.burst_seconds")
        bursts.observe(work_seconds)
        backlog = self._backlog
        if backlog is None:
            backlog = self._backlog = metrics.gauge(self.backlog_name)
        backlog.set(cpu.queue_length)
