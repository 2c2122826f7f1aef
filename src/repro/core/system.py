"""The multicomputer system facade.

:class:`MulticomputerSystem` assembles everything for one experiment
run: a fresh simulation environment, the 16 Transputer nodes, the
partitions (each configured as the experiment's topology and carrying
its own store-and-forward network), the three-level scheduler hierarchy,
and the batch of jobs.  ``run_batch`` executes the batch to completion
and returns a :class:`~repro.core.metrics.BatchResult`.

Every run builds a fresh environment, so results are deterministic and
independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.core.job import Job
from repro.core.local_scheduler import LocalScheduler
from repro.core.metrics import BatchResult, SystemSnapshot
from repro.core.partition import Partition, equal_partition_node_sets
from repro.core.partition_scheduler import PartitionScheduler
from repro.core.super_scheduler import SuperScheduler
from repro.sim import Environment, SimulationError
from repro.transputer import TransputerConfig, TransputerNode
from repro.transputer.node import DEFAULT_MAILBOX_BYTES


@dataclass
class SystemConfig:
    """Experiment-level configuration of the simulated machine."""

    #: Number of processors (the paper's machine has 16).
    num_nodes: int = 16
    #: Topology configured inside each partition: "linear"/"L",
    #: "ring"/"R", "mesh"/"M", or "hypercube"/"H".
    topology: str = "linear"
    #: Routing strategy: "auto" (structured router where available) or "bfs".
    routing: str = "auto"
    #: Switching: "store_forward" (the real hardware) or "wormhole" (E6).
    switching: str = "store_forward"
    #: Per-node hardware parameters.
    transputer: TransputerConfig = field(default_factory=TransputerConfig)
    #: Bytes of node memory reserved for message delivery/reassembly.
    mailbox_bytes: int = DEFAULT_MAILBOX_BYTES
    #: Model the front-end host interface: jobs load (program + input
    #: data) and return results through a single shared host link.
    #: Off by default — the paper does not describe its loading path —
    #: but available as an ablation (it adds a start-up burst that
    #: time-sharing concentrates at t=0).
    model_host: bool = False
    #: Process placement inside a partition: "aligned" (process i on
    #: processor i — the natural 1997 implementation, concentrating
    #: multiprogrammed coordinators on the first node) or "staggered"
    #: (rotate per job to spread load; ablation).
    placement: str = "aligned"
    #: Permit the physically impossible 16-node hypercube (the real
    #: machine reserves one link for the host workstation).
    allow_full_hypercube: bool = False
    #: Record a structured event trace of job transitions (available as
    #: ``system.trace_recorder`` after the run).
    trace: bool = False
    #: Enable the full telemetry subsystem (:mod:`repro.obs`): metrics
    #: registry, CPU/link/memory/scheduler instrumentation, and span
    #: tracing, available as ``system.telemetry`` after the run and
    #: exportable to Perfetto/JSONL.  Implies job-transition tracing.
    #: Recording never creates simulation events, so enabling this does
    #: not perturb simulated time or results.
    telemetry: bool = False
    #: Ring-buffer capacity of the telemetry event recorder (``None``
    #: uses :data:`repro.obs.telemetry.DEFAULT_CAPACITY`); oldest events
    #: are evicted first and counted as dropped.
    telemetry_capacity: int = None
    #: Enable the scheduling decision ledger
    #: (:mod:`repro.obs.decisions`): every admission, placement, sizing,
    #: launch, quantum-arming, and preemption choice is tallied (exact
    #: counters) and job-granular decisions are ring-recorded, available
    #: as ``system.decisions`` after the run.  When telemetry is also on
    #: the decision records share its recorder, interleaved with trace
    #: events.  Recording never creates simulation events, so results
    #: are byte-identical either way; the ledger is zero-cost when off.
    decisions: bool = False
    #: Ring capacity of the ledger's private recorder when telemetry is
    #: off (``None`` uses :data:`repro.obs.decisions.DEFAULT_CAPACITY`).
    decisions_capacity: int = None

    def topology_kwargs(self, partition_size):
        name = self.topology.lower()
        if name in ("hypercube", "h") and self.allow_full_hypercube:
            return {"allow_full": True}
        return {}

    def with_(self, **overrides):
        """A copy with some fields replaced (sweep helper)."""
        return replace(self, **overrides)


class MulticomputerSystem:
    """A 16-node Transputer system under one scheduling policy."""

    def __init__(self, config, policy):
        if isinstance(config, TransputerConfig):
            raise TypeError(
                "pass a SystemConfig (with .transputer inside), "
                "not a TransputerConfig"
            )
        config.transputer.validate()
        if not policy.dynamic:
            policy.validate(config.num_nodes)
        self.config = config
        self.policy = policy
        # Populated by run_batch (fresh every run).
        self.env = None
        self.nodes = None
        self.partitions = None
        self.super_scheduler = None
        self.telemetry = None
        self.decisions = None

    # -- assembly ------------------------------------------------------
    def build(self):
        """Construct a fresh environment, nodes, partitions, schedulers."""
        cfg = self.config
        env = Environment()
        if cfg.telemetry:
            from repro.obs.telemetry import DEFAULT_CAPACITY, attach

            self.telemetry = attach(
                env,
                capacity=(cfg.telemetry_capacity
                          if cfg.telemetry_capacity is not None
                          else DEFAULT_CAPACITY),
            )
        else:
            self.telemetry = None
        if cfg.decisions:
            from repro.obs.decisions import attach_ledger

            # Attached before any component is built — the same
            # construction-time binding contract as telemetry, so hot
            # components (Cpu, schedulers) can snapshot env.decisions.
            self.decisions = attach_ledger(
                env, capacity=cfg.decisions_capacity,
                telemetry=self.telemetry,
            )
        else:
            self.decisions = None
        nodes = {
            i: TransputerNode(
                env, i, cfg.transputer, mailbox_bytes=cfg.mailbox_bytes
            )
            for i in range(cfg.num_nodes)
        }
        for node in nodes.values():
            node.local_scheduler = LocalScheduler(node)

        host_link = None
        if cfg.model_host:
            from repro.transputer.link import Link

            host_link = Link(
                env, "host", "system",
                cfg.transputer.host_bandwidth, cfg.transputer.host_startup,
            )
        self.host_link = host_link

        if self.policy.dynamic:
            partitions = []
            sched = SuperScheduler(
                env, self.policy, cfg.transputer,
                partitions=partitions,
                dynamic_pool=nodes,
                topology_name=cfg.topology,
                system_config=cfg,
                host_link=host_link,
            )
        else:
            p = self.policy.partition_size(cfg.num_nodes)
            partitions = []
            for k, node_ids in enumerate(
                equal_partition_node_sets(cfg.num_nodes, p)
            ):
                part = Partition(
                    env, k,
                    {n: nodes[n] for n in node_ids},
                    cfg.topology,
                    cfg.transputer,
                    routing=cfg.routing,
                    switching=cfg.switching,
                    topology_kwargs=cfg.topology_kwargs(p),
                )
                PartitionScheduler(env, part, self.policy, cfg.transputer,
                                   placement=cfg.placement,
                                   host_link=host_link)
                partitions.append(part)
            sched = SuperScheduler(
                env, self.policy, cfg.transputer, partitions=partitions
            )
        self.env = env
        self.nodes = nodes
        self.partitions = partitions
        self.super_scheduler = sched
        if self.telemetry is not None:
            # The telemetry recorder doubles as the job-transition trace.
            self.trace_recorder = self.telemetry.recorder
        elif cfg.trace:
            from repro.trace.recorder import TraceRecorder

            self.trace_recorder = TraceRecorder()
        else:
            self.trace_recorder = None
        return self

    # -- execution --------------------------------------------------------
    def run_batch(self, batch, label="", instrument=None):
        """Run a batch of job specs to completion; return a BatchResult.

        ``batch`` is an iterable of (application, size_class) pairs or a
        :class:`~repro.workload.batch.BatchWorkload`.  ``instrument``,
        if given, is called with the freshly built system before any job
        is submitted — the hook for attaching probes
        (:class:`~repro.sim.monitoring.Sampler` etc.) to a run.
        """
        self.build()
        if instrument is not None:
            instrument(self)
        jobs = []
        for spec in batch:
            app, size_class = self._unpack(spec)
            job = Job(app, size_class=size_class)
            if self.trace_recorder is not None:
                job.on_transition = self.trace_recorder.job_observer()
            jobs.append(job)
        if not jobs:
            raise ValueError("empty batch")
        dependencies = self._dependency_map(batch, jobs)
        sched = self.super_scheduler
        if dependencies:
            sched.expected_jobs = len(jobs)
            waiting = dict(dependencies)  # job index -> set of dep indices
            index_of = {job.job_id: i for i, job in enumerate(jobs)}

            def release(done_job):
                done_idx = index_of[done_job.job_id]
                ready = []
                for idx, deps in list(waiting.items()):
                    deps.discard(done_idx)
                    if not deps:
                        del waiting[idx]
                        ready.append(jobs[idx])
                if ready:
                    sched.submit_batch(ready)

            sched.completion_hooks.append(release)
            roots = [job for i, job in enumerate(jobs) if i not in waiting]
            if not roots:
                raise ValueError("dependency cycle: no independent job")
            sched.submit_batch(roots)
        else:
            sched.submit_batch(jobs)
        try:
            self.env.run(until=sched.all_done)
        except SimulationError as exc:
            self._raise_if_stuck(exc, jobs)
            raise
        snapshot = self.snapshot()
        return BatchResult(jobs, snapshot, label=label or self.describe())

    @staticmethod
    def _dependency_map(batch, jobs):
        """{job index: set of dep indices} from the specs, cycle-checked."""
        deps = {}
        for i, spec in enumerate(batch):
            wanted = tuple(getattr(spec, "depends_on", ()) or ())
            if not wanted:
                continue
            for d in wanted:
                if not 0 <= d < len(jobs):
                    raise ValueError(
                        f"job {i} depends on out-of-range index {d}"
                    )
                if d == i:
                    raise ValueError(f"job {i} depends on itself")
            deps[i] = set(wanted)
        if deps:
            # Kahn's algorithm to reject cycles up front.
            remaining = {i: set(d) for i, d in deps.items()}
            done = set(range(len(jobs))) - set(remaining)
            progress = True
            while progress and remaining:
                progress = False
                for i in list(remaining):
                    if remaining[i] <= done:
                        done.add(i)
                        del remaining[i]
                        progress = True
            if remaining:
                raise ValueError(
                    f"dependency cycle among jobs {sorted(remaining)}"
                )
        return deps

    def run_batches(self, batches, label=""):
        """Run several batches back to back, reconfiguring in between.

        Semi-static policies choose a new partition size per batch
        (Section 2.1's "medium-term" repartitioning); other policies
        simply run each batch on a freshly reset machine.  Returns the
        list of per-batch :class:`BatchResult`\\ s.
        """
        batches = list(batches)
        if not batches:
            raise ValueError("no batches")
        results = []
        for i, batch in enumerate(batches):
            if getattr(self.policy, "semi_static", False):
                self.policy.reconfigure(len(batch), self.config.num_nodes)
            results.append(
                self.run_batch(batch, label=f"{label or 'batch'}#{i}")
            )
        return results

    def run_open(self, arrivals, label="", collect_jobs=True, sink=None):
        """Run an open system: jobs arrive over time instead of at t=0.

        ``arrivals`` is an iterable of ``(arrival_time, spec)`` with
        finite, non-decreasing times (see :mod:`repro.workload.arrivals`;
        any other time raises ``ValueError`` when it is reached); it is
        consumed **lazily**, one arrival at a time, so a generator-backed
        10⁷-job stream is never materialised.  The run ends when every
        arrived job has completed.

        By default returns a :class:`BatchResult` whose response times
        are measured from each job's own arrival instant — byte-identical
        to the historical behaviour.  Two opt-ins stream instead of
        accumulating:

        - ``sink``: a :class:`repro.obs.streaming.SteadyStateSink`
          receives every arrival and completion (O(1)-memory aggregates,
          windowed time series, optional ``repro-steady/1`` JSONL).
        - ``collect_jobs=False``: drop all per-job storage (here *and*
          in the scheduler) and return a
          :class:`repro.obs.streaming.OpenRunResult` built from the
          sink's streaming summaries — the memory-cliff-free path for
          high duration×rate runs.  A private sink is created when none
          is supplied.
        """
        self.build()
        sched = self.super_scheduler
        if not collect_jobs and sink is None:
            from repro.obs.streaming import SteadyStateSink

            sink = SteadyStateSink(window=None)
        if sink is not None:
            sink.bind(self, label=label or f"open:{self.describe()}")
            sched.completion_hooks.append(sink.on_job_complete)
        sched.collect_jobs = collect_jobs
        if not collect_jobs:
            # Partition schedulers otherwise pin every finished Job.
            for part in self.partitions:
                part.scheduler.collect_jobs = False
        jobs = []
        # Unknown stream length: hold all_done open until the feeder
        # drains and pins the realised count via finish_arrivals().
        sched.expected_jobs = math.inf

        recorder = self.trace_recorder

        def feeder(env):
            last = 0.0
            fed = 0
            for time, spec in arrivals:
                time = float(time)
                # Written so that NaN fails it too: a NaN time would
                # slip past every comparison, and an infinite one would
                # never arrive, so the run would not end.
                if not last <= time < math.inf:
                    raise ValueError(
                        f"arrival times must be finite and non-decreasing; "
                        f"got {time!r} after {last!r}")
                last = time
                if time > env._now:
                    yield env.timeout(time - env._now)
                app, size_class = self._unpack(spec)
                job = Job(app, size_class=size_class)
                if recorder is not None:
                    job.on_transition = recorder.job_observer()
                if collect_jobs:
                    jobs.append(job)
                if sink is not None:
                    sink.on_job_arrival(env._now)
                sched.submit(job)
                fed += 1
            if not fed:
                raise ValueError("no arrivals")
            sched.finish_arrivals(fed)

        self.env.process(feeder(self.env), name="arrivals")
        try:
            self.env.run(until=sched.all_done)
        except SimulationError as exc:
            self._raise_if_stuck(exc, jobs)
            raise
        if sink is not None:
            sink.finish(self.env.now)
        if collect_jobs:
            return BatchResult(jobs, self.snapshot(),
                               label=label or f"open:{self.describe()}")
        from repro.obs.streaming import OpenRunResult

        return OpenRunResult(sink, self.snapshot(),
                             label=label or f"open:{self.describe()}")

    def _raise_if_stuck(self, exc, jobs):
        """Re-raise ``exc`` as a report when the run is stuck.

        A run whose agenda empties before every job completes is stuck
        (a memory or message deadlock): the new ``SimulationError``
        names the incomplete jobs (from ``jobs``, empty when they are
        not collected), every memory region and transit-buffer pool with
        queued requests, and every network with undelivered messages.
        Any other ``SimulationError`` is left to the caller.
        """
        if self.env.peek() < math.inf:
            return
        sched = self.super_scheduler
        lines = [f"simulation ran out of events at t = {self.env.now!r} "
                 f"with {sched._submitted - sched._completed} of "
                 f"{sched._submitted} submitted jobs incomplete"]
        stuck = [job.name for job in jobs if job.completed_at is None]
        if stuck:
            lines.append("incomplete jobs: " + ", ".join(stuck))
        for i, node in self.nodes.items():
            for mmu in (node.memory, node.mailbox_memory):
                backlog = mmu.backlog()
                if backlog is not None:
                    lines.append(backlog)
            if node.buffers.queue_length:
                lines.append(f"node {i!r} transit buffers: "
                             f"{node.buffers.queue_length} queued requests")
        for part in self.partitions:
            stats = part.network.stats
            undelivered = stats.messages_sent - stats.messages_delivered
            if undelivered:
                lines.append(
                    f"network of partition {part.partition_id} (nodes "
                    f"{list(part.node_ids)}): {undelivered} of "
                    f"{stats.messages_sent} messages undelivered")
        raise SimulationError("\n  ".join(lines)) from exc

    @staticmethod
    def _unpack(spec):
        if isinstance(spec, tuple):
            return spec
        # JobSpec-style object.
        return spec.application, spec.size_class

    def describe(self):
        return (f"{self.policy.name} p="
                f"{self.policy.partition_size(self.config.num_nodes)} "
                f"{self.config.topology}")

    # -- statistics ----------------------------------------------------------
    def snapshot(self):
        """Aggregate the hardware counters after a run."""
        elapsed = self.env.now
        cpu_util = {}
        comm = app = 0.0
        preemptions = 0
        dispatches = 0
        for i, node in self.nodes.items():
            cpu_util[i] = node.cpu.stats.utilization(elapsed)
            comm += node.cpu.stats.high_time
            app += node.cpu.stats.low_time
            preemptions += node.cpu.stats.preemptions
            dispatches += node.cpu.stats.dispatches
        link_util = {}
        link_queue = 0.0
        messages = 0
        bytes_sent = 0
        for part in self.partitions:
            link_util.update(part.network.link_utilizations(elapsed))
            messages += part.network.stats.messages_delivered
            bytes_sent += part.network.stats.bytes_sent
        mem_wait = mailbox_wait = buffer_wait = 0.0
        peak = 0
        for node in self.nodes.values():
            mem_wait += node.memory.stats.total_wait_time
            mailbox_wait += node.mailbox_memory.stats.total_wait_time
            buffer_wait += node.buffers.stats.total_wait_time
            peak = max(peak, node.memory.stats.peak_in_use)
            for link in node.links.values():
                link_queue += link.stats.queue_time
        return SystemSnapshot(
            makespan=elapsed,
            cpu_utilization=cpu_util,
            comm_cpu_time=comm,
            app_cpu_time=app,
            preemptions=preemptions,
            dispatches=dispatches,
            link_utilization=link_util,
            link_queue_time=link_queue,
            memory_wait_time=mem_wait,
            mailbox_wait_time=mailbox_wait,
            buffer_wait_time=buffer_wait,
            peak_memory=peak,
            messages=messages,
            bytes_sent=bytes_sent,
        )

    def __repr__(self):
        return f"<MulticomputerSystem {self.describe()}>"
