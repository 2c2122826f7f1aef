"""Execution context: the API an application's processes program against.

Applications (matrix multiplication, sort, ...) are written in terms of
*process indices* 0..T-1; the context maps indices onto the partition's
processors (round-robin, coordinator first), scopes message tags to the
job, routes computation through the local schedulers with the policy's
quantum, and tracks the job's memory allocations so everything is freed
when the job completes.
"""

from __future__ import annotations


class ExecutionContext:
    """Runtime services for one job inside one partition."""

    def __init__(self, env, job, partition, config, quantum=None,
                 placement_offset=0):
        self.env = env
        self.job = job
        self.partition = partition
        self.config = config
        #: Per-process timeslice dictated by the policy (None = default).
        self.quantum = quantum
        #: Rotation applied to process placement (spreads the
        #: coordinators of multiprogrammed jobs over the partition).
        self.placement_offset = placement_offset
        self._live_allocations = []

    # -- placement ------------------------------------------------------
    @property
    def num_nodes(self):
        return self.partition.size

    def place(self, process_index):
        """Node id hosting process ``process_index``."""
        return self.partition.place(process_index, self.placement_offset)

    def node(self, process_index):
        partition = self.partition
        return partition.nodes[
            partition.place(process_index, self.placement_offset)]

    # -- computation ------------------------------------------------------
    def compute(self, process_index, ops):
        """Run ``ops`` generic operations as this process's CPU burst.

        Returns the completion event; the burst is time-shared according
        to the policy's quantum on the hosting node.
        """
        node = self.node(process_index)
        seconds = self.config.ops_time(ops)
        return node.local_scheduler.execute(self.job, seconds, self.quantum,
                                            proc=process_index)

    # -- communication -----------------------------------------------------
    def send(self, src_index, dst_index, nbytes, tag, payload=None):
        """Send between two of the job's processes (tags are job-scoped)."""
        partition = self.partition
        offset = self.placement_offset
        return partition.network.send(
            partition.place(src_index, offset),
            partition.place(dst_index, offset),
            nbytes,
            tag=(self.job.job_id, tag),
            payload=payload,
            src_proc=src_index,
            dst_proc=dst_index,
        )

    def recv(self, process_index, tag):
        """Receive the oldest message for ``tag`` at this process's node.

        Messages a process should consume in arrival order, such as the
        halves a merge folds in, share one tag.
        """
        partition = self.partition
        return partition.network.recv(
            partition.place(process_index, self.placement_offset),
            tag=(self.job.job_id, tag),
        )

    # -- memory --------------------------------------------------------------
    def alloc(self, process_index, nbytes):
        """Allocate job memory on the hosting node (blocking event).

        All live allocations are released automatically when the job
        finishes (see :meth:`release_all`); explicit ``free`` through the
        returned allocation is also fine for phase-structured programs.
        """
        ev = self.node(process_index).memory.alloc(
            nbytes, owner=self.job.job_id
        )
        ev.callbacks.append(self._track)
        return ev

    def _track(self, event):
        if event.ok:
            self._live_allocations.append(event.value)

    def release_all(self):
        """Free every still-live allocation the job made."""
        for alloc in self._live_allocations:
            if not alloc.freed:
                alloc.free()
        self._live_allocations.clear()

    # -- process management ---------------------------------------------------
    def spawn(self, generator, name=None):
        """Start an auxiliary simulation process (a worker)."""
        return self.env.process(generator, name=name)

    def timeout(self, delay):
        return self.env.timeout(delay)

    def all_of(self, events):
        return self.env.all_of(events)

    def __repr__(self):
        return (f"<ExecutionContext job={self.job.name} "
                f"partition={self.partition.partition_id}>")
