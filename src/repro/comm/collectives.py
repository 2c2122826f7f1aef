"""Collective communication operations over the mailbox network.

The paper's applications hand-roll their communication (the matmul
coordinator's B distribution *is* a broadcast; the sort tree *is* a
scatter/gather).  This module provides the general-purpose collectives
a downstream user of the library would expect, built on the same
store-and-forward mailbox transport so they pay the same buffer, link
and copy costs:

- :func:`broadcast` — root to all, along a binomial tree (log2 rounds);
- :func:`scatter` — root sends each rank its own slice (flat);
- :func:`gather` — all ranks send to root (flat);
- :func:`reduce` — binomial-tree combining with a per-merge CPU cost;
- :func:`barrier` — gather + broadcast of zero-byte tokens.

Each collective is a generator to be driven by the *calling* simulation
process (usually via ``yield from``), parameterised by a
:class:`CollectiveContext` that maps ranks to nodes.  Tags are scoped
per operation instance so concurrent collectives never cross-talk.
"""

from __future__ import annotations

from itertools import count

from repro.transputer.cpu import LOW

_op_ids = count()


class CollectiveContext:
    """Binds a collective to a network, a rank->node map, and a CPU hook.

    Parameters
    ----------
    env: simulation environment.
    network: a Network / WormholeNetwork instance.
    ranks: ordered node ids; rank i lives on ranks[i].
    compute: optional ``fn(node_id, seconds) -> event`` used to charge
        combining costs in :func:`reduce` (defaults to the node CPU at
        low priority with the hardware quantum).
    """

    def __init__(self, env, network, ranks, compute=None):
        ranks = list(ranks)
        if not ranks:
            raise ValueError("a collective needs at least one rank")
        seen = set()
        for node in ranks:
            if node in seen:
                raise ValueError(f"duplicate rank node {node!r}")
            seen.add(node)
        self.env = env
        self.network = network
        self.ranks = ranks
        self._compute = compute

    @property
    def size(self):
        return len(self.ranks)

    def node(self, rank):
        return self.ranks[rank]

    def compute(self, rank, seconds):
        if self._compute is not None:
            return self._compute(self.node(rank), seconds)
        node = self.network.nodes[self.node(rank)]
        return node.cpu.execute(seconds, LOW, tag="collective")


def _tree_children(rank, size):
    """Binomial-tree children of ``rank``: rank + 2^k for 2^k > rank."""
    children = []
    bit = 1
    while bit <= rank:
        bit <<= 1
    while rank + bit < size:
        children.append(rank + bit)
        bit <<= 1
    return children


def _tree_parent(rank):
    """Binomial-tree parent (clear the highest set bit)."""
    if rank <= 0:
        raise ValueError("the root has no parent")
    return rank ^ (1 << (rank.bit_length() - 1))


def broadcast(ctx, root_rank, nbytes, payload=None, op_id=None):
    """Binomial-tree broadcast; run on behalf of all ranks at once.

    Drives the whole tree from a single generator: each relay forwards
    to its children as soon as its own copy arrives, so rounds pipeline
    exactly as a per-rank implementation would.  Returns the payload.
    """
    if not 0 <= root_rank < ctx.size:
        raise ValueError(f"root rank {root_rank} out of range")
    op = op_id if op_id is not None else ("bcast", next(_op_ids))
    size = ctx.size
    if size == 1:
        return payload

    def relay(rank):
        # Rank numbering is relative to the root (rotate so root = 0).
        rel = (rank - root_rank) % size
        if rel != 0:
            yield ctx.network.recv(ctx.node(rank), tag=(op, rank))
        for child_rel in _tree_children(rel, size):
            child = (child_rel + root_rank) % size
            ctx.network.send(ctx.node(rank), ctx.node(child), nbytes,
                             tag=(op, child), payload=payload)

    procs = [ctx.env.process(relay(r), name=f"bcast{r}")
             for r in range(size)]
    yield ctx.env.all_of(procs)
    return payload


def scatter(ctx, root_rank, slice_bytes, payloads=None, op_id=None):
    """Root sends rank i its ``slice_bytes[i]`` (flat, like the paper's
    matmul work distribution).  ``slice_bytes`` may be an int (uniform).
    """
    op = op_id if op_id is not None else ("scatter", next(_op_ids))
    size = ctx.size
    if isinstance(slice_bytes, int):
        slice_bytes = [slice_bytes] * size
    if len(slice_bytes) != size:
        raise ValueError("need one slice size per rank")
    payloads = payloads or [None] * size
    root_node = ctx.node(root_rank)
    receipts = []
    for rank in range(size):
        if rank == root_rank:
            continue
        ctx.network.send(root_node, ctx.node(rank), slice_bytes[rank],
                         tag=(op, rank), payload=payloads[rank])
        receipts.append(ctx.network.recv(ctx.node(rank), tag=(op, rank)))
    if receipts:
        yield ctx.env.all_of(receipts)
    return payloads[root_rank]


def gather(ctx, root_rank, slice_bytes, payloads=None, op_id=None):
    """Every rank sends its slice to the root; returns the payload list."""
    op = op_id if op_id is not None else ("gather", next(_op_ids))
    size = ctx.size
    if isinstance(slice_bytes, int):
        slice_bytes = [slice_bytes] * size
    if len(slice_bytes) != size:
        raise ValueError("need one slice size per rank")
    payloads = payloads or [None] * size
    root_node = ctx.node(root_rank)
    out = [None] * size
    out[root_rank] = payloads[root_rank]
    # One tag for every slice: the root takes them in arrival order.
    tag = (op, root_rank)
    for rank in range(size):
        if rank == root_rank:
            continue
        ctx.network.send(ctx.node(rank), root_node, slice_bytes[rank],
                         tag=tag, payload=(rank, payloads[rank]))
    for _ in range(size - 1):
        msg = yield ctx.network.recv(root_node, tag=tag)
        rank, payload = msg.payload
        out[rank] = payload
    return out


def reduce(ctx, root_rank, nbytes, values, combine=None,
           combine_seconds=0.0, op_id=None):
    """Binomial-tree reduction toward ``root_rank``.

    ``values`` holds each rank's contribution; ``combine`` merges two of
    them (default: addition).  ``combine_seconds`` of CPU is charged at
    every merge on the merging rank's node.
    """
    op = op_id if op_id is not None else ("reduce", next(_op_ids))
    size = ctx.size
    if len(values) != size:
        raise ValueError("need one value per rank")
    combine = combine or (lambda a, b: a + b)

    def node_proc(rank, acc):
        rel = (rank - root_rank) % size
        for child_rel in _tree_children(rel, size):
            child = (child_rel + root_rank) % size
            msg = yield ctx.network.recv(ctx.node(rank), tag=(op, rank, child))
            if combine_seconds > 0:
                yield ctx.compute(rank, combine_seconds)
            acc = combine(acc, msg.payload)
        if rel != 0:
            parent = (_tree_parent(rel) + root_rank) % size
            ctx.network.send(ctx.node(rank), ctx.node(parent), nbytes,
                             tag=(op, parent, rank), payload=acc)
        return acc

    procs = [ctx.env.process(node_proc(r, values[r]), name=f"reduce{r}")
             for r in range(size)]
    results = yield ctx.env.all_of(procs)
    return results[procs[root_rank]]


def barrier(ctx, op_id=None):
    """All ranks synchronise: zero-byte gather to rank 0, then broadcast."""
    op = op_id if op_id is not None else ("barrier", next(_op_ids))
    yield from gather(ctx, 0, 1, op_id=(op, "in"))
    yield from broadcast(ctx, 0, 1, op_id=(op, "out"))
