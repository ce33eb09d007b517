"""Microcanonical stochastic block model: fit per-block-pair edge counts
from a graph and a partition, then sample new simple graphs preserving
those counts exactly.

No degree correction: per-block-pair counts are exact, per-node degrees
are free. For each block pair the edge set is a uniform draw without
replacement from the admissible node pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph, _sample_pair_keys


@dataclass(frozen=True)
class BlockEdgeCounts:
    """Symmetric per-block-pair edge counts plus the block membership
    needed to realize a sample over the original node ids."""

    num_blocks: int
    block_sizes: np.ndarray
    counts: np.ndarray  # (B, B) symmetric; intra-block counted once
    members: tuple  # index arrays per block, partitioning [0, n)
    n: int
    # built once here for every draw: the nonzero block pairs (r <= s) in
    # row-major order and the members concatenated in block order
    pairs: tuple = field(init=False, repr=False, compare=False)
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", c)
        if not np.array_equal(c, c.T):
            raise ValueError("counts must be symmetric")
        if (c < 0).any():
            raise ValueError("counts must be nonnegative")
        if len(self.members) != self.num_blocks:
            raise ValueError("members must hold num_blocks index arrays")
        sizes = np.asarray(self.block_sizes, dtype=np.int64)
        object.__setattr__(self, "block_sizes", sizes)
        if not np.array_equal(sizes, [len(mm) for mm in self.members]):
            raise ValueError("block_sizes must equal the member counts")
        nodes = np.concatenate([np.zeros(0, dtype=np.int64), *self.members])
        object.__setattr__(self, "nodes", nodes)
        if not np.array_equal(np.sort(nodes), np.arange(self.n)):
            raise ValueError(f"members must partition [0, n={self.n})")
        over = np.argwhere(np.triu(c > self.slots()))
        if over.size:
            r, s = over[0]
            if r == s:
                raise ValueError(
                    f"intra-block count exceeds slots in block {r}")
            raise ValueError(
                f"inter-block count exceeds slots for pair ({r},{s})")
        object.__setattr__(self, "pairs", np.nonzero(np.triu(c)))

    def slots(self):
        """(B, B) node pairs each block pair can hold: n_r n_s across two
        blocks, n_r (n_r - 1) / 2 inside one."""
        sizes = self.block_sizes
        slots = np.outer(sizes, sizes)
        np.fill_diagonal(slots, sizes * (sizes - 1) // 2)
        return slots

    def assignment(self):
        """The block of each node in [0, n)."""
        out = np.empty(self.n, dtype=np.int64)
        out[self.nodes] = np.repeat(np.arange(self.num_blocks),
                                    self.block_sizes)
        return out

    @property
    def total_edges(self):
        return int(np.triu(self.counts).sum())


def fit_block_counts(g, assignment):
    """Tally g's edges by endpoint blocks, node i in block assignment[i]; an
    unused id is an empty block. Members are listed in ascending order."""
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (g.n,):
        raise ValueError(f"expected one block id per node of g (n={g.n})")
    if assignment.size and assignment.min() < 0:
        raise ValueError("block ids must be nonnegative")
    num_blocks = int(assignment.max()) + 1 if assignment.size else 0
    counts = np.zeros((num_blocks, num_blocks), dtype=np.int64)
    if g.num_edges:
        br = assignment[g.edges[:, 0]]
        bs = assignment[g.edges[:, 1]]
        np.add.at(counts, (br, bs), 1)
        np.add.at(counts, (bs, br), 1)
        # intra-block edges were double-counted by the symmetric tally
        np.fill_diagonal(counts, np.diag(counts) // 2)
    sizes = np.bincount(assignment, minlength=num_blocks)
    ends = np.cumsum(sizes)
    order = np.argsort(assignment, kind="stable")
    members = tuple(order[end - size:end] for size, end in zip(sizes, ends))
    return BlockEdgeCounts(num_blocks=num_blocks, block_sizes=sizes,
                           counts=counts, members=members, n=g.n)


def sample_sbm(c, seed=0):
    """Sample a simple undirected graph realizing the block-pair counts.

    fit_block_counts of the sample under the same partition reproduces c
    exactly, for every seed. Each nonzero block pair (r <= s, row-major) is
    one key range of a single `_sample_pair_keys` call, which draws them in
    that order; pairs with no edges draw nothing. The keys map to node
    pairs at once, through the members concatenated in block order.
    """
    r, s = c.pairs
    rows, cols = c.block_sizes[r], c.block_sizes[s]
    counts = c.counts[r, s]
    keys = _sample_pair_keys(np.random.default_rng(seed), counts, rows, cols,
                             r == s, min_draws=16)
    pair = np.repeat(np.arange(counts.size), counts)
    i, j = np.divmod(keys - (np.cumsum(rows * cols) - rows * cols)[pair],
                     cols[pair])
    first = np.cumsum(c.block_sizes) - c.block_sizes
    return Graph(c.n, np.stack([c.nodes[first[r][pair] + i],
                                c.nodes[first[s][pair] + j]], axis=1))
