"""Microcanonical stochastic block model: fit per-block-pair edge counts
from a graph and a partition, then sample new simple graphs preserving
those counts exactly.

No degree correction: per-block-pair counts are exact, per-node degrees
are free. For each block pair the edge set is a uniform draw without
replacement from the admissible node pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        ids = np.sort(np.concatenate([np.arange(0), *self.members]))
        if not np.array_equal(ids, np.arange(self.n)):
            raise ValueError(f"members must partition [0, n={self.n})")
        over = np.argwhere(np.triu(c > self.slots()))
        if over.size:
            r, s = over[0]
            if r == s:
                raise ValueError(
                    f"intra-block count exceeds slots in block {r}")
            raise ValueError(
                f"inter-block count exceeds slots for pair ({r},{s})")

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
        for r, members in enumerate(self.members):
            out[members] = r
        return out

    @property
    def total_edges(self):
        return int(np.triu(self.counts).sum())


def fit_block_counts(g, b):
    """Tally g's edges by endpoint blocks under partition b."""
    if len(b.assignment) != g.n:
        raise ValueError("partition must cover every node of g")
    counts = np.zeros((b.num_blocks, b.num_blocks), dtype=np.int64)
    if g.num_edges:
        br = b.assignment[g.edges[:, 0]]
        bs = b.assignment[g.edges[:, 1]]
        np.add.at(counts, (br, bs), 1)
        np.add.at(counts, (bs, br), 1)
        # intra-block edges were double-counted by the symmetric tally
        np.fill_diagonal(counts, np.diag(counts) // 2)
    members = b.members()
    sizes = np.array([len(mm) for mm in members], dtype=np.int64)
    return BlockEdgeCounts(num_blocks=b.num_blocks, block_sizes=sizes,
                           counts=counts, members=members, n=g.n)


def _sample_block_pair(c, r, s, rng):
    """The c.counts[r, s] edges between blocks r and s (inside block r when
    r == s): distinct node pairs, uniform without replacement.

    Pair keys are lo * size + hi (lo < hi) inside a block and i * size_s + j
    across two blocks, over block-local indices.
    """
    rows, cols = c.members[r], c.members[s]
    keys = _sample_pair_keys(rng, int(c.counts[r, s]), rows.size, cols.size,
                             unordered=r == s, min_draws=16)
    return np.stack([rows[keys // cols.size], cols[keys % cols.size]], axis=1)


def sample_sbm(c, seed=0):
    """Sample a simple undirected graph realizing the block-pair counts.

    fit_block_counts of the sample under the same partition reproduces c
    exactly, for every seed. Block pairs are drawn in row-major order of the
    upper triangle; pairs with no edges draw nothing.
    """
    rng = np.random.default_rng(seed)
    edges = [np.zeros((0, 2), dtype=np.int64)]
    for r, s in zip(*np.nonzero(np.triu(c.counts))):
        edges.append(_sample_block_pair(c, r, s, rng))
    return Graph(c.n, np.concatenate(edges))

