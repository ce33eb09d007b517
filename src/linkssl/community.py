"""Community detection producing the block state for SBM-style augmentation.

Louvain is the one detector: implemented from scratch (iterated local
moving plus graph aggregation, resolution fixed at 1.0) and run by
`train_encoder` on the graph the augmentation's blocks describe.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

GAIN_TOLERANCE = 1e-7


@dataclass(frozen=True)
class BlockState:
    """A node -> block partition with dense 0-based block ids."""

    assignment: np.ndarray
    num_blocks: int

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.int64)
        object.__setattr__(self, "assignment", a)
        if a.size and (a.min() < 0 or a.max() >= self.num_blocks):
            raise ValueError("block ids must be dense in [0, num_blocks)")
        present = np.unique(a)
        if a.size and len(present) != self.num_blocks:
            raise ValueError("every block id in [0, num_blocks) must occur")

    def members(self):
        """Tuple of index arrays, one per block."""
        order = np.argsort(self.assignment, kind="stable")
        sorted_blocks = self.assignment[order]
        boundaries = np.searchsorted(sorted_blocks, np.arange(self.num_blocks + 1))
        return tuple(order[boundaries[b]:boundaries[b + 1]]
                     for b in range(self.num_blocks))


def relabel_dense(raw_assignment):
    """Relabel arbitrary block ids to dense 0-based ids by first occurrence."""
    mapping = {}
    out = np.empty(len(raw_assignment), dtype=np.int64)
    for i, b in enumerate(raw_assignment):
        if b not in mapping:
            mapping[b] = len(mapping)
        out[i] = mapping[b]
    return out, len(mapping)


def modularity(g, b):
    """Newman modularity Q = sum_c [ e_c/m - (d_c/2m)^2 ]."""
    if len(b.assignment) != g.n:
        raise ValueError("partition must cover every node")
    m = g.num_edges
    if m == 0:
        return 0.0
    assign = b.assignment
    intra = np.zeros(b.num_blocks)
    np.add.at(intra, assign[g.edges[:, 0]],
              (assign[g.edges[:, 0]] == assign[g.edges[:, 1]]).astype(float))
    block_degree = np.zeros(b.num_blocks)
    np.add.at(block_degree, assign, g.degrees().astype(float))
    return float(np.sum(intra / m - (block_degree / (2.0 * m)) ** 2))


def _local_move_pass(neighbors, self_weight, degree, community, comm_total,
                     comm_internal, two_m, order):
    """One sweep of Louvain local moving. Returns number of moves made."""
    moves = 0
    for node in order:
        current = community[node]
        k_i = degree[node]
        # weight from node to each adjacent community (excluding self-loops)
        links = {}
        for other, w in neighbors[node].items():
            c = community[other]
            links[c] = links.get(c, 0.0) + w

        comm_total[current] -= k_i
        w_current = links.get(current, 0.0)
        comm_internal[current] -= w_current + self_weight[node]

        best_comm = current
        best_gain = w_current - k_i * comm_total[current] / two_m
        for c, w_c in links.items():
            if c == current:
                continue
            gain = w_c - k_i * comm_total[c] / two_m
            if gain > best_gain + 1e-15 or (abs(gain - best_gain) <= 1e-15
                                            and c < best_comm):
                best_gain = gain
                best_comm = c

        comm_total[best_comm] += k_i
        comm_internal[best_comm] += links.get(best_comm, 0.0) + self_weight[node]
        community[node] = best_comm
        if best_comm != current:
            moves += 1
    return moves


def _aggregate(neighbors, self_weight, community):
    """Collapse communities into supernodes, summing edge weights."""
    labels, num = relabel_dense(community)
    new_neighbors = [dict() for _ in range(num)]
    new_self = [0.0] * num
    for node, nbrs in enumerate(neighbors):
        cu = labels[node]
        new_self[cu] += self_weight[node]
        for other, w in nbrs.items():
            if other < node:
                continue  # visit each undirected pair once
            cv = labels[other]
            if cu == cv:
                new_self[cu] += w
            else:
                new_neighbors[cu][cv] = new_neighbors[cu].get(cv, 0.0) + w
                new_neighbors[cv][cu] = new_neighbors[cv].get(cu, 0.0) + w
    return new_neighbors, new_self, labels


def louvain(g, seed=0):
    """Louvain partition of g; node visit order is shuffled by the seed.

    Iterates local moving and aggregation until the modularity gain of a
    full level drops below 1e-7.
    """
    if g.num_edges == 0:
        warnings.warn("louvain on an edgeless graph: every node is its own block")
        return BlockState(assignment=np.arange(g.n), num_blocks=g.n)

    rng = np.random.default_rng(seed)
    neighbors = [dict() for _ in range(g.n)]
    for u, v in g.edges:
        neighbors[u][int(v)] = neighbors[u].get(int(v), 0.0) + 1.0
        neighbors[v][int(u)] = neighbors[v].get(int(u), 0.0) + 1.0
    self_weight = [0.0] * g.n
    two_m = 2.0 * g.num_edges

    # mapping from original nodes to current supernode labels
    node_to_super = np.arange(g.n)
    prev_q = None

    while True:
        size = len(neighbors)
        degree = [sum(nbrs.values()) + 2.0 * self_weight[i]
                  for i, nbrs in enumerate(neighbors)]
        community = list(range(size))
        comm_total = degree.copy()
        comm_internal = [self_weight[i] for i in range(size)]

        while True:
            order = rng.permutation(size)
            if __debug__:
                q_before = _weighted_modularity(community, comm_internal,
                                                comm_total, two_m)
            moves = _local_move_pass(neighbors, self_weight, degree, community,
                                     comm_total, comm_internal, two_m, order)
            if __debug__:
                q_after = _weighted_modularity(community, comm_internal,
                                               comm_total, two_m)
                assert q_after >= q_before - 1e-9, "local move decreased Q"
            if moves == 0:
                break

        q_level = _weighted_modularity(community, comm_internal, comm_total,
                                       two_m)
        neighbors, self_weight, labels = _aggregate(neighbors, self_weight,
                                                    community)
        node_to_super = labels[node_to_super]
        if prev_q is not None and q_level - prev_q < GAIN_TOLERANCE:
            break
        if len(neighbors) == size:
            break
        prev_q = q_level

    assignment, num_blocks = relabel_dense(node_to_super)
    return BlockState(assignment=assignment, num_blocks=num_blocks)


def _weighted_modularity(community, comm_internal, comm_total, two_m):
    labels = set(community)
    q = 0.0
    for c in labels:
        q += 2.0 * comm_internal[c] / two_m - (comm_total[c] / two_m) ** 2
    return q

