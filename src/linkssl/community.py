"""Community detection producing the partition for SBM-style augmentation.

Louvain is the one detector: implemented from scratch (iterated local
moving plus graph aggregation, resolution fixed at 1.0) and run by
`train_encoder` on the graph the augmentation's blocks describe.
"""

from __future__ import annotations

import warnings

import numpy as np

from .sbm import fit_block_counts

GAIN_TOLERANCE = 1e-7


def relabel_dense(raw_assignment):
    """Relabel arbitrary block ids to dense 0-based ids by first occurrence."""
    mapping = {}
    out = np.empty(len(raw_assignment), dtype=np.int64)
    for i, b in enumerate(raw_assignment):
        if b not in mapping:
            mapping[b] = len(mapping)
        out[i] = mapping[b]
    return out, len(mapping)


def modularity(g, assignment):
    """Newman modularity Q = sum_c [ e_c/m - (d_c/2m)^2 ], read from the
    block-pair counts of the partition putting node i in assignment[i]."""
    counts = fit_block_counts(g, assignment).counts
    m = g.num_edges
    if m == 0:
        return 0.0
    intra = np.diag(counts)
    block_degree = counts.sum(axis=1) + intra
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
    """Louvain partition of g as an int64 array of dense block ids, one per
    node; node visit order is shuffled by the seed.

    Iterates local moving and aggregation until the modularity gain of a
    full level drops below 1e-7.
    """
    if g.num_edges == 0:
        warnings.warn("louvain on an edgeless graph: every node is its own block")
        return np.arange(g.n, dtype=np.int64)

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

    return relabel_dense(node_to_super)[0]


def _weighted_modularity(community, comm_internal, comm_total, two_m):
    labels = set(community)
    q = 0.0
    for c in labels:
        q += 2.0 * comm_internal[c] / two_m - (comm_total[c] / two_m) ** 2
    return q

