"""Seeded synthetic "twins" of the registry graphs.

A twin is a planted-partition microcanonical SBM sample drawn with
`linkssl.sbm.sample_sbm` at a registry entry's exact (n, m): 8 blocks of
near-equal size, about 80% of the edges inside blocks, the block-pair
counts spread over the available node pairs by largest remainder. Node ids
are written through a seeded injective relabelling into [1, 10 n], so that
`load_dataset` has a real id map to build and persist.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

NUM_BLOCKS = 8
INTRA_SHARE = 0.8


def _largest_remainder(total, weights):
    """Integers proportional to `weights` that sum exactly to `total`."""
    weights = np.asarray(weights, dtype=np.float64)
    exact = total * weights / weights.sum()
    counts = np.floor(exact).astype(np.int64)
    short = int(total - counts.sum())
    # ties broken by index so the split is a pure function of the inputs
    order = np.lexsort((np.arange(len(exact)), -(exact - counts)))
    counts[order[:short]] += 1
    return counts


def planted_counts(n, m, seed):
    """BlockEdgeCounts for an 8-block planted partition with m edges."""
    from linkssl.sbm import BlockEdgeCounts

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    sizes = _largest_remainder(n, np.ones(NUM_BLOCKS))
    assignment = rng.permutation(np.repeat(np.arange(NUM_BLOCKS), sizes))
    members = tuple(np.flatnonzero(assignment == r) for r in range(NUM_BLOCKS))
    intra_slots = sizes * (sizes - 1) // 2
    pairs = [(r, s) for r in range(NUM_BLOCKS)
             for s in range(r + 1, NUM_BLOCKS)]
    inter_slots = np.array([sizes[r] * sizes[s] for r, s in pairs])
    intra_total = int(round(INTRA_SHARE * m))
    intra = _largest_remainder(intra_total, intra_slots)
    inter = _largest_remainder(m - intra_total, inter_slots)
    counts = np.diag(intra)
    for (r, s), c in zip(pairs, inter):
        counts[r, s] = counts[s, r] = c
    return BlockEdgeCounts(num_blocks=NUM_BLOCKS, block_sizes=sizes,
                           counts=counts, members=members, n=n)


def write_twin(dataset, seed, root):
    """Sample the twin of `dataset` and write it as `<root>/<file>`.

    Returns a record of what was written: the twin seed, the edge count
    and the SHA-256 of the edge-list file. Any stale id map beside the file
    is removed so the next load rebuilds it from this edge list.
    """
    from linkssl.datasets import REGISTRY
    from linkssl.sbm import sample_sbm

    info = REGISTRY[dataset]
    n, m = info.num_nodes, info.num_undirected_edges
    graph = sample_sbm(planted_counts(n, m, seed),
                       seed=int(np.random.SeedSequence([seed, 1])
                                .generate_state(1)[0]))
    if graph.num_edges != m:
        raise RuntimeError(f"twin of {dataset} has {graph.num_edges} edges, "
                           f"expected {m}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    ids = 1 + rng.choice(10 * n, size=n, replace=False)
    lines = [f"# {dataset} twin: planted-partition SBM, seed {seed}\n"]
    lines += [f"{ids[u]} {ids[v]}\n" for u, v in graph.edges]
    text = "".join(lines).encode()
    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, info.filename)
    with open(path, "wb") as fh:
        fh.write(text)
    idmap = path + ".idmap"
    if os.path.exists(idmap):
        os.remove(idmap)
    return {"dataset": dataset, "twin_seed": seed, "n": n, "m": m,
            "edge_list_sha256": hashlib.sha256(text).hexdigest()}
