"""Benchmark dataset registry and ingestion.

Datasets are plain edge-list text files ("u v" per line, '#' comments)
living under a root directory given by the LINKSSL_DATA_ROOT environment
variable or the `root` argument. Arbitrary node ids are remapped to dense
0-based integers in ascending id order, a pure function of the file, so
repeated loads agree and nothing is written beside it. Each registry entry
carries the expected node count and directed edge count (each undirected
edge counted twice), validated at load time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graphs import Graph, read_edge_pairs

DATA_ROOT_ENV = "LINKSSL_DATA_ROOT"

UNATTRIBUTED_SPLIT = (0.70, 0.10, 0.20)
ATTRIBUTED_SPLIT = (0.85, 0.05, 0.10)


@dataclass(frozen=True)
class DatasetInfo:
    """Manifest entry: name, file, directedness convention, expected sizes."""

    name: str
    filename: str
    num_nodes: int
    num_directed_edges: int  # undirected count is half of this
    attributed: bool = False

    @property
    def num_undirected_edges(self):
        return self.num_directed_edges // 2

    @property
    def split_fractions(self):
        return ATTRIBUTED_SPLIT if self.attributed else UNATTRIBUTED_SPLIT


REGISTRY = {
    info.name: info
    for info in (
        DatasetInfo("USAir", "USAir.txt", 332, 4252),
        DatasetInfo("NS", "NS.txt", 1589, 5484),
        DatasetInfo("PB", "PB.txt", 1222, 33428),
        DatasetInfo("Yeast", "Yeast.txt", 2375, 23386),
        DatasetInfo("Celegans", "Celegans.txt", 297, 4296),
        DatasetInfo("Power", "Power.txt", 4941, 13188),
        DatasetInfo("Router", "Router.txt", 5022, 12516),
        DatasetInfo("Ecoli", "Ecoli.txt", 1805, 29320),
        DatasetInfo("cora", "cora.txt", 2708, 10556, attributed=True),
        DatasetInfo("citeseer", "citeseer.txt", 3327, 9104, attributed=True),
    )
}

UNATTRIBUTED_NAMES = [n for n, i in REGISTRY.items() if not i.attributed]


def data_root(root=None):
    resolved = root or os.environ.get(DATA_ROOT_ENV)
    if not resolved:
        raise FileNotFoundError(
            f"no dataset root: pass root= or set {DATA_ROOT_ENV}")
    return Path(resolved)


def dataset_path(name, root=None):
    info = REGISTRY.get(name)
    filename = info.filename if info else f"{name}.txt"
    return data_root(root) / filename


def load_dataset(name, root=None):
    """Load a registered dataset, remapping ids and validating counts."""
    info = REGISTRY.get(name)
    if info is None:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(REGISTRY)}")
    path = dataset_path(name, root)
    if not path.exists():
        raise FileNotFoundError(
            f"dataset file {path} not found; see README for how to obtain "
            f"the benchmark edge lists")
    raw = read_edge_pairs(path)
    ids, remapped = np.unique(raw, return_inverse=True)
    g = Graph(max(ids.size, info.num_nodes), remapped.reshape(raw.shape))

    if g.n != info.num_nodes or g.num_edges != info.num_undirected_edges:
        raise ValueError(
            f"{name}: expected n={info.num_nodes}, "
            f"undirected edges={info.num_undirected_edges}; "
            f"loaded n={g.n}, edges={g.num_edges}")
    return g


def dataset_available(name, root=None):
    try:
        return dataset_path(name, root).exists()
    except FileNotFoundError:
        return False


def write_edge_list(path, edges, header=None):
    with open(path, "w") as fh:
        if header:
            fh.write(f"# {header}\n")
        for u, v in edges:
            fh.write(f"{u} {v}\n")


def convert_mat(mat_path, out_path, key="net"):
    """Convert a .mat adjacency file (sparse matrix under `key`) to the
    edge-list text format. Used to import the standard benchmark graphs.

    The edges are the upper triangle of the symmetrized nonzero pattern: an
    entry stored on either side of the diagonal is an edge, an explicitly
    stored zero is not, and the diagonal is dropped."""
    from scipy.io import loadmat
    from scipy import sparse as sp

    contents = loadmat(mat_path)
    if key not in contents:
        candidates = [k for k in contents if not k.startswith("__")]
        raise KeyError(f"{mat_path}: no {key!r} entry; found {candidates}")
    adj = sp.coo_matrix(contents[key])
    stored = adj.data != 0
    pairs = Graph(max(adj.shape),
                  np.stack([adj.row[stored], adj.col[stored]], axis=1)).edges
    write_edge_list(out_path, pairs, header=f"converted from {mat_path}")
    return pairs.shape[0]
