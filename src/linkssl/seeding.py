"""Hierarchical, label-addressed seed derivation.

Every random sub-process (splitting, community detection, per-epoch
augmentation, parameter init, negative sampling, ...) draws its seed from
the run seed plus a path of string labels. Changing the run seed changes
every derived stream; changing a label changes only that stream. CRC32 of
the label text keeps the lineage stable across runs and platforms.
"""

from __future__ import annotations

import zlib

import numpy as np


def _entropy(root_seed, labels):
    ent = [int(root_seed) & 0xFFFFFFFF]
    for label in labels:
        ent.append(zlib.crc32(str(label).encode("utf-8")))
    return ent


def derive_seed(root_seed, *labels):
    """Deterministic 32-bit sub-seed for the labeled stream."""
    seq = np.random.SeedSequence(_entropy(root_seed, labels))
    return int(seq.generate_state(1, np.uint32)[0])


def derive_rng(root_seed, *labels):
    """Generator seeded from the labeled stream."""
    return np.random.default_rng(
        np.random.SeedSequence(_entropy(root_seed, labels)))

